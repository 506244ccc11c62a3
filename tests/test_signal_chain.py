import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import freqz, get_window

from oracles import (
    dark_port_grid,
    dark_port_profile,
    direct_power_spectrum,
    direct_synthesize_run,
    frequency_response,
    lfilter_cascade,
    per_row_csv,
    serial_spectrum_pair,
    stage_coefficients,
)
from wvfreq import cli, recipes, signal_chain
from wvfreq.config import ExperimentConfig, config_from_mapping, resolve
from wvfreq.dispersion import kick_of_shift
from wvfreq.errors import AliasingError, ValidationError
from wvfreq.interferometer import dark_port_split_probability
from wvfreq.noise import split_noise
from wvfreq.recipes import run_spectrum_pair
from wvfreq.signal_chain import (
    DRAW_BLOCK,
    FINISH_BLOCK,
    IMPULSE_TAIL,
    POISSON_MEAN_MAX,
    PROFILE_CACHE_SAMPLES,
    SCALAR_RUN,
    STAGE_Q,
    FilterSpec,
    ModulationConfig,
    NoiseExtensions,
    RecordPlan,
    TimeSeries,
    _draw_counts,
    bandpass,
    cascade_response,
    extract_peaks,
    fft_length,
    hann_window,
    lock_in_kernel,
    modulation_period,
    power_spectrum,
    slope_fit,
    split_profile,
    synthesize_run,
    timeseries_from_csv,
    timeseries_to_csv,
)
from wvfreq import units
from wvfreq.units import CSV_BLOCK_ROWS, csv_columns, csv_text

FS = 1000.0
# (sample_rate, duration, mod_frequency, period) of one-second records that end
# one sample short of a finishing block, on its edge and one sample past it,
# and of a 30 s record whose last of four blocks is partial.
FINISH_BLOCK_EDGES = [
    (float(FINISH_BLOCK - 1), 1.0, 10.0, FINISH_BLOCK - 1),
    (float(FINISH_BLOCK), 1.0, 10.0, FINISH_BLOCK // 2),
    (float(FINISH_BLOCK + 1), 1.0, 10.0, FINISH_BLOCK + 1),
    (FS, 30.0, 10.0, 100),
]


@pytest.fixture(scope="module")
def physics():
    return resolve(ExperimentConfig())


def plan_for(physics, duration, sample_rate=FS, mod_frequency=10.0, **needs):
    """The record plan ``synthesize_run`` builds for these arguments at the config's photons."""
    return RecordPlan.build(
        physics, duration, sample_rate, physics.n_photons_per_sample(), mod_frequency,
        NoiseExtensions(), **needs,
    )


def sine_series(freq, amplitude=1.0, duration=10.0, fs=FS, phase=0.0):
    t = np.arange(int(duration * fs)) / fs
    return TimeSeries(sample_rate=fs, samples=amplitude * np.sin(2 * np.pi * freq * t + phase))


def steady_amplitude(series, settle_fraction=0.5):
    tail = series.samples[int(series.samples.size * settle_fraction) :]
    return np.abs(tail).max()


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestBandpass:
    def test_dc_rejection(self):
        spec = FilterSpec()
        series = TimeSeries(sample_rate=FS, samples=np.ones(8000))
        out = bandpass(series, spec)
        tail = np.abs(out.samples[4000:]).max()
        assert tail <= 1e-3 * spec.gain

    def test_center_frequency_gain(self):
        spec = FilterSpec()
        out = bandpass(sine_series(10.0), spec)
        assert steady_amplitude(out) == pytest.approx(spec.gain, rel=0.01)

    def test_two_octave_attenuation(self):
        spec = FilterSpec()
        ref = steady_amplitude(bandpass(sine_series(10.0), spec))
        two_up = steady_amplitude(bandpass(sine_series(40.0), spec))
        attenuation_db = 20 * np.log10(two_up / ref)
        assert attenuation_db == pytest.approx(-24.0, abs=2.0)

    def test_response_matches_measured_tones(self):
        # Time-domain amplitude vs the designed transfer function, 0.1 dB.
        spec = FilterSpec()
        freqs = np.linspace(2.0, 100.0, 20)
        designed = np.abs(frequency_response(spec, freqs, FS))
        for f, mag in zip(freqs, designed):
            measured = steady_amplitude(bandpass(sine_series(f, duration=20.0), spec))
            assert 20 * np.log10(measured / mag) == pytest.approx(0.0, abs=0.1)

    def test_six_db_per_octave_asymptote(self):
        # Skirts of the 2-stage cascade fall ~12 dB/octave (asymptote is
        # approached from above; bilinear warping adds a little near Nyquist).
        spec = FilterSpec()
        mags = np.abs(frequency_response(spec, np.array([40.0, 80.0]), FS))
        assert 20 * np.log10(mags[0] / mags[1]) == pytest.approx(12.0, abs=1.5)

    def test_digital_matches_analog_prototype(self):
        # Away from Nyquist the discretized stage tracks the continuous
        # prototype (w/Q) / sqrt((1 - w^2)^2 + (w/Q)^2), w = f/f0.
        spec = FilterSpec()
        for f in (2.0, 5.0, 10.0, 20.0, 40.0, 80.0):
            w = f / spec.center
            analog = (w / 1.0) / np.sqrt((1 - w**2) ** 2 + w**2)
            digital = np.abs(frequency_response(spec, np.array([f]), FS))[0]
            per_stage = digital ** (1 / spec.stages) / spec.gain ** (1 / spec.stages)
            assert 20 * np.log10(per_stage / analog) == pytest.approx(0.0, abs=0.5)

    # The four operating points the closed form is held to: the default, an
    # incommensurate DAQ rate, and 100x and 1000x oversampling.
    OPERATING_POINTS = [(10.0, FS), (10.0, 1024.0), (1.0, FS), (10.0, 1e4)]

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
    )
    @pytest.mark.parametrize("stages", [2, 4])
    @pytest.mark.parametrize("center,sample_rate", OPERATING_POINTS)
    def test_response_matches_long_double_closed_form(self, center, sample_rate, stages):
        # The same closed form, gain * ((i u/Q) / (1 - u^2 + i u/Q))^stages with
        # u = tan(w/2) / tan(pi center / fs), evaluated in long double over the
        # whole rfft grid: the float64 response keeps its relative precision
        # where the poles crowd z = 1.
        spec = FilterSpec(center=center, stages=stages)
        n_fft, response = cascade_response(spec, sample_rate, 3 * int(sample_rate))
        pi = 4 * np.arctan(np.longdouble(1))
        r = np.tan(pi * np.longdouble(center) / np.longdouble(sample_rate))
        u = np.tan(pi * np.arange(n_fft // 2 + 1, dtype=np.longdouble) / n_fft) / r
        iq = 1j * u / np.longdouble(STAGE_Q)
        reference = spec.gain * (iq / (1 - u * u + iq)) ** stages
        assert np.abs(response - reference).max() <= 1e-14 * np.abs(reference).max()

    @pytest.mark.parametrize("stages", [1, 2, 4])
    @pytest.mark.parametrize("center", [1.0, 3.7, 10.0, 100.0])
    def test_response_matches_freqz_of_bilinear(self, center, stages):
        # Oracle: scipy.signal.freqz of scipy.signal.bilinear's (b, a) for the
        # prewarped prototype, over the rfft grid at 20x to 100x oversampling.
        # The oracle's own rounding of (b, a) grows as the square of the
        # oversampling: the worst case measured was 2.3e-13 at 100x, against
        # 6e-15 at 20x.
        spec = FilterSpec(center=center, stages=stages, gain=1.0)
        for ratio in (20.0, 30.0, 50.0, 70.0, 100.0):
            sample_rate = center * ratio
            n_fft, response = cascade_response(spec, sample_rate, int(3 * sample_rate))
            b, a = stage_coefficients(spec, sample_rate)
            grid = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
            reference = freqz(b, a, worN=grid, fs=sample_rate)[1] ** stages
            assert np.abs(response - reference).max() <= 5e-13 * np.abs(reference).max()

    @pytest.mark.parametrize(
        "sample_rate,n,stages",
        [
            (FS, 3000, 1),
            (FS, 3000, 2),
            (FS, 3000, 3),
            (FS, 3037, 4),
            (FS, 100_000, 3),
            (FS, 100_000, 4),
            (1024.0, 3072, 2),
            (1024.0, 4643, 4),
            (1e4, 30_000, 2),
            (1e4, 31_683, 4),
        ],
    )
    def test_unity_gain_at_the_center(self, sample_rate, n, stages):
        # Records whose FFT grid has a bin on the 10 Hz center: the prewarped
        # stage's gain is 1 there by construction, and its phase 0 to a few ulp
        # per stage.
        spec = FilterSpec(stages=stages)
        n_fft, response = cascade_response(spec, sample_rate, n)
        k = n_fft * spec.center / sample_rate
        assert k == int(k)
        at_center = response[int(k)] / spec.gain
        assert abs(abs(at_center) - 1.0) <= 1e-15
        assert abs(at_center - 1.0) <= 1e-15 * stages

    @pytest.mark.parametrize("stages", [1, 2, 4])
    @pytest.mark.parametrize("center,sample_rate", OPERATING_POINTS + [(10.0, 200.0)])
    def test_padding_follows_the_pole_radius(self, center, sample_rate, stages):
        # The padding is ceil(ln 1e-20 / ln|z|) * (stages + 1) samples, with |z|
        # the pole radius of scipy's (b, a): a record that many samples short
        # of a 5-smooth length gets exactly that length, and one sample more
        # does not.
        spec = FilterSpec(center=center, stages=stages)
        b, a = stage_coefficients(spec, sample_rate)
        pole = np.abs(np.roots(a)).max()
        padding = int(np.ceil(np.log(IMPULSE_TAIL) / np.log(pole) * (stages + 1)))
        n_fft = fft_length(3 * int(sample_rate) + padding)
        assert cascade_response(spec, sample_rate, n_fft - padding)[0] == n_fft
        assert cascade_response(spec, sample_rate, n_fft - padding + 1)[0] > n_fft

    def test_aliasing_guard(self):
        # A centre at or above the Nyquist frequency, by the record plan's rule.
        for sample_rate in (20.0, 19.0):
            message = (
                f"a 10.0 Hz drive is at or above the {sample_rate / 2} Hz Nyquist frequency "
                f"of a {sample_rate} Hz sample rate"
            )
            with pytest.raises(AliasingError, match=f"^{re.escape(message)}$"):
                bandpass(TimeSeries(sample_rate=sample_rate, samples=np.zeros(64)), FilterSpec())

    @pytest.mark.parametrize(
        "sample_rate,duration,stages",
        [
            (FS, 3.0, 2),  # the default sweep-point record
            (FS, 100.0, 2),
            (1024.0, 3.0, 2),
            (FS, 3.0, 1),
            (FS, 3.0, 3),
            (FS, 3.0, 4),
        ],
    )
    def test_matches_lfilter_oracle(self, physics, sample_rate, duration, stages):
        # A drawn record at the smallest sweep amplitude, noise and all.
        raw = synthesize_run(
            physics.config.sweep_min, duration, sample_rate, physics,
            physics.n_photons_per_sample(), seed=12,
        )
        spec = FilterSpec(stages=stages)
        expected = lfilter_cascade(raw, spec)
        out = bandpass(raw, spec)
        assert out.samples.shape == expected.shape
        assert out.sample_rate == raw.sample_rate
        assert np.abs(out.samples - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("stages", [1, 2, 3, 4])
    def test_causal_from_zero_state(self, stages):
        spec = FilterSpec(stages=stages)
        n = 3000
        n_fft, _ = cascade_response(spec, FS, n)
        # The padding outlasts the recursive impulse response: every sample the
        # circular convolution can wrap onto the record is below IMPULSE_TAIL.
        impulse = np.zeros(n_fft)
        impulse[0] = 1.0
        h = lfilter_cascade(TimeSeries(sample_rate=FS, samples=impulse), spec)
        peak = np.abs(h).max()
        assert np.abs(h[n_fft - n :]).max() <= 1e-20 * peak
        # So the output before an impulse is rounding only, and after it the
        # impulse response.
        for j in (1, 1500, n - 1):
            x = np.zeros(n)
            x[j] = 1.0
            y = bandpass(TimeSeries(sample_rate=FS, samples=x), spec).samples
            assert np.abs(y[:j]).max() <= 1e-14 * peak
            assert np.abs(y[j:] - h[: n - j]).max() <= 1e-13 * peak

    def test_response_is_cached_per_record_length(self):
        spec = FilterSpec()
        cascade_response.cache_clear()
        for n in (3000, 3000, 5000, 3000):
            bandpass(TimeSeries(sample_rate=FS, samples=np.ones(n)), spec)
        info = cascade_response.cache_info()
        assert (info.hits, info.misses) == (2, 2)

    @pytest.mark.parametrize(
        "center,stages", [(1e-14, 2), (1e-30, 2), (1e-300, 2), (5e-324, 2), (10.0, 10**18)]
    )
    def test_refuses_a_padding_no_array_can_hold(self, center, stages):
        # 8 bytes a sample: a padded FFT length over intp max // 8 is refused
        # before anything is allocated, including a stage that does not decay
        # in float64 at all (5e-324 Hz: r = 0).
        spec = FilterSpec(center=center, stages=stages)
        with mock.patch.object(np, "arange", side_effect=AssertionError):
            with pytest.raises(ValidationError, match="rings longer than a float64 array can hold"):
                cascade_response(spec, FS, 3000)

    def test_fft_length_is_the_next_5_smooth_number(self):
        smooth = [m for m in range(1, 5000) if _is_5_smooth(m)]
        for n in range(1, 4000):
            assert fft_length(n) == next(m for m in smooth if m >= n)
        assert fft_length(3000 + 4398) == 7500
        assert fft_length(100_000 + 4398) == 104_976

    def test_spec_validation(self):
        for kwargs, message in (
            ({"center": -1.0}, "filter_center must be positive, got -1.0"),
            ({"stages": 0}, "filter_stages must be >= 1, got 0"),
            ({"gain": 0.0}, "filter_gain must be positive, got 0.0"),
        ):
            with pytest.raises(ValidationError) as info:
                FilterSpec(**kwargs)
            assert str(info.value) == message


class TestExtractPeaks:
    def test_noiseless_sine(self):
        # 100 samples per cycle hit the crest exactly: zero bias, zero spread.
        series = sine_series(10.0, amplitude=2.5, duration=2.5)
        mean, std = extract_peaks(series, 0.1, 25)
        assert mean == pytest.approx(2.5, rel=1e-12)
        assert std == 0.0

    def test_offset_phase_bias_bound(self):
        # Off-grid crest: worst-case discrete-sampling bias is cos(pi/N).
        series = sine_series(10.0, amplitude=1.0, duration=2.5, phase=0.37)
        mean, _ = extract_peaks(series, 0.1, 25)
        assert np.cos(np.pi / 100) <= mean <= 1.0

    def test_uses_last_cycles(self):
        samples = np.zeros(1000)
        samples[-100:] = 7.0
        series = TimeSeries(sample_rate=FS, samples=samples)
        mean, _ = extract_peaks(series, 0.1, 1)
        assert mean == 7.0

    def test_too_few_cycles(self):
        series = sine_series(10.0, duration=1.0)
        with pytest.raises(ValidationError, match="complete cycles"):
            extract_peaks(series, 0.1, 25)

    @pytest.mark.parametrize("cycle_period", [1e-20, 1e-3 / 3, 0.0])
    def test_cycle_not_a_whole_number_of_samples(self, cycle_period):
        # 1e-20 s holds 1e-17 samples, which rounds to a whole zero.
        series = sine_series(10.0, duration=1.0)
        with pytest.raises(ValidationError, match="not a whole number of samples"):
            extract_peaks(series, cycle_period, 2)

    def test_std_of_mean_scaling(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(0.0, 1.0, 40000 * 4)
        series = TimeSeries(sample_rate=FS, samples=noise)
        stds = {}
        for n in (25, 100, 400):
            _, stds[n] = extract_peaks(series, 0.1, n)
        assert stds[25] / stds[100] == pytest.approx(2.0, rel=0.30)
        assert stds[100] / stds[400] == pytest.approx(2.0, rel=0.30)

    def test_biased_high_at_the_smallest_sweep_amplitude(self, physics):
        # No request reads peaks any more. Noise lifts each cycle's maximum,
        # most at the smallest amplitude: at 743 kHz over 32 seeds the peak
        # mean reads about 1.13x the lock-in reading of the same records,
        # whose own standard error is 1.3%.
        spec = FilterSpec()
        kernel = lock_in_kernel(spec, FS, 3000, 100, 25)
        peaks, lock_in = [], []
        for seed in range(0, 32_000, 1000):
            raw = synthesize_run(743e3, 3.0, FS, physics, physics.n_photons_per_sample(), seed)
            peaks.append(extract_peaks(bandpass(raw, spec), 0.1, 25)[0] / spec.gain)
            lock_in.append(kernel @ raw.samples)
        assert np.mean(peaks) >= 1.1 * np.mean(lock_in)


def demodulated(record, spec, mod_frequency, n_cycles):
    """2 mean(y sin wt) over the last ``n_cycles`` cycles of y = bandpass(record), / gain."""
    y = bandpass(record, spec).samples
    n_window = n_cycles * int(round(record.sample_rate / mod_frequency))
    t = np.arange(y.size - n_window, y.size) / record.sample_rate
    return 2.0 * np.mean(y[-n_window:] * np.sin(2.0 * np.pi * mod_frequency * t)) / spec.gain


class TestLockInKernel:
    @pytest.mark.parametrize(
        "fields",
        [{}, {"filter_stages": 1}, {"filter_stages": 3}, {"sample_rate": 2000.0}, {"n_cycles": 1}],
        ids=["defaults", "one-stage", "three-stage", "2kHz", "one-cycle"],
    )
    def test_sweep_reads_the_demodulated_bandpass(self, fields):
        # The sweep folds the filter and the lock-in into one dot product per
        # point; the oracle filters and demodulates each of its records.
        cfg = ExperimentConfig(**fields)
        physics = resolve(cfg)
        table, _ = recipes.run_slope_sweep(cfg)
        duration = (cfg.n_cycles + cfg.settle_cycles) / cfg.mod_frequency
        for i, dnu in enumerate(table["dnu_hz"]):
            record = synthesize_run(
                dnu, duration, cfg.sample_rate, physics, physics.n_photons_per_sample(),
                cfg.seed + i,
            )
            expected = demodulated(record, physics.filter_spec, cfg.mod_frequency, cfg.n_cycles)
            assert table["deflection_m"][i] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_errors_are_the_closed_form(self, physics):
        # sqrt(2 / N_w) sigma_x over the 2500 window samples; at the default
        # drives p stays within 6e-6 of 1/2, so sigma_x is c / sqrt(n) to 1e-9.
        table, _ = recipes.run_slope_sweep(ExperimentConfig())
        plan = plan_for(physics, 3.0)
        sigma_x = split_noise(plan.calibration, plan.n_detected, 0.5)
        np.testing.assert_allclose(
            table["std_of_mean_m"], np.sqrt(2.0 / 2500) * sigma_x, rtol=1e-9
        )

    def test_record_of_too_few_whole_cycles(self):
        # 2999 samples hold 29 whole 100-sample cycles.
        with pytest.raises(ValidationError) as info:
            lock_in_kernel(FilterSpec(), FS, 2999, 100, 30)
        assert str(info.value) == "a record of 29 whole cycles cannot give 30"

    def test_built_once_and_shared_read_only(self):
        lock_in_kernel.cache_clear()
        recipes.run_slope_sweep(ExperimentConfig())
        assert lock_in_kernel.cache_info()[:2] == (0, 1)  # (hits, misses)
        kernel = lock_in_kernel(FilterSpec(), FS, 3000, 100, 25)
        assert lock_in_kernel.cache_info()[:2] == (1, 1)
        assert kernel.shape == (3000,) and not kernel.flags.writeable
        with pytest.raises(ValueError):
            kernel[0] = 0.0


class TestSlopeFit:
    def test_exact_line(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, _ = slope_fit(x, 3.0 * x, np.full(4, 0.5))
        assert slope == pytest.approx(3.0, rel=1e-14)

    def test_weighted_normal_equations(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.1, 0.9, 2.2])
        e = np.array([0.1, 0.2, 0.1])
        w = 1 / e**2
        sw, sx, sy = w.sum(), (w * x).sum(), (w * y).sum()
        sxx, sxy = (w * x * x).sum(), (w * x * y).sum()
        expected_slope = (sw * sxy - sx * sy) / (sw * sxx - sx**2)
        expected_err = np.sqrt(sw / (sw * sxx - sx**2))
        slope, err = slope_fit(x, y, e)
        assert slope == pytest.approx(expected_slope, rel=1e-12)
        assert err == pytest.approx(expected_err, rel=1e-12)

    def test_permutation_bit_identical(self):
        rng = np.random.default_rng(0)
        x = rng.random(9)
        y = 2.0 * x + rng.normal(0, 0.1, 9)
        e = rng.random(9) + 0.5
        base = slope_fit(x, y, e)
        for _ in range(5):
            perm = rng.permutation(9)
            assert slope_fit(x[perm], y[perm], e[perm]) == base

    @pytest.mark.parametrize("j", [1022, -900])
    def test_deflection_scale_is_exact(self, j):
        # Scaled by 2^1022 the normal equations' sw * sum(w x y) would
        # overflow unless the fit scales the deflections back first.
        rng = np.random.default_rng(3)
        x = np.linspace(7.43e5, 7.4e6, 6)
        e = 1e-14 * (1.0 + rng.random(6))
        y = 9.1e-18 * 78.0 * x + rng.normal(0.0, 1e-14, 6)
        slope, error = slope_fit(x, y, e)
        with np.errstate(all="raise"):
            scaled_slope, scaled_error = slope_fit(x, np.ldexp(y, j), e)
        assert scaled_slope == np.ldexp(slope, j)
        assert scaled_error == error

    @pytest.mark.parametrize("k", [600, -600])
    def test_error_scale_is_exact(self, k):
        # A sweep's shifts, deflections and errors: scaled by 2^600 the
        # weights 1/err^2 would underflow, by 2^-600 overflow, unless the
        # fit scales them back first.
        rng = np.random.default_rng(3)
        x = np.linspace(7.43e5, 7.4e6, 6)
        e = 1e-14 * (1.0 + rng.random(6))
        y = 9.1e-18 * 78.0 * x + rng.normal(0.0, 1e-14, 6)
        slope, error = slope_fit(x, y, e)
        scaled_slope, scaled_error = slope_fit(x, y, np.ldexp(e, k))
        assert scaled_slope == slope
        assert scaled_error == np.ldexp(error, k)

    def test_degenerate(self):
        with pytest.raises(ValidationError, match="degenerate"):
            slope_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            slope_fit([1.0], [2.0], [1.0])
        with pytest.raises(ValidationError, match="errors"):
            slope_fit([1.0, 2.0], [1.0, 2.0], [1.0, 0.0])


class TestPowerSpectrum:
    def test_pure_tone(self):
        spec = power_spectrum(sine_series(10.0, duration=20.0))
        peak = np.argmax(spec.power_db)
        assert spec.frequencies[peak] == pytest.approx(10.0, abs=spec.resolution_bw)
        # Everything beyond the main lobe (+-1 bin for a bin-centered hann
        # tone) sits far below the carrier.
        mask = np.abs(np.arange(spec.power_db.size) - peak) > 1
        assert spec.power_db[mask].max() <= -40.0

    def test_mean_square_convention(self):
        spec = power_spectrum(sine_series(10.0, amplitude=2.0, duration=20.0))
        peak_power = spec.ref_power
        assert peak_power == pytest.approx(2.0**2 / 2, rel=0.01)

    def test_segment_averaging_reduces_scatter(self):
        rng = np.random.default_rng(1)
        series = TimeSeries(sample_rate=FS, samples=rng.normal(0, 1, 64000))
        single = power_spectrum(series, segments=1)
        averaged = power_spectrum(series, segments=16)
        band = lambda s: s.power_db[(s.frequencies > 100) & (s.frequencies < 400)]
        assert band(averaged).std() < band(single).std() / 2

    @pytest.mark.parametrize("n", [16, 17, 512, 1000, 1024, 6250])
    def test_hann_window_bit_exact(self, n):
        assert np.array_equal(hann_window(n), get_window("hann", n))

    def test_bit_exact_against_get_window_periodogram(self):
        rng = np.random.default_rng(7)
        series = TimeSeries(sample_rate=FS, samples=rng.normal(0, 1, 100_000))
        segments = 16
        spec = power_spectrum(series, segments=segments)
        # The same periodogram, step for step, with scipy's window.
        seg_len = series.samples.size // segments
        win = get_window("hann", seg_len)
        power = np.zeros(seg_len // 2 + 1)
        for chunk in series.samples[: segments * seg_len].reshape(segments, seg_len):
            power += np.abs(np.fft.rfft(chunk * win) / win.sum()) ** 2
        power /= segments
        power[1:] *= 2.0
        power[-1] /= 2.0
        ref = power.max()
        assert spec.ref_power == ref
        assert np.array_equal(spec.power_db, 10.0 * np.log10(power / ref))
        assert spec.resolution_bw == FS * (win**2).sum() / win.sum() ** 2

    @pytest.mark.parametrize(
        "n,segments,sample_rate,zeros",
        [
            (100_000, 16, FS, ()), (2048, 4, 1024.0, ()), (1001, 1, 1000.5, ()),
            (40_000, 2, FS, ()),
            # Samples left after the last whole segment, odd segments, the shortest one.
            (100_003, 16, FS, ()), (99_999, 3, FS, ()), (16, 1, FS, ()), (17, 1, FS, ()),
            # Exact zeros, the one input where scaling by a multiply and numpy's
            # complex division differ before squaring (in a zero's sign): a -0.0
            # and a +0.0 segment beside noise, and a record of -0.0 alone.
            (4096, 4, FS, ((1024, 2048, -0.0), (2048, 3072, 0.0))),
            (1000, 1, FS, ((0, 1000, -0.0),)),
        ],
    )
    def test_matches_per_segment_oracle(self, n, segments, sample_rate, zeros):
        # The batched transform gives the bits of one transform per segment,
        # summed in segment order.
        samples = np.random.default_rng(n).normal(0, 1, n)
        for start, stop, zero in zeros:
            samples[start:stop] = zero
        series = TimeSeries(sample_rate, samples)
        expected = direct_power_spectrum(series, segments)
        spec = power_spectrum(series, segments)
        assert spec.frequencies.tobytes() == expected.frequencies.tobytes()
        assert spec.power_db.tobytes() == expected.power_db.tobytes()
        assert spec.resolution_bw == expected.resolution_bw
        assert spec.ref_power == expected.ref_power

    def test_rejects_empty_and_bad_segments(self):
        with pytest.raises(ValidationError):
            power_spectrum(TimeSeries(sample_rate=FS, samples=np.zeros(8)))
        with pytest.raises(ValidationError):
            power_spectrum(TimeSeries(sample_rate=FS, samples=np.zeros(64)), segments=32)


class TestSynthesizeRun:
    def test_undriven_statistics(self, physics, split_std_error):
        # Noise-only run: zero mean, and the sample spread matches the
        # split-detection standard error.
        n_per_sample = physics.n_photons_per_sample()
        series = synthesize_run(0.0, 10.0, FS, physics, n_per_sample, seed=21)
        n = series.samples.size
        assert n == 10_000
        sample_std = series.samples.std(ddof=1)
        assert abs(series.samples.mean()) <= 4 * sample_std / np.sqrt(n)
        x = dark_port_grid(physics.state)
        profile = dark_port_profile(0.0, physics.state, x)
        p_ps = np.sin(physics.state.phi / 2) ** 2
        predicted = split_std_error(x, profile, int(round(p_ps * n_per_sample)))
        assert sample_std == pytest.approx(predicted, rel=0.10)

    def test_linearity_of_fundamental(self, physics):
        # Doubling the drive doubles the 10 Hz quadrature amplitude within 1%.
        n_per_sample = physics.n_photons_per_sample()

        def fundamental(dnu):
            series = synthesize_run(dnu, 10.0, FS, physics, n_per_sample, seed=300)
            t = series.times()
            z = series.samples * np.exp(-2j * np.pi * 10.0 * t)
            return 2 * np.abs(z.mean())

        ratio = fundamental(40e6) / fundamental(20e6)
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_whole_cycles_required(self, physics):
        with pytest.raises(ValidationError, match="whole number"):
            synthesize_run(1e6, 1.05, FS, physics, physics.n_photons_per_sample(), 0)

    def test_photon_floor(self, physics):
        with pytest.raises(ValidationError, match="too few"):
            synthesize_run(1e6, 1.0, FS, physics, 100.0, 0)

    def test_record_shorter_than_one_sample(self, physics):
        # one 10 Hz cycle at 5 Hz rounds to zero samples
        with pytest.raises(ValidationError, match="holds no sample"):
            synthesize_run(1e6, 0.1, 5.0, physics, physics.n_photons_per_sample(), 0)

    def test_photon_count_beyond_int64(self, physics):
        with pytest.raises(ValidationError, match="int64"):
            synthesize_run(1e6, 0.1, FS, physics, 1e30, 0)

    def test_dark_count_mean_beyond_poisson_range(self, physics):
        n_per_sample = physics.n_photons_per_sample()
        n_detected = round(0.013 * n_per_sample)
        largest = (POISSON_MEAN_MAX - n_detected) * FS
        ok = synthesize_run(
            0.0, 0.1, FS, physics, n_per_sample, 0,
            extensions=NoiseExtensions(dark_count_rate=largest * (1 - 1e-9)),
        )
        assert np.all(np.isfinite(ok.samples))
        with pytest.raises(ValidationError, match="exceed the Poisson draw's int64 range"):
            synthesize_run(
                0.0, 0.1, FS, physics, n_per_sample, 0,
                extensions=NoiseExtensions(dark_count_rate=largest * (1 + 1e-9)),
            )

    def test_kick_bound_names_offender(self, physics):
        from wvfreq.errors import WeakValueValidityError

        with pytest.raises(WeakValueValidityError, match="range of the dark-port kernel"):
            synthesize_run(
                6e12, 1.0, FS, physics, physics.n_photons_per_sample(), 0
            )

    @pytest.mark.parametrize(
        "sample_rate,duration,mod_frequency,period",
        [
            (FS, 3.0, 10.0, 100),  # 30 whole periods: one block of 100 phases
            (1024.0, 2.0, 10.0, 512),  # 4 whole periods
            (1024.0, 1.1, 10.0, 512),  # 1126 samples: 2 periods by phase, then 102 samples
            (1000.5, 1.0, 10.0, 2001),  # 1000 samples, shorter than one period
            (1000.5, 3.0, 10.0, 2001),  # 3002 samples: 1 period and 1001 samples
            (FS, 10.0, 0.1, 1000 * 2**55),  # 0.1 is not dyadic: the period outlasts the record
            (1024.0, 20.0, 10.0, 512),  # 40 periods: one block of 512 phases
            (FS, 70.0, 10.0, 100),  # 700 periods: a block of 93 phases, then 7 phases
            (1024.0, 128.0, 10.0, 512),  # 256 periods: two 65536-sample blocks of 256 phases
            (FS, 70.0, 0.1, 1000 * 2**55),  # one period longer than a block: 65536 + 4464
            (FS, (SCALAR_RUN - 1) / 10.0, 10.0, 100),  # each phase one variate short of scalar
            (FS, SCALAR_RUN / 10.0, 10.0, 100),  # each phase a scalar-p run
            *FINISH_BLOCK_EDGES,
        ],
    )
    def test_matches_direct_oracle(self, physics, sample_rate, duration, mod_frequency, period):
        # The kernel runs over one period of the sampled drive and the counts
        # are drawn in phase order, in blocks; the record is byte-identical to
        # the kernel evaluated at every sample time and one whole-record draw
        # in phase order.
        assert modulation_period(mod_frequency, sample_rate) == period
        modulation = ModulationConfig(mod_frequency=mod_frequency)
        args = (7.4e6, duration, sample_rate, physics, physics.n_photons_per_sample(), 17)
        fast = synthesize_run(*args, modulation=modulation)
        direct = direct_synthesize_run(*args, modulation=modulation)
        assert fast.samples.size == round(duration * sample_rate)
        assert fast.samples.tobytes() == direct.samples.tobytes()

    @pytest.mark.parametrize(
        "sample_rate,duration",
        [
            (FS, 100.0),  # 100 phases of 1000 samples: scalar calls of 65 and 35 phases
            (1000.5, 2.0),  # one period of 2001 phases, each drawn once
            (FS, 0.1),  # 100 samples in one period: below SCALAR_RUN, broadcast
        ],
    )
    def test_undriven_matches_direct_oracle(self, physics, sample_rate, duration):
        # An undriven record's phases share one p, one run drawn with p as a
        # float wherever it reaches SCALAR_RUN variates: the same bytes as the
        # per-sample kernel and one whole-record draw in phase order.
        args = (0.0, duration, sample_rate, physics, physics.n_photons_per_sample(), 19)
        fast = synthesize_run(*args)
        assert fast.samples.tobytes() == direct_synthesize_run(*args).samples.tobytes()

    @pytest.mark.parametrize(
        "sample_rate,duration",
        [
            (FS, 2.0), (1024.0, 1.1), (1000.5, 3.0), (FS, 70.0), (1024.0, 128.0),
            *(edge[:2] for edge in FINISH_BLOCK_EDGES),
        ],
    )
    def test_noise_terms_match_direct_oracle(self, sample_rate, duration):
        # Stray light, dark counts and electronic noise: the same draws in the
        # same order, after counts drawn in one block or in several, and the
        # estimate finished in one block or in several.
        physics = resolve(ExperimentConfig(background_fraction=0.02))
        extensions = NoiseExtensions(electronic_noise=1e-9, dark_count_rate=1e5)
        args = (7.4e6, duration, sample_rate, physics, physics.n_photons_per_sample(), 23)
        fast = synthesize_run(*args, extensions=extensions)
        direct = direct_synthesize_run(*args, extensions=extensions)
        assert fast.samples.tobytes() == direct.samples.tobytes()

    @pytest.mark.parametrize(
        "mod_frequency,sample_rate,duration,shape",
        [
            (250.0, FS, 270.0, (4, 67_500, 0)),  # a phase longer than DRAW_BLOCK
            (10.0, 1024.0, 128.1, (512, 256, 102)),  # a partial period after the last whole one
        ],
    )
    def test_draw_is_one_phase_ordered_call(
        self, physics, mod_frequency, sample_rate, duration, shape
    ):
        # The counts of the q whole periods of m samples are one binomial
        # stream over the profile's phases, each repeated q times, then r
        # samples in sample order; no call draws more than DRAW_BLOCK.
        plan = plan_for(physics, duration, sample_rate, mod_frequency)
        profile = split_profile(plan, 7.4e6)
        calls = BinomialCalls(np.random.default_rng(29))
        counts = _draw_counts(calls, plan.n_detected, profile, plan.n_samples)
        assert (profile.size, *divmod(counts.size, profile.size)) == shape
        assert max(calls.sizes) <= DRAW_BLOCK
        assert sum(calls.sizes) == counts.size
        expected = phase_ordered_stream(
            np.random.default_rng(29), plan.n_detected, profile, plan.n_samples
        )
        assert counts.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "duration,sample_rate,dnu_peak,scalar,sizes",
        [
            (100.0, FS, 7.4e6, True, [1000] * 100),  # spectrum's driven record
            (100.0, FS, 0.0, True, [65_000, 35_000]),  # its undriven record: one run
            (3.0, FS, 7.4e6, False, [3000]),  # a slope point: 30 periods
            (2.0, 1024.0, 7.4e6, False, [2048]),  # 4 periods of 512 phases
            (2.0, 1024.0, 0.0, True, [2048]),  # its undriven record: one block of one p
            (2.5, FS, 7.4e6, False, [2500]),  # simulate's record: 25 periods
        ],
        ids=[
            "driven-100s", "undriven-100s", "slope", "1024Hz", "undriven-1024Hz", "simulate-2.5s"
        ],
    )
    def test_long_runs_draw_with_scalar_p(
        self, physics, duration, sample_rate, dnu_peak, scalar, sizes
    ):
        # An undriven block of at least SCALAR_RUN variates is one call with p
        # as a Python float, and so is each phase of a record of at least
        # SCALAR_RUN periods; any other block is one call with p broadcast
        # from the profile. The stream is the phase-ordered one either way.
        # Each of these records is whole periods, so no empty tail call follows.
        plan = plan_for(physics, duration, sample_rate)
        profile = split_profile(plan, dnu_peak)
        calls = BinomialCalls(np.random.default_rng(41))
        counts = _draw_counts(calls, plan.n_detected, profile, plan.n_samples)
        assert list(zip(calls.sizes, calls.scalar)) == [(size, scalar) for size in sizes]
        expected = phase_ordered_stream(
            np.random.default_rng(41), plan.n_detected, profile, plan.n_samples
        )
        assert counts.tobytes() == expected.tobytes()

    def test_run_between_broadcast_phases_keeps_phase_order(self):
        # A driven profile whose middle phases share one p over SCALAR_RUN
        # variates, in records of fewer than SCALAR_RUN periods: the block is
        # one broadcast call in phase order, then the 5-sample tail.
        q = 16
        run = -(-SCALAR_RUN // q)  # the fewest phases that reach SCALAR_RUN
        profile = np.linspace(0.2, 0.4, run + 24)
        profile[10 : 10 + run] = 0.3
        profile[-6:-4] = 0.35
        n, n_samples = 10**9, profile.size * q + 5
        calls = BinomialCalls(np.random.default_rng(3))
        counts = _draw_counts(calls, n, profile, n_samples)
        assert list(zip(calls.sizes, calls.scalar)) == [(profile.size * q, False), (5, False)]
        expected = phase_ordered_stream(np.random.default_rng(3), n, profile, n_samples)
        assert counts.tobytes() == expected.tobytes()

    def test_each_phase_draws_its_own_law(self, physics):
        # A driven 100 s record at the defaults: each phase's mean count lies
        # within 4 standard errors of n p_k. The drive moves n p_k by about 5
        # standard errors from one phase to the next (the median step), so
        # counts stored at another phase's samples fail it.
        cfg = physics.config
        plan = plan_for(physics, 100.0)
        profile = split_profile(plan, cfg.spectrum_dnu)
        rng = np.random.default_rng(cfg.seed)
        phases = _draw_counts(rng, plan.n_detected, profile, plan.n_samples).reshape(-1, 100)
        t = np.arange(100) / cfg.sample_rate
        dnu = cfg.spectrum_dnu * np.sin(2.0 * np.pi * cfg.mod_frequency * t)
        p = dark_port_split_probability(
            kick_of_shift(physics.point, dnu), physics.state, cfg.background_fraction
        )
        n = plan.n_detected
        standard_error = np.sqrt(n * p * (1.0 - p) / phases.shape[0])
        assert np.median(np.abs(np.diff(n * p)) / standard_error[1:]) > 4.0
        assert np.all(np.abs(phases.mean(axis=0) - n * p) < 4.0 * standard_error)

    @pytest.mark.parametrize("mod_frequency", [1.0, 10.0, 50.0, 250.0])
    def test_reused_period_differs_only_by_phase_rounding(self, physics, mod_frequency):
        # The per-sample kernel takes each sample's phase 2 pi f t, whose
        # rounding grows with t; the reused period's phase stays below 2 pi.
        # Over 1e6 samples the two differ by one ulp of p plus at most three
        # ulps of the phase carried through the kernel's slope: one ulp at 1
        # and 10 Hz, up to 5 at 50 Hz and 36 near 250 Hz's zero crossings.
        dnu_peak = 7.4e6
        plan = plan_for(physics, 1000.0, FS, mod_frequency)

        def kernel(dnu):
            return dark_port_split_probability(
                kick_of_shift(physics.point, dnu), physics.state, physics.config.background_fraction
            )

        phase = 2.0 * np.pi * mod_frequency * (np.arange(plan.n_samples) / FS)
        direct = kernel(dnu_peak * np.sin(phase))
        gap = np.abs(np.resize(split_profile(plan, dnu_peak), direct.size) - direct)
        slope = np.abs(np.diff(kernel(np.array([0.0, 1e3]))))[0] / 1e3
        assert np.all(gap <= np.spacing(direct) + 3.0 * slope * dnu_peak * np.spacing(phase))
        if mod_frequency <= 10.0:
            assert np.all(gap <= np.spacing(direct))

    @pytest.mark.parametrize(
        "extensions,records",
        [
            (NoiseExtensions(), 1.25),
            (NoiseExtensions(electronic_noise=1e-9, dark_count_rate=1e3), 3.05),
        ],
        ids=["shot", "noise"],
    )
    @pytest.mark.parametrize("dnu_peak", [7.4e6, 0.0], ids=["driven", "undriven"])
    def test_peak_memory_in_record_arrays(self, physics, peak_bytes, dnu_peak, extensions, records):
        # The counts are drawn in phase order from the one-period profile and
        # the estimate is finished in their buffer, so no full-length split
        # probability, index array or estimate sits beside the counts, only
        # the draw's and the finish's block temporaries, with the drive on or
        # off (one run of one p, drawn with scalar-p calls). The noise terms'
        # whole-record draws add the dark counts and their right-hand share.
        # Measured: 1.017 and 1.060 records without them, 3.002 with them.
        n_samples = 1_000_000
        peak = peak_bytes(
            lambda: synthesize_run(
                dnu_peak, n_samples / FS, FS, physics, physics.n_photons_per_sample(), 5,
                extensions=extensions,
            )
        )
        assert peak < records * n_samples * 8

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_modulation_period_is_the_exact_period(self, mod_frequency, sample_rate):
        # The least P with P * f / R whole is the denominator of f / R in lowest terms.
        expected = (Fraction(mod_frequency) / Fraction(sample_rate)).denominator
        assert modulation_period(mod_frequency, sample_rate) == expected

    @pytest.mark.parametrize("sample_rate", [FS, 1000.5])
    def test_deterministic(self, physics, sample_rate):
        # Same seed, same record, at a commensurate and an incommensurate rate.
        n_per_sample = physics.n_photons_per_sample()
        a = synthesize_run(7.4e6, 2.0, sample_rate, physics, n_per_sample, seed=8)
        b = synthesize_run(7.4e6, 2.0, sample_rate, physics, n_per_sample, seed=8)
        assert a.samples.size == round(2.0 * sample_rate)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_extensions_change_variance(self, physics):
        n_per_sample = physics.n_photons_per_sample()
        quiet = synthesize_run(0.0, 2.0, FS, physics, n_per_sample, seed=31)
        noisy = synthesize_run(
            0.0, 2.0, FS, physics, n_per_sample, seed=31,
            extensions=NoiseExtensions(electronic_noise=5e-9),
        )
        expected = np.sqrt(quiet.samples.var(ddof=1) + (5e-9) ** 2)
        assert noisy.samples.std(ddof=1) == pytest.approx(expected, rel=0.05)

    def test_peak_magnitude_at_full_drive(self, physics):
        # 7.4 MHz drive: extracted peak ~ slope x amplitude x gain within 5%.
        spec = FilterSpec()
        raw = synthesize_run(
            7.4e6, 3.0, FS, physics, physics.n_photons_per_sample(), seed=90
        )
        mean, _ = extract_peaks(bandpass(raw, spec), 0.1, 25)
        expected = 7.122676844358896e-10 * 7.4 * spec.gain
        assert mean == pytest.approx(expected, rel=0.05)

    def test_driven_fundamental_dominates(self, physics):
        series = synthesize_run(
            7.4e6, 10.0, FS, physics, physics.n_photons_per_sample(), seed=14
        )
        spec = power_spectrum(series, segments=2)
        peak = spec.frequencies[np.argmax(spec.power_db)]
        assert peak == pytest.approx(10.0, abs=spec.resolution_bw)

    def test_undriven_floor_is_white(self, physics):
        # Raw periodogram of a noise-only run: no power-vs-frequency slope
        # at 95% confidence across 10-100 Hz.
        series = synthesize_run(
            0.0, 30.0, FS, physics, physics.n_photons_per_sample(), seed=15
        )
        spec = power_spectrum(series, segments=1)
        band = (spec.frequencies > 10) & (spec.frequencies < 100)
        f = spec.frequencies[band]
        p = 10 ** (spec.power_db[band] / 10)  # linear power, exponential bins
        n = f.size
        fc = f - f.mean()
        slope = (fc * p).sum() / (fc**2).sum()
        resid = p - p.mean() - slope * fc
        slope_se = np.sqrt((resid**2).sum() / (n - 2) / (fc**2).sum())
        assert abs(slope / slope_se) < 1.96

    def test_end_to_end_peak_linearity(self, physics):
        # At a photon budget high enough to suppress the peak-noise bias the
        # extracted peak amplitude is linear in the drive to 1%.
        spec = FilterSpec()
        n_per_sample = 1e4 * physics.n_photons_per_sample()

        def peak(dnu, seed):
            raw = synthesize_run(dnu, 1.5, FS, physics, n_per_sample, seed=seed)
            mean, _ = extract_peaks(bandpass(raw, spec), 0.1, 10)
            return mean

        ratio = peak(4e6, seed=70) / peak(2e6, seed=71)
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_undriven_trace_stays_within_quantile_bound(self):
        # Averaged undriven spectrum: no bin in 5-50 Hz pokes more than 6 dB
        # above the floor.
        from wvfreq.recipes import run_spectrum_pair

        cfg = ExperimentConfig(spectrum_duration=50.0)
        table, _ = run_spectrum_pair(cfg)
        freqs, undriven_db = table["frequency_hz"], table["undriven_db"]
        band = (freqs > 5) & (freqs < 50)
        floor = np.median(undriven_db[band])
        assert undriven_db[band].max() <= floor + 6.0

    def test_seed_ensemble_matches_predicted_spread(self, physics):
        # Peak means across seeds scatter on the scale of the per-run
        # std-of-mean. The true spread runs ~sqrt(1 + 2*rho) above it because
        # the two-stage filter's ringing correlates adjacent-cycle peaks
        # (rho(100 ms) ~ 0.19), so the band is asymmetric around 1.
        n_per_sample = physics.n_photons_per_sample()
        spec = FilterSpec()
        means, predicted = [], []
        for seed in range(100):
            raw = synthesize_run(2e6, 3.0, FS, physics, n_per_sample, seed=seed)
            filtered = bandpass(raw, spec)
            mean, std = extract_peaks(filtered, 0.1, 25)
            means.append(mean)
            predicted.append(std)
        ratio = np.std(means, ddof=1) / np.mean(predicted)
        assert 0.85 <= ratio <= 1.55


NOISE_TERMS = {"background_fraction": 0.02, "electronic_noise": 1e-9, "dark_count_rate": 1e5}


class BinomialCalls:
    """A generator stand-in that records the sample count of every binomial call,
    and whether its p was a Python float."""

    def __init__(self, rng):
        self.rng, self.sizes, self.scalar = rng, [], []

    def binomial(self, n, p, size=None):
        drawn = self.rng.binomial(n, p, size)
        self.sizes.append(drawn.size)
        self.scalar.append(type(p) is float)
        return drawn


def phase_ordered_stream(rng, n, profile, n_samples):
    """The counts of a record's q whole periods, one call over the profile's
    phases each repeated q times, then of the r samples after them."""
    m = profile.size
    q, r = divmod(n_samples, m)
    whole = rng.binomial(n, np.repeat(profile, q)).reshape(m, q).T.ravel()
    return np.concatenate([whole, rng.binomial(n, profile[:r])])


class TestRecordPlan:
    @pytest.mark.parametrize(
        "argv,records,layout",
        [
            (["slope"], 6, dict(n_samples=3000, period=100, per_cycle=100)),
            (["spectrum"], 2, dict(n_samples=100_000, period=100, per_cycle=0)),
            (
                ["simulate", "--dnu-peak", "7.4MHz"], 1,
                dict(n_samples=2500, period=100, per_cycle=0),
            ),
        ],
    )
    def test_one_plan_per_request(self, monkeypatch, tmp_path, argv, records, layout):
        # Every record of a request is drawn from the one plan its recipe built.
        plans, draws = [], []
        build = RecordPlan.build.__func__

        def spy_build(cls, *args, **kwargs):
            plans.append(build(cls, *args, **kwargs))
            return plans[-1]

        def spy_run(*args, plan, **kwargs):
            draws.append(plan)
            return synthesize_run(*args, plan=plan, **kwargs)

        monkeypatch.setattr(RecordPlan, "build", classmethod(spy_build))
        monkeypatch.setattr(recipes, "synthesize_run", spy_run)
        assert cli.main(argv + ["-o", str(tmp_path / "out.csv")]) == 0
        assert len(plans) == 1
        assert len(draws) == records and all(plan is plans[0] for plan in draws)
        assert {name: getattr(plans[0], name) for name in layout} == layout

    @pytest.mark.parametrize(
        "argv,kernel_runs",
        [
            (["slope"], 6), (["spectrum"], 2), (["simulate"], 1),
            # P = 10^4 > PROFILE_CACHE_SAMPLES: the longer profile is held too.
            (["slope", "--sample-rate", "100kHz"], 6),
        ],
    )
    def test_one_kernel_run_per_record(self, monkeypatch, tmp_path, argv, kernel_runs):
        # The sweep reads each point's sigma_x from the cached profile its
        # record was drawn from, so the kernel runs once per record.
        calls = []

        def spy_kernel(*args, **kwargs):
            calls.append(args)
            return dark_port_split_probability(*args, **kwargs)

        signal_chain._profile.cache_clear()
        signal_chain._long_profile.cache_clear()
        monkeypatch.setattr(signal_chain, "dark_port_split_probability", spy_kernel)
        assert cli.main(argv + ["-o", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == kernel_runs

    def test_second_request_mix_runs_no_seed_free_work(self, monkeypatch, tmp_path):
        # A default slope, spectrum and simulate share 7 profiles, and none of
        # the profiles, the apex calibration or the usable range reads the
        # seed: the same mix at another seed runs the dark-port kernel, the
        # Sellmeier index and the range cubic no more.
        from wvfreq import dispersion, noise

        mix = [["slope"], ["spectrum"], ["simulate", "--dnu-peak", "7.4MHz"], ["range"],
               ["sensitivity"]]
        signal_chain._profile.cache_clear()
        for argv in mix:
            assert cli.main(argv + ["--seed", "11", "-o", str(tmp_path / "out.csv")]) == 0
        assert signal_chain._profile.cache_info().currsize == 7
        calls = {}
        for module, name in [
            (signal_chain, "dark_port_split_probability"),
            (dispersion, "sellmeier_index"),
            (noise, "index_step_frequency"),
        ]:
            calls[name] = []
            original = getattr(module, name)
            spy = lambda *args, _log=calls[name], _fn=original: _log.append(args) or _fn(*args)
            monkeypatch.setattr(module, name, spy)
        for argv in mix:
            assert cli.main(argv + ["--seed", "12", "-o", str(tmp_path / "out.csv")]) == 0
        assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(calls, 0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("postselection", 0.02), ("phi", 0.3), ("unamplified_slope", 5e-18),
            ("apex_angle", 1.0), ("wavelength", 8e-7), ("sigma", 3e-4), ("path_length", 0.3),
            ("background_fraction", 0.02), ("material", "bk7"), ("sample_rate", 2000.0),
            ("mod_frequency", 20.0), ("drive", 3.7e6),
        ],
    )
    def test_profiles_are_not_shared_across_kernel_inputs(
        self, physics, monkeypatch, field, value
    ):
        # Each field the kernel reads is in the profile's cache key: with the
        # default's profile cached, a config that differs in one field gets
        # its own kernel's values.
        def direct(phys, plan, dnu_peak):
            t = np.arange(plan.period) / plan.sample_rate
            dnu = dnu_peak * np.sin(2.0 * np.pi * plan.mod_frequency * t)
            kick = kick_of_shift(phys.point, dnu)
            return dark_port_split_probability(
                kick, phys.state, phys.config.background_fraction
            )

        signal_chain._profile.cache_clear()
        base_plan = plan_for(physics, 1.0)
        base = split_profile(base_plan, 7.4e6)
        dnu_peak = value if field == "drive" else 7.4e6
        changed = physics if field == "drive" else resolve(config_from_mapping({field: value}))
        cfg = changed.config
        plan = plan_for(changed, 1.0, cfg.sample_rate, cfg.mod_frequency)
        runs = []
        spy = lambda *args: runs.append(args) or dark_port_split_probability(*args)  # noqa: E731
        monkeypatch.setattr(signal_chain, "dark_port_split_probability", spy)
        profile = split_profile(plan, dnu_peak)
        assert np.array_equal(profile, direct(changed, plan, dnu_peak))
        assert not np.array_equal(profile, base)
        # Both stay cached, each under its own key.
        assert split_profile(base_plan, 7.4e6) is base and split_profile(plan, dnu_peak) is profile
        assert len(runs) == 1

    def test_profile_cache_is_bounded_in_bytes(self, physics, monkeypatch):
        # A record whose rate shares no short period with the drive has
        # m = N; a profile over PROFILE_CACHE_SAMPLES values goes to a
        # one-entry cache of its own, so the cache never holds more than its
        # stated 1 MiB plus the last longer profile.
        cache, long_cache = signal_chain._profile, signal_chain._long_profile
        assert PROFILE_CACHE_SAMPLES * 8 * cache.cache_info().maxsize == 1 << 20
        assert long_cache.cache_info().maxsize == 1
        runs = []

        def spy_kernel(*args, **kwargs):
            runs.append(args)
            return dark_port_split_probability(*args, **kwargs)

        monkeypatch.setattr(signal_chain, "dark_port_split_probability", spy_kernel)
        for n, held in [(PROFILE_CACHE_SAMPLES, 1), (PROFILE_CACHE_SAMPLES + 1, 0)]:
            cache.cache_clear()
            long_cache.cache_clear()
            runs.clear()
            plan = plan_for(physics, 1.0, sample_rate=n + 1e-7)
            assert plan.period == n
            for _ in range(2):
                assert split_profile(plan, 7.4e6).size == n
            assert cache.cache_info().currsize == held
            assert long_cache.cache_info().currsize == 1 - held
            assert len(runs) == 1
        # A second longer profile replaces the first.
        plan = plan_for(physics, 1.0, sample_rate=PROFILE_CACHE_SAMPLES + 2 + 1e-7)
        assert split_profile(plan, 7.4e6).size == PROFILE_CACHE_SAMPLES + 2
        assert long_cache.cache_info().currsize == 1 and len(runs) == 2

    def test_split_profile_is_read_only(self, physics):
        profile = split_profile(plan_for(physics, 1.0), 7.4e6)
        assert profile.size == 100 and not profile.flags.writeable
        with pytest.raises(ValueError):
            profile[0] = 0.5

    def test_stage_functions_agree_with_the_plan(self, physics):
        plan = plan_for(physics, 3.0, filter_spec=physics.filter_spec, segments=4)
        series = synthesize_run(7.4e6, 3.0, FS, physics, plan.n_per_sample, 5)
        assert series.samples.size == plan.n_samples
        assert bandpass(series, physics.filter_spec).samples.size == plan.n_samples
        assert power_spectrum(series, 4).frequencies.size == plan.n_samples // 4 // 2 + 1
        assert plan.per_cycle == 100 and plan.period == 100


class TestSpectrumPair:
    @pytest.mark.parametrize("terms", [{}, NOISE_TERMS], ids=["shot", "noise"])
    @pytest.mark.parametrize("duration,sample_rate", [(100.0, FS), (2.0, 1024.0)])
    def test_matches_serial_oracle(self, duration, sample_rate, terms):
        # The pair is bit-equal to both records drawn one after the other
        # by the per-sample oracle, over more than one block and less.
        cfg = ExperimentConfig(spectrum_duration=duration, sample_rate=sample_rate, **terms)
        table, metadata = run_spectrum_pair(cfg)
        expected_table, expected_metadata = serial_spectrum_pair(cfg)
        assert list(table) == list(expected_table)
        for column, values in table.items():
            assert values.tobytes() == expected_table[column].tobytes()
        assert metadata == expected_metadata

    def test_peak_memory_is_under_three_and_a_half_records(self, peak_bytes):
        # Each record's periodogram is taken before the next record is drawn,
        # so the batched transform's temporaries sit beside one record, not two.
        cfg = ExperimentConfig()
        n_samples = int(cfg.spectrum_duration * cfg.sample_rate)
        assert peak_bytes(lambda: run_spectrum_pair(cfg)) < 3.5 * n_samples * 8


class TestCsvRoundTrip:
    def test_timeseries_bit_exact(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(sample_rate=FS, samples=rng.normal(0, 1e-9, 256))
        text = timeseries_to_csv(series, {"seed": 2, "config_hash": "abc123"})
        parsed, meta = timeseries_from_csv(text)
        assert meta["config_hash"] == "abc123"
        assert parsed.sample_rate == series.sample_rate
        assert np.array_equal(parsed.samples, series.samples)
        assert timeseries_to_csv(parsed, {"seed": 2, "config_hash": "abc123"}) == text

    def test_header_mismatch(self):
        with pytest.raises(ValidationError, match="header"):
            timeseries_from_csv("# a = 1\nwrong,cols\n1,2\n")

    @pytest.mark.parametrize(
        "body",
        [
            "0,1e-9\n0.001,abc\n",  # non-numeric cell
            "0,1e-9\n0.001\n",  # short row
            "0,1e-9\n0.001,2e-9,3\n",  # extra column
            "0,1e-9,5\n0.001\n",  # extra column and short row, right total
            "0,\n0.001,2e-9\n",  # empty cell
            "0,1e-9\n0.001,\n",  # empty last cell
            "",  # empty body
            "\n\n",  # blank lines only
        ],
    )
    def test_malformed_body_rejected(self, body):
        with pytest.raises(ValidationError):
            timeseries_from_csv("# sample_rate = 1000\ntime_s,position_m\n" + body)

    @pytest.mark.parametrize(
        "metadata, name, value",
        [
            ("# seed = 2\n", "sample_rate", ""),
            ("# sample_rate = abc\n", "sample_rate", "abc"),
            ("# sample_rate = inf\n", "sample_rate", "inf"),
            ("# sample_rate = nan\n", "sample_rate", "nan"),
        ],
    )
    def test_bad_metadata_rejected(self, metadata, name, value):
        with pytest.raises(ValidationError) as info:
            timeseries_from_csv(metadata + "time_s,position_m\n0,1e-9\n")
        assert str(info.value) == f"CSV metadata {name!r}: not a finite number: {value!r}"

    def test_missing_column_line_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            timeseries_from_csv("# sample_rate = 1000\n0,1e-9\n0.001,2e-9\n")

    def test_no_final_newline(self):
        series = TimeSeries(sample_rate=FS, samples=[1e-9, -2e-9, 3e-9])
        text = timeseries_to_csv(series, {"seed": 1})
        parsed, meta = timeseries_from_csv(text.rstrip("\n"))
        assert np.array_equal(parsed.samples, series.samples)
        assert meta == timeseries_from_csv(text)[1]


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1e-300, -1e-300]
FLOAT_CELLS = st.lists(
    st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False), min_size=1, max_size=12
)
INT64 = np.iinfo(np.int64)


def check_against_oracle(a, counts, b, flags):
    """csv_text equals the per-row oracle byte for byte; csv_columns reads it back."""
    meta = {"seed": 3, "rate": 1000.5, "config_hash": "abc123"}
    columns = ("a", "count", "b", "flag")
    text = csv_text(meta, columns, a, counts, b, flags)
    oracle = per_row_csv(meta, columns, a, counts, b, flags)
    # Line lists, not strings: pytest then names the first differing row
    # instead of diffing thousands of rows on every failing example.
    assert text.splitlines(keepends=True) == oracle.splitlines(keepends=True)
    header, table = csv_columns(text, columns)
    assert header == {"seed": "3", "rate": "1000.5", "config_hash": "abc123"}
    assert table.shape == (4, a.size)
    for parsed, written in ((table[0], a), (table[2], b)):
        assert np.array_equal(parsed.view(np.int64), written.view(np.int64))
    assert np.array_equal(table[3], flags)


class TestCsvText:
    @settings(max_examples=60, deadline=None)
    @given(
        a=FLOAT_CELLS,
        b=FLOAT_CELLS,
        counts=st.lists(st.integers(INT64.min, INT64.max), min_size=1, max_size=6),
        flags=st.lists(st.booleans(), min_size=1, max_size=6),
        n_rows=st.integers(1, 10),
    )
    def test_matches_per_row_oracle(self, a, b, counts, flags, n_rows):
        # A 3-row block makes 1-10 rows cross every block edge in a few
        # cells; test_block_edges covers the real block size.
        def tile(cells, dtype=None):
            return np.resize(np.array(cells, dtype=dtype), n_rows)

        with mock.patch.object(units, "CSV_BLOCK_ROWS", 3):
            check_against_oracle(tile(a), tile(counts, np.int64), tile(b), tile(flags))

    @pytest.mark.parametrize(
        "n_rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]
    )
    def test_block_edges(self, n_rows):
        rng = np.random.default_rng(n_rows)
        a = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        a[: len(EDGE_FLOATS)] = EDGE_FLOATS[:n_rows]
        counts = rng.integers(INT64.min, INT64.max, n_rows, endpoint=True)
        check_against_oracle(a, counts, -a[::-1].copy(), rng.random(n_rows) < 0.5)

    def test_column_count_mismatch(self):
        with pytest.raises(ValidationError):
            csv_text({}, ("x", "y"), np.zeros(3))
        with pytest.raises(ValidationError):
            csv_text({}, ("x", "y"), np.zeros(3), np.zeros(4))
