import inspect
import os
import threading
import tracemalloc
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
    direct_synthesize_run,
    frequency_response,
    lfilter_cascade,
    per_row_csv,
    serial_spectrum_pair,
    stage_coefficients,
)
from wvfreq import (
    calibration,
    cli,
    config,
    dispersion,
    interferometer,
    noise,
    recipes,
    signal_chain,
)
from wvfreq.config import ExperimentConfig, resolve
from wvfreq.errors import AliasingError, ValidationError, WeakValueValidityError
from wvfreq.interferometer import dark_port_split_probability
from wvfreq.noise import split_noise
from wvfreq.recipes import run_spectrum_pair
from wvfreq.signal_chain import (
    DRAW_BLOCK,
    IMPULSE_TAIL,
    POISSON_MEAN_MAX,
    STAGE_Q,
    FilterSpec,
    ModulationConfig,
    NoiseExtensions,
    PhotonDraw,
    RecordPlan,
    TimeSeries,
    bandpass,
    cascade_response,
    extract_peaks,
    fft_length,
    hann_window,
    lock_in_kernel,
    modulation_period,
    power_spectrum,
    slope_fit,
    synthesize_run,
    timeseries_from_csv,
    timeseries_to_csv,
)
from wvfreq import units
from wvfreq.units import CSV_BLOCK_ROWS, csv_columns, csv_text

FS = 1000.0


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
        with pytest.raises(AliasingError):
            bandpass(TimeSeries(sample_rate=100.0, samples=np.zeros(64)), FilterSpec())

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
        assert (out.sample_rate, out.t0) == (raw.sample_rate, raw.t0)
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
        result = recipes.run_slope_sweep(cfg)
        duration = (cfg.n_cycles + cfg.settle_cycles) / cfg.mod_frequency
        for i, dnu in enumerate(result.shifts):
            record = synthesize_run(
                dnu, duration, cfg.sample_rate, physics, physics.n_photons_per_sample(),
                cfg.seed + i,
            )
            expected = demodulated(record, physics.filter_spec, cfg.mod_frequency, cfg.n_cycles)
            assert result.deflections[i] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_errors_are_the_closed_form(self, physics):
        # sqrt(2 / N_w) sigma_x over the 2500 window samples; at the default
        # drives p stays within 6e-6 of 1/2, so sigma_x is c / sqrt(n) to 1e-9.
        result = recipes.run_slope_sweep(ExperimentConfig())
        plan = plan_for(physics, 3.0)
        sigma_x = split_noise(plan.calibration, plan.n_detected, 0.5)
        np.testing.assert_allclose(result.errors, np.sqrt(2.0 / 2500) * sigma_x, rtol=1e-9)

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
        [(FS, 2.0), (1024.0, 1.1), (1000.5, 3.0), (FS, 70.0), (1024.0, 128.0)],
    )
    def test_noise_terms_match_direct_oracle(self, sample_rate, duration):
        # Stray light, dark counts and electronic noise: the same draws in the
        # same order, after counts drawn in one block or in several.
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
        record = PhotonDraw(plan_for(physics, duration, sample_rate, mod_frequency), 7.4e6, 29)
        m, q, r = shape
        assert (record.profile.size, *divmod(record.counts.size, m)) == shape
        record.rng = calls = BinomialCalls(record.rng)
        record.draw()
        assert max(calls.sizes) <= DRAW_BLOCK
        assert sum(calls.sizes) == record.counts.size
        rng = np.random.default_rng(29)
        whole = rng.binomial(record.plan.n_detected, np.repeat(record.profile, q))
        rest = rng.binomial(record.plan.n_detected, record.profile[:r])
        expected = np.concatenate([whole.reshape(m, q).T.ravel(), rest])
        assert record.counts.tobytes() == expected.tobytes()

    def test_each_phase_draws_its_own_law(self, physics):
        # A driven 100 s record at the defaults: each phase's mean count lies
        # within 4 standard errors of n p_k. The drive moves n p_k by about 5
        # standard errors from one phase to the next (the median step), so
        # counts stored at another phase's samples fail it.
        cfg = physics.config
        record = PhotonDraw(plan_for(physics, 100.0), cfg.spectrum_dnu, cfg.seed)
        phases = record.drawn().reshape(-1, 100)
        t = np.arange(100) / cfg.sample_rate
        dnu = cfg.spectrum_dnu * np.sin(2.0 * np.pi * cfg.mod_frequency * t)
        p = dark_port_split_probability(
            physics.kick_of_shift(dnu), physics.state, cfg.background_fraction
        )
        n = record.plan.n_detected
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
        record = PhotonDraw(plan_for(physics, 1000.0, FS, mod_frequency), dnu_peak, 0)

        def kernel(dnu):
            return dark_port_split_probability(
                physics.kick_of_shift(dnu), physics.state, physics.config.background_fraction
            )

        phase = 2.0 * np.pi * mod_frequency * (np.arange(record.counts.size) / FS)
        direct = kernel(dnu_peak * np.sin(phase))
        gap = np.abs(np.resize(record.profile, direct.size) - direct)
        slope = np.abs(np.diff(kernel(np.array([0.0, 1e3]))))[0] / 1e3
        assert np.all(gap <= np.spacing(direct) + 3.0 * slope * dnu_peak * np.spacing(phase))
        if mod_frequency <= 10.0:
            assert np.all(gap <= np.spacing(direct))

    def test_peak_memory_is_two_record_arrays(self, physics):
        # The counts are drawn in phase order from the one-period profile, so
        # no full-length split probability or index array sits beside the
        # counts and the estimates (tracemalloc sees numpy's buffers).
        n_samples = 1_000_000
        tracemalloc.start()
        try:
            series = synthesize_run(
                7.4e6, n_samples / FS, FS, physics, physics.n_photons_per_sample(), 5
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.samples.size == n_samples
        assert peak < 2.5 * n_samples * 8

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
        freqs, _, undriven_db, _ = run_spectrum_pair(cfg)
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
# The modules the benchmark's tracer wraps; it keeps one span stack, so every
# public function of theirs must run on the calling thread.
TRACED_MODULES = (cli, config, units, dispersion, interferometer, noise, signal_chain, recipes,
                  calibration)


class BinomialCalls:
    """A generator stand-in that records the sample count of every binomial call."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def binomial(self, n, p, size=None):
        drawn = self.rng.binomial(n, p, size)
        self.sizes.append(drawn.size)
        return drawn


def draw_threads(monkeypatch):
    """Thread idents of every ``PhotonDraw.draw`` call from here on."""
    idents = []
    draw = PhotonDraw.draw

    def spy(self):
        idents.append(threading.get_ident())
        draw(self)

    monkeypatch.setattr(PhotonDraw, "draw", spy)
    return idents


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestRecordPlan:
    @pytest.mark.parametrize(
        "argv,records,layout",
        [
            (["slope"], 6, dict(n_samples=3000, period=100, per_cycle=100, segment_length=0)),
            (
                ["spectrum"], 2,
                dict(n_samples=100_000, period=100, per_cycle=0, segment_length=6250, n_fft=0),
            ),
            (
                ["simulate", "--dnu-peak", "7.4MHz"], 1,
                dict(n_samples=2500, period=100, per_cycle=0, segment_length=0, n_fft=0),
            ),
        ],
    )
    def test_one_plan_per_request(self, monkeypatch, tmp_path, argv, records, layout):
        # Every record of a request is drawn from the one plan its recipe built.
        plans, draws = [], []
        build, init = RecordPlan.build.__func__, PhotonDraw.__init__

        def spy_build(cls, *args, **kwargs):
            plans.append(build(cls, *args, **kwargs))
            return plans[-1]

        def spy_init(self, plan, dnu_peak, seed):
            draws.append(plan)
            init(self, plan, dnu_peak, seed)

        monkeypatch.setattr(RecordPlan, "build", classmethod(spy_build))
        monkeypatch.setattr(PhotonDraw, "__init__", spy_init)
        assert cli.main(argv + ["-o", str(tmp_path / "out.csv")]) == 0
        assert len(plans) == 1
        assert len(draws) == records and all(plan is plans[0] for plan in draws)
        assert {name: getattr(plans[0], name) for name in layout} == layout
        if argv == ["slope"]:
            spec = plans[0].physics.filter_spec
            assert plans[0].n_fft == cascade_response(spec, FS, 3000)[0]

    def test_stage_functions_agree_with_the_plan(self, physics):
        plan = plan_for(physics, 3.0, filter_spec=physics.filter_spec, segments=4)
        series = synthesize_run(7.4e6, 3.0, FS, physics, plan.n_per_sample, 5)
        assert series.samples.size == plan.n_samples
        assert bandpass(series, physics.filter_spec).samples.size == plan.n_samples
        assert power_spectrum(series, 4).frequencies.size == plan.segment_length // 2 + 1
        assert plan.per_cycle == 100 and plan.period == 100


class TestSpectrumPair:
    @pytest.mark.parametrize("terms", [{}, NOISE_TERMS], ids=["shot", "noise"])
    @pytest.mark.parametrize(
        "duration,sample_rate,threaded", [(100.0, FS, True), (2.0, 1024.0, False)]
    )
    def test_matches_serial_oracle(self, monkeypatch, duration, sample_rate, threaded, terms):
        # A record longer than one block has its undriven counts drawn on a
        # worker thread; either way the pair is bit-equal to both records
        # drawn one after the other on the calling thread.
        usable_cpus(monkeypatch, 2)
        draws = draw_threads(monkeypatch)
        cfg = ExperimentConfig(spectrum_duration=duration, sample_rate=sample_rate, **terms)
        before = threading.active_count()
        pair = run_spectrum_pair(cfg)
        assert threading.active_count() == before
        expected = serial_spectrum_pair(cfg)
        for got, want in zip(pair[:3], expected[:3]):
            assert got.tobytes() == want.tobytes()
        assert pair[3] == expected[3]
        assert (duration * sample_rate > DRAW_BLOCK) == threaded
        assert len(draws) == 2
        assert draws.count(threading.get_ident()) == (1 if threaded else 2)

    def test_public_functions_run_on_the_calling_thread(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        draws = draw_threads(monkeypatch)
        threads = set()

        def on_thread(fn):
            def wrapper(*args, **kwargs):
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        for module in TRACED_MODULES:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and not name.startswith("_") and (
                    obj.__module__.startswith("wvfreq.")
                ):
                    monkeypatch.setattr(module, name, on_thread(obj))
        recipes.run_spectrum_pair(ExperimentConfig())
        assert threads == {threading.get_ident()}
        assert len(set(draws)) == 2  # the worker did draw

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        usable_cpus(monkeypatch, 1)
        draws = draw_threads(monkeypatch)
        cfg = ExperimentConfig()
        before = threading.active_count()
        pair = run_spectrum_pair(cfg)
        assert threading.active_count() == before
        assert draws == [threading.get_ident()] * 2
        assert pair[2].tobytes() == serial_spectrum_pair(cfg)[2].tobytes()

    def test_worker_failure_reaches_the_caller(self, monkeypatch, physics):
        # A draw that fails on the worker thread raises on the calling thread
        # what the same record raises when it is drawn there.
        kernel = signal_chain.dark_port_split_probability

        def undriven_nan(kick, state, beta):
            p = kernel(kick, state, beta)
            return p if np.any(kick) else np.full_like(p, np.nan)

        monkeypatch.setattr(signal_chain, "dark_port_split_probability", undriven_nan)
        with pytest.raises(ValueError) as serial:
            synthesize_run(0.0, 100.0, FS, physics, physics.n_photons_per_sample(), 1)
        usable_cpus(monkeypatch, 2)
        draws = draw_threads(monkeypatch)
        before = threading.active_count()
        with pytest.raises(ValueError) as threaded:
            run_spectrum_pair(ExperimentConfig())
        assert threading.active_count() == before
        assert str(threaded.value) == str(serial.value) == "p < 0, p > 1 or p contains NaNs"
        assert len(draws) == 2 and draws.count(threading.get_ident()) == 1

    def test_calling_thread_failure_joins_the_worker(self, monkeypatch):
        # The driven record's kick is beyond the kernel's range; the undriven
        # draw has started on the worker and is joined before the error leaves.
        usable_cpus(monkeypatch, 2)
        draws = draw_threads(monkeypatch)
        before = threading.active_count()
        with pytest.raises(WeakValueValidityError, match=r"k\*sigma = 0.632 exceeds 0.5"):
            run_spectrum_pair(ExperimentConfig(spectrum_dnu=6e12))
        assert threading.active_count() == before
        assert len(draws) == 1 and draws[0] != threading.get_ident()


class TestCsvRoundTrip:
    def test_timeseries_bit_exact(self):
        rng = np.random.default_rng(2)
        series = TimeSeries(sample_rate=FS, samples=rng.normal(0, 1e-9, 256), t0=0.25)
        text = timeseries_to_csv(series, {"seed": 2, "config_hash": "abc123"})
        parsed, meta = timeseries_from_csv(text)
        assert meta["config_hash"] == "abc123"
        assert parsed.sample_rate == series.sample_rate
        assert parsed.t0 == series.t0
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
            ("# t0 = 0\n", "sample_rate", ""),
            ("# sample_rate = abc\n", "sample_rate", "abc"),
            ("# sample_rate = inf\n", "sample_rate", "inf"),
            ("# sample_rate = nan\n", "sample_rate", "nan"),
            ("# sample_rate = 1000\n# t0 = nan\n", "t0", "nan"),
            ("# sample_rate = 1000\n# t0 = -1e999\n", "t0", "-1e999"),
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
