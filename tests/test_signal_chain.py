from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import bilinear

from oracles import dark_port_grid, dark_port_profile, frequency_response
from wvfreq.config import ExperimentConfig, resolve
from wvfreq.errors import AliasingError, ValidationError
from wvfreq.signal_chain import (
    STAGE_Q,
    FilterSpec,
    NoiseExtensions,
    TimeSeries,
    _polyresp,
    bandpass,
    extract_peaks,
    power_spectrum,
    slope_fit,
    stage_coefficients,
    synthesize_run,
    timeseries_from_csv,
    timeseries_to_csv,
)
from wvfreq import units
from wvfreq.units import CSV_BLOCK_ROWS, csv_columns, csv_text, fmt

FS = 1000.0


@pytest.fixture(scope="module")
def physics():
    return resolve(ExperimentConfig())


def sine_series(freq, amplitude=1.0, duration=10.0, fs=FS, phase=0.0):
    t = np.arange(int(duration * fs)) / fs
    return TimeSeries(sample_rate=fs, samples=amplitude * np.sin(2 * np.pi * freq * t + phase))


def steady_amplitude(series, settle_fraction=0.5):
    tail = series.samples[int(series.samples.size * settle_fraction) :]
    return np.abs(tail).max()


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

    @pytest.mark.parametrize("center", [1.0, 10.0, 100.0])
    def test_stage_coefficients_match_bilinear_oracle(self, center):
        # Oracle: scipy's bilinear map of the prewarped prototype, then the
        # unity-gain-at-center normalization. That normalization divides by
        # |A(z0)|, which is small at high oversampling and amplifies the
        # rounding of both sides; the fixed log-spaced grid keeps the b
        # comparison clear of that floor (about 1e-13 at 1000x).
        spec = FilterSpec(center=center, stages=1, gain=1.0)
        for ratio in np.geomspace(20.0, 1000.0, 41):
            sample_rate = center * ratio
            b, a = stage_coefficients(spec, sample_rate)
            w0 = 2.0 * sample_rate * np.tan(np.pi * center / sample_rate)
            b_ref, a_ref = bilinear(
                [w0 / STAGE_Q, 0.0], [1.0, w0 / STAGE_Q, w0**2], fs=sample_rate
            )
            b_ref = b_ref / abs(_polyresp(b_ref, a_ref, center, sample_rate))
            assert b[1] == 0.0
            np.testing.assert_allclose(b[[0, 2]], b_ref[[0, 2]], rtol=1e-13, atol=0)
            np.testing.assert_allclose(a, a_ref, rtol=0, atol=1e-15)
            gain = abs(frequency_response(spec, center, sample_rate))
            assert gain == pytest.approx(1.0, rel=0, abs=1e-15)

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            bandpass(TimeSeries(sample_rate=100.0, samples=np.zeros(64)), FilterSpec())

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            FilterSpec(center=-1.0)


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

    def test_std_of_mean_scaling(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(0.0, 1.0, 40000 * 4)
        series = TimeSeries(sample_rate=FS, samples=noise)
        stds = {}
        for n in (25, 100, 400):
            _, stds[n] = extract_peaks(series, 0.1, n)
        assert stds[25] / stds[100] == pytest.approx(2.0, rel=0.30)
        assert stds[100] / stds[400] == pytest.approx(2.0, rel=0.30)


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

    def test_kick_bound_names_offender(self, physics):
        from wvfreq.errors import WeakValueValidityError

        with pytest.raises(WeakValueValidityError, match="frequency offset"):
            synthesize_run(
                6e12, 1.0, FS, physics, physics.n_photons_per_sample(), 0
            )

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

    def test_missing_column_line_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            timeseries_from_csv("# sample_rate = 1000\n0,1e-9\n0.001,2e-9\n")

    def test_no_final_newline(self):
        series = TimeSeries(sample_rate=FS, samples=[1e-9, -2e-9, 3e-9])
        text = timeseries_to_csv(series, {"seed": 1})
        parsed, meta = timeseries_from_csv(text.rstrip("\n"))
        assert np.array_equal(parsed.samples, series.samples)
        assert meta == timeseries_from_csv(text)[1]


def per_row_csv(metadata, columns, *values):
    """The per-row f-string writer the CSV outputs used before ``csv_text``."""
    lines = [f"# {key} = {fmt(value)}\n" for key, value in metadata.items()]
    lines.append(",".join(columns) + "\n")
    for row in zip(*values):
        cells = (f"{v:.17g}" if isinstance(v, np.floating) else f"{int(v)}" for v in row)
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


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
