import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvfreq import cli
from wvfreq.calibration import (
    ReferenceLine,
    ScanCalibration,
    fit_scan_calibration,
    load_reference_lines,
    propagate_calibration_error,
)
from wvfreq.errors import ValidationError


@pytest.fixture(scope="module")
def rb_lines():
    return load_reference_lines()


def positions_for(references, slope, intercept=0.0):
    return [(ref.relative_frequency - intercept) / slope for ref in references]


class TestReferenceData:
    def test_lines_are_a_tuple(self, rb_lines, tmp_path):
        assert type(rb_lines) is tuple
        path = tmp_path / "refs.txt"
        path.write_text("a, 0.0\nb, 10.0\n")
        assert load_reference_lines(path) == (ReferenceLine("a", 0.0), ReferenceLine("b", 1e7))

    def test_six_features_strictly_ordered(self, rb_lines):
        assert len(rb_lines) == 6
        freqs = [line.relative_frequency for line in rb_lines]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_known_hyperfine_spacings(self, rb_lines):
        by_name = {line.label: line.relative_frequency for line in rb_lines}
        # crossover spacing = half the excited-state splitting it brackets
        rb87_co_gap = by_name["rb87_f2_co23"] - by_name["rb87_f2_co13"]
        assert rb87_co_gap == pytest.approx(156.947e6 / 2, rel=1e-3)
        assert by_name["rb87_f2_f3"] - by_name["rb87_f2_co23"] == pytest.approx(
            266.650e6 / 2, rel=1e-3
        )
        assert by_name["rb85_f3_f4"] - by_name["rb85_f3_co34"] == pytest.approx(
            120.640e6 / 2, rel=1e-3
        )
        assert by_name["rb85_f3_co34"] - by_name["rb85_f3_co24"] == pytest.approx(
            63.401e6 / 2, rel=1e-3
        )
        # isotope groups sit ~1.1 GHz apart
        assert by_name["rb85_f3_f4"] - by_name["rb87_f2_f3"] == pytest.approx(
            1.1265e9, rel=1e-3
        )


class TestFitScanCalibration:
    def test_exact_linear_recovery(self, rb_lines):
        cal = fit_scan_calibration(positions_for(rb_lines, 2.3e8, 1e7), rb_lines)
        assert cal.slope == pytest.approx(2.3e8, rel=1e-12)
        assert cal.intercept == pytest.approx(1e7, rel=1e-6)
        assert cal.residual_rms <= 1e-12 * abs(rb_lines[-1].relative_frequency)
        assert cal.slope_error <= 1e-12 * cal.slope

    def test_jitter_recovered_in_residuals(self, rb_lines):
        # Additive frequency jitter of scale eps shows up as residual rms
        # ~ eps * sqrt((n-2)/n); averaged over 100 seeded fits it lands
        # within 30% of eps.
        slope, eps = 2.3e8, 5e6
        x = np.array(positions_for(rb_lines, slope))
        rms = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            jittered = [
                ReferenceLine(line.label, line.relative_frequency + rng.normal(0, eps))
                for line in rb_lines
            ]
            rms.append(fit_scan_calibration(x, jittered).residual_rms)
        assert np.mean(rms) == pytest.approx(eps, rel=0.30)

    def test_error_propagation_to_published_ratio(self, rb_lines):
        # A calibration carrying the published 7/129 fractional slope error
        # propagates 129 kHz to 7 kHz.
        cal = ScanCalibration(
            slope=2.3e8, intercept=0.0, residual_rms=1e6, slope_error=2.3e8 * 7 / 129
        )
        assert propagate_calibration_error(cal, 129e3) == pytest.approx(7e3, rel=1e-12)

    def test_seeded_fit_reports_fractional_form(self, rb_lines):
        # Jitter scaled to produce a ~5.4% fractional slope error; the
        # propagated error on a 129 kHz measurement comes out near +-7 kHz.
        slope = 2.3e8
        x = np.array(positions_for(rb_lines, slope))
        sxx = ((x - x.mean()) ** 2).sum()
        eps = 0.054 * slope * np.sqrt(sxx) / np.sqrt(6.0 / 4.0)  # E[frac] ~ 5.4%
        rng = np.random.default_rng(11)
        jittered = [
            ReferenceLine(line.label, line.relative_frequency + rng.normal(0, eps))
            for line in rb_lines
        ]
        cal = fit_scan_calibration(x, jittered)
        propagated = propagate_calibration_error(cal, 129e3)
        assert propagated == pytest.approx(
            cal.fractional_slope_error * 129e3, rel=1e-12
        )
        assert 3e3 <= propagated <= 12e3

    def test_zero_residual_zero_propagation(self, rb_lines):
        cal = fit_scan_calibration(positions_for(rb_lines, 1e8), rb_lines)
        assert propagate_calibration_error(cal, 129e3) <= 1e-9 * 129e3

    def test_propagation_linear_in_value(self):
        cal = ScanCalibration(slope=1e8, intercept=0.0, residual_rms=0.0, slope_error=5e6)
        assert propagate_calibration_error(cal, 2e5) == pytest.approx(
            2 * propagate_calibration_error(cal, 1e5), rel=1e-12
        )

    def test_validation_errors(self, rb_lines):
        with pytest.raises(ValidationError, match="observed positions"):
            fit_scan_calibration([1.0, 2.0], rb_lines)
        with pytest.raises(ValidationError, match="duplicate"):
            fit_scan_calibration([1.0, 1.0, 2.0, 3.0, 4.0, 5.0], rb_lines)
        with pytest.raises(ValidationError, match="at least two"):
            fit_scan_calibration([1.0], rb_lines[:1])

    def test_spread_near_the_root_of_the_smallest_normal(self, rb_lines):
        # Six positions 1e-153 ... 6e-153: the spread sum, about 1.75e-305, is a
        # normal float, and the slope error stays as finite as the slope, equal
        # to the unscaled fit's times 1e153.
        with np.errstate(all="raise"):
            cal = fit_scan_calibration(np.arange(1, 7) * 1e-153, rb_lines)
        unscaled = fit_scan_calibration(np.arange(1, 7), rb_lines)
        assert cal.slope == pytest.approx(unscaled.slope * 1e153, rel=1e-12)
        assert cal.slope_error == pytest.approx(unscaled.slope_error * 1e153, rel=1e-12)

    def test_reference_spread_beyond_float64_is_named(self, tmp_path, capsys):
        # Positions 3.0 ... 3.5 against references 1 ... 5 MHz and 1e300 MHz:
        # the references' sum of squared deviations overflows, and the
        # refusal names them instead of numpy's square.
        positions = tmp_path / "positions.txt"
        positions.write_text("".join(f"{3.0 + i / 10}\n" for i in range(6)))
        references = tmp_path / "references.txt"
        references.write_text("a, 1\nb, 2\nc, 3\nd, 4\ne, 5\nf, 1e300\n")
        assert cli.main(["calibrate", str(positions), "--references", str(references)]) == 4
        assert capsys.readouterr().err == (
            "numerical error: the spread of the reference frequencies cannot be squared "
            "in float64: sum of squared deviations = inf\n"
        )

    def test_reference_frequency_beyond_float64_in_hz_is_named(self, tmp_path, capsys):
        # 1e303 MHz is a finite number, but 1e309 Hz is not: the reader
        # refuses the line instead of handing the fit an infinite frequency.
        positions = tmp_path / "positions.txt"
        positions.write_text("".join(f"{3.0 + i / 10}\n" for i in range(6)))
        references = tmp_path / "references.txt"
        references.write_text("a, 1\nb, 2\nc, 3\nd, 4\ne, 5\nf, 1e303\n")
        assert cli.main(["calibrate", str(positions), "--references", str(references)]) == 2
        assert capsys.readouterr().err == (
            f"error: {references}:6: 1e303 MHz is not a finite frequency in Hz\n"
        )


class TestFitProperties:
    @settings(max_examples=40)
    @given(shift=st.floats(min_value=-100.0, max_value=100.0))
    def test_shift_equivariance(self, shift):
        lines = load_reference_lines()
        x = np.array(positions_for(lines, 3.1e8, 2e6))
        base = fit_scan_calibration(x, lines)
        shifted = fit_scan_calibration(x + shift, lines)
        assert shifted.slope == pytest.approx(base.slope, rel=1e-9)
        assert shifted.intercept == pytest.approx(
            base.intercept - shift * base.slope, rel=1e-6, abs=1e-3
        )

    @settings(max_examples=40)
    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    def test_scale_equivariance(self, scale):
        lines = load_reference_lines()
        x = np.array(positions_for(lines, 3.1e8, 2e6))
        base = fit_scan_calibration(x, lines)
        scaled = fit_scan_calibration(x * scale, lines)
        assert scaled.slope == pytest.approx(base.slope / scale, rel=1e-9)

    def test_anchor_relabeling_invariance(self):
        lines = load_reference_lines()
        x = np.array(positions_for(lines, 3.1e8))
        rng = np.random.default_rng(3)
        jitter = rng.normal(0, 4e6, len(lines))
        jittered = [
            ReferenceLine(l.label, l.relative_frequency + j)
            for l, j in zip(lines, jitter)
        ]
        base = fit_scan_calibration(x, jittered)
        # re-anchor on the last line instead of the Rb-87 F=2 -> F'=3 one
        offset = jittered[-1].relative_frequency
        relabeled = [
            ReferenceLine(l.label, l.relative_frequency - offset) for l in jittered
        ]
        moved = fit_scan_calibration(x, relabeled)
        assert moved.residual_rms == pytest.approx(base.residual_rms, rel=1e-9)
        assert moved.slope == pytest.approx(base.slope, rel=1e-9)
