"""Frequency-scan calibration against saturated-absorption reference lines.

The laser's scan control is linear in optical frequency to good accuracy;
its slope and intercept are fit by ordinary least squares to the known
spacings of Rb D2 hyperfine and crossover features (shipped as a data
file). The fractional slope uncertainty is what propagates onto every
frequency quoted by the instrument.
"""

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import NumericalError, ValidationError
from .units import data_lines, finite_number

_LINES_RESOURCE = "rb_d2_reference_lines.txt"


@dataclass(frozen=True)
class ReferenceLine:
    """A spectroscopic feature at a known offset from the anchor line."""

    label: str
    relative_frequency: float  # Hz


@dataclass(frozen=True)
class ScanCalibration:
    slope: float  # Hz per scan unit
    intercept: float  # Hz
    residual_rms: float  # Hz
    slope_error: float  # Hz per scan unit

    def __post_init__(self):
        if self.slope == 0.0:
            raise ValidationError("calibration slope must be nonzero")
        if self.residual_rms < 0 or self.slope_error < 0:
            raise ValidationError("residual_rms and slope_error must be >= 0")

    @property
    def fractional_slope_error(self):
        return self.slope_error / abs(self.slope)


def load_reference_lines(path=None):
    """Read reference lines as a tuple; the packaged Rb D2 set is the default.

    The packaged set is parsed once per process; a file at ``path`` is read
    on every call. File format: ``name, relative_frequency_mhz[, note]``
    records with '#' comments. Frequencies are returned in Hz, and must be
    finite there and strictly ordered.
    """
    if path is None:
        return _packaged_reference_lines()
    lines = []
    for where, line in data_lines(path):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 2:
            raise ValidationError(f"{where}: reference record needs name, MHz")
        hz = finite_number(fields[1], where) * 1e6
        if not math.isfinite(hz):
            raise ValidationError(f"{where}: {fields[1]} MHz is not a finite frequency in Hz")
        lines.append(ReferenceLine(label=fields[0], relative_frequency=hz))
    rel = [line.relative_frequency for line in lines]
    if any(b <= a for a, b in zip(rel, rel[1:])):
        raise ValidationError("reference lines must be strictly increasing in frequency")
    return tuple(lines)


@functools.cache
def _packaged_reference_lines():
    return load_reference_lines(resources.files("wvfreq").joinpath("data", _LINES_RESOURCE))


def _squared_spread(values, name):
    """Mean and sum of squared deviations of ``values``, refused unless a normal float."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean()
        spread = ((values - mean) ** 2).sum()
    if not np.finfo(float).tiny <= spread < np.inf:
        raise NumericalError(
            f"the spread of the {name} cannot be squared in float64: "
            f"sum of squared deviations = {spread:.3g}"
        )
    return mean, spread


def fit_scan_calibration(observed_positions, references):
    """OLS fit of reference frequency against observed scan position.

    ``observed_positions`` correspond to ``references`` by order (no peak
    matching is attempted). Returns slope, intercept, plain RMS residual
    and the standard error of the slope.
    """
    x = np.asarray(observed_positions, dtype=float)
    if len(references) != x.size:
        raise ValidationError(
            f"{x.size} observed positions for {len(references)} reference lines"
        )
    if x.size < 2:
        raise ValidationError("need at least two lines to calibrate")
    if np.unique(x).size != x.size:
        raise ValidationError("degenerate fit: duplicate observed positions")
    y = np.asarray([ref.relative_frequency for ref in references], dtype=float)
    # A normal sxx keeps the slope, |slope| <= sqrt(syy / sxx), and its error (two roots)
    # finite; a finite syy bounds every residual, |y - fit| <= sqrt(syy), and their sums.
    x_mean, sxx = _squared_spread(x, "observed positions")
    y_mean, _ = _squared_spread(y, "reference frequencies")
    slope = ((x - x_mean) * (y - y_mean)).sum() / sxx
    intercept = y_mean - slope * x_mean
    residuals = y - (slope * x + intercept)
    residual_rms = float(np.sqrt(np.mean(residuals**2)))
    dof = x.size - 2
    if dof > 0:
        slope_error = float(np.sqrt((residuals**2).sum() / dof) / np.sqrt(sxx))
    else:
        slope_error = 0.0
    return ScanCalibration(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=residual_rms,
        slope_error=slope_error,
    )


def propagate_calibration_error(calibration, value):
    """Frequency uncertainty on ``value`` from the calibration slope error."""
    return abs(value) * calibration.fractional_slope_error
