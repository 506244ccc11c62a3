"""Photon budgeting, shot-noise SNR and the split-detector estimate.

The shot-noise-limited SNR for a deflection delta measured with N photons
entering the interferometer is

    R = sqrt(8 N / pi) * k0 * sigma * delta,

independent of the postselection strength phi: postselecting fewer photons
is exactly compensated by the weak-value amplification. N counts photons
entering the interferometer; the detector only sees N * sin^2(phi/2) of
them (plus any stray-light background).

A split detector uses only the side of each hit, so its left/right counts
are binomial with the probability ``p_right`` of landing at x > 0.
``split_estimate`` turns such counts into the calibrated difference-over-sum
position estimate; it is the one estimator every simulated record uses.
"""

from dataclasses import dataclass

import numpy as np

from .dispersion import SPEED_OF_LIGHT, deflection_slope, dispersive_deflection, momentum_kick
from .errors import NumericalError, ValidationError

PLANCK = 6.62607015e-34  # J s, exact SI value
# Iteration cap of the usable-range root find, a guard against a loop that
# never ends. scipy's default of 100 stops a 5 mm beam at threshold 0.2 over
# a 5 cm path one step short of the 110 it needs; sampled configs need at
# most 120.
ROOT_FIND_MAXITER = 500


@dataclass(frozen=True)
class SensitivityReport:
    snr: float
    min_deflection: float
    min_frequency_shift: float
    integration_time: float
    sensitivity_per_rt_hz: float
    ideal_sensitivity_per_rt_hz: float
    usable_range_hz: float
    range_clamped: bool

    def __post_init__(self):
        for name in (
            "snr",
            "min_deflection",
            "min_frequency_shift",
            "sensitivity_per_rt_hz",
            "ideal_sensitivity_per_rt_hz",
            "usable_range_hz",
        ):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
        expected = self.min_frequency_shift * np.sqrt(self.integration_time)
        if abs(expected - self.sensitivity_per_rt_hz) > 1e-12 * expected:
            raise ValidationError(
                "sensitivity_per_rt_hz inconsistent with min shift and "
                "integration time"
            )


@dataclass(frozen=True)
class UsableRange:
    """Largest usable frequency offset; ``clamped`` marks truncation at the
    edge of the Sellmeier validity window."""

    frequency_span: float
    clamped: bool


def photon_number(power, carrier, integration_time):
    """N = P * tau * lambda / (h c)."""
    if power < 0:
        raise ValidationError(f"power must be >= 0, got {power}")
    if not integration_time > 0:
        raise ValidationError(
            f"integration time must be positive, got {integration_time}"
        )
    n = power * integration_time * carrier.wavelength / (PLANCK * SPEED_OF_LIGHT)
    if not np.isfinite(n):
        raise ValidationError(
            f"photon number overflows for power {power} W over {integration_time} s"
        )
    return n


def shot_noise_snr(n_photons, k0, sigma, deflection):
    """R = sqrt(8 N / pi) * k0 * sigma * delta; independent of phi."""
    if n_photons < 0:
        raise ValidationError(f"photon number must be >= 0, got {n_photons}")
    return np.sqrt(8.0 * n_photons / np.pi) * k0 * sigma * deflection


def ideal_sensitivity(power, carrier, sigma, prism):
    """Shot-noise-limited sensitivity in Hz/sqrt(Hz).

    Sets R = 1 at one second of integration, solves for the minimum
    deflection and converts through the local dispersion slope.
    """
    n = photon_number(power, carrier, 1.0)
    if n <= 0:
        raise ValidationError("zero photon budget: sensitivity is unbounded")
    delta_min = 1.0 / (np.sqrt(8.0 * n / np.pi) * carrier.wavenumber * sigma)
    return delta_min / deflection_slope(prism, carrier)


def measured_sensitivity(min_shift, integration_time):
    """Scale a minimum detectable shift at integration time tau to 1 s:
    min_shift * sqrt(tau)."""
    if not min_shift > 0:
        raise ValidationError(f"minimum shift must be positive, got {min_shift}")
    if not integration_time > 0:
        raise ValidationError(
            f"integration time must be positive, got {integration_time}"
        )
    return min_shift * np.sqrt(integration_time)


def usable_range(carrier, sigma, prism, threshold=0.5):
    """Largest frequency offset keeping k(nu)*sigma below ``threshold``.

    The kick grows monotonically with the offset under normal dispersion, so
    a bracketed root find on [0, validity edge] suffices. If even the edge
    of the Sellmeier window stays below threshold the result is clamped
    there and flagged. A root where the kick is still exactly zero lies
    below the frequency step the dispersion model resolves, so it is refused.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold}")

    def kick_sigma(dnu):
        delta = dispersive_deflection(prism, carrier.wavelength, dnu)
        return momentum_kick(delta, carrier) * sigma

    def excess(dnu):
        return kick_sigma(dnu) - threshold

    lambda_min = prism.material.valid_range[0]
    edge = SPEED_OF_LIGHT / lambda_min - carrier.frequency
    edge *= 1.0 - 1e-12  # stay inside the validity window
    if excess(edge) < 0.0:
        return UsableRange(frequency_span=edge, clamped=True)
    span, converged, iterations = _brentq(
        excess, 0.0, edge, xtol=1e-3, rtol=1e-12, maxiter=ROOT_FIND_MAXITER
    )
    if not converged:
        raise NumericalError(
            f"usable-range root find did not converge in {iterations} "
            f"iterations (sigma = {sigma:.3g} m, threshold = {threshold:.3g})"
        )
    if kick_sigma(span) == 0.0:
        raise NumericalError(
            f"usable-range root find ended at {span:.3g} Hz with no kick: the range "
            "lies below the dispersion model's frequency resolution "
            f"(sigma = {sigma:.3g} m, threshold = {threshold:.3g})"
        )
    return UsableRange(frequency_span=span, clamped=False)


def _brentq(f, xa, xb, xtol, rtol, maxiter):
    """Root of ``f`` bracketed by [xa, xb] by Brent's method: (root, converged,
    iterations).

    A port of scipy's ``brentq`` (scipy/optimize/Zeros/brentq.c) with the
    same operations in the same order, so it returns the same iterates; scipy
    is its test oracle. The steps run in float64 with IEEE semantics, as in
    C: an overflow or a 0/0 in a trial step makes it fail the step test and
    bisect. The caller guarantees that f(xa) and f(xb) differ in sign.
    """
    xpre, xcur = np.float64(xa), np.float64(xb)
    fpre, fcur = np.float64(f(xpre)), np.float64(f(xcur))
    if fpre == 0.0:
        return float(xpre), True, 0
    if fcur == 0.0:
        return float(xcur), True, 0
    xblk = fblk = spre = scur = 0.0
    for iteration in range(1, maxiter + 1):
        with np.errstate(all="ignore"):
            if fpre != 0.0 and fcur != 0.0 and np.signbit(fpre) != np.signbit(fcur):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = (xtol + rtol * abs(xcur)) / 2.0
            sbis = (xblk - xcur) / 2.0
            if fcur == 0.0 or abs(sbis) < delta:
                return float(xcur), True, iteration
            if abs(spre) > delta and abs(fcur) < abs(fpre):
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                    spre, scur = scur, stry  # good short step
                else:
                    spre = scur = sbis  # bisect
            else:
                spre = scur = sbis  # bisect
            xpre, fpre = xcur, fcur
            if abs(scur) > delta:
                xcur = xcur + scur
            else:
                xcur = xcur + (delta if sbis > 0 else -delta)
        fcur = np.float64(f(xcur))
    return float(xcur), False, maxiter


def split_estimate(n_right, n_total, calibration):
    """Calibrated difference-over-sum position estimate, elementwise.

    ``calibration`` * (2 n_right - n_total) / n_total, in the units of the
    calibration constant (meters per unit asymmetry).
    """
    return calibration * (2.0 * n_right - n_total) / n_total
