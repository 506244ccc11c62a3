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
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.constants import h as PLANCK
from scipy.optimize import brentq

from .dispersion import deflection_slope, dispersive_deflection, momentum_kick
from .errors import NumericalError, ValidationError


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
    there and flagged.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold}")

    def excess(dnu):
        delta = dispersive_deflection(prism, carrier.wavelength, dnu)
        return momentum_kick(delta, carrier) * sigma - threshold

    lambda_min = prism.material.valid_range[0]
    edge = SPEED_OF_LIGHT / lambda_min - carrier.frequency
    edge *= 1.0 - 1e-12  # stay inside the validity window
    if excess(edge) < 0.0:
        return UsableRange(frequency_span=edge, clamped=True)
    span, result = brentq(
        excess, 0.0, edge, xtol=1e-3, rtol=1e-12, full_output=True, disp=False
    )
    if not result.converged:
        raise NumericalError(
            f"usable-range root find did not converge in {result.iterations} "
            f"iterations (sigma = {sigma:.3g} m, threshold = {threshold:.3g})"
        )
    return UsableRange(frequency_span=span, clamped=False)


def split_estimate(n_right, n_total, calibration):
    """Calibrated difference-over-sum position estimate, elementwise.

    ``calibration`` * (2 n_right - n_total) / n_total, in the units of the
    calibration constant (meters per unit asymmetry).
    """
    return calibration * (2.0 * n_right - n_total) / n_total
