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

``usable_range`` inverts the Sellmeier sum in closed form, a cubic in
lambda^2, at the index where the kick reaches the k*sigma threshold.
"""

from dataclasses import dataclass

import numpy as np

from .dispersion import (
    SPEED_OF_LIGHT,
    deflection_denominator,
    deflection_slope,
    index_step_frequency,
    sellmeier_index,
)
from .errors import NumericalError, ValidationError

PLANCK = 6.62607015e-34  # J s, exact SI value


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

    k sigma = 2 k0 sigma (n - n0) / sqrt(sin(gamma/2)**-2 - n0^2) reaches the
    threshold at the index n_star, where the Sellmeier sum is inverted in
    closed form. If n_star lies beyond the edge of the Sellmeier window the
    result is clamped there and flagged. If n_star rounds to n0, the range
    lies below the frequency step the dispersion model resolves: refused.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must lie in (0, 1], got {threshold}")
    material = prism.material
    n0 = sellmeier_index(material, carrier.wavelength)
    dn = threshold * deflection_denominator(prism, n0) / (2.0 * carrier.wavenumber * sigma)
    n_star = n0 + dn
    edge = SPEED_OF_LIGHT / material.valid_range[0] - carrier.frequency
    edge *= 1.0 - 1e-12  # stay inside the validity window
    if n_star >= sellmeier_index(material, SPEED_OF_LIGHT / (carrier.frequency + edge)):
        return UsableRange(frequency_span=edge, clamped=True)
    if n_star == n0:
        raise NumericalError(
            f"usable range lies below the dispersion model's frequency resolution: "
            f"its index step {dn:.3g} is lost in rounding n = {n0:.6f} "
            f"(sigma = {sigma:.3g} m, threshold = {threshold:.3g})"
        )
    span = index_step_frequency(material, carrier.wavelength, n0, dn)
    return UsableRange(frequency_span=float(span), clamped=False)


def split_estimate(n_right, n_total, calibration):
    """Calibrated difference-over-sum position estimate, elementwise.

    ``calibration`` * (2 n_right - n_total) / n_total, in the units of the
    calibration constant (meters per unit asymmetry).
    """
    return calibration * (2.0 * n_right - n_total) / n_total
