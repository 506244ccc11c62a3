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
lambda^2, at the index where the kick reaches the k*sigma threshold. It and
``ideal_sensitivity`` read the prism's ``dispersion.OperatingPoint``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .dispersion import SPEED_OF_LIGHT, deflection_slope, index_step, index_step_frequency
from .errors import NumericalError, ValidationError
from .interferometer import KICK_SIGMA_LIMIT

PLANCK = 6.62607015e-34  # J s, exact SI value


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


def ideal_sensitivity(power, point, sigma):
    """Shot-noise-limited sensitivity in Hz/sqrt(Hz) at an operating point.

    Sets R = 1 at one second of integration, solves for the minimum
    deflection and converts through the local dispersion slope.
    """
    n = photon_number(power, point.carrier, 1.0)
    if n <= 0:
        raise ValidationError("zero photon budget: sensitivity is unbounded")
    delta_min = 1.0 / shot_noise_snr(n, point.carrier.wavenumber, sigma, 1.0)
    return delta_min / deflection_slope(point)


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


def usable_range(point, sigma, threshold=0.5):
    """Largest frequency offset keeping k(nu)*sigma below ``threshold``, which
    lies in (0, KICK_SIGMA_LIMIT]: the kernel refuses a drive beyond that.

    k sigma = 2 k0 sigma Delta_n / r reaches the threshold at the index step
    dn = threshold r / (2 k0 sigma), where the Sellmeier sum is inverted in
    closed form. If dn lies beyond the step at the edge of the Sellmeier
    window the result is clamped there and flagged. A root that does not
    give back dn through ``index_step`` to 1e-9 is refused: below a step of
    about 1.5e-33 (fused silica at 780 nm) ``np.roots`` returns that root as 0.
    The range depends on these three arguments alone, so it is computed once
    per process for each (``_usable_range``).
    """
    return _usable_range(point, sigma, threshold)


@functools.lru_cache(maxsize=32)
def _usable_range(point, sigma, threshold):
    if not 0.0 < threshold <= KICK_SIGMA_LIMIT:
        raise ValidationError(f"threshold must lie in (0, {KICK_SIGMA_LIMIT}], got {threshold}")
    material, carrier = point.prism.material, point.carrier
    wavelength, n0 = carrier.wavelength, point.n0
    dn = threshold * point.denominator / (2.0 * carrier.wavenumber * sigma)
    edge = SPEED_OF_LIGHT / material.valid_range[0] - carrier.frequency
    edge *= 1.0 - 1e-12  # stay inside the validity window
    if dn >= index_step(material, wavelength, n0, edge):
        return UsableRange(frequency_span=edge, clamped=True)
    span = float(index_step_frequency(material, wavelength, n0, dn))
    if not (dn > 0.0 and abs(index_step(material, wavelength, n0, span) - dn) <= 1e-9 * dn):
        raise NumericalError(
            f"usable range not resolved: the root {span:.3g} Hz of the index step "
            f"{dn:.3g} does not give that step back "
            f"(sigma = {sigma:.3g} m, threshold = {threshold:.3g})"
        )
    return UsableRange(frequency_span=span, clamped=False)


def split_estimate(n_right, n_total, calibration, out=None):
    """Calibrated difference-over-sum position estimate, elementwise.

    ``calibration`` * (2 n_right - n_total) / n_total, in the units of the
    calibration constant (meters per unit asymmetry). The first product is
    the one temporary, the next two steps run in place on it, and the quotient
    is written into ``out`` when one is given, which may be ``n_right``'s own
    buffer: n_right is read only by the first product.
    """
    estimate = 2.0 * n_right
    estimate -= n_total
    estimate *= calibration
    return np.divide(estimate, n_total, out=out)


def split_noise(calibration, n_detected, p_right, dark_mean=0.0, electronic_noise=0.0):
    """Rms noise of one sample's ``split_estimate``, in the calibration's units.

    With n photons split at p_right, mu dark counts split evenly and added
    Gaussian noise sigma_e, sigma_x^2 = c^2 (4 n p (1 - p) + mu) / (n + mu)^2
    + sigma_e^2. ``p_right`` may be an array (a record's split probability at
    each phase); the variance is then averaged over it. A lock-in that reads
    a sine's amplitude from N_w such samples has noise sqrt(2 / N_w) sigma_x.
    The sum of squares is taken of c and sigma_e divided by 2^k, the power of
    two of the larger, so neither square overflows; the scaling is exact.
    """
    k = np.frexp(max(abs(calibration), electronic_noise))[1]
    c, sigma_e = np.ldexp(calibration, -k), np.ldexp(electronic_noise, -k)
    binomial = 4.0 * n_detected * np.mean(p_right * (1.0 - p_right))
    shot = c**2 * (binomial + dark_mean) / (n_detected + dark_mean) ** 2
    return float(np.ldexp(np.sqrt(shot + sigma_e**2), k))
