"""Sagnac weak measurement: weak value, postselection, dark-port statistics.

A vertical misalignment kick creates a relative phase phi between the
counter-propagating paths, so only a fraction sin^2(phi/2) of the light
exits the dark port. The prism kick +-k on the two paths makes the exact
dark-port intensity

    I(x) ~ sin^2(k x + phi/2) * exp(-x^2 / (2 sigma^2)),

with sigma the Gaussian intensity-profile standard deviation (field
amplitude ~ exp(-x^2/(4 sigma^2))). Linearizing in k*sigma gives the
amplified centroid shift 2 k sigma^2 cot(phi/2), i.e. the purely imaginary
weak value cot(phi/2) converts the momentum kick into a position shift.
The split detector's count probability keeps the full sin^2 form, in closed
form through the Dawson function.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn

from .dispersion import OpticalCarrier
from .errors import (
    DarkPortEmptyError,
    DomainError,
    ValidationError,
    WeakValueApproximationWarning,
    WeakValueValidityError,
)

# Linearization bookkeeping: warn above the soft bound, refuse above the hard one.
KICK_SIGMA_WARN = 0.1
KICK_SIGMA_LIMIT = 0.5

DEFAULT_GRID_HALF_WIDTH = 8.0  # detector half-width in units of sigma


@dataclass(frozen=True)
class BeamProfile:
    """Gaussian meter state: intensity-profile width sigma and its carrier."""

    sigma: float
    carrier: OpticalCarrier

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValidationError(f"beam sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class InterferometerState:
    """Dark-port phase, path length and beam. phi in (0, pi]; the weak-value
    amplification ops additionally require phi < pi."""

    phi: float
    path_length: float
    beam: BeamProfile

    def __post_init__(self):
        if not 0.0 < self.phi <= np.pi:
            raise ValidationError(f"phi must lie in (0, pi], got {self.phi}")
        if not self.path_length > 0:
            raise ValidationError(
                f"path length must be positive, got {self.path_length}"
            )


def weak_value_magnitude(phi):
    """|A_w| = cot(phi/2); the weak value itself is purely imaginary, which is
    why the kick appears as a position (not momentum) shift at the detector."""
    if not 0.0 < phi < np.pi:
        raise DomainError(f"phi must lie in (0, pi) for amplification, got {phi}")
    return 1.0 / np.tan(phi / 2.0)


def postselection_probability(phi):
    """Fraction sin^2(phi/2) of the input light that exits the dark port."""
    if not 0.0 <= phi <= np.pi:
        raise DomainError(f"phi must lie in [0, pi], got {phi}")
    return np.sin(phi / 2.0) ** 2


def phi_for_postselection(p_ps):
    """Dark-port phase giving postselection probability ``p_ps``."""
    if not 0.0 < p_ps <= 1.0:
        raise DomainError(f"postselection probability must lie in (0, 1], got {p_ps}")
    return 2.0 * np.arcsin(np.sqrt(p_ps))


def _check_kick_validity(k, sigma):
    ks = np.max(np.abs(k)) * sigma
    if ks > KICK_SIGMA_LIMIT:
        raise WeakValueValidityError(
            f"weak value condition k*sigma << 1 violated: k*sigma = {ks:.3g} "
            f"> {KICK_SIGMA_LIMIT}"
        )
    if ks > KICK_SIGMA_WARN:
        warnings.warn(
            f"k*sigma = {ks:.3g} exceeds {KICK_SIGMA_WARN}; linearized deflection "
            "is a degraded approximation",
            WeakValueApproximationWarning,
            stacklevel=3,
        )


def amplified_deflection(k, state):
    """Linearized dark-port centroid shift 2 k sigma^2 cot(phi/2) in meters."""
    sigma = state.beam.sigma
    _check_kick_validity(k, sigma)
    return 2.0 * k * sigma**2 * weak_value_magnitude(state.phi)


def amplification_factor(state):
    """Ratio of amplified to unamplified deflection, 2 k0 sigma^2 cot(phi/2) / l.

    The prism kick cancels, so the factor depends only on the interferometer.
    """
    k0 = state.beam.carrier.wavenumber
    return (
        2.0
        * k0
        * state.beam.sigma**2
        * weak_value_magnitude(state.phi)
        / state.path_length
    )


def dark_port_split_probability(k, state, background_fraction=0.0):
    """Closed-form probability that a detected photon lands at x >= 0.

    With E = exp(-2 k^2 sigma^2) and D the Dawson function, the half-line
    integral of sin^2(k x + phi/2) * exp(-x^2 / (2 sigma^2)) gives
    p_right = 1/2 + sin(phi) D(sqrt(2) k sigma) / (sqrt(pi) (1 - cos(phi) E));
    1 - cos(phi) E is evaluated as 2 E sin^2(phi/2) - expm1(-2 k^2 sigma^2),
    free of cancellation at small phi. The symmetric stray-light floor adds
    (1 - w_dark)/2. Vectorized over ``k``; its test oracle is a grid
    quadrature of the profile over x >= 0.
    """
    w_dark = _dark_weight(state.phi, background_fraction)
    ks = np.asarray(k, dtype=float) * state.beam.sigma
    damping = np.exp(-2.0 * ks**2)
    occupancy = 2.0 * damping * np.sin(state.phi / 2.0) ** 2 - np.expm1(-2.0 * ks**2)
    if np.any(occupancy <= 0.0):
        raise DarkPortEmptyError("dark-port intensity vanished")
    p_dark = 0.5 + np.sin(state.phi) * dawsn(np.sqrt(2.0) * ks) / (
        np.sqrt(np.pi) * occupancy
    )
    return w_dark * p_dark + (1.0 - w_dark) * 0.5


def dark_port_split_calibration(state, background_fraction=0.0):
    """Meters per unit difference-over-sum, 1 / (2 I(0)), at zero kick: the
    dark-port density at the split is 1 / (sqrt(2 pi) sigma), the floor's is
    uniform over the +-DEFAULT_GRID_HALF_WIDTH sigma detector."""
    w_dark = _dark_weight(state.phi, background_fraction)
    sigma = state.beam.sigma
    center = w_dark / (np.sqrt(2.0 * np.pi) * sigma) + (1.0 - w_dark) / (
        2.0 * DEFAULT_GRID_HALF_WIDTH * sigma
    )
    return 1.0 / (2.0 * center)


def _dark_weight(phi, background_fraction):
    """Share w_dark of the detected light that is dark-port light, not floor."""
    if background_fraction < 0:
        raise ValidationError("background fraction must be >= 0")
    if background_fraction == 0.0:
        return 1.0  # also when sin^2(phi/2) underflows to 0
    p_ps = postselection_probability(phi)
    return p_ps / (p_ps + background_fraction)
