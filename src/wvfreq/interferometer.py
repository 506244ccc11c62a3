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
form through the Dawson function D. D is evaluated by its Maclaurin series
in numpy, not taken from scipy.special: the argument sqrt(2) k sigma is
bounded by sqrt(2) * KICK_SIGMA_LIMIT, where at most 15 terms reach double
precision, and at the published operating point (|x| ~ 1e-6) two terms give
scipy's ``dawsn`` bit for bit. scipy's ``dawsn`` is the test oracle.
"""

from dataclasses import dataclass

import numpy as np

from .dispersion import OpticalCarrier
from .errors import (
    DarkPortEmptyError,
    DomainError,
    ValidationError,
    WeakValueValidityError,
)
from .units import fmt

KICK_SIGMA_LIMIT = 0.5  # largest |k sigma| the dark-port kernel accepts

DEFAULT_GRID_HALF_WIDTH = 8.0  # detector half-width in units of sigma

# sqrt(pi)/2 correctly rounded; math.sqrt(math.pi) / 2 is one ulp off.
_SQRT_PI_HALF = 0.88622692545275801365


def _dawson_series():
    """Maclaurin coefficients c_n of D(x) = sqrt(pi)/2 * x * sum c_n x^2n and,
    for n >= 1, the largest x^2 at which c_n x^2n is below 2^-56 c_0.

    c_n = (2/sqrt(pi)) (-2)^n / (2n+1)!! by recurrence; c_0 to c_2 equal the
    literals of Faddeeva's Taylor branch, which scipy's ``dawsn`` uses for
    |x| < 0.03. The table ends at the first term that can be dropped over
    the whole range |x| <= sqrt(2) * KICK_SIGMA_LIMIT.
    """
    coeffs, x2_bounds = [1.1283791670955125739], []
    while not x2_bounds or x2_bounds[-1] < 2.0 * KICK_SIGMA_LIMIT**2:
        n = len(coeffs)
        coeffs.append(-coeffs[-1] * 2.0 / (2 * n + 1))
        x2_bounds.append((2.0**-56 * coeffs[0] / abs(coeffs[n])) ** (1.0 / n))
    return tuple(coeffs), np.array(x2_bounds)


_DAWSON_COEFFS, _DAWSON_X2_BOUNDS = _dawson_series()


def _dawson(x):
    """Dawson function D(x) for |x| <= sqrt(2) * KICK_SIGMA_LIMIT, vectorized.

    Horner's rule in x^2 over as many terms as the largest |x| needs: the
    first term dropped is below 2^-56 relative. Callers keep x in range.
    The steps run in place, because a fresh array per step costs more than
    the arithmetic on it.
    """
    x2 = x * x
    n_terms = int(np.searchsorted(_DAWSON_X2_BOUNDS, np.max(x2, initial=0.0))) + 1
    series = np.full_like(x2, _DAWSON_COEFFS[n_terms - 1])
    for coeff in reversed(_DAWSON_COEFFS[: n_terms - 1]):
        series *= x2
        series += coeff
    series *= x
    series *= _SQRT_PI_HALF
    return series


@dataclass(frozen=True)
class BeamProfile:
    """Gaussian meter state: intensity-profile width sigma and its carrier."""

    sigma: float
    carrier: OpticalCarrier

    def __post_init__(self):
        if not self.sigma >= self.carrier.wavelength:  # floor of the paraxial model
            raise ValidationError(f"beam sigma must be >= the wavelength, got {self.sigma:g} m")


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
    quadrature of the profile over x >= 0. Refuses |k sigma| above
    KICK_SIGMA_LIMIT, the range of the Dawson series.
    """
    w_dark = _dark_weight(state.phi, background_fraction)
    ks = np.asarray(k, dtype=float) * state.beam.sigma
    ks_max = max(ks.max(initial=0.0), -ks.min(initial=0.0))
    if not ks_max <= KICK_SIGMA_LIMIT:
        raise WeakValueValidityError(
            f"k*sigma = {fmt(ks_max)} exceeds {KICK_SIGMA_LIMIT}, the range of the "
            "dark-port kernel"
        )
    # E is not kept, so one fewer live array is held while the series runs.
    occupancy = (
        2.0 * np.exp(-2.0 * ks**2) * np.sin(state.phi / 2.0) ** 2 - np.expm1(-2.0 * ks**2)
    )
    if np.any(occupancy <= 0.0):
        raise DarkPortEmptyError("dark-port intensity vanished")
    p_dark = 0.5 + np.sin(state.phi) * _dawson(np.sqrt(2.0) * ks) / (
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
