"""Reference implementations the tests check the package against.

The package computes the split detector and the dark-port centroid in
closed form. The oracles here evaluate the same quantities by trapezoid
quadrature on a tabulated detector-plane profile, or write out the formula
a test compares against. None is used by a request.
"""

import numpy as np
from scipy.integrate import trapezoid

from wvfreq.errors import DarkPortEmptyError, GrazingIncidenceError, ValidationError
from wvfreq.interferometer import DEFAULT_GRID_HALF_WIDTH
from wvfreq.signal_chain import stage_coefficients

DEFAULT_GRID_POINTS = 4097  # tail error of the +-8 sigma grid ~ exp(-32)


def dark_port_grid(state, n_points=DEFAULT_GRID_POINTS, half_width=DEFAULT_GRID_HALF_WIDTH):
    """Symmetric detector-plane grid covering +-half_width*sigma."""
    span = half_width * state.beam.sigma
    return np.linspace(-span, span, n_points)


def dark_port_profile(k, state, x_grid, background_fraction=0.0):
    """Normalized dark-port intensity samples on ``x_grid`` (unit trapezoid
    integral).

    A nonzero ``background_fraction`` beta mixes in a uniform floor carrying
    beta of the input light (relative to the sin^2(phi/2) dark-port share),
    standing in for stray light from imperfect optics.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size < 2 or np.any(np.diff(x_grid) <= 0):
        raise ValidationError("x_grid must be a strictly increasing 1-D array")
    if background_fraction < 0:
        raise ValidationError("background fraction must be >= 0")
    p_ps = np.sin(state.phi / 2.0) ** 2
    w_dark = p_ps / (p_ps + background_fraction) if background_fraction else 1.0
    envelope = np.exp(-(x_grid**2) / (2.0 * state.beam.sigma**2))
    intensity = np.sin(k * x_grid + state.phi / 2.0) ** 2 * envelope
    norm = trapezoid(intensity, x_grid)
    if norm <= 0.0:
        raise DarkPortEmptyError("dark-port intensity vanished on the grid")
    uniform = 1.0 / (x_grid[-1] - x_grid[0])
    return w_dark * intensity / norm + (1.0 - w_dark) * uniform


def exact_dark_port_mean(k, state):
    """First moment of the exact dark-port intensity, by trapezoid quadrature.

    Valid beyond k*sigma << 1; this is the oracle against which the
    linearized ``amplified_deflection`` is checked. Raises DarkPortEmptyError
    when essentially no light reaches the dark port (phi ~ 0 and k ~ 0).
    """
    sigma = state.beam.sigma
    x = dark_port_grid(state)
    intensity = np.sin(k * x + state.phi / 2.0) ** 2 * np.exp(
        -(x**2) / (2.0 * sigma**2)
    )
    norm = trapezoid(intensity, x)
    # Compare against the bright-beam normalization sqrt(2*pi)*sigma.
    occupancy = norm / (np.sqrt(2.0 * np.pi) * sigma)
    if occupancy < 1e-14:
        raise DarkPortEmptyError(f"dark-port occupancy {occupancy:.3e} below floor 1e-14")
    return trapezoid(x * intensity, x) / norm


def amplified_deflection_closed_form(dn, gamma, n, phi, sigma, k0):
    """Small-phi closed form 8 k0 sigma^2 (dn/phi) / sqrt(sin(gamma/2)**-2 - n^2).

    Uses the small-angle weak value 2/phi instead of cot(phi/2); relative to
    ``amplified_deflection`` the substitution error is about phi^2/12.
    """
    radicand = np.sin(gamma / 2.0) ** -2 - n**2
    if radicand <= 0.0:
        raise GrazingIncidenceError(
            f"sin(gamma/2)**-2 - n^2 = {radicand:.3e} <= 0 in closed-form deflection"
        )
    return 8.0 * k0 * sigma**2 * (dn / phi) / np.sqrt(radicand)


def unamplified_deflection(k, path_length, k0):
    """Free-space deflection l*k/k0 = l*delta of the un-postselected beam."""
    return path_length * k / k0


def split_probability(x_grid, intensity):
    """Probability that a photon drawn from the profile lands at x > 0."""
    x_grid = np.asarray(x_grid, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    right = x_grid >= 0.0
    return trapezoid(intensity[right], x_grid[right])


def split_calibration_constant(x_grid, intensity):
    """Meters per unit difference-over-sum for small centroid shifts.

    For a small rigid shift d of a symmetric profile the count asymmetry is
    2*I(0)*d, so the inverse slope is 1/(2*I(0)).
    """
    center = np.interp(0.0, x_grid, intensity)
    if center <= 0.0:
        raise ValidationError("profile vanishes at the split position")
    return 1.0 / (2.0 * center)


def frequency_response(spec, freqs, sample_rate):
    """Complex response of the full cascade (all stages and the gain),
    gain * (B(1/z) / A(1/z))**stages at z = exp(2 pi i f / sample_rate).

    1/z and the power sums are evaluated in the order ``stage_coefficients``
    uses for its unity-gain normalization: at high oversampling A(1/z) is
    small near the center, and another order (``scipy.signal.freqz``, or
    exp(-2 pi i f / sample_rate)) moves the center gain by about 1e-15.
    """
    b, a = stage_coefficients(spec, sample_rate)
    zi = 1.0 / np.exp(2j * np.pi * np.asarray(freqs, dtype=float) / sample_rate)
    stage = sum(c * zi**i for i, c in enumerate(b)) / sum(c * zi**i for i, c in enumerate(a))
    return spec.gain * stage**spec.stages
