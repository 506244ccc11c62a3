"""Prism dispersion: Sellmeier index model and frequency-to-deflection chain.

The refractive index is the standard three-term Sellmeier form

    n^2(lambda) = 1 + sum_i b_i lambda^2 / (lambda^2 - c_i),

with coefficients loaded from a versioned data file (fused silica ships by
default, using the Malitson fit). A prism at minimum deviation turns a small
index change Delta_n into an angular deflection

    delta = 2 Delta_n / sqrt(sin(gamma/2)**-2 - n**2),

and the transverse momentum kick on the beam is k = delta * k0. Delta_n is
always evaluated by two-point index evaluation (no analytic dn/dlambda), so
the chain stays exact over multi-THz frequency offsets.

All functions are pure; wavelength/frequency arguments accept scalars or
numpy arrays.
"""

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (
    DomainError,
    GrazingIncidenceError,
    NumericalError,
    TotalInternalReflectionError,
    UnreachableSlopeError,
    ValidationError,
)
from .units import data_lines, finite_number

SPEED_OF_LIGHT = 299792458.0  # m/s, exact SI value
TWO_PI = 2.0 * np.pi
PROBE_SHIFT = 1e6  # Hz: the two-point probe behind every local deflection slope
MIN_APEX_ANGLE = 1e-9  # rad: the smallest prism, and the low end of the calibration bracket

_CATALOG_RESOURCE = "sellmeier_coefficients.txt"


@dataclass(frozen=True)
class SellmeierModel:
    """Three-term Sellmeier fit. ``c`` is stored in m^2, ``valid_range`` in m."""

    name: str
    b: tuple
    c: tuple
    valid_range: tuple

    def __post_init__(self):
        if len(self.b) != 3 or len(self.c) != 3:
            raise ValidationError("SellmeierModel needs exactly three b and c terms")
        lo, hi = self.valid_range
        if not 0 < lo < hi:
            raise ValidationError("valid_range must satisfy 0 < min < max")


@dataclass(frozen=True)
class Prism:
    """Dispersive prism held at minimum deviation."""

    apex_angle: float
    material: SellmeierModel

    def __post_init__(self):
        if not MIN_APEX_ANGLE <= self.apex_angle < np.pi:
            raise ValidationError(
                f"apex angle must lie in [{MIN_APEX_ANGLE:g}, pi), got {self.apex_angle}"
            )


@dataclass(frozen=True)
class OpticalCarrier:
    """Carrier light. Frequency and wavenumber are derived from wavelength,
    which keeps lambda*nu = c and k0 = 2*pi/lambda consistent by construction."""

    wavelength: float

    def __post_init__(self):
        if not self.wavelength > 0:
            raise ValidationError(f"wavelength must be positive, got {self.wavelength}")

    @property
    def frequency(self):
        return SPEED_OF_LIGHT / self.wavelength

    @property
    def wavenumber(self):
        return TWO_PI / self.wavelength


def load_material_catalog():
    """Load the packaged Sellmeier coefficient table, keyed by material name.

    File format: comma-separated records
    ``name, b1, b2, b3, c1_um2, c2_um2, c3_um2, min_um, max_um`` with '#'
    comment lines.
    """
    path = resources.files("wvfreq").joinpath("data", _CATALOG_RESOURCE)
    catalog = {}
    for where, line in data_lines(path):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 9:
            raise ValidationError(f"{where}: material record has {len(fields)} fields, expected 9")
        name = fields[0]
        values = [finite_number(f, where) for f in fields[1:]]
        catalog[name] = SellmeierModel(
            name=name,
            b=tuple(values[0:3]),
            c=tuple(v * 1e-12 for v in values[3:6]),  # um^2 -> m^2
            valid_range=(values[6] * 1e-6, values[7] * 1e-6),
        )
    return catalog


def get_material(name):
    catalog = load_material_catalog()
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise ValidationError(f"unknown material {name!r}; catalog has: {known}")
    return catalog[name]


def sellmeier_index(model, wavelength):
    """Refractive index n(lambda) from the three-term Sellmeier sum."""
    lam = np.asarray(wavelength, dtype=float)
    lo, hi = model.valid_range
    if np.any(lam < lo) or np.any(lam > hi):
        raise DomainError(
            f"wavelength outside {model.name} validity range "
            f"[{lo:.3e}, {hi:.3e}] m: {np.min(lam):.6e}..{np.max(lam):.6e} m"
        )
    lam2 = lam**2
    n2 = 1.0 + sum(b * lam2 / (lam2 - c) for b, c in zip(model.b, model.c))
    if np.any(n2 <= 0.0):
        raise NumericalError(
            f"Sellmeier sum for {model.name} gave non-positive n^2; "
            "coefficient table is inconsistent"
        )
    n = np.sqrt(n2)
    return float(n) if np.isscalar(wavelength) else n


def index_step_frequency(model, wavelength, n0, dn):
    """Frequency offset at which the index rises from n0 = n(wavelength) to n0 + dn.

    With u = (lambda / wavelength)^2 - 1 and c'_i = c_i / wavelength^2, the
    Sellmeier sum gives n^2 - n0^2 = -u sum_i b_i c'_i / ((1 - c'_i)(1 - c'_i + u)),
    a cubic in u. n falls strictly with lambda between the UV and IR poles,
    so one root lies in the window; the other two lie beyond a pole, further
    from u = 0. Solving for u, not lambda^2, keeps its precision at small dn.
    """
    c = np.asarray(model.c) / wavelength**2
    cubic = dn * (2.0 * n0 + dn) * np.poly(c - 1.0)
    for i, weight in enumerate(np.asarray(model.b) * c / (1.0 - c)):
        cubic[:3] += weight * np.poly(np.delete(c - 1.0, i))
    u = min(np.roots(cubic), key=abs).real
    return SPEED_OF_LIGHT / wavelength * np.expm1(-0.5 * np.log1p(u))


def min_deviation_angle(prism, wavelength):
    """Total deviation theta = 2*asin(n*sin(gamma/2)) - gamma at minimum deviation."""
    n = sellmeier_index(prism.material, wavelength)
    s = n * np.sin(prism.apex_angle / 2.0)
    if np.any(s > 1.0):
        raise TotalInternalReflectionError(
            f"n*sin(gamma/2) = {np.max(s):.6f} > 1 for {prism.material.name}; "
            "beam does not traverse the prism"
        )
    theta = 2.0 * np.arcsin(s) - prism.apex_angle
    return float(theta) if np.isscalar(wavelength) else theta


def deflection_denominator(prism, n):
    radicand = float(np.sin(prism.apex_angle / 2.0)) ** -2 - n**2
    if np.any(radicand <= 0.0):
        raise GrazingIncidenceError(
            "sin(gamma/2)**-2 - n^2 <= 0: grazing-incidence regime, deflection "
            f"formula invalid (gamma={prism.apex_angle:.4f}, n={np.max(n):.4f})"
        )
    return np.sqrt(radicand)


def dispersive_deflection(prism, wavelength, frequency_shift):
    """Angular deflection delta for a frequency change of the carrier.

    delta = 2 * Delta_n / sqrt(sin(gamma/2)**-2 - n^2), with Delta_n taken
    from two-point index evaluation at nu and nu + frequency_shift. With
    normal dispersion, positive shifts give positive deflections.
    """
    dnu = np.asarray(frequency_shift, dtype=float)
    nu0 = SPEED_OF_LIGHT / wavelength
    n0 = sellmeier_index(prism.material, wavelength)
    n_shifted = sellmeier_index(prism.material, SPEED_OF_LIGHT / (nu0 + dnu))
    delta = 2.0 * (n_shifted - n0) / deflection_denominator(prism, n0)
    return float(delta) if np.isscalar(frequency_shift) else delta


def momentum_kick(deflection, carrier):
    """Transverse momentum kick k = delta * k0 (rad/m)."""
    return deflection * carrier.wavenumber


def deflection_slope(prism, carrier):
    """Local deflection slope d(delta)/d(nu) in rad/Hz, from a two-point probe."""
    return dispersive_deflection(prism, carrier.wavelength, PROBE_SHIFT) / PROBE_SHIFT


def calibrate_apex_angle(target_slope, path_length, carrier, material):
    """Recover the apex angle that reproduces a target unamplified slope.

    ``target_slope`` is the free deflection per unit frequency (m/Hz) at
    distance ``path_length``, i.e. path_length * delta(nu)/nu. Delta_n does
    not depend on gamma, so target = 2 L Delta_n / (probe r) with
    r = sqrt(sin(gamma/2)**-2 - n0^2) inverts in closed form:
    gamma = 2*asin(1/sqrt(n0^2 + r^2)). The forward map is strictly
    increasing in gamma on (0, 2*asin(1/n0)), so a target outside its range
    on that bracket is provably unreachable.
    """
    if path_length <= 0:
        raise ValidationError(f"path length must be positive, got {path_length}")
    n0 = sellmeier_index(material, carrier.wavelength)
    dn = sellmeier_index(material, SPEED_OF_LIGHT / (carrier.frequency + PROBE_SHIFT)) - n0
    gamma_max = 2.0 * np.arcsin(1.0 / n0)

    def forward(gamma):  # path_length * deflection_slope(...)
        prism = Prism(apex_angle=gamma, material=material)
        return path_length * (2.0 * dn / deflection_denominator(prism, n0)) / PROBE_SHIFT

    lo, hi = MIN_APEX_ANGLE, gamma_max * (1.0 - 1e-12)
    f_lo, f_hi = forward(lo), forward(hi)
    if not f_lo <= target_slope <= f_hi:
        raise UnreachableSlopeError(
            f"target slope {target_slope:.6e} m/Hz outside achievable range "
            f"[{f_lo:.6e}, {f_hi:.6e}] m/Hz for {material.name} at "
            f"{carrier.wavelength:.4e} m"
        )
    r = 2.0 * path_length * dn / (PROBE_SHIFT * target_slope)
    gamma_star = float(2.0 * np.arcsin(1.0 / np.sqrt(n0**2 + r**2)))
    achieved = forward(gamma_star)
    if abs(achieved - target_slope) > 1e-6 * abs(target_slope):
        raise NumericalError(
            f"apex-angle calibration missed target: got {achieved:.9e} m/Hz "
            f"for {target_slope:.9e} m/Hz"
        )
    return gamma_star
