"""Prism dispersion: Sellmeier index model and frequency-to-deflection chain.

The refractive index is the standard three-term Sellmeier form

    n^2(lambda) = 1 + sum_i b_i lambda^2 / (lambda^2 - c_i),

with coefficients loaded from a versioned data file (fused silica ships by
default, using the Malitson fit). A prism at minimum deviation turns a small
index change Delta_n into an angular deflection

    delta = 2 Delta_n / sqrt(sin(gamma/2)**-2 - n**2),

and the transverse momentum kick on the beam is k = delta * k0. Delta_n is
the Sellmeier sum's own difference in closed form (``index_step``), never
the difference of two rounded indices, so it keeps its relative precision
from 1 Hz to multi-THz offsets; the slope d(delta)/d(nu) is its dnu -> 0
limit (``index_slope``). The prism's ``OperatingPoint`` holds n0, dn/dnu
and the denominator r, evaluated once, and every deflection reads them.

All functions are pure; wavelength/frequency arguments accept scalars or
numpy arrays.
"""

import functools
import types
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (
    DomainError,
    GrazingIncidenceError,
    NumericalError,
    UnreachableSlopeError,
    ValidationError,
)
from .units import data_lines, finite_number, fmt

SPEED_OF_LIGHT = 299792458.0  # m/s, exact SI value
TWO_PI = 2.0 * np.pi
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


@functools.cache
def load_material_catalog():
    """The packaged Sellmeier coefficient table, keyed by material name.

    Parsed on the first call and shared by every later one as a read-only
    mapping of frozen models.

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
    return types.MappingProxyType(catalog)


def get_material(name):
    catalog = load_material_catalog()
    if name not in catalog:
        known = ", ".join(sorted(catalog))
        raise ValidationError(f"unknown material {name!r}; catalog has: {known}")
    return catalog[name]


def _check_window(model, lam):
    lo, hi = model.valid_range
    if np.any(lam < lo) or np.any(lam > hi):
        least, most = fmt(np.min(lam)), fmt(np.max(lam))
        seen = least if least == most else f"{least}..{most}"  # one wavelength, named once
        raise DomainError(
            f"wavelength outside {model.name} validity range [{lo:.3e}, {hi:.3e}] m: {seen} m"
        )


def sellmeier_index(model, wavelength):
    """Refractive index n(lambda) from the three-term Sellmeier sum."""
    lam = np.asarray(wavelength, dtype=float)
    _check_window(model, lam)
    lam2 = lam**2
    n2 = 1.0 + sum(b * lam2 / (lam2 - c) for b, c in zip(model.b, model.c))
    if np.any(n2 <= 0.0):
        raise NumericalError(
            f"Sellmeier sum for {model.name} gave non-positive n^2; "
            "coefficient table is inconsistent"
        )
    n = np.sqrt(n2)
    return float(n) if np.isscalar(wavelength) else n


def index_step(model, wavelength, n0, frequency_shift):
    """Index change Delta_n = n(nu0 + dnu) - n0, with n0 = n(wavelength), nu0 = c/wavelength.

    The Sellmeier sum gives the difference without subtracting two indices:
    n^2 - n0^2 = sum_i b_i c_i (lambda0^2 - lambda^2) / ((lambda^2 - c_i)(lambda0^2 - c_i)),
    lambda0^2 - lambda^2 = lambda0^2 dnu (2 nu0 + dnu) / (nu0 + dnu)^2, and
    Delta_n = (n^2 - n0^2) / (n + n0). Every factor keeps its relative
    precision, so Delta_n does too at any offset inside the validity window.
    ``index_step_frequency`` inverts this map.
    """
    dnu = np.asarray(frequency_shift, dtype=float)
    nu0 = SPEED_OF_LIGHT / wavelength
    nu = nu0 + dnu
    lam = SPEED_OF_LIGHT / nu
    _check_window(model, lam)
    lam2, lam02 = lam**2, wavelength**2
    gap = lam02 * dnu * (nu0 + nu) / nu**2  # lambda0^2 - lambda^2
    dn2 = sum(b * c * gap / ((lam2 - c) * (lam02 - c)) for b, c in zip(model.b, model.c))
    step = dn2 / (np.sqrt(n0**2 + dn2) + n0)
    return float(step) if np.isscalar(frequency_shift) else step


def index_slope(model, wavelength, n0):
    """dn/dnu at nu0 = c/wavelength, the dnu -> 0 limit of ``index_step``:
    lambda0^3 / (n0 c) * sum_i b_i c_i / (lambda0^2 - c_i)^2."""
    lam02 = wavelength**2
    total = sum(b * c / (lam02 - c) ** 2 for b, c in zip(model.b, model.c))
    return wavelength**3 / (n0 * SPEED_OF_LIGHT) * total


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


def deflection_denominator(prism, n0):
    """r = sqrt(sin(gamma/2)**-2 - n0^2), the denominator of the deflection."""
    radicand = float(np.sin(prism.apex_angle / 2.0)) ** -2 - n0**2
    if radicand <= 0.0:
        raise GrazingIncidenceError(
            "sin(gamma/2)**-2 - n^2 <= 0: grazing-incidence regime, deflection "
            f"formula invalid (gamma={prism.apex_angle:.4f}, n={n0:.4f})"
        )
    return float(np.sqrt(radicand))


@dataclass(frozen=True)
class OperatingPoint:
    """A prism at its carrier: n0 = n(lambda0), dn/dnu there (1/Hz) and the
    deflection denominator r = sqrt(sin(gamma/2)**-2 - n0^2), each evaluated
    once. Built by ``operating_point`` or ``calibrate_apex_angle``."""

    prism: Prism
    carrier: OpticalCarrier
    n0: float
    index_slope: float
    denominator: float


def operating_point(prism, carrier):
    """The operating point of a prism with a given apex angle."""
    material, wavelength = prism.material, carrier.wavelength
    n0 = sellmeier_index(material, wavelength)
    return OperatingPoint(
        prism, carrier, n0, index_slope(material, wavelength, n0),
        deflection_denominator(prism, n0),
    )


def dispersive_deflection(point, frequency_shift):
    """Angular deflection delta = 2 Delta_n / r for a frequency change of the
    carrier, with Delta_n from ``index_step``. With normal dispersion,
    positive shifts give positive deflections."""
    step = index_step(point.prism.material, point.carrier.wavelength, point.n0, frequency_shift)
    return 2.0 * step / point.denominator


def momentum_kick(deflection, carrier):
    """Transverse momentum kick k = delta * k0 (rad/m)."""
    return deflection * carrier.wavenumber


def kick_of_shift(point, frequency_shift):
    """Transverse momentum kick (rad/m) for a frequency shift of the point's carrier."""
    return momentum_kick(dispersive_deflection(point, frequency_shift), point.carrier)


def deflection_slope(point):
    """Local deflection slope d(delta)/d(nu) = 2 (dn/dnu) / r in rad/Hz."""
    return 2.0 * point.index_slope / point.denominator


def calibrate_apex_angle(target_slope, path_length, carrier, material):
    """The operating point of the prism that gives a target unamplified slope.

    ``target_slope`` is the free deflection per unit frequency (m/Hz) at
    distance ``path_length``: target = 2 L (dn/dnu) / r. dn/dnu does not
    depend on gamma, so r = 2 L (dn/dnu) / target is carried as is, and the
    apex angle gamma = 2*asin(1/sqrt(n0^2 + r^2)) only describes the prism.
    Getting r back from gamma would cancel near grazing incidence, where r is
    small. r falls strictly with gamma on (0, 2*asin(1/n0)), so a target
    outside the slopes of that bracket is provably unreachable. The point
    depends on these four arguments alone, so it is computed once per
    process for each (``_calibrated_point``).
    """
    return _calibrated_point(target_slope, path_length, carrier, material)


@functools.lru_cache(maxsize=32)
def _calibrated_point(target_slope, path_length, carrier, material):
    if path_length <= 0:
        raise ValidationError(f"path length must be positive, got {path_length}")
    wavelength = carrier.wavelength
    n0 = sellmeier_index(material, wavelength)
    slope = index_slope(material, wavelength, n0)
    f_lo, f_hi = (
        2.0 * path_length * slope / deflection_denominator(Prism(gamma, material), n0)
        for gamma in (MIN_APEX_ANGLE, 2.0 * np.arcsin(1.0 / n0) * (1.0 - 1e-12))
    )
    if not f_lo <= target_slope <= f_hi:
        raise UnreachableSlopeError(
            f"target slope {target_slope:.6e} m/Hz outside achievable range "
            f"[{f_lo:.6e}, {f_hi:.6e}] m/Hz for {material.name} at {wavelength:.4e} m"
        )
    r = 2.0 * path_length * slope / target_slope
    gamma = float(2.0 * np.arcsin(1.0 / np.sqrt(n0**2 + r**2)))
    return OperatingPoint(Prism(gamma, material), carrier, n0, slope, r)
