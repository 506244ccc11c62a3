"""Unit-suffixed quantity parsing for the config/CLI boundary.

All internal quantities are SI (m, Hz, W, s, rad). Suffixes are only
interpreted when reading config files and command-line flags, e.g.
``388um``, ``2mW``, ``780nm``, ``7.4MHz``, ``30ms``. Bare numbers pass
through unchanged.
"""

import re

from .errors import ValidationError

# suffix -> (multiplier, dimension)
_SUFFIXES = {
    "fm": (1e-15, "length"),
    "pm": (1e-12, "length"),
    "nm": (1e-9, "length"),
    "um": (1e-6, "length"),
    "µm": (1e-6, "length"),
    "mm": (1e-3, "length"),
    "cm": (1e-2, "length"),
    "m": (1.0, "length"),
    "Hz": (1.0, "frequency"),
    "kHz": (1e3, "frequency"),
    "MHz": (1e6, "frequency"),
    "GHz": (1e9, "frequency"),
    "THz": (1e12, "frequency"),
    "nW": (1e-9, "power"),
    "uW": (1e-6, "power"),
    "mW": (1e-3, "power"),
    "W": (1.0, "power"),
    "ns": (1e-9, "time"),
    "us": (1e-6, "time"),
    "ms": (1e-3, "time"),
    "s": (1.0, "time"),
    "mrad": (1e-3, "angle"),
    "rad": (1.0, "angle"),
    "deg": (0.017453292519943295, "angle"),
}

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Zµ]*)\s*$")


def parse_quantity(text, dimension=None):
    """Parse ``text`` like '388um' or '7.4MHz' into an SI float.

    ``dimension`` (one of 'length', 'frequency', 'power', 'time',
    'angle') makes the parser reject a suffix of the wrong kind;
    suffix-less numbers are accepted for any dimension.
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _QUANTITY_RE.match(text)
    if match is None:
        raise ValidationError(f"cannot parse quantity {text!r}")
    number, suffix = match.groups()
    try:
        value = float(number)
    except ValueError as exc:
        raise ValidationError(f"cannot parse number in {text!r}") from exc
    if not suffix:
        return value
    if suffix not in _SUFFIXES:
        raise ValidationError(f"unknown unit suffix {suffix!r} in {text!r}")
    multiplier, kind = _SUFFIXES[suffix]
    if dimension is not None and kind != dimension:
        raise ValidationError(
            f"unit {suffix!r} in {text!r} is a {kind}, expected {dimension}"
        )
    return value * multiplier


def fmt(value):
    """Format a float with 17 significant digits (bit-exact round trip)."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def metadata_header(metadata):
    """``# key = value`` header lines for a {key: value} mapping."""
    return "".join(f"# {key} = {fmt(value)}\n" for key, value in metadata.items())
