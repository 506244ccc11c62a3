"""Unit-suffixed quantity parsing and CSV text at the I/O boundary.

All internal quantities are SI (m, Hz, W, s, rad). Suffixes are only
interpreted when reading config files and command-line flags, e.g.
``388um``, ``2mW``, ``780nm``, ``7.4MHz``, ``30ms``. Bare numbers pass
through unchanged.

Every CSV the package writes is ``# key = value`` metadata lines, one
column line and numeric rows; ``csv_text`` writes that layout and
``csv_columns`` reads it back, both a block or a whole body at a time
rather than row by row.
"""

import re

import numpy as np

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
    suffix-less numbers are accepted for any dimension. Numbers pass through
    as floats. A value that is not finite, such as '1e309' or '1e300THz'
    once scaled, is rejected.
    """
    if not isinstance(text, str):
        return _finite(float(text), text)
    match = _QUANTITY_RE.match(text)
    if match is None:
        raise ValidationError(f"cannot parse quantity {text!r}")
    number, suffix = match.groups()
    try:
        value = float(number)
    except ValueError as exc:
        raise ValidationError(f"cannot parse number in {text!r}") from exc
    if not suffix:
        return _finite(value, text)
    if suffix not in _SUFFIXES:
        raise ValidationError(f"unknown unit suffix {suffix!r} in {text!r}")
    multiplier, kind = _SUFFIXES[suffix]
    if dimension is not None and kind != dimension:
        raise ValidationError(
            f"unit {suffix!r} in {text!r} is a {kind}, expected {dimension}"
        )
    return _finite(value * multiplier, text)


def _finite(value, text):
    if not np.isfinite(value):
        raise ValidationError(f"quantity {text!r} is not finite")
    return value


def fmt(value):
    """Format a float with 17 significant digits (bit-exact round trip)."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


CSV_BLOCK_ROWS = 4096  # rows per ``%`` operation; bounds the temporary cell tuple
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))


def csv_text(metadata, columns, *values):
    """CSV text: ``# key = value`` metadata lines, the column line, then rows.

    ``values`` holds one 1-D array (or scalar) per name in ``columns``.
    Integer and bool columns are written with ``%d``, all others with
    ``%.17g``, which is byte-identical to ``f"{x:.17g}"`` and round-trips
    bit-exactly. Rows are formatted ``CSV_BLOCK_ROWS`` at a time, one ``%``
    operation per block, so the temporary cells stay small however long the
    record is.
    """
    arrays = [np.atleast_1d(value) for value in values]
    if len(arrays) != len(columns) or any(a.ndim != 1 for a in arrays):
        raise ValidationError(f"need one 1-D value array per column of {columns}")
    n_rows = arrays[0].size
    if any(a.size != n_rows for a in arrays):
        raise ValidationError(f"columns {columns} differ in length")
    width = len(arrays)
    row = ",".join("%d" if a.dtype.kind in "biu" else "%.17g" for a in arrays) + "\n"
    parts = [f"# {key} = {fmt(value)}\n" for key, value in metadata.items()]
    parts.append(",".join(columns) + "\n")
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        block = [a[start : start + CSV_BLOCK_ROWS].tolist() for a in arrays]
        cells = [None] * (len(block[0]) * width)
        for j, column in enumerate(block):
            cells[j::width] = column  # row-major interleave, native int/float kept
        parts.append(row * len(block[0]) % tuple(cells))
    return "".join(parts)


def csv_columns(text, columns):
    """Parse ``csv_text`` output into ``({key: value string}, table)``.

    ``table`` is a float array of shape (len(columns), rows): ``table[j]`` is
    column j. The ``#`` lines above the column line are the metadata. The
    body is parsed in one vectorised call; a ValidationError is raised
    unless every row holds exactly one number per column.
    """
    column_line = ",".join(columns) + "\n"
    mismatch = f"CSV header mismatch: expected {column_line.strip()!r}"
    start = text.find("\n" + column_line) + 1  # 0 when absent: then it must lead
    if not text.startswith(column_line, start):
        raise ValidationError(mismatch)
    metadata = {}
    for line in text[:start].splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            raise ValidationError(mismatch)
        key, equals, value = line[1:].partition("=")
        if equals:
            metadata[key.strip()] = value.strip()
    data = text[start + len(column_line) :].rstrip().encode()
    if not data:
        raise ValidationError("CSV has no data rows")
    width = len(columns)
    # Every row holds width - 1 commas: what remains of the body once all
    # but its separators are deleted is that row pattern, once per row.
    separators = data.translate(None, _NOT_SEPARATOR) + b"\n"
    n_rows = separators.count(b"\n")
    if separators != (b"," * (width - 1) + b"\n") * n_rows:
        raise ValidationError(f"CSV rows must hold {width} comma-separated values")
    try:
        values = np.fromstring(data.replace(b"\n", b","), sep=",")
    except ValueError:  # raised on an unparsable cell; older numpy truncates instead
        values = np.empty(0)
    if values.size != n_rows * width:
        raise ValidationError("CSV body holds a value that is not a number")
    return metadata, np.ascontiguousarray(values.reshape(n_rows, width).T)
