"""Unit-suffixed quantity parsing and CSV text at the I/O boundary.

All internal quantities are SI (m, Hz, W, s, rad). Suffixes are only
interpreted when reading config files and command-line flags, e.g.
``388um``, ``2mW``, ``780nm``, ``7.4MHz``, ``30ms``. Bare numbers pass
through unchanged.

Every CSV the package writes is ``# key = value`` metadata lines, one column
line and numeric rows; ``csv_text`` writes that layout and ``csv_columns``
reads it back, both a block or a whole body at a time rather than row by
row. ``csv_text`` formats the float cells of a block in numpy, byte for byte
what ``'%.17g' % x`` gives, each in a fixed-width row of bytes; it zeroes
the bytes a cell's layout drops and deletes every NUL with one
``bytes.translate``, which is exact because no written byte is NUL. It knows
|x| scaled to 17 integer digits to within 5e-15; a cell whose rounding that
leaves in doubt (within 1e-12 of a tie, exact decimal ties among them), and
zeros, non-finite values and |x| outside [1e-280, 1e280), are written by
``'%.17g' % x`` itself. ``csv_columns`` reads each cell of the grammar
``[+-]digits[.digits][(e|E)[+-]digits]`` (one digit run of the mantissa may
be empty) as an integer mantissa M and exponent E, with numpy's int64
parser, and computes M·10^E from the same double-double table to within
2^-100; a cell within 2^-80 of a rounding midpoint, or that reads as zero, a
power of two, |M| >= 1e18 or E outside [-280, 262], is read by
``np.fromstring`` itself. A body with any other byte (whitespace, ``nan``,
``inf``) or cell is read by ``np.fromstring`` whole. Either way every value
is the one ``np.fromstring`` gives. The line-oriented data files (config
files, positions, reference lines, the Sellmeier catalog) are read by
``data_lines``, and their numbers parsed by ``finite_number``.
"""

import functools
import re
from pathlib import Path

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
        try:
            return _finite(float(text), text)
        except OverflowError:  # an int beyond the float range
            raise ValidationError(f"quantity {text!r} is not finite") from None
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


def data_lines(source):
    """``(where, line)`` for each line of a UTF-8 text file, a path or a packaged
    resource, that is neither blank nor a '#' comment; a leading byte-order
    mark is dropped. ``where`` is ``source:lineno``, the prefix of any message
    about that line."""
    if not hasattr(source, "read_bytes"):
        source = Path(source)
    try:
        text = source.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{source}: not UTF-8 text (byte {exc.start})") from None
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            records.append((f"{source}:{lineno}", line))
    return records


def finite_number(text, where):
    """``float(text)``, refused with a ``where``-prefixed message unless finite."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ValidationError(f"{where}: not a finite number: {text!r}")
    return value


def fmt(value):
    """Format a float with 17 significant digits (bit-exact round trip)."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


CSV_BLOCK_ROWS = 4096  # rows per formatting step; bounds every per-cell temporary

# The %.17g kernel. A cell with |x| in [1e-280, 1e280) has X = floor(log10|x|)
# in [_X_MIN, _X_MAX] (one to spare for log10's rounding), and its 17 digits
# are y = |x|·10^(16 - X) rounded to an integer.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_X_MIN, _X_MAX = -281, 280
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_TIE_BAND = 1e-12  # y is known to 5e-15; a fraction this close to 1/2 takes '%.17g'
# Each cell is laid out in a row of _CELL bytes, and its layout code picks the
# bytes that stay:
#   0 '-' | 1-2 '0.' | 3-5 '000' | 6-39 d0 '.' d1 '.' ... d16 '.' | 40 'e' | 41 sign
#   | 42-44 exponent digits | 45 separator
# The code is (sign·23 + notation)·17 + significant digits - 1. Notations 0-20
# are fixed point with X = notation - 4, 21 and 22 exponent notation with two
# and three exponent digits. Codes from _LAYOUTS on keep the first
# code - _LAYOUTS bytes: a cell written by '%.17g' or '%d' (24 bytes at most).
_CELL = 48
_LAYOUTS = 2 * 23 * 17
_VERBATIM = 24

# The reader (see csv_columns): body bytes per block, the byte classes (the
# events are the bytes not of class _DIGIT), the exponents E that keep M·10^E
# in [_FAST_MIN, _FAST_MAX) for 1 <= |M| < 1e18, and the midpoint band.
_BLOCK_BYTES = 1 << 17
_DIGIT, _COMMA, _NEWLINE, _DOT, _EXP, _OTHER = range(6)
_E_MIN, _E_MAX = -280, 262
_MIDPOINT_BAND = 2.0**-80


@functools.cache
def _powers_of_ten():
    """10^k = hi + lo for k = 16 - _X_MIN down to _E_MIN, each part correctly
    rounded from exact integers, as (hi, hi's two Veltkamp halves, lo); built on
    first use. Entry i is 10^(16 - X) for the writer's X = i + _X_MIN, and 10^E
    for the reader's E = 16 - _X_MIN - i."""
    hi = np.empty(16 - _X_MIN - _E_MIN + 1)
    lo = np.empty_like(hi)
    for i, k in enumerate(range(16 - _X_MIN, _E_MIN - 1, -1)):
        if k >= 0:
            hi[i] = 10**k
            lo[i] = 10**k - int(hi[i])
        else:
            scale = 10**-k
            hi[i] = 1 / scale
            num, den = hi[i].as_integer_ratio()
            lo[i] = (den - num * scale) / (den * scale)
    c = _SPLIT * hi
    head = c - (c - hi)
    return hi, head, hi - head, lo


def _times_power(a, i):
    """a·(hi + lo) = p + r for the table entries ``i`` of ``_powers_of_ten``:
    p = fl(a·hi), Dekker's TwoProduct gives its exact error, and a·lo adds the
    rest. ``a`` and the entries must keep every product normal."""
    hi, hi_head, hi_tail, lo = _powers_of_ten()
    p = a * hi.take(i)
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    head, tail = hi_head.take(i), hi_tail.take(i)
    r = (((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail) + a * lo.take(i)
    return p, r


def _seventeen_digits(x):
    """``(digits, X - _X_MIN, fast)`` for a float array ``x``.

    Where ``fast``, ``digits``·10^(X - 16) is |x| rounded to 17 significant
    digits, and ``digits`` lies in [1e16, 1e17). Every other cell must be
    written by ``'%.17g' % x`` (see ``csv_text`` for which those are).
    """
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a = np.where(fast, a, 1.0)  # keeps log10 and the table indices in range
    X = np.floor(np.log10(a)).astype(np.intp) - _X_MIN
    # y = a·10^(16 - X) = p + r, and p = fl(y) is a whole number near [1e16, 1e17].
    p, r = _times_power(a, X)
    whole = np.floor(r)
    frac = r - whole
    floor_y = p.astype(np.int64) + whole.astype(np.int64)
    digits = floor_y + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > _TIE_BAND) & (floor_y >= 10**16) & (digits < 10**17)
    return digits, X, fast


def _keep_masks():
    """(layout code, byte) -> whether that byte of the cell's row is written."""
    code = np.arange(_LAYOUTS)
    negative, notation, digits = code // (23 * 17), code // 17 % 23, code % 17 + 1
    x = notation - 4
    fixed = notation <= 20
    # Fixed point keeps the integer part's zeros and puts the point after dX;
    # exponent notation puts it after d0. No point when no decimal is left.
    n_digits = np.where(fixed, np.maximum(digits, x + 1), digits)
    point = np.where(fixed, np.where(digits > x + 1, x, -1), np.where(digits > 1, 0, -1))
    keep = np.zeros((_LAYOUTS + _VERBATIM + 1, _CELL), bool)
    keep[:_LAYOUTS, 0] = negative == 1
    keep[:_LAYOUTS, 1:3] = (fixed & (x < 0))[:, None]
    keep[:_LAYOUTS, 3:6] = np.arange(3) < (-x - 1)[:, None]
    keep[:_LAYOUTS, 6:40:2] = np.arange(17) < n_digits[:, None]
    keep[:_LAYOUTS, 7:40:2] = np.arange(17) == point[:, None]
    keep[:_LAYOUTS, 40:45] = ~fixed[:, None]
    keep[:_LAYOUTS, 42] &= notation == 22
    keep[_LAYOUTS:, :_VERBATIM] = np.arange(_VERBATIM) < np.arange(_VERBATIM + 1)[:, None]
    keep[:, 45] = True
    return keep


@functools.cache
def _layout_tables():
    """Lookup tables of the layout, built on first use.

    Per top digit t (0 and 10 occur only in cells that take the fallback):
    bytes 0-7. Per four digits g: bytes "d.d.d.d." and g's trailing zeros (4
    for 0000). Per X - _X_MIN: bytes 40-47 for a middle and for a last
    column, and the layout code of a positive cell with 17 significant
    digits. Then the keep masks as 0xFF (kept) and 0x00 (dropped) bytes,
    viewed as 8-byte words.
    """
    g = np.arange(10000)
    pairs = np.full((10000, 8), ord("."), np.uint8)
    for i, unit in enumerate((1000, 100, 10, 1)):
        pairs[:, 2 * i] = g // unit % 10 + ord("0")
    trailing = (g % 10 == 0).astype(np.intp) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    lead = np.tile(np.frombuffer(b"-0.0000.", np.uint8), (11, 1))
    lead[:, 6] += np.arange(11, dtype=np.uint8)
    xs = np.arange(_X_MIN, _X_MAX + 1)
    expo = np.zeros((xs.size, 2, 8), np.uint8)
    expo[..., 0] = ord("e")
    expo[..., 1] = np.where(xs < 0, ord("-"), ord("+"))[:, None]
    for i, unit in enumerate((100, 10, 1)):
        expo[..., 2 + i] = (np.abs(xs) // unit % 10 + ord("0"))[:, None]
    expo[..., 5] = (ord(","), ord("\n"))
    notation = np.where((xs >= -4) & (xs < 17), xs + 4, np.where(np.abs(xs) < 100, 21, 22))
    return (
        lead.view(np.uint64).ravel(), pairs.view(np.uint64).ravel(), trailing,
        expo.view(np.uint64).ravel(), notation * 17 + 16,
        (_keep_masks().astype(np.uint8) * 0xFF).view(np.uint64),
    )


def _block_text(block):
    """The CSV rows of ``block`` (one array per column) as ASCII bytes."""
    lead, pairs, trailing, expo, code_base, keep = _layout_tables()
    n_rows, width = block[0].size, len(block)
    is_int = [column.dtype.kind in "biu" for column in block]
    cells = np.empty((n_rows, width))
    for j, column in enumerate(block):
        cells[:, j] = 1.0 if is_int[j] else column
    x = cells.ravel()
    digits, X, fast = _seventeen_digits(x)
    fast.reshape(n_rows, width)[:, is_int] = False
    high = digits // 10**8
    low = digits - high * 10**8
    top = high // 10**8
    high -= top * 10**8
    groups = [high // 10000, high % 10000, low // 10000, low % 10000]
    rows = np.empty((x.size, _CELL), np.uint8)
    words = rows.view(np.uint64)
    words[:, 0] = lead.take(top)
    for j, group in enumerate(groups, start=1):
        words[:, j] = pairs.take(group)
    last = np.arange(width) == width - 1
    words[:, 5] = expo.take((2 * X.reshape(n_rows, width) + last).ravel())
    g1, g2, g3, g4 = groups
    zeros = trailing.take(g4) + (g4 == 0) * (
        trailing.take(g3) + (g3 == 0) * (trailing.take(g2) + (g2 == 0) * trailing.take(g1))
    )
    code = code_base.take(X) + np.signbit(x) * (23 * 17) - zeros
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [
            ("%d" if is_int[j] else "%.17g") % block[j][i]
            for i, j in (divmod(cell, width) for cell in slow.tolist())
        ]
        verbatim = np.array([cell.encode() for cell in text], dtype=f"S{_VERBATIM}")
        rows[slow, :_VERBATIM] = verbatim.view(np.uint8).reshape(slow.size, _VERBATIM)
        code[slow] = _LAYOUTS + np.array([len(cell) for cell in text])
    # No kept byte is NUL, so zeroing the dropped ones and deleting every NUL
    # leaves exactly the kept bytes.
    words &= keep.take(code, axis=0)
    return words.tobytes().translate(None, b"\0")


def csv_text(metadata, columns, *values):
    """CSV text: ``# key = value`` metadata lines, the column line, then rows.

    ``values`` holds one 1-D array (or scalar) per name in ``columns``.
    Integer and bool columns are written with ``%d``, all others as
    ``'%.17g' % x``, byte for byte, which round-trips bit-exactly. Rows are
    formatted ``CSV_BLOCK_ROWS`` at a time, so the temporaries stay small
    however long the record is.

    Float cells are formatted in numpy, a block at once. With X =
    floor(log10|x|), y = |x|·10^(16 - X) is computed as p + r from a
    double-double power of ten and Dekker's exact product, to within 5e-15;
    its 17 digits are y rounded to an integer, cut into four-digit groups,
    and laid out by Python's ``g`` rules (fixed point for -4 <= X < 17,
    trailing zeros and a bare point dropped). Each cell fills a fixed row of
    bytes; its layout's keep mask zeroes the bytes that are not written, and
    one ``bytes.translate`` per block deletes every NUL. No written byte is
    NUL, so that leaves exactly the written bytes, without the index array
    that selecting them would build. A cell whose rounding is in
    doubt, i.e. whose fraction of y lies within 1e-12 of 1/2 (every exact
    decimal tie among them, which Python rounds half to even), is written
    by ``'%.17g' % x`` itself. So are cells whose y does not round into
    [1e16, 1e17) at that X (next to a power of ten, where the digits start
    one place off), zeros, non-finite values and |x| outside [1e-280, 1e280).
    """
    arrays = [np.atleast_1d(value) for value in values]
    if len(arrays) != len(columns) or any(a.ndim != 1 for a in arrays):
        raise ValidationError(f"need one 1-D value array per column of {columns}")
    n_rows = arrays[0].size
    if any(a.size != n_rows for a in arrays):
        raise ValidationError(f"columns {columns} differ in length")
    lines = [f"# {key} = {fmt(value)}\n" for key, value in metadata.items()]
    lines.append(",".join(columns) + "\n")
    text = bytearray("".join(lines).encode())
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        text += _block_text([a[start : start + CSV_BLOCK_ROWS] for a in arrays])
    return text.decode()


@functools.cache
def _reader_tables():
    """The byte-class table, and the table that turns the events that end a
    token (commas, newlines, 'e' and 'E') into commas; built on first use."""
    classes = bytearray([_OTHER]) * 256
    for chars, kind in (
        (b"0123456789+-", _DIGIT), (b",", _COMMA), (b"\n", _NEWLINE), (b".", _DOT), (b"eE", _EXP)
    ):
        for char in chars:
            classes[char] = kind
    return bytes(classes), bytes.maketrans(b"eE\n", b",,,")


def _row_separators(kinds, width):
    """Mask of the commas and newlines among the event classes ``kinds``.

    A ValidationError is raised unless they are the row pattern: width - 1
    commas before each newline, and a newline last.
    """
    is_separator = kinds <= _NEWLINE
    separators = kinds[is_separator]
    n_rows, short = divmod(separators.size, width)
    # Once n_rows newlines fill the slots that end rows, the rest are commas.
    if short or np.count_nonzero(separators == _NEWLINE) != n_rows or not (
        separators[width - 1 :: width] == _NEWLINE
    ).all():
        raise ValidationError(f"CSV rows must hold {width} comma-separated values")
    return is_separator


def _parse_floats(data, count):
    """``np.fromstring`` of comma-separated cells; None unless ``count`` numbers."""
    try:
        values = np.fromstring(data, sep=",")
    except ValueError:  # raised on an unparsable cell; older numpy truncates instead
        return None
    return values if values.size == count else None


def _whole_body(data, width):
    """The table of the body, parsed in one ``np.fromstring`` call: the
    reader's fallback."""
    codes = np.frombuffer(data.translate(_reader_tables()[0]), np.uint8)
    _row_separators(codes[codes != _DIGIT], width)
    values = _parse_floats(data.replace(b"\n", b","), data.count(b"\n") * width)
    if values is None:
        raise ValidationError("CSV body holds a value that is not a number")
    return np.ascontiguousarray(values.reshape(-1, width).T)


def _scale(M, E):
    """``(s, fast)``: where ``fast``, s is M·10^E correctly rounded."""
    fast = (M != 0) & (M > -(10**18)) & (M < 10**18) & (E >= _E_MIN) & (E <= _E_MAX)
    M = np.where(fast, M, 1)  # safe operands: no product under- or overflows
    i = np.where(fast, 16 - _X_MIN - E, 16 - _X_MIN)
    a = M.astype(float)
    b = (M - a.astype(np.int64)).astype(float)  # M = a + b exactly, |b| <= 64
    p, r = _times_power(a, i)
    r += b * _powers_of_ten()[0].take(i)
    s = p + r
    t = r - (s - p)  # Fast2Sum: s + t = p + r exactly
    magnitude = np.abs(s)
    fast &= np.abs(np.abs(t) - 0.5 * np.spacing(magnitude)) > _MIDPOINT_BAND * magnitude
    fast &= (s.view(np.int64) & (2**52 - 1)) != 0  # a power of two has a finer ulp below
    return s, fast


def _mantissas(block, width):
    """``(M, E, ends)`` for the cells of ``block``, whole rows of a body, in
    reading order: each is M·10^E and ends at byte ``ends``. None when
    ``block`` is outside the integer route's grammar."""
    classes, to_int = _reader_tables()
    codes = np.frombuffer(block.translate(classes), np.uint8)
    events = np.flatnonzero(codes != _DIGIT)
    kinds = codes[events]
    is_separator = _row_separators(kinds, width)
    # Tokens are the digit runs between commas, newlines and e's, dots deleted.
    # Every event but a dot should end one; an _OTHER byte ends none, so it
    # leaves fewer tokens than that, as does an empty token at the end.
    try:
        tokens = np.fromstring(block.translate(to_int, b"."), dtype=np.int64, sep=",")
    except ValueError:
        return None
    exps = np.flatnonzero(kinds == _EXP)
    dots = np.flatnonzero(kinds == _DOT)
    if tokens.size != kinds.size - dots.size:
        return None
    # Before event x end x - (dots before x) tokens: an 'e' there is followed
    # by exponent token x - (dots before x) + 1, and a dot lies inside token
    # x - (dots before x).
    exp_token = exps + 1 - np.searchsorted(dots, exps)
    dot_token = dots - np.arange(dots.size)
    mantissa = np.ones(tokens.size, bool)
    mantissa[exp_token] = False
    short = events[exps[events[exps + 1] - events[exps] == 2]]  # 'e' and one byte
    after = np.frombuffer(block, np.uint8)[np.append(short, events[dots]) + 1]
    if (
        (np.diff(exp_token) == 1).any()  # a second 'e'
        or not mantissa[dot_token].all()  # a dot in an exponent
        or (np.diff(dot_token) == 0).any()  # a second dot
        or ((after == ord("+")) | (after == ord("-"))).any()  # a bare sign reads 0, '.-1' -0.01
    ):
        return None
    exponent = np.zeros(tokens.size, np.int64)
    exponent[exp_token - 1] = tokens[exp_token]
    exponent[dot_token] -= events[dots + 1] - events[dots] - 1  # fraction digits
    return tokens[mantissa], exponent[mantissa], events[is_separator]


def _read_block(block, width):
    """The cells of ``block``, whole rows of a body, in reading order; None
    when ``block`` is outside the integer route's grammar."""
    # Two calls, so that the parse's temporaries are freed before _scale
    # allocates its own: together they raised the peak resident memory.
    cells = _mantissas(block, width)
    if cells is None:
        return None
    M, E, ends = cells
    values, fast = _scale(M, E)
    slow = np.flatnonzero(~fast)
    if slow.size:
        starts = np.append(0, ends[:-1] + 1)
        text = b",".join(block[starts[j] : ends[j]] for j in slow.tolist())
        exact = _parse_floats(text, slow.size)
        if exact is None:
            return None
        values[slow] = exact
    return values


def csv_columns(text, columns):
    """Parse ``csv_text`` output into ``({key: value string}, table)``.

    ``table`` is a float array of shape (len(columns), rows): ``table[j]`` is
    column j. The ``#`` lines above the column line are the metadata. A
    ValidationError is raised unless every row holds exactly one number per
    column. Every value is bit for bit what ``np.fromstring`` gives.

    The body is read ``_BLOCK_BYTES`` at a time, cut at a newline. One
    ``bytes.translate`` classes each byte and checks the row pattern; a
    second deletes the dots and turns 'e', 'E' and newlines into commas, and
    numpy's int64 parser reads every mantissa and exponent. A cell is then
    M·10^E, with E the exponent less the digits after the dot, computed as
    p + r from the double-double 10^E and Dekker's exact product, to within
    2^-100. s = fl(p + r) is the correctly rounded value unless its rest
    lies within 2^-80·|s| of half an ulp. Those cells, and cells with M = 0
    (so -0.0 stays), |M| >= 1e18 (the int parser saturates there), a power
    of two as s (the ulp below it is finer) or E outside [-280, 262] (so
    every product stays normal), are read by ``np.fromstring`` one by one.
    The whole body is read by one ``np.fromstring`` call when a block holds
    a byte other than digits, signs, ``,.eE`` and newlines, a cell the int
    parser refuses (an empty cell, a bare sign or ``e``), or a cell with
    two dots, two e's, a dot in its exponent or a sign after its dot.
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
    start += len(column_line)
    stop = len(text)
    while stop > start and text[stop - 1].isspace():  # what rstrip strips, uncopied
        stop -= 1
    data = text[start:stop].encode()
    if not data:
        raise ValidationError("CSV has no data rows")
    width = len(columns)
    # The last row has no newline of its own; its block and the fallback's
    # input get one, so that every row they read ends with one.
    n_rows = np.count_nonzero(np.frombuffer(data, np.uint8) == ord("\n")) + 1
    table = np.empty((width, n_rows))
    row = start = 0
    while start < len(data):
        end = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        block = data[start:end]
        if end == len(data):
            block += b"\n"
        values = _read_block(block, width)
        if values is None:
            return metadata, _whole_body(data + b"\n", width)
        rows = values.size // width
        table[:, row : row + rows] = values.reshape(rows, width).T
        row += rows
        start = end
    return metadata, table
