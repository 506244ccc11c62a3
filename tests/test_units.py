"""The numpy kernels of ``units.csv_text`` and ``units.csv_columns``, cell by
cell against Python's ``'%.17g' % x`` and one whole-body ``np.fromstring``.

Every writer case compares each written cell with ``'%.17g' % x``, and every
reader case compares the table, bit for bit, or the ValidationError text
with ``oracles.fromstring_columns``. The cases also check which cells the
kernels handled themselves, so a kernel that sent every cell to its
fallback would fail them.
"""

import itertools
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fromstring_columns, per_row_csv
from wvfreq import cli, units
from wvfreq.config import config_from_mapping, resolve
from wvfreq.errors import ValidationError
from wvfreq.signal_chain import synthesize_run
from wvfreq.units import csv_columns, csv_text

INT64 = np.iinfo(np.int64)


@pytest.fixture(scope="module")
def record():
    """The 100 s record of the long-record workload, 1 kHz at the default point."""
    physics = resolve(config_from_mapping({}))
    rate = physics.config.sample_rate
    return synthesize_run(7.4e6, 100.0, rate, physics, physics.n_photons_per_sample(), 1403)


def fast_share(values):
    """Check csv_text's cells of ``values`` against '%.17g' % x; return the
    share of cells the kernel formatted without the fallback."""
    values = np.asarray(values, dtype=float)
    written = csv_text({}, ("x",), values).splitlines()[1:]
    expected = ["%.17g" % v for v in values.tolist()]
    assert len(written) == len(expected)
    wrong = [(v, w, e) for v, w, e in zip(values.tolist(), written, expected) if w != e]
    assert not wrong, wrong[:5]
    return units._seventeen_digits(values)[2].mean()


def exact_ties(per_exponent, seed):
    """n/2^j with exactly 18 significant digits, the last a 5: n odd and
    n·5^j in [1e17, 1e18), so rounding to 17 digits is an exact tie."""
    rng = np.random.default_rng(seed)
    ties = []
    for j in range(2, 26):
        low = -(-(10**17) // 5**j)
        high = min((10**18 - 1) // 5**j, 2**53 - 1)
        n = 2 * rng.integers(low // 2, (high - 1) // 2, per_exponent, endpoint=True) + 1
        assert n.min() >= low and n.max() <= high
        ties.append(n / 2.0**j)
    ties = np.concatenate(ties)
    ties[::2] *= -1.0
    return ties


def powers_of_ten_and_neighbours():
    """Every 10^k in the fast range, correctly rounded, and its two neighbours."""
    powers = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(-280, 280)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


class TestSeventeenDigits:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(1401).integers(0, 2**64, 220_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert values.size > 200_000
        # |x| in [1e-280, 1e280) holds about 91% of all exponents.
        assert fast_share(values) > 0.88

    def test_exact_ties_take_the_fallback(self):
        ties = exact_ties(4000, seed=1402)
        assert fast_share(ties) == 0.0
        # Python rounds each to an even 17th digit, which only a tie forces.
        assert all(int(("%.16e" % v).partition("e")[0][-1]) % 2 == 0 for v in ties[:2000])

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_ties_survive_an_error_in_y(self, sign):
        # Skew 10^k by 2e-32 relative: y moves by about 2e-15, inside the
        # 5e-15 error the tie band allows for, and each tie must still take
        # the fallback.
        hi, head, tail, lo = units._powers_of_ten()
        skewed = (hi, head, tail, lo + sign * 2e-32 * hi)
        with mock.patch.object(units, "_powers_of_ten", lambda: skewed):
            assert fast_share(exact_ties(500, seed=1404)) == 0.0

    def test_neighbours_of_powers_of_ten(self):
        values = powers_of_ten_and_neighbours()
        assert fast_share(np.concatenate([values, -values])) > 0.5

    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_log10_one_ulp_off(self, toward):
        # A misrounded log10 gives the wrong X next to a power of ten; the
        # y range checks must send those cells to the fallback.
        log10 = np.log10
        with mock.patch.object(units.np, "log10", lambda a: np.nextafter(log10(a), toward)):
            assert fast_share(powers_of_ten_and_neighbours()) > 0.3

    def test_range_edges_and_special_values(self):
        edges = [units._FAST_MIN, units._FAST_MAX]
        edges += [np.nextafter(edge, toward) for edge in edges for toward in (0.0, np.inf)]
        special = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]
        special += [1.7976931348623157e308, np.inf, np.nan]
        values = np.array(edges + special)
        values = np.concatenate([values, -values])
        fast_share(values)
        fast = units._seventeen_digits(values)[2]
        outside = ~((np.abs(values) >= units._FAST_MIN) & (np.abs(values) < units._FAST_MAX))
        assert not fast[outside].any()

    def test_workload_columns(self, record):
        for column in (record.times(), record.samples, np.arange(100_000) / 1024.0):
            assert fast_share(column) > 0.99


# Fast cells of both signs and every notation, then cells that take the
# '%.17g' fallback: an exact tie, zeros, non-finite values and |x| outside
# the fast range.
MIXED_FLOATS = np.array(
    [123.456, -0.001234, 3.0000000000000004e20, -7.4e6, 1e-5, -9.87654321e-150, 0.1, 1.0]
    + [exact_ties(1, seed=1405)[0], 0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 1e300]
)


class TestCompaction:
    """csv_text zeroes every dropped byte of a cell's row and deletes all NULs,
    so a kept byte that is NUL would vanish from the output."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_every_kind_in_every_column(self, monkeypatch, width):
        # Five-row blocks: the table spans four blocks, and a block boundary
        # falls inside the run of fallback cells.
        monkeypatch.setattr(units, "CSV_BLOCK_ROWS", 5)
        n = MIXED_FLOATS.size
        kinds = {
            "float": lambda j: np.roll(MIXED_FLOATS, 3 * j),
            "int": lambda j: np.roll(np.array([0, -5, 7, INT64.max, INT64.min] * 4)[:n], j),
            "bool": lambda j: np.arange(n) % (j + 2) == 0,
        }
        columns = tuple("abc"[:width])
        for combination in itertools.product(kinds, repeat=width):
            values = [kinds[kind](j) for j, kind in enumerate(combination)]
            text = csv_text({"k": 1.5}, columns, *values)
            assert text == per_row_csv({"k": 1.5}, columns, *values), combination

    def test_kept_table_bytes_are_not_nul(self):
        lead, pairs, _, expo, _, keep = units._layout_tables()
        keep = keep.view(np.uint8)
        assert np.isin(keep, (0x00, 0xFF)).all()
        kept = keep.reshape(-1, units._CELL).any(axis=0).reshape(6, 8)
        # Bytes 0-7 come from the lead table, 8-39 from four pair lookups and
        # 40-47 from the exponent table.
        tables = [lead] + [pairs] * 4 + [expo]
        for word, table in enumerate(tables):
            table = table.view(np.uint8).reshape(-1, 8)
            assert (table[:, kept[word]] != 0).all(), word

    def test_peak_memory_per_cell(self, peak_bytes):
        # The spectrum table: 3126 rows of frequency, driven and undriven dB.
        # Compaction allocates no index array, so the peak holds the block's
        # few 48-byte rows and 8-byte digit arrays a cell (241 B in all); the
        # warm call builds the layout tables.
        rng = np.random.default_rng(1406)
        n_rows = 3126
        table = [np.linspace(0.0, 500.0, n_rows), *rng.normal(-85.0, 5.0, (2, n_rows))]
        peak = peak_bytes(lambda: csv_text({"k": 1.0}, ("f", "a", "b"), *table))
        assert peak / (3 * n_rows) < 270


def read_as_oracle(text, columns):
    """csv_columns(text, columns), checked against the oracle: the same
    metadata and a bit-identical table, or the same ValidationError text."""
    try:
        expected = fromstring_columns(text, columns)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            csv_columns(text, columns)
        assert str(info.value) == str(exc)
        return None
    metadata, table = csv_columns(text, columns)
    assert metadata == expected[0]
    assert table.shape == expected[1].shape
    assert table.flags.c_contiguous
    assert np.array_equal(table.view(np.int64), expected[1].view(np.int64))
    return table


def read_cells(cells):
    """Read ``cells``, one per row of a one-column body, against the oracle."""
    return read_as_oracle("x\n" + "\n".join(cells) + "\n", ("x",))


def whole_body_reads(text, columns):
    """How often csv_columns fell back to np.fromstring on the whole body."""
    with mock.patch.object(units, "_whole_body", wraps=units._whole_body) as whole:
        try:
            csv_columns(text, columns)
        except ValidationError:
            pass
    return whole.call_count


def per_cell_reads(text, columns):
    """Check csv_columns against the oracle, with the whole body read by the
    integer route; return how many cells it read one by one."""
    slow, scale = [], units._scale

    def counted(M, E):
        s, fast = scale(M, E)
        slow.append(np.count_nonzero(~fast))
        return s, fast

    whole_body = mock.patch.object(units, "_whole_body", side_effect=AssertionError)
    with whole_body, mock.patch.object(units, "_scale", counted):
        read_as_oracle(text, columns)
    return sum(slow)


def midpoints(n, seed):
    """Exact decimals halfway between neighbouring doubles in [2^51, 1e17),
    each with a point, so that the reader scales them inexactly."""
    rng = np.random.default_rng(seed)
    doubles = rng.uniform(2.0**51, 1e17, n)
    cells = []
    for d, ulp in zip(doubles.tolist(), np.spacing(doubles).tolist()):
        cell = format(Decimal(d) + Decimal(ulp) / 2, "f")
        cells.append(("-" if len(cells) % 2 else "") + cell + ("" if "." in cell else ".0"))
    return cells


def decimal_strings(n, seed):
    """Cells of 1-21 digits with optional signs, dots and exponents."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(48, 58, 21 * n, dtype=np.uint8).tobytes().decode()
    cells = []
    for i, (k, dot, sign, exp_sign, mark, power) in enumerate(
        zip(
            rng.integers(1, 22, n).tolist(), rng.integers(-21, 22, n).tolist(),
            *rng.choice(["", "-", "+"], (2, n)).tolist(), rng.choice(["e", "E", ""], n).tolist(),
            rng.integers(0, 400, n).tolist(),
        )
    ):
        run = digits[21 * i : 21 * i + k]
        if dot >= 0:
            run = run[:dot] + "." + run[dot:]
        cells.append(sign + run + (f"{mark}{exp_sign}{power}" if mark else ""))
    return cells


MILLISECONDS = np.arange(100_000) / 1000
POWERS_OF_TWO_MS = ["%.17g" % t for t in MILLISECONDS[np.frexp(MILLISECONDS)[0] == 0.5]]

# Cells next to each of the reader's limits, and cells outside its grammar.
EDGE_CELLS = [
    "0", "-0", "+0", "0.0", "-0.0", "0e5", "-0e-5", "000", "0.000",
    "12345678901234567890", "-12345678901234567890", "99999999999999999999",
    "-99999999999999999999", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "-9223372036854775809", "999999999999999999", "1000000000000000000",
    "9007199254740993", "-9007199254740993", "9007199254740992", "9007199254740995",
    "1.", ".5", "+5", "-.5", "+.5", "5.e3", "1E+05", "1e-05", "1e0", "1E-0",
    "1e-300", "5e-324", "-5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
    "1e-280", "9.9999999999999999e-281", "1e280", "9.9999999999999999e279",
    "12345678901234567e-296", "1e262", "1e263", "1e-281",
    "0.1", "0.3", "1.1", "123.456", "1e23", "8.5e-1", "0.000001", "1234567890123456789e-19",
    "1e9999999999999999999", "1e-9999999999999999999", "1.5e-9223372036854775808",
    "0.00000000000000000000000000000000000001", "1e999", "-1e999", "1e-999",
    "99999999999999999e291", "99999999999999999e292", "999999999999999999e290",
] + POWERS_OF_TWO_MS
NOT_IN_GRAMMAR = [
    "nan", "-nan", "inf", "-inf", "Infinity", "1e+", "1e-", "1e", "e5", "5+", "1-2",
    "+", "-", ".", "+.", "-e5", "1..2", "1.2.3", "1e5e5", "1e5.5", "1e.5", "1_000",
    ".-1", ".+1", "-.+5",
    "0x10", " 1", "1 ", "1\r",
]


class TestCsvColumns:
    def test_edge_cells(self):
        read_cells(EDGE_CELLS)
        for cell in EDGE_CELLS:
            read_cells([cell])
        for cell in NOT_IN_GRAMMAR:
            read_cells([cell])
            read_cells(["1.5", cell, "-2"])
            read_as_oracle(f"a,b\n1,{cell}\n{cell},2\n", ("a", "b"))
        read_as_oracle("a,b\n1,\n,2\n", ("a", "b"))  # empty cells

    def test_edge_cells_under_raise(self):
        with np.errstate(all="raise"):
            self.test_edge_cells()

    def test_which_reader_reads(self):
        assert whole_body_reads("x\n" + "\n".join(EDGE_CELLS), ("x",)) == 0
        for cell in NOT_IN_GRAMMAR:
            assert whole_body_reads(f"x\n1\n{cell}\n2", ("x",)) == 1, cell
        assert whole_body_reads("a,b\n1,\n,2", ("a", "b")) == 1
        # Zeros, powers of two and midpoints are read one by one.
        zeros = ["0", "-0", "0.0", "-0e5"]
        assert per_cell_reads("x\n" + "\n".join(zeros), ("x",)) == len(zeros)
        assert per_cell_reads("x\n" + "\n".join(POWERS_OF_TWO_MS), ("x",)) == 10
        assert per_cell_reads("x\n" + "\n".join(midpoints(2000, 1507)), ("x",)) == 2000
        # CRLF rows and a space before a cell are outside the grammar but
        # numbers to np.fromstring.
        assert read_as_oracle("a,b\n1,2\r\n3,4\r\n", ("a", "b")).tolist() == [[1, 3], [2, 4]]
        assert read_as_oracle("a,b\n1, 2\n 3,4\n", ("a", "b")).tolist() == [[1, 3], [2, 4]]

    @pytest.mark.parametrize(
        "body", ["1,2\n\n3", "1\n2,3", "1,2,3\n4", "1,2\n3", "\n1,2", "1,2\n3,4,\n5", "1,,2\n3"]
    )
    def test_row_pattern(self, body):
        assert read_as_oracle("a,b\n" + body, ("a", "b")) is None
        assert read_as_oracle("a,b,c\n" + body.replace("3", "3,3"), ("a", "b", "c")) is None

    def test_formatted_floats(self):
        rng = np.random.default_rng(1501)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        scaled = rng.uniform(-1, 1, 200_000) * 10.0 ** rng.integers(-300, 300, 200_000)
        milliseconds = np.arange(200_000) / 1000
        for values in (bits[np.isfinite(bits)], scaled, milliseconds):
            read_as_oracle(csv_text({}, ("x",), values), ("x",))
        both = bits[np.isfinite(bits)][:100_000].reshape(2, -1)
        read_as_oracle(csv_text({"k": 1}, ("a", "b"), *both), ("a", "b"))

    def test_decimal_strings(self):
        for seed in range(1502, 1506):
            read_cells(decimal_strings(50_000, seed))

    def test_blocks(self, monkeypatch):
        # A body of many blocks, with the fallback's triggers in its last one.
        monkeypatch.setattr(units, "_BLOCK_BYTES", 64)
        cells = decimal_strings(2000, 1506)
        read_cells(cells)
        for tail in (["1", "nan"], ["1", "1e"], ["1,2"], ["", "1"]):
            read_cells(cells + tail)
        read_as_oracle("a,b\n" + "\n".join(["1,2"] * 100 + ["x,1", "1,2,3"]), ("a", "b"))

    def test_record_takes_the_integer_route(self, record):
        columns = ("time_s", "position_m")
        text = csv_text({}, columns, record.times(), record.samples)
        # Only the zeros and powers of two among the times take np.fromstring.
        assert per_cell_reads(text, columns) < 20
        _, (times, samples) = csv_columns(text, columns)
        assert np.array_equal(times, record.times())
        assert np.array_equal(samples.view(np.int64), record.samples.view(np.int64))


BODY_TEXT = st.text(alphabet="0123456789+-.eE,\n \rnaif_x", max_size=60)
NUMBER_CELL = st.builds(
    "{}{}{}{}{}{}".format,
    st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=1, max_size=21),
    st.sampled_from(["", "."]), st.text("0123456789", max_size=21),
    st.sampled_from(["", "e", "E", "e-", "E+"]), st.text("0123456789", max_size=4),
)
FLOAT_CELL = st.floats().map(lambda x: "%.17g" % x) | st.floats().map(repr)
TEXT_CELL = st.text(alphabet="0123456789+-.eE \rnaif_x")
CELL = st.sampled_from([NUMBER_CELL] * 4 + [FLOAT_CELL] * 3 + [TEXT_CELL]).flatmap(lambda c: c)


@st.composite
def bodies(draw):
    """``(columns, text)``: rows of ``width`` cells, at times with one row of
    any length inserted, or at times any text as the body."""
    columns = tuple("abc"[: draw(st.integers(1, 3))])
    row = st.lists(CELL, min_size=len(columns), max_size=len(columns))
    rows = draw(st.lists(row, min_size=1, max_size=8))
    if draw(st.integers(0, 3)) == 3:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(CELL, max_size=4)))
    body = "\n".join(map(",".join, rows))
    if draw(st.integers(0, 3)) == 3:
        body = draw(BODY_TEXT)
    return columns, ",".join(columns) + "\n" + body


@settings(max_examples=400, deadline=None)
@given(body=bodies())
def test_any_body_reads_as_the_oracle(body):
    read_as_oracle(body[1], body[0])


@pytest.mark.parametrize(
    "argv",
    [
        ["slope"],
        ["spectrum"],
        ["spectrum", "--sample-rate", "1024Hz", "--spectrum-duration", "2s"],
        ["sensitivity"],
        ["range"],
        ["simulate", "--dnu-peak", "7.4MHz"],
        ["simulate", "--dnu-peak", "7.4MHz", "--sample-rate", "1024Hz"],
    ],
    ids=" ".join,
)
def test_cli_csv_matches_per_row_writer(tmp_path, capsys, argv):
    path = tmp_path / "out.csv"
    assert cli.main(argv + ["-o", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    columns = next(line for line in text.splitlines() if not line.startswith("#")).split(",")
    metadata, table = csv_columns(text, columns)
    assert per_row_csv(metadata, columns, *table) == text
