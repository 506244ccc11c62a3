"""The numpy ``%.17g`` kernel of ``units.csv_text``, cell by cell against Python.

Every case compares each written cell with ``'%.17g' % x``. The cases also
check which cells the kernel formatted itself, so a kernel that sent every
cell to its ``'%.17g'`` fallback would fail them.
"""

from unittest import mock

import numpy as np
import pytest

from oracles import per_row_csv
from wvfreq import cli, units
from wvfreq.config import config_from_mapping, resolve
from wvfreq.signal_chain import synthesize_run
from wvfreq.units import csv_columns, csv_text


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

    def test_workload_columns(self):
        physics = resolve(config_from_mapping({}))
        rate = physics.config.sample_rate
        record = synthesize_run(7.4e6, 100.0, rate, physics, physics.n_photons_per_sample(), 1403)
        for column in (record.times(), record.samples, np.arange(100_000) / 1024.0):
            assert fast_share(column) > 0.99


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
