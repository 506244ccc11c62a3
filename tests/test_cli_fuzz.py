"""Property test of the CLI's exit contract over flag values and config text.

Every config-taking subcommand, given one or two config flags with values
drawn from zeros, negatives, 1e-300, 1e300, non-integers and unit
suffixes, must end in exit 0, 2, 3 or 4; so must ``simulate`` over its
``--duration`` and ``--dnu-peak``, ``calibrate`` over ``--propagate`` and
over the text of a positions file and of a ``--references`` file, and
``range`` over the text of a ``--config`` file, with values from the same
pool. A refusal writes exactly one stderr line;
no exception escapes ``cli.main`` and no RuntimeWarning fires; a run that
exits 0 writes no nan or inf to stdout or to its ``-o`` file.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvfreq import cli
from wvfreq.calibration import load_reference_lines
from wvfreq.config import CONFIG_FIELDS, config_from_mapping
from wvfreq.errors import ValidationError
from wvfreq.units import parse_quantity

NUMBERS = (
    "0", "-0", "-1", "-2.5", "1e-300", "-1e-300", "1e300", "-1e300", "1e20", "3e16", "3e15",
    "1e-9", "0.013", "0.5", "1", "2", "2.5", "7", "30", "1e3", "1e6",
)
SUFFIXES = ("m", "um", "nm", "Hz", "kHz", "MHz", "THz", "mW", "W", "s", "ms", "deg")
WORDS = ("bk7", "fused_silica", "sapphire", "x", "nan", "inf", "1e309", "")

values = st.one_of(
    st.sampled_from(NUMBERS),
    st.builds(str.__add__, st.sampled_from(NUMBERS), st.sampled_from(SUFFIXES)),
    st.sampled_from(WORDS),
)
flag_sets = st.dictionaries(st.sampled_from(sorted(CONFIG_FIELDS)), values, min_size=1, max_size=2)

# Caps on valid requests only. A valid run over SAMPLE_CAP detector samples
# (summed over its records) or, for slope, over STAGE_CAP filter stages is
# legitimately slow and large: seconds and tens of MB per example. A record
# whose int64 count buffer's byte count exceeds intp max is refused before
# anything is allocated, so such values stay in.
SAMPLE_CAP = 1e6
STAGE_CAP = 1e3
RECORD_MAX = np.iinfo(np.intp).max // 8
NAN_OR_INF = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _legitimately_large(command, flags, duration="2.5s"):
    try:
        cfg = config_from_mapping(flags)
        duration = parse_quantity(duration, "time")
    except ValidationError:
        return False
    if command == "slope":
        record = (cfg.n_cycles + cfg.settle_cycles) / cfg.mod_frequency * cfg.sample_rate
        records = cfg.sweep_points
        if cfg.filter_stages > STAGE_CAP:
            return True
    elif command == "spectrum":
        record, records = cfg.spectrum_duration * cfg.sample_rate, 2
    elif command == "simulate":
        record, records = duration * cfg.sample_rate, 1
    else:
        return False
    return record <= RECORD_MAX and record * records > SAMPLE_CAP


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _holds_the_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        output = Path(tmp) / "out.csv"
        code, out, err = _run(argv + ["-o", str(output)])
        if code == 0:
            written = output.read_text() if output.exists() else ""
            assert not NAN_OR_INF.search(out + written), (argv, out + written)
        else:
            assert code in (2, 3, 4), (argv, code, err)
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("command", ["slope", "spectrum", "sensitivity", "range", "simulate"])
@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(flags=flag_sets)
def test_every_flag_value_ends_in_a_contract_exit(command, flags):
    if _legitimately_large(command, flags):
        return
    # --flag=value: argparse would read a bare -1mW as an option.
    argv = [command] + [f"--{name.replace('_', '-')}={value}" for name, value in flags.items()]
    _holds_the_contract(argv)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(duration=values, dnu_peak=values)
def test_simulate_record_values_end_in_a_contract_exit(duration, dnu_peak):
    if _legitimately_large("simulate", {}, duration):
        return
    _holds_the_contract(["simulate", f"--duration={duration}", f"--dnu-peak={dnu_peak}"])


# The packaged reference lines, and their positions on a 2.3e8 Hz/unit scan:
# a positions file or a reference table built from these alone calibrates.
REFERENCE_LINES = load_reference_lines()
SCAN_POSITIONS = [repr(line.relative_frequency / 2.3e8 + 3.0) for line in REFERENCE_LINES]
REFERENCE_TABLE = [f"{line.label}, {line.relative_frequency / 1e6!r}" for line in REFERENCE_LINES]


def _write(directory, name, text):
    path = Path(directory) / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(value=values)
def test_calibrate_propagate_values_end_in_a_contract_exit(value):
    with tempfile.TemporaryDirectory() as tmp:
        positions = _write(tmp, "positions.txt", "\n".join(SCAN_POSITIONS) + "\n")
        _holds_the_contract(["calibrate", positions, f"--propagate={value}"])


# Keys that are not config fields, or are one only after some normalisation;
# filter_center was one before the bandpass was centred on the drive.
JUNK_KEYS = (
    "", "x", "Seed", "sample rate", "seed seed", "-seed", "#seed", "\ufeffseed", "seed\x00",
    "filter_center",
)
FILLER_LINES = ("", "   ", "# a comment", "  # seed = -1")
MALFORMED_LINES = ("seed", "= 5", "seed == 5", "seed = 5 = 6")


@st.composite
def config_texts(draw):
    """A config file's text: up to five ``key = value`` lines with distinct keys
    among blank and comment lines, and perhaps a malformed line, a repeated
    line and a leading byte-order mark."""
    keys = st.sampled_from(sorted(CONFIG_FIELDS) + list(JUNK_KEYS))
    entries = draw(st.lists(st.tuples(keys, values), max_size=5, unique_by=lambda kv: kv[0]))
    lines = [f"{key} = {value}" for key, value in entries]
    lines += draw(st.lists(st.sampled_from(FILLER_LINES), max_size=3))
    if draw(st.integers(0, 3)) == 2:
        lines.append(draw(st.sampled_from(MALFORMED_LINES)))
    lines = draw(st.permutations(lines))
    if lines and draw(st.integers(0, 3)) == 2:
        lines.append(draw(st.sampled_from(lines)))
    return ("\ufeff" if draw(st.booleans()) else "") + "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=config_texts())
def test_config_file_text_ends_in_a_contract_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        _holds_the_contract(["range", "--config", _write(tmp, "run.cfg", text)])


def position_line(i):
    return values


def reference_line(i):
    name = st.one_of(st.just(REFERENCE_LINES[i].label), st.sampled_from(WORDS))
    return st.builds(lambda *cells: ", ".join(cells), name, values)


@st.composite
def data_file_texts(draw, good, line):
    """A positions file's or a reference table's text: the well-formed lines
    ``good`` in order, but for up to two drawn by ``line(i)``, each perhaps
    with extra comma fields, among blank and comment lines, and perhaps a
    repeated line and a leading byte-order mark."""
    drawn = draw(st.sets(st.integers(0, len(good) - 1), max_size=2))
    lines = []
    for i, cell in enumerate(good):
        cell = draw(line(i)) if i in drawn else cell
        lines.append(",".join([cell] + draw(st.lists(values, max_size=2))))
    if draw(st.integers(0, 3)) == 2:
        lines.append(draw(st.sampled_from(lines)))
    for filler in draw(st.lists(st.sampled_from(FILLER_LINES), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return ("\ufeff" if draw(st.booleans()) else "") + "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=data_file_texts(SCAN_POSITIONS, position_line))
def test_positions_file_text_ends_in_a_contract_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        _holds_the_contract(["calibrate", _write(tmp, "positions.txt", text)])


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=data_file_texts(REFERENCE_TABLE, reference_line))
def test_references_file_text_ends_in_a_contract_exit(text):
    with tempfile.TemporaryDirectory() as tmp:
        positions = _write(tmp, "positions.txt", "\n".join(SCAN_POSITIONS) + "\n")
        references = _write(tmp, "references.txt", text)
        _holds_the_contract(["calibrate", positions, "--references", references])
