"""Regenerating ``results/`` with the README's commands reproduces the committed CSVs.

Runs the three ``wvfreq <subcommand> -o results/<name>`` commands that the
README lists for regenerating ``results/``, through ``cli.main`` in a
temporary directory, at the default configuration, and checks that the
README lists exactly those commands. Header lines (metadata and column
names) must match exactly; data values to a relative tolerance of 1e-12,
which leaves room only for floating-point reduction order, not for a changed
draw or estimator. The package version, which ``config_hash`` covers, agrees
with pyproject.toml's. Outputs that no committed file covers are pinned by
their sha256 digests.
"""

import contextlib
import hashlib
import io
import pathlib
import re

import numpy as np
import pytest

import wvfreq
from wvfreq import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The README's regeneration commands, as ``wvfreq <argv>``, in its order.
REGENERATE = {
    "slope_sweep.csv": ["slope", "-o", "results/slope_sweep.csv"],
    "noise_spectrum.csv": ["spectrum", "-o", "results/noise_spectrum.csv"],
    "sensitivity.csv": ["sensitivity", "-o", "results/sensitivity.csv"],
}


def _split(text):
    lines = text.splitlines()
    n_header = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[n_header:]])
    return lines[:n_header], rows


@pytest.mark.parametrize("name", sorted(REGENERATE))
def test_regenerated_results_match_committed(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    assert cli.main(REGENERATE[name]) == 0
    header, rows = _split((tmp_path / "results" / name).read_text())
    committed_header, committed_rows = _split((ROOT / "results" / name).read_text())
    assert header == committed_header
    assert rows.shape == committed_rows.shape
    np.testing.assert_allclose(rows, committed_rows, rtol=1e-12, atol=0.0)


def test_readme_lists_the_regeneration_commands():
    section = (ROOT / "README.md").read_text().split("\n## Regenerating `results/`\n")[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    assert block.splitlines() == ["wvfreq " + " ".join(argv) for argv in REGENERATE.values()]


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["simulate", "--duration", "2.5s", "--dnu-peak", "7.4MHz"],
            "4a93f69d44c50883c007f49235ace6d30ae276e91350748107a2a513f7c27897",
        ),
        (["range"], "9de749ca90e8a5ddbadf3dd29ee460b37d7563d9b77eb4ed3f6e384b91b3f12d"),
        (
            ["slope", "--dark-count-rate", "1kHz", "--electronic-noise", "1e-9m"],
            "d1dd6302d680a49234a6b0723e6eb1978525bf49bebd6ae9541e9464f67f7c9b",
        ),
        # Both records drawn with scalar-p runs: 1000 samples a phase, and one
        # undriven run. results/noise_spectrum.csv is compared to 1e-12 only.
        (["spectrum"], "a174ee62a292368002f434ba28d38a5aef2439891dd29fa5cd391980540ba02f"),
        (
            ["simulate", "--duration", "10s"],
            "10f51c640c79ebeb7e4907a981035fb96d52f6fd753787ba17fbc55bb6beaf8e",
        ),
        # The periodogram at a 1024 Hz rate, and with odd 33 333-sample
        # segments that leave one sample out.
        (
            [
                "spectrum", "--sample-rate", "1024Hz", "--spectrum-duration", "2s",
                "--spectrum-segments", "4",
            ],
            "68ea5f8f762dd9b57655d8b82e0170475a3809991822b6b47a3adcc245598563",
        ),
        (
            ["spectrum", "--spectrum-segments", "3"],
            "3c3280d6b00f3416bd4d9d1cf27d4bddd55c6fb70035443befc7b769387cd085",
        ),
    ],
    # A re-taken digest keeps its test's name.
    ids=[
        "simulate", "range", "slope-noise", "spectrum", "simulate-undriven",
        "spectrum-1024Hz", "spectrum-odd-segments",
    ],
)
def test_uncommitted_outputs_keep_their_bytes(argv, digest):
    """Byte for byte in the same software environment, as ``config_hash`` promises.

    The photon counts come from numpy's binomial stream, and numpy's version is
    not hashed, so another numpy may change these digests without a code change.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_package_and_project_versions_agree():
    # config_hash covers __version__, so a change that moves output bytes bumps
    # both. A regex reads pyproject.toml: tomllib is missing before Python 3.11.
    pyproject = (ROOT / "pyproject.toml").read_text()
    versions = re.findall(r'^version\s*=\s*"([^"]+)"', pyproject, flags=re.MULTILINE)
    assert versions == [wvfreq.__version__]
