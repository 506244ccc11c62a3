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
            "b340c607367b6332675ff695bbf2cbefd65ef54d947de2c35169fe184f4719a5",
        ),
        (["range"], "5e3b594f0a4508ce9de3e6cfb61a6bd88aed47433cf7dc73a70c26d00566f9af"),
        (
            ["slope", "--dark-count-rate", "1kHz", "--electronic-noise", "1e-9m"],
            "d008455579b16f12337596f509d223befc0d160055aeebd7dc0584f0247c9b35",
        ),
        # Both records drawn with scalar-p runs: 1000 samples a phase, and one
        # undriven run. results/noise_spectrum.csv is compared to 1e-12 only.
        (["spectrum"], "d56cb2b6222458ec7ab00f88894f150779251d781447fec0b9dc07119b279534"),
        (
            ["simulate", "--duration", "10s"],
            "5cf4d14e518c2b3d157652c78ee85ededb0dbd02511c8728226a8ed15d5c3f64",
        ),
        # The periodogram at a 1024 Hz rate, and with odd 33 333-sample
        # segments that leave one sample out.
        (
            [
                "spectrum", "--sample-rate", "1024Hz", "--spectrum-duration", "2s",
                "--spectrum-segments", "4",
            ],
            "ffa0512029ba9c35477e1e1279b8ab4935872323b586fc715cd827fab5f48af5",
        ),
        (
            ["spectrum", "--spectrum-segments", "3"],
            "5ad25af9368c7652bd4082bad263fe96520779265b9a404d6e4e289e651f4afa",
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
