"""Regenerating ``results/`` reproduces the committed CSVs.

Runs the three recipes behind ``scripts/`` in-process at the default
configuration. Header lines (metadata and column names) must match exactly;
data values to a relative tolerance of 1e-12, which leaves room only for
floating-point reduction order, not for a changed draw or estimator. The
package version, which ``config_hash`` covers, agrees with pyproject.toml's.
Outputs that no committed file covers are pinned by their sha256 digests.
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
from wvfreq.config import ExperimentConfig
from wvfreq.recipes import (
    run_sensitivity,
    run_slope_sweep,
    run_spectrum_pair,
    sensitivity_csv,
    slope_sweep_csv,
    spectrum_pair_csv,
)

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

RECIPES = {
    "slope_sweep.csv": lambda cfg: slope_sweep_csv(run_slope_sweep(cfg)),
    "noise_spectrum.csv": lambda cfg: spectrum_pair_csv(*run_spectrum_pair(cfg)),
    "sensitivity.csv": lambda cfg: sensitivity_csv(*run_sensitivity(cfg)),
}


def _split(text):
    lines = text.splitlines()
    n_header = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[n_header:]])
    return lines[:n_header], rows


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_regenerated_results_match_committed(name):
    header, rows = _split(RECIPES[name](ExperimentConfig()))
    committed_header, committed_rows = _split((RESULTS / name).read_text())
    assert header == committed_header
    assert rows.shape == committed_rows.shape
    np.testing.assert_allclose(rows, committed_rows, rtol=1e-12, atol=0.0)


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
    ],
    ids=["simulate", "range", "slope-noise"],  # a re-taken digest keeps its test's name
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
    pyproject = (RESULTS.parent / "pyproject.toml").read_text()
    versions = re.findall(r'^version\s*=\s*"([^"]+)"', pyproject, flags=re.MULTILINE)
    assert versions == [wvfreq.__version__]
