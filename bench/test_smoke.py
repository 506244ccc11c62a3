"""Smoke test of the benchmark: short runs of every workload.

Run from the repository root (about a minute):

    python3 -m pytest bench/test_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload, trace):
    done = subprocess.run(
        [
            sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(workload, trace, section):
    result = run_bench(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _drop_config_hash(module):
    original = module.slope_sweep_csv
    return "slope_sweep_csv", lambda result: original(result).replace("config_hash", "config_hsah")


def _perturb_last_row(module):
    original = module.timeseries_to_csv

    def corrupted(series, metadata=None):
        text = original(series, metadata)
        last = text.rstrip("\n").rsplit("\n", 1)[1]
        time_s, value = last.split(",")
        return text.replace(last, f"{time_s},{float(value) * (1 + 1e-15)!r}")

    return "timeseries_to_csv", corrupted


@pytest.mark.parametrize(
    "workload, corrupt, failed_step",
    [
        ("paper_reproduction", _drop_config_hash, "slope"),
        ("long_record", _perturb_last_row, "readback"),
    ],
)
def test_corrupted_output_counts_as_failed(monkeypatch, workload, corrupt, failed_step):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(BENCH_DIR)
    import workloads
    from wvfreq import recipes

    name, replacement = corrupt(recipes)
    monkeypatch.setattr(recipes, name, replacement)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        result = workloads.run(workload, seed=3, seconds=0.0, trace=False, workdir=workdir)
    passes = result["attempted"] // result["requests_per_pass"]
    assert result["failed"] == passes  # the corrupted request, once per pass
    assert all(f.startswith(f"{failed_step}:") for f in result["failures"])
