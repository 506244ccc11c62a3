"""wvfreq benchmark: end-to-end and per-layer figures of the CLI workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper_reproduction --seed 1 --seconds 30 --trace 0

A run starts the workload in WORKERS fresh interpreters one after another,
each with BLAS/OpenMP threads pinned to 1, and gives each an equal share of
``--seconds``. Every worker is one set-up sample (spawn until ``wvfreq.cli``
is imported) and contributes its passes to the pooled pass times, so neither
figure rests on one process. With ``--trace 0`` the run reports the
end-to-end metrics. Their times are at reference speed: each pass is scaled
by a machine-speed probe timed right after it, and each set-up by the median
probe of its worker (see probe.py), so the drift of a shared machine's speed
cancels and a change to wvfreq shows. With ``--trace 1`` the workers run
under ``-X importtime`` and alternate traced and untraced passes, and the run
reports per-layer metrics, import times and the tracing overhead.

The last line of stdout is the result as JSON. The lines before it are a
readable table (with ``error_rate``) and a JSON record of the environment,
pass counts, the tail percentile, the spread of every median and the raw
(unscaled) times.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import probe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("paper_reproduction", "incommensurate_sampling", "long_record")

WORKERS = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

class BenchError(Exception):
    pass


def metric_units(section):
    """Unit of every metric of a BENCHMARK.json section ("end_to_end" or "per_layer")."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def finish(proc, deadline):
    """Wait for a child; kill it and wait again if the time limit passes."""
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out, err


def import_times(stderr):
    """wvfreq (cumulative) and scipy (sum of own) import ms from -X importtime."""
    wvfreq_us, scipy_us = None, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            sys.stderr.write(line + "\n")
            continue
        own, cumulative, name = (part.strip() for part in line[12:].split("|"))
        if not own.isdigit():
            continue  # the column header
        if name == "wvfreq":
            wvfreq_us = int(cumulative)
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += int(own)
    if wvfreq_us is None:
        raise BenchError("no wvfreq import in -X importtime output")
    return wvfreq_us / 1e3, scipy_us / 1e3


def run_worker(args, seconds, workdir, deadline):
    """One worker process: its raw results, with set-up time or import times."""
    command = [sys.executable] + (["-X", "importtime"] if args.trace else []) + [
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    env = dict(os.environ, **PINNED_THREADS)
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE if args.trace else None,
    )
    if args.trace:
        # stderr carries the import table; read both pipes together.
        out, err = finish(proc, deadline)
        ready, _, out = out.partition("\n")
        setup = None
    else:
        ready = proc.stdout.readline().rstrip("\n")
        setup = time.perf_counter() - start
        out, err = finish(proc, deadline)
    if ready != "READY" or not out.strip():
        raise BenchError("worker printed no result")
    raw = json.loads(out.splitlines()[-1])
    raw["setup_s"] = setup
    if args.trace:
        raw["imports"] = import_times(err)
    return raw


def tail(values):
    """Highest percentile with at least 10 passes beyond it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0  # too few passes for a tail: the slowest pass
    return ordered[n - 11], 100.0 * (n - 10) / n


def spread(values):
    """Quartiles and their distance as a share of the median."""
    if len(values) < 2:
        return {"quartiles": [values[0]] * 3, "iqr_over_median": 0.0}
    q = statistics.quantiles(values, n=4)
    return {"quartiles": q, "iqr_over_median": (q[2] - q[0]) / q[1] if q[1] else 0.0}


def at_reference_speed(times, probe_ms):
    """Each time scaled by the probe timed next to it (see probe.py)."""
    return [t * probe.REFERENCE_MS / p for t, p in zip(times, probe_ms)]


def end_to_end(workers, raw_pass_ms, detail):
    raw_setups = [w["setup_s"] for w in workers]
    # A worker's probes follow its set-up within seconds; their median is steadier
    # than a few probes timed just before the spawn.
    setups = at_reference_speed(
        raw_setups, [statistics.median(w["probe_ms"]) for w in workers]
    )
    probe_ms = [p for w in workers for p in w["probe_ms"]]
    pass_ms = at_reference_speed(raw_pass_ms, probe_ms)
    tail_ms, tail_pct = tail(pass_ms)
    samples_per_pass = workers[0]["samples_per_pass"]
    detail.update(
        passes=len(pass_ms),
        pass_ms_tail_percentile=round(tail_pct, 2),
        pass_ms_spread=spread(pass_ms),
        setup_s_runs=setups,
        samples_per_pass=samples_per_pass,
        peak_rss_mb_per_worker=[w["peak_rss_kb"] / 1024.0 for w in workers],
        raw={
            "setup_s": statistics.median(raw_setups),
            "pass_ms_p50": statistics.median(raw_pass_ms),
            "probe_ms_p50": statistics.median(probe_ms),
            "probe_ms_spread": spread(probe_ms),
        },
    )
    return {
        "setup_s": statistics.median(setups),
        "pass_ms_p50": statistics.median(pass_ms),
        "pass_ms_tail": tail_ms,
        "samples_per_s": samples_per_pass * len(pass_ms) / (sum(pass_ms) / 1e3),
        "peak_rss_mb": max(w["peak_rss_kb"] for w in workers) / 1024.0,
    }


def per_layer(workers, pass_ms, detail):
    layers = [p for w in workers for p in w["layers"]]
    traced_ms = [t for w in workers for t in w["traced_pass_ms"]]
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_ms) / statistics.median(pass_ms) - 1.0
    )
    metrics["import.wvfreq_ms"] = statistics.median(w["imports"][0] for w in workers)
    metrics["import.scipy_ms"] = statistics.median(w["imports"][1] for w in workers)
    self_ms = {}
    for w in workers:
        for name, ms in w["self_ms"].items():
            self_ms[name] = self_ms.get(name, 0.0) + ms
    total = sum(self_ms.values())
    top = sorted(self_ms.items(), key=lambda item: -item[1])[:6]
    detail.update(
        traced_passes=len(traced_ms),
        untraced_passes=len(pass_ms),
        top_self_time_pct=[[name, round(100.0 * ms / total, 2)] for name, ms in top],
        iqr_over_median={
            name: round(spread([p[name] for p in layers])["iqr_over_median"], 4)
            for name in layers[0]
        },
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.seed %= 2**32  # wvfreq seeds are unsigned
    if not os.path.isfile(os.path.join(ROOT, "src", "wvfreq", "cli.py")):
        print(f"error: no wvfreq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        workers = [
            run_worker(args, args.seconds / WORKERS, workdir, deadline)
            for _ in range(WORKERS)
        ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    pass_ms = [t for w in workers for t in w["pass_ms"]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "workers": WORKERS,
        "requests_per_pass": workers[0]["requests_per_pass"],
        "error_rate": failed / attempted,
        "failures": [f for w in workers for f in w["failures"]][:5],
        "environment": workers[0]["environment"],
    }
    if args.trace:
        metrics = per_layer(workers, pass_ms, detail)
        units = metric_units("per_layer")
    else:
        metrics = end_to_end(workers, pass_ms, detail)
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    for name in sorted(metrics):
        print(f"{name:44s} {metrics[name]:>16.6g} {units[name]}")
    print(f"{'error_rate':44s} {detail['error_rate']:>16.6g} ratio")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
