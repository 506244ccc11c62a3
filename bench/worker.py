"""Child process of the benchmark: one fresh interpreter per workload run.

Set-up ends when ``wvfreq.cli`` is imported; the child then prints READY so
the parent can time it, runs the workload and prints one JSON line with the
raw results. Only the standard-library modules needed before READY are
imported at the top, so set-up time is the program's, not the benchmark's.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import wvfreq.cli  # noqa: E402,F401


def main():
    print("READY", flush=True)

    import argparse
    import json
    import platform
    import resource

    import numpy
    import scipy

    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["environment"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
