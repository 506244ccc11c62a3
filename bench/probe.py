"""Machine-speed probe: a fixed numpy task that does not touch wvfreq.

On a shared virtual machine the speed of a vCPU drifts by a third within a
minute as neighbours come and go, so raw times of two 30 s runs can differ
more than any change worth measuring. The benchmark times this probe after
every untraced pass and reports times at reference speed:
``time * REFERENCE_MS / probe_ms``, the time the step would take on a machine
where the probe takes REFERENCE_MS. A change to wvfreq moves the time and
leaves the probe alone, so it moves the reported figure by the same share.

Of the probes tried (a pure-Python loop, large complex arrays, and
elementwise maths with a sort on a 1.6 MB array), the last tracked the drift
of all three workloads best.
"""

import time

import numpy as np

REFERENCE_MS = 20.0  # the probe's usual time on a 2-vCPU Xeon VM at 2.1 GHz
_DATA = np.random.default_rng(0).random(200_000)


def probe_ms():
    """Wall time of the fixed task, in ms."""
    start = time.perf_counter()
    for _ in range(4):
        values = np.exp(_DATA) * np.sin(_DATA)
        values.sort()
    return (time.perf_counter() - start) * 1e3
