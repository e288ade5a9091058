"""Machine-speed probe used to calibrate the benchmark's end-to-end times.

On a shared machine the speed of a core drifts by 20% or more over minutes
(other tenants, shared caches, frequency), so ten raw runs of the same code
spread wider than any useful bound.  The probe is a fixed piece of work of
the same kinds the pipeline does (integer loops, small numpy arrays, python
objects and JSON), owned by the benchmark so that no change to the library
moves it.  It runs once per second of the workload's calls, and a run's
times are scaled by PROBE_REF_S / (mean probe time of that run): seconds at
the speed the machine had when PROBE_REF_S was measured.  Over nine
30-second windows of `sweep` on a 2-CPU Xeon VM, the mean pass time spread
by 20% between windows, and the calibrated one by 2%.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np

import checks

# the reference speed: a probe time on the machine that recorded baseline.json
PROBE_REF_S = 0.055


def _work() -> int:
    acc = checks.count_orbits(8000)
    n = 1_000_003
    dmax = math.isqrt(4 * n // 10)
    for delta in range(-dmax, dmax + 1, 2):
        rest = 4 * n - 10 * delta * delta
        x_top = math.isqrt(rest)
        lam = np.arange(-((x_top - delta) // 2), (x_top + delta) // 2 + 1, dtype=np.int64)
        rem = rest - (2 * lam - delta) ** 2
        s = np.sqrt(rem.astype(np.float64)).astype(np.int64)
        acc += int(((s * s == rem) & ((s - delta) % 2 == 0)).sum())
    table = {(i, -i, i % 7): {"a": i, "b": [i, i + 1]} for i in range(20000)}
    return acc + len(json.dumps(list(table.values())[:3000]))


def probe() -> float:
    """Seconds the probe's fixed work took."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
