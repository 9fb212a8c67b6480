"""A fixed loop of interpreter and small-array work that rates the machine's
current speed. It touches no uav_iscc code and imports only numpy, so a
set-up probe can load it before timing the import of uav_iscc."""

from __future__ import annotations

from statistics import median
from time import process_time

import numpy as np

# CPU time of a full unit at the reference speed: about the median on a
# 2-core Xeon (2.1 GHz nominal), Python 3.11, OpenBLAS on one thread.
CAL_REF_S = 0.030
CAL_ITERATIONS = 3000
SHORT_ITERATIONS = 30         # short unit, 1/100 of a full one

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((4, 4)) + 4.0 * np.eye(4)
_LEFT = _RNG.standard_normal((200, 64))
_RIGHT = _RNG.standard_normal((64, 128))


def unit(iterations: int) -> float:
    total = 0.0
    for i in range(iterations):
        total += float(np.linalg.solve(_SMALL, _SMALL[i % 4])[0])
        total += sum(j * 0.5 for j in range(20))
        if i % 30 == 0:
            total += float((_LEFT @ _RIGHT)[0, 0])
    return total


def calibrate() -> float:
    """CPU seconds one full unit takes now: the median of three."""
    times = []
    for _ in range(3):
        start = process_time()
        unit(CAL_ITERATIONS)
        times.append(process_time() - start)
    return median(times)
