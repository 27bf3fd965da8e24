"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was built on shares its cores: the speed of
identical work switches between two levels about 1.6x apart within seconds.  Timed runs of
small fixed experiments had a coefficient of variation of 0.25 raw, and of
0.08 to 0.10 after dividing each by a calibration kernel timed right before
and after it (a pure-Python kernel and a large-array kernel tracked the
drift worse); whole passes of a workload, 0.07 to 0.09 raw and 0.03 to 0.04
normalized.  So every timed interval is bracketed by this fixed kernel
(small complex numpy arrays in a Python loop, the shape of the flow's work,
plus a few larger array passes), and the benchmark reports

    normalized seconds = raw seconds * REFERENCE_S / kernel seconds,

i.e. seconds at the speed where the kernel takes ``REFERENCE_S``.  The
kernel is the benchmark's own code, so a change to loewner_lab moves the
normalized times in the same proportion as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: kernel time defining the reference speed (about its time when no load
#: from neighbours slowed the host the benchmark was built on: 2-core Intel
#: Xeon VM, Python 3.11, numpy 2.4)
REFERENCE_S = 0.005
_SMALL = np.arange(128).reshape(64, 2) * (0.001 + 0.001j)
_LARGE = np.arange(16384).reshape(4096, 4) * (1e-5 + 1e-5j)


def _kernel_once() -> float:
    start = time.perf_counter()
    y = _SMALL.copy()
    for _ in range(500):
        y = y - 0.01 * (y * y + np.abs(y).max(axis=-1, keepdims=True) * y)
    big = _LARGE.copy()
    for _ in range(12):
        big = big - 0.01 * (big * big)
    return time.perf_counter() - start


def kernel_seconds(repeats: int = 5) -> float:
    """Median time of the calibration kernel over ``repeats`` runs."""
    return statistics.median(_kernel_once() for _ in range(repeats))

