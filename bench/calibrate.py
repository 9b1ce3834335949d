"""Calibration kernel: scales measured times to one reference machine speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up to
about 1.5x over minutes (co-tenants, SMT siblings, frequency), and the drift
moves every timing of a run together.  So the worker times a fixed kernel of
interpreted Python and small-array numpy work, which uses nothing of the
library, between ops, and multiplies each op's wall time by
``REF_S / (kernel time around the op)``.  A time metric then reads as seconds
at the speed where the kernel takes ``REF_S`` (about the median speed of a
2-vCPU x86-64 VM).  A change to the library moves the op times and not the
kernel, so a speed-up or a slow-down shows in full.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.0055
_SMALL = np.arange(1.0, 1001.0)


def kernel() -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        table[i & 127] = acc
        acc += (i * 7) % 13
    total = 0.0
    for _ in range(150):
        tail = np.cumsum(1.0 / _SMALL[::-1])[::-1]
        total += float(tail[3] * _SMALL.max())
    return time.perf_counter() - start


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REF_S / kernel_s
