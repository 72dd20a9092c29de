"""Machine-speed reference for the benchmark's timings.

The shared host this benchmark was tuned on changes speed by up to a third
within seconds (a fixed kernel ran between 175 and 340 us per call inside
one minute), and CPU time moves with wall time, so raw job times from runs
a few minutes apart are not comparable.  A fixed reference kernel, timed
right before and after each measured interval, tracks that drift: each
interval is scaled by ``NOMINAL_MS / kernel time``, which reports it at the
host's nominal speed.  The kernel never calls rayforge, so a change to
rayforge cannot move the scale; raw times stay in the report.
"""

import time

import numpy as np

NOMINAL_MS = 0.8  # typical kernel time on the 2-core host the bounds were set on
REPEATS = 5

_SMALL = np.linspace(0.0, 1.0, 8) + 0.5j
_WIDE = np.exp(1j * np.linspace(0.0, 6.0, 1080)).reshape(360, 3)


def reference_kernel() -> complex:
    """The two kinds of work rayforge jobs are made of: interpreted loops
    around tiny arrays (one-row root solves) and arithmetic on 360x3 complex
    arrays (batched root solves)."""
    acc = 0j
    for k in range(60):
        y = _SMALL * _SMALL + k
        acc += complex(y.sum())
        for v in range(30):
            acc += v * 0.5
    w = _WIDE
    for _ in range(4):
        gaps = w[:, :, None] - w[:, None, :]
        w = (w * w + 0.3) / (1.0 + np.abs(w)) + gaps.sum(axis=2) * 1e-3
    return acc + complex(w.sum())


def kernel_ms() -> float:
    """Median of a few kernel runs, in ms."""
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_kernel()
        runs.append(time.perf_counter() - start)
    return sorted(runs)[REPEATS // 2] * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that takes an interval bracketed by two kernel timings to nominal speed."""
    return NOMINAL_MS / ((before_ms + after_ms) / 2)
