"""Host-speed calibration: timings scaled to a fixed reference kernel.

The shared 2-core hosts this benchmark runs on change speed by up to 1.7x
for seconds to minutes at a time, and the same slowdown shows in a process's
CPU time as in its wall time, so it is not time stolen by other processes
but slower cores.  A run can sit wholly in a slow or a fast stretch, and the
median of a run moved by 20-30% between sets of runs of the same code.

So the timed loop also runs ``reference()``, a fixed piece of work owned
by the benchmark, after every half second or so of requests.  Half of it is
interpreted Python (string parsing, float arithmetic, dict updates, like the
CLI's loaders and report builders) and half is numpy on arrays the size of
the grid workload's (``hypot``, compare, boolean OR, like
``availability_grid``), into buffers allocated once, so its speed does not
depend on what the program allocated before it.  ``speed()`` of a run is
``REFERENCE_S`` over the mean of its readings.  A run's rate is scaled by
the whole run's speed, and a latency percentile scales each request by the
speed of the two readings around it (``run.py``): the time it would have
taken on a host that runs the reference in ``REFERENCE_S``.  A change to
the program moves these times exactly as it moves wall times, because the
reference runs no program code; a change in host speed moves both the
program and the reference, and cancels.

Scaling a rate request by request was noisier than scaling it by the whole
run: a 50 ms reading follows the host's second-to-second jitter, which a
run's sum averages out.  On a 2-core Xeon, over five seeds, the spread
(IQR / median) of the scaled mean request time was 0.07 request by request
and 0.04 by the whole run on uk81 (0.15 in wall time), and 0.10 and 0.09
on the grid.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure near the time of one reference() on the 2-core Xeon the
# benchmark was defined on (its readings ran 30-50 ms there), so scaled
# times read roughly as seconds on that host.  A constant, so scaled times
# compare across runs and commits.
REFERENCE_S = 0.05
# Each calibration runs the reference for about this share of the program
# time since the last one (at least once), so a long call gets a longer,
# steadier reading.
SHARE = 0.1

_ROWS, _COLS, _CELL = 350, 650, 2000.0
_EAST = (np.arange(_COLS) + 0.5)[np.newaxis, :] * _CELL
_NORTH = (np.arange(_ROWS) + 0.5)[:, np.newaxis] * _CELL
_DX, _DY = np.empty_like(_EAST), np.empty_like(_NORTH)
_DIST = np.empty((_ROWS, _COLS))
_INSIDE, _BLOCKED = np.empty((_ROWS, _COLS), dtype=bool), np.empty((_ROWS, _COLS), dtype=bool)
_LINES = [f"T{i:04d},{(i * 7919) % 700_000}.5,{(i * 104_729) % 1_300_000}.25,{i % 60 + 21}"
          for i in range(1500)]


def _python_half() -> float:
    total = 0.0
    by_channel: dict[int, list[str]] = {}
    for _ in range(9):
        for line in _LINES:
            name, east, north, channel = line.split(",")
            e, n = float(east), float(north)
            total += (e * e + n * n) ** 0.5
            by_channel.setdefault(int(channel), []).append(f"{name}:{e:.1f}")
    return total + sum(len(v) for v in by_channel.values())


def _numpy_half() -> float:
    _BLOCKED[:] = False
    for k in range(8):
        np.subtract(_EAST, k * 53_000.0, out=_DX)
        np.subtract(_NORTH, k * 97_000.0, out=_DY)
        np.hypot(_DX, _DY, out=_DIST)
        np.less(_DIST, 150_000.0, out=_INSIDE)
        np.logical_or(_BLOCKED, _INSIDE, out=_BLOCKED)
    return float(np.count_nonzero(_BLOCKED))


def reference() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    t0 = time.perf_counter()
    _python_half()
    _numpy_half()
    return time.perf_counter() - t0


def calibrate(busy_s: float) -> float:
    """Mean reference time over enough runs to take ``SHARE`` of ``busy_s``."""
    runs = max(1, round(busy_s * SHARE / REFERENCE_S))
    return sum(reference() for _ in range(runs)) / runs


def speed(readings: list[float]) -> float:
    """Host speed over a run, relative to the host that defined ``REFERENCE_S``."""
    return REFERENCE_S * len(readings) / sum(readings)
