"""Wall times scaled to a reference machine speed.

The speed of a shared machine drifts by 20-40% over tens of seconds (a
fixed pure-Python loop, timed back to back for 90 s on 2 CPUs, took from
0.058 to 0.082 s per 5-s block) while the process keeps its CPU.  A run
that lands in a slow stretch then reads slow throughout.  So the benchmark
samples the speed of the CPU the measured work runs on: every PERIOD
seconds it times a short burst of a fixed pure-Python loop there and
scales the interval by the reference burst time over the median burst.
The result is the wall time the interval would have taken at the
reference speed, at which the loop takes REF_PER_ITER seconds per
iteration.  The workloads are interpreter-bound like the loop.  The
bursts take about 1% of the CPU from the measured process.
"""

from __future__ import annotations

import os
import select
import statistics
import time

#: seconds per calibration iteration at the reference speed
REF_PER_ITER = 6e-8
#: iterations per burst (about 1 ms) and seconds between bursts
BURST = 20_000
PERIOD = 0.1


def calibrate(iters: int = BURST) -> float:
    """Wall time of ``iters`` iterations of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(iters):
        x += i * 0.5
    return time.perf_counter() - t0


def scale(bursts: list[float]) -> float:
    """Factor that takes a wall time measured during ``bursts`` to the
    reference speed."""
    return REF_PER_ITER * BURST / statistics.median(bursts)


def wait_sampled(pid: int, t0: float):
    """Wait for child ``pid`` started at ``t0``, timing a burst every PERIOD
    seconds while it runs and one after it ends; returns (wall time scaled
    to the reference speed, unscaled wall time, exit status, rusage).  The
    caller and the child must share one CPU."""
    fd = os.pidfd_open(pid)
    bursts = []
    try:
        while not select.select([fd], [], [], PERIOD)[0]:
            bursts.append(calibrate())
        wall = time.perf_counter() - t0
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    bursts.append(calibrate())
    return wall * scale(bursts), wall, status, usage
