"""Machine-speed calibration for the timed runs.

The benchmark's host is shared: its speed, in CPU time as much as in wall
time, drifts by up to about 1.8x over stretches of seconds to minutes, so a
raw wall time says as much about the neighbours as about motkit.  To take that
out, a fixed calibration slice (make_slice, about 1 ms) runs inside the timed
process every PERIOD_S seconds of wall time, from a SIGALRM handler, so it
samples the speed of the very CPU the workload runs on, while it runs.

A timed run's normalized time is

    (wall - time spent in slices) * mean(ref_s / slice time)

that is, the run's own wall time rescaled to a machine on which one slice
takes ref_s, a constant of the workload (workloads.CALIB).  Slices are taken at a fixed rate in wall time, so the mean
of the reciprocal speeds weights each stretch of the run by how long it
lasted.  run.py scales the set-up runs by the speed the timed runs measured.
The slice is code of the benchmark, not of motkit, so a change to
motkit moves the normalized time as much as the raw one.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05


def make_slice(segments: int, points: int):
    """A calibration slice shaped like the workload it calibrates: the
    angle-form Biot-Savart sum and the point-to-segment distance over
    `segments` random segments, at `points` points, one numpy pass per point
    as motkit's field_at does.  A slice of the workload's own shape slows down
    with the host as the workload does.  In a trial, a fixed mix of small
    numpy calls and an interpreter loop tracked both ends less well: the
    coefficient of variation of normalized repetitions was 0.042 against
    0.031 on optimize-coil24 and 0.055 against 0.040 on simulate-two_piece."""
    rng = np.random.default_rng(12345)
    starts = rng.standard_normal((segments, 3))
    ends = starts + 0.1 * rng.standard_normal((segments, 3))
    line = ends - starts
    at = 0.05 * rng.standard_normal((points, 3))

    def work() -> float:
        acc = 0.0
        for p in at:
            r1 = p - starts
            r2 = p - ends
            t = np.clip(np.einsum("ij,ij->i", r1, line)
                        / np.einsum("ij,ij->i", line, line), 0.0, 1.0)
            dist = np.linalg.norm(r1 - t[:, None] * line, axis=1)
            n1 = np.linalg.norm(r1, axis=1)
            n2 = np.linalg.norm(r2, axis=1)
            cross = np.cross(r1, r2)
            denom = n1 * n2 * (n1 * n2 + np.einsum("ij,ij->i", r1, r2))
            acc += float(((n1 + n2) / denom) @ cross[:, 0]) + float(dist.min())
        return acc
    return work


def timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def speed_factor(samples, ref_s: float) -> float:
    """mean(ref_s / slice time): multiply a wall time by it to scale it to
    the reference machine."""
    return statistics.fmean(ref_s / s for s in samples)


class Sampler:
    """Runs `work` every PERIOD_S seconds between start() and stop(); stop()
    returns the slice times."""

    def __init__(self, work):
        self.work = work
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(timed(self.work))

    def start(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples
