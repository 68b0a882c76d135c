"""Minor page faults and time of the optimizer's small kernel calls.

Usage (from the root of a checkout):

    python3 tools/small_calls.py [SRC]

SRC is the `src/` directory that holds the `motkit` package (default: this
checkout's).  One round is the three `field_many` calls that each objective
evaluation of `motkit optimize` makes on the `optimize-coil24` geometry
(AntiHelmholtz at 24 segments per turn, 48 segments): a Newton step's
7-point stencil, one point, and the gradient fit's 123 points.  After WARMUP
rounds, it times ROUNDS rounds in each of REPEATS batches and prints, as one
JSON line, the minor page faults per round that `getrusage` counts for this
process over all batches and the best batch's microseconds per round.

glibc may trim memory freed at the top of the heap and fault it back in on
the next call, so a kernel whose scratch is allocated and freed per call can
pay about a hundred faults per round or none, depending on the heap's layout.
Run it with and without `MALLOC_TOP_PAD_=16777216`, which stops the trimming,
to see whether the kernel's speed depends on that state.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1
                else os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import motkit as mk  # noqa: E402

WARMUP = 50
ROUNDS = 200
REPEATS = 5
COUNTS = (7, 1, 123)


def main() -> None:
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": 0.04, "separation": 0.06,
                          "current": 100.0}, segments_per_turn=24))
    rng = np.random.default_rng(1)
    calls = [rng.uniform(-2e-3, 2e-3, size=(count, 3)) for count in COUNTS]

    def run(rounds):
        for _ in range(rounds):
            for points in calls:
                mk.field_many(segs, points)

    run(WARMUP)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run(ROUNDS)
        best = min(best, time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(json.dumps({
        "segments": len(segs), "points_per_round": list(COUNTS),
        "MALLOC_TOP_PAD_": os.environ.get("MALLOC_TOP_PAD_"),
        "minor_faults_per_round": round(faults / (ROUNDS * REPEATS), 3),
        "us_per_round": round(1e6 * best / ROUNDS, 1)}))


if __name__ == "__main__":
    main()
