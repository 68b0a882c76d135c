"""Self-test of the output checker.

Usage (from the root of a checkout): python3 bench/selftest.py

Runs a small `motkit simulate` of an anti-Helmholtz pair whose xz and zy
planes cross the coil vertices (8 singular rows), checks that the clean
output passes, and that the checker rejects
  * a CSV with one corrupted value,
  * a CSV with one extra NaN row (a wrong NaN count),
  * a rerun whose output bytes differ from the first run's.
Exits 0 when every case is judged correctly, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import checks
from run import SRC, WORK
from worker import digests
from workloads import SIMULATE_OUTPUTS

CONFIG = {
    "geometry": {"variant": "AntiHelmholtz",
                 "parameters": {"radius": 50.0, "separation": 50.0,
                                "current": 100.0, "wire_diameter": 1.0}},
    "analysis": {"scan_points": 5, "plane_points": 5,
                 "scan_halfrange_mm": 50.0},
}


def _edit_row(path, row, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    lines[row] = ",".join(edit(cells)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def main() -> int:
    sys.path.insert(0, SRC)
    from motkit import build, cli
    from motkit.field import EPS_SING

    workdir = os.path.join(WORK, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        config = os.path.join(workdir, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(CONFIG, fh)
        clean = os.path.join(workdir, "clean")
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["simulate", "--config", config, "--out", clean]) != 0:
                print("selftest: the simulate run failed")
                return 1
        cfg = cli.load_config(config)
        segments = build(cfg["geometry"])

        def judge(outdir):
            return checks.check_simulate(cfg, segments, EPS_SING, outdir)

        def variant(name, edit_file, row, edit):
            outdir = os.path.join(workdir, name)
            shutil.copytree(clean, outdir)
            _edit_row(os.path.join(outdir, edit_file), row, edit)
            return outdir

        def corrupt_bx(cells):
            cells[3] = f"{float(cells[3]) * (1.0 + 1e-6):.9e}"
            return cells

        def blank_b(cells):
            return cells[:3] + ["nan"] * 4

        outcomes = []
        failures, info = judge(clean)
        outcomes.append(("clean output passes", not failures
                         and info["nan_rows"] == 8, failures))
        failures, _ = judge(variant("corrupt", "plane_xy.csv", 7, corrupt_bx))
        outcomes.append(("one corrupted value is rejected",
                         any("brute-force" in f for f in failures), failures))
        failures, _ = judge(variant("nan", "plane_xy.csv", 7, blank_b))
        outcomes.append(("a wrong NaN count is rejected",
                         any("NaN rows, but" in f for f in failures), failures))
        rerun = variant("rerun", "scan_x.csv", 2, corrupt_bx)
        reps = [{"index": i, "exit_code": 0,
                 "digests": digests(d, SIMULATE_OUTPUTS, "")}
                for i, d in enumerate((clean, clean, rerun))]
        rep_failures = checks.check_reps(reps)
        outcomes.append(("a non-deterministic rerun is rejected",
                         not rep_failures[1] and bool(rep_failures[2]),
                         rep_failures))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, ok, detail in outcomes:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        if not ok:
            print(f"  checker said: {detail}")
    return 0 if all(ok for _, ok, _ in outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
