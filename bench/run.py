"""motkit benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in workloads.py and described in README.md.  The
benchmark imports motkit from the checkout's own `src/`; it installs nothing
and changes nothing there.

--trace 0 reports the end-to-end metrics:
  wall_s        median normalized wall time of one in-process
                `motkit.cli.main` run, after one untimed warm-up
  setup_s       median normalized wall time of SETUP_RUNS fresh interpreters
                that import motkit, load the workload's config and build its
                geometry
  peak_rss_mb   peak resident set size of the process that ran the workload
  success_rate  passed runs / attempted runs
Normalized times are scaled to a reference machine speed measured with
calibration slices while the run goes (calib.py), because the host's speed
drifts.  --trace 1 alternates untraced and traced runs and reports the
per-layer metrics of tracer.py plus trace.overhead_frac.

Every run is checked (checks.py).  Human-readable lines, including the
provenance of the run, come first on standard output; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  A copy of
the full result, with every sample, is written to
.bench_work/<workload>-seed<N>-trace<T>-<pid>/result.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calib
import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Half of the set-up runs come before the workload and half after it, so
# that they sample the machine over the whole run, as the workload runs do.
SETUP_RUNS = 20
RUN_LIMIT_S = 170.0     # everything, including the worker, ends before this
# Room outside the measuring window: interpreter start, set-up runs, the
# warm-up, the repetition that overruns the window, and the output checks,
# on a machine running at half speed.
RUN_MARGIN_S = 90.0

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import motkit; "
              "from motkit.cli import load_config; "
              "motkit.build(load_config(sys.argv[2])['geometry'])")


def fail(message: str, code: int = 1):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def metric_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over the paths and bytes of src/motkit, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "motkit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def measure_setup(config: str, runs: int, deadline: float) -> list:
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, config],
                                  capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("a set-up run did not finish within the run's time limit")
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up run exited {proc.returncode}: {proc.stderr.strip()}")
    return samples


def run_worker(spec: dict, workdir: str, deadline: float) -> dict:
    spec_path = os.path.join(workdir, "worker_spec.json")
    result_path = os.path.join(workdir, "worker_result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
             result_path],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("the workload did not finish within the run's time limit")
    if proc.returncode != 0 or not os.path.exists(result_path):
        fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_content(workload: dict, outdir: str) -> tuple:
    import motkit
    from motkit.cli import load_config
    from motkit.field import EPS_SING, field_at
    cfg = load_config(workload["config"])
    segments = motkit.build(cfg["geometry"])
    info = {"segments": len(segments)}
    try:
        if workload["command"] == "simulate":
            failures, more = checks.check_simulate(cfg, segments, EPS_SING,
                                                   outdir)
        else:
            def rebuild(parameters):
                spec = cfg["geometry"].replace_parameters(**parameters)
                return motkit.build(spec)
            failures, more = checks.check_optimize(
                workloads.OPT_BUDGET, outdir, rebuild, field_at)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"outputs could not be checked: {exc!r}"], info
    info.update(more)
    return failures, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= RUN_LIMIT_S - RUN_MARGIN_S:
        fail(f"--seconds must lie in (0, {RUN_LIMIT_S - RUN_MARGIN_S:g}] so "
             f"that a run ends within {RUN_LIMIT_S:g} s", code=2)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "motkit", "__init__.py")):
        fail(f"no motkit sources under {SRC}", code=2)
    sys.path.insert(0, SRC)
    import numpy
    import motkit

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.make(args.workload, args.seed, workdir)

    setup_runs = 0 if args.trace else SETUP_RUNS // 2
    setup_raw = measure_setup(workload["config"], setup_runs, deadline)
    result = run_worker({**workload, "src": SRC, "workdir": workdir,
                         "seconds": args.seconds, "trace": args.trace},
                        workdir, deadline)
    setup_raw += measure_setup(workload["config"], setup_runs, deadline)
    reps = result["reps"]
    rep_failures = checks.check_reps(reps)
    if rep_failures[0]:
        content_failures, info = ["rep 0 failed; its outputs were not checked"], {}
    else:
        content_failures, info = check_content(workload,
                                               os.path.join(workdir, "rep0"))
    if not content_failures:
        shutil.rmtree(os.path.join(workdir, "rep0"))   # kept only to inspect failures
    failed = sum(1 for own in rep_failures if own or content_failures)
    attempted = len(reps)
    for message in (content_failures + [m for own in rep_failures for m in own])[:20]:
        print(f"bench: check failed: {message}", file=sys.stderr)

    timed = [r["wall_s"] for r in reps if not r["traced"]]
    timed_norm = [r["norm_s"] for r in reps if "norm_s" in r]
    if timed_norm:
        # A set-up run is too short, and its fresh interpreter too cold, for
        # slices of its own to say much; it takes the machine speed the
        # timed runs measured, which the set-up runs surround.
        speed = sum(timed_norm) / sum(r["wall_s"] - r["slice_s"] for r in reps
                                      if "norm_s" in r)
        setup = [x * speed for x in setup_raw]
    else:
        speed, setup = None, []
    if args.trace:
        section, values = "per_layer", result["layers"]
    else:
        section = "end_to_end"
        values = {"wall_s": statistics.median(timed_norm),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["maxrss_kb"] / 1024.0,
                  "success_rate": (attempted - failed) / attempted}
    units = metric_units(section)
    if set(units) != set(values):
        fail(f"metrics {sorted(values)} do not match BENCHMARK.json "
             f"{section} {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    commit = git_commit()
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_commit": commit,
        "src_sha256": src_digest() if commit is None else None,
        "motkit": motkit.__version__, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), **info,
    }
    full = {"provenance": provenance, "config": workload["config_doc"],
            "wall_s_raw_samples": timed, "wall_s_samples": timed_norm,
            "setup_s_raw_samples": setup_raw, "setup_s_samples": setup,
            "reps": reps, "content_failures": content_failures,
            "speed_factor": speed, "metrics": metrics,
            "spans_file": result.get("spans_file")}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=2)

    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        print(f"samples: per-layer times are medians of {len(reps) - len(timed)} "
              f"traced runs, compared with {len(timed)} untraced runs")
    else:
        print(f"samples: wall_s is the median of {len(timed)} timed runs after "
              f"one warm-up; setup_s the median of {len(setup)} fresh "
              f"interpreters; both scaled to the reference machine (calib.py)")
        print(f"raw medians: wall_s {statistics.median(timed):.4f} s, "
              f"setup_s {statistics.median(setup_raw):.4f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
