"""Child process that runs one workload repeatedly through `motkit.cli.main`.

Usage: worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds the workload (see workloads.make) plus `src`, `workdir`,
`seconds` and `trace`.  One untimed warm-up run of the workload's
`warmup_argv` comes first; timed repetitions follow until `seconds` have
passed since the warm-up ended, with at least MIN_REPS of them, or
MIN_TRACED_REPS of each kind when tracing.
With `trace` set, untraced and traced repetitions alternate, so that the
tracing overhead is measured on the same machine state.  Every repetition
writes into its own output directory; the worker records its wall time, exit
code and the SHA-256 of each output file and of its standard output.  The
first repetition's directory is kept for the output checks; the others are
removed.

Without `trace`, every repetition runs under calib.Sampler, and its record
also holds `slice_s`, the time spent in calibration slices, and `norm_s`, its
wall time less `slice_s`, scaled to the reference machine (see calib.py).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import calib
import tracer

MIN_REPS = 2
MIN_TRACED_REPS = 2     # of each kind


def digests(outdir, outputs, stdout_text):
    """SHA-256 of standard output and of each output file (None if missing)."""
    out = {"stdout": hashlib.sha256(stdout_text.encode()).hexdigest()}
    for name in outputs:
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        else:
            out[name] = None
    return out


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import motkit.cli
    here = os.path.dirname(os.path.abspath(motkit.__file__))
    if os.path.dirname(here) != os.path.abspath(spec["src"]):
        raise SystemExit(f"motkit imported from {here}, not from {spec['src']}")

    def run_cli(argv):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = motkit.cli.main(argv)
        except Exception:
            # an escaped exception is a failed run, like exit code 1
            traceback.print_exc()
            code = 1
        return code, buf.getvalue()

    # a failing warm-up fails the timed runs too, which are checked
    run_cli(spec["warmup_argv"] + ["--out", os.path.join(spec["workdir"], "warmup")])
    shutil.rmtree(os.path.join(spec["workdir"], "warmup"), ignore_errors=True)

    segments, points, ref_s = spec["calib"]
    work = calib.make_slice(segments, points)
    sampler = None if spec["trace"] else calib.Sampler(work)
    reps = []
    layers = []
    last_spans = None
    began = time.perf_counter()     # the end of the warm-up
    while True:
        index = len(reps)
        untraced = sum(1 for r in reps if not r["traced"])
        traced_count = len(reps) - untraced
        enough = (untraced >= MIN_TRACED_REPS and traced_count >= MIN_TRACED_REPS
                  if spec["trace"] else untraced >= MIN_REPS)
        if enough and time.perf_counter() - began >= spec["seconds"]:
            break
        traced = bool(spec["trace"]) and index % 2 == 1
        outdir = os.path.join(spec["workdir"], f"rep{index}")
        if traced:
            t = tracer.Tracer()
            t.install()
        if sampler:
            sampler.start()
        start = time.perf_counter()
        try:
            code, stdout_text = run_cli(spec["argv"] + ["--out", outdir])
        finally:
            wall = time.perf_counter() - start
            slices = sampler.stop() if sampler else []
            if traced:
                t.uninstall()
        rep = {"index": index, "traced": traced, "wall_s": wall,
               "exit_code": code,
               "digests": digests(outdir, spec["outputs"], stdout_text)}
        if sampler:
            rep["slices"] = len(slices)
            rep["slice_s"] = sum(slices)
            # a run shorter than one period is scaled by a slice taken after it
            rep["norm_s"] = ((wall - rep["slice_s"])
                             * calib.speed_factor(slices or [calib.timed(work)],
                                                  ref_s))
        reps.append(rep)
        if traced:
            layers.append(tracer.layer_metrics(t.spans))
            last_spans = (t.spans, start)
        if index > 0:
            shutil.rmtree(outdir, ignore_errors=True)

    result = {"reps": reps,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if spec["trace"]:
        untraced = statistics.median(r["wall_s"] for r in reps
                                     if not r["traced"])
        traced_wall = statistics.median(r["wall_s"] for r in reps
                                        if r["traced"])
        # counts repeat exactly; times and fractions take the median
        metrics = {name: (statistics.median_low if isinstance(layers[0][name], int)
                          else statistics.median)([m[name] for m in layers])
                   for name in layers[0]}
        metrics["trace.overhead_frac"] = (traced_wall - untraced) / untraced
        result["layers"] = metrics
        spans_path = os.path.join(spec["workdir"], "spans.csv")
        spans, origin = last_spans
        tracer.write_spans(spans, spans_path, origin)
        result["spans_file"] = spans_path
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)


if __name__ == "__main__":
    main(*sys.argv[1:3])
