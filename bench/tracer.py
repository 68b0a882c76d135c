"""Span tracer that wraps motkit's public functions from outside the package.

Each public function defined in a traced layer module is replaced, in every
`motkit` module that holds a reference to it (for example
`motkit.analysis.field_at`, `motkit.cli.find_field_zero` and
`motkit.optimize.build`), by a wrapper that records one span: name, start,
end, parent span and an optional note.  Spans stay in memory; the worker
writes them out when the run ends.  Nothing inside `src/` is changed.
"""
from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time

import numpy as np

# `scaling` is left out: `motkit scale` is O(1) arithmetic and no workload
# reaches it.
LAYERS = ("geometry", "field", "analysis", "power", "optimize", "cli")

NAME, START, END, PARENT, NOTE = range(5)


def _kernel_pairs(args, kwargs, result):
    segments = args[0] if args else kwargs["segments"]
    return len(segments)


def _segment_count(args, kwargs, result):
    return len(result)


def _sample_counts(args, kwargs, result):
    return (result.positions.shape[0], int(np.isnan(result.B[:, 0]).sum()))


def _discarded(args, kwargs, result):
    return math.isinf(result)


# notes taken from a span's arguments and result after its clock stops
_NOTES = {
    "field.field_at": _kernel_pairs,
    "geometry.build": _segment_count,
    "field.sample_line": _sample_counts,
    "field.sample_plane": _sample_counts,
    "optimize.objective_value": _discarded,
}

RAISED = "raised"


class Tracer:
    """Records spans while installed; `uninstall` restores every name."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"motkit.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "motkit" and not name.startswith("motkit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        note_of = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, RAISED)
                raise
            finally:
                stack.pop()
            end = clock()
            note = note_of(args, kwargs, result) if note_of else None
            spans[index] = (name, start, end, parent, note)
            return result

        return traced


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced workload run.

    Times are seconds.  A layer the workload never reaches reads 0, as its
    counts do.  Totals count only the outermost span of each name, so a
    function that reaches itself through another traced function is not
    counted twice.  Spans are stored in entry order, so a parent always
    precedes its children and one forward pass can inherit flags from
    parents.
    """
    n = len(spans)
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += duration[i]

    # ancestors[i]: names of the spans enclosing span i (itself excluded)
    ancestors = [frozenset()] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            ancestors[i] = ancestors[p] | {spans[p][NAME]}

    def outer(name):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and name not in ancestors[i]]

    def total(*names):
        return sum((duration[i] for name in names for i in outer(name)), 0.0)

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    kernel = [i for i, s in enumerate(spans) if s[NAME] == "field.field_at"]
    # a singular point raises before the field sum, so it adds no pairs
    pairs = sum(spans[i][NOTE] for i in kernel
                if spans[i][NOTE] is not RAISED)
    kernel_s = total("field.field_at")
    builds = [s for s in spans if s[NAME] == "geometry.build"
              and s[NOTE] is not RAISED]
    samples = [s[NOTE] for s in spans
               if s[NAME] in ("field.sample_line", "field.sample_plane")
               and s[NOTE] is not RAISED]
    points = sum(p for p, _ in samples)
    singular = sum(k for _, k in samples)
    zeros = count("analysis.find_field_zero")
    fits = count("analysis.fit_gradients")
    evals = [s for s in spans if s[NAME] == "optimize.objective_value"]
    eval_s = (statistics.median(s[END] - s[START] for s in evals)
              if evals else 0.0)
    discarded = sum(1 for s in evals if s[NOTE] is True or s[NOTE] is RAISED)
    search_self = sum((duration[i] - child_time[i]
                       for i in outer("optimize.optimize_geometry")), 0.0)
    cli_self = sum(duration[i] - child_time[i] for i, s in enumerate(spans)
                   if s[NAME].startswith("cli.")
                   and s[NAME] != "cli.load_config"
                   and "cli.load_config" not in ancestors[i])
    return {
        "geometry.segments": builds[-1][NOTE] if builds else 0,
        "geometry.build_calls": count("geometry.build"),
        "geometry.build_s": total("geometry.build"),
        "geometry.clearance_check_s": total("geometry.clearance_check"),
        "field.kernel_calls": len(kernel),
        "field.kernel_pairs": pairs,
        "field.kernel_s": kernel_s,
        "field.pairs_per_s": ratio(pairs, kernel_s),
        "field.sample_points": points,
        "field.sample_s": total("field.sample_line", "field.sample_plane"),
        "field.singular_frac": ratio(singular, points),
        "field.csv_s": total("field.field_map_csv"),
        "analysis.find_field_zero_calls": zeros,
        "analysis.find_field_zero_s": total("analysis.find_field_zero"),
        "analysis.kernel_calls_per_zero": ratio(
            sum(1 for i in kernel
                if "analysis.find_field_zero" in ancestors[i]), zeros),
        "analysis.fit_gradients_s": total("analysis.fit_gradients"),
        "analysis.kernel_calls_per_fit": ratio(
            sum(1 for i in kernel
                if "analysis.fit_gradients" in ancestors[i]), fits),
        "analysis.jacobian_calls": count("analysis.jacobian_at"),
        "power.power_report_calls": count("power.power_report"),
        "power.power_report_s": total("power.power_report"),
        "optimize.evals": len(evals),
        "optimize.eval_s": eval_s,
        "optimize.discarded_frac": ratio(discarded, len(evals)),
        "optimize.search_self_s": search_self,
        "cli.load_config_s": total("cli.load_config"),
        "cli.self_s": cli_self,
    }


def write_spans(spans, path: str, origin: float):
    """CSV of spans: index, name, start and end in seconds after `origin`,
    parent index (-1 at the top) and note (points;nan_rows for samplers)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,note\n")
        for i, (name, start, end, parent, note) in enumerate(spans):
            if note is None:
                note = ""
            elif isinstance(note, tuple):
                note = ";".join(map(str, note))
            fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},"
                     f"{parent},{note}\n")
