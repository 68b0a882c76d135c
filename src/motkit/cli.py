"""Command-line front end: simulate | optimize | scale | export.

Configs are JSON; lengths in millimetres, currents in amperes, counts
integers and flags booleans.  Every section is read by
`geometry.read_fields`; a bound in `bounds_mm` is in its parameter's units.
The `analysis` section is read once: `simulate` and every `optimize`
evaluation find the zero and fit the gradients with its search radius, fit
window and sample count, and its sample counts are capped by
`field.MAX_SAMPLES` before anything is built.  Outputs are CSV field maps
(SI columns plus a gauss magnitude column), JSON reports, and an OBJ-style
polyline export.  A command writes all its files or none: each goes to a
temporary file in the output directory as soon as it is rendered, and none
is renamed into place before all are written, so `simulate` holds one map
at a time.  A target it cannot write is invalid usage.

Exit codes: 0 ok, 2 invalid usage, config or value in any section, 3
infeasible geometry (beam clearance) or infeasible optimizer start, 4
numerical failure.  Each comes from the `exit_code` of the error class.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from .analysis import (DEFAULT_SAMPLES, DEFAULT_SEARCH_RADIUS, DEFAULT_WINDOW,
                       analyse_design, mot_suitability)
from .errors import InvalidInput, MotKitError
from .field import MAX_SAMPLES, field_map_csv, sample_line, sample_plane
from .geometry import (COPPER, COUNT, CURRENT, LENGTH, MATERIALS, NAME, NUMBER,
                       REGISTRY, GeometrySpec, Material, SegmentList, build,
                       read_fields)
from .optimize import ObjectiveSpec, optimize_geometry, trace_csv
from .scaling import scaling_report


# ---------------------------------------------------------------------------
# config parsing

# analysis keys: kind and SI default
_ANALYSIS = {"window_mm": (LENGTH, DEFAULT_WINDOW),
             "samples": (COUNT, DEFAULT_SAMPLES),
             "scan_halfrange_mm": (LENGTH, 5.0e-3), "scan_points": (COUNT, 101),
             "plane_points": (COUNT, 21),
             "search_radius_mm": (LENGTH, DEFAULT_SEARCH_RADIUS)}

# objective keys named apart from their ObjectiveSpec field
_OBJECTIVE_FIELDS = {"target_gradient_Gcm": "target_gradient",
                     "beam_diameter_mm": "beam_diameter", "bounds_mm": "bounds"}


def _read_analysis(doc) -> dict:
    given = read_fields({} if doc is None else doc,
                        {key: kind for key, (kind, _) in _ANALYSIS.items()},
                        "analysis")
    ana = {key.removesuffix("_mm"): given.get(key, default)
           for key, (_, default) in _ANALYSIS.items()}
    # a negative count would offset the others in the sum below, which
    # caps one command's three fit axes, three scans and three planes
    if min(ana["samples"], ana["scan_points"], ana["plane_points"]) < 1:
        raise InvalidInput("analysis sample counts must be positive")
    if 3 * (ana["samples"] + ana["scan_points"]
            + ana["plane_points"] ** 2) > MAX_SAMPLES:
        raise InvalidInput(f"analysis asks for more than {MAX_SAMPLES} "
                           f"field samples")
    return ana


def _read_material(doc) -> Material:
    if doc is None:
        return COPPER
    if isinstance(doc, str):
        if doc not in MATERIALS:
            raise InvalidInput(f"unknown material {doc!r}")
        return MATERIALS[doc]
    given = read_fields(doc, {"name": NAME, "resistivity_ohm_m": NUMBER},
                        "material")
    if "resistivity_ohm_m" not in given:
        raise InvalidInput("material needs resistivity_ohm_m")
    return Material(given.get("name", "custom"), given["resistivity_ohm_m"])


def _read_objective(doc, geometry: GeometrySpec, ana: dict) -> ObjectiveSpec:
    """The objective from the keys the config gives, with the zero search and
    the gradient fit of the analysis section; ObjectiveSpec holds the
    defaults.  Each bound is read in its parameter's kind."""
    bounds = {name: (kind, kind) for name, (kind, _)
              in REGISTRY[geometry.variant].parameters.items()
              if kind in (LENGTH, CURRENT, NUMBER)}
    given = read_fields(doc, {
        "target_gradient_Gcm": NUMBER,
        "weights": dict.fromkeys(("w_mag", "w_ratio", "w_power"), NUMBER),
        "beam_diameter_mm": LENGTH, "bounds_mm": bounds}, "objective")
    return ObjectiveSpec(**given.pop("weights", {}),
                         **{_OBJECTIVE_FIELDS.get(key, key): value
                            for key, value in given.items()},
                         search_radius=ana["search_radius"],
                         fit_window=ana["window"], fit_samples=ana["samples"])


def resolve_config_path(name: str) -> str:
    """Accept either a config file path or the name of a bundled preset.

    Preset names resolve against the package presets/ directory; an explicit
    path always wins.
    """
    if os.path.exists(name):
        return name
    base = name if name.endswith(".json") else name + ".json"
    candidate = os.path.join(os.path.dirname(__file__), "presets", base)
    if os.path.basename(base) == base and os.path.exists(candidate):
        return candidate
    raise InvalidInput(f"config {name!r} is neither a file nor a bundled preset")


def load_config(path: str) -> dict:
    path = resolve_config_path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: json.load on deeply nested arrays or objects
        raise InvalidInput(f"cannot read config {path}: {exc}") from exc
    doc = read_fields(doc, dict.fromkeys(
        ("geometry", "analysis", "material", "objective")), "config")
    if "geometry" not in doc:
        raise InvalidInput("config is missing the 'geometry' section")
    geometry = GeometrySpec.from_json_dict(doc["geometry"])
    analysis = _read_analysis(doc.get("analysis"))
    return {
        "geometry": geometry,
        "analysis": analysis,
        "material": _read_material(doc.get("material")),
        "objective": (_read_objective(doc["objective"], geometry, analysis)
                      if "objective" in doc else None),
    }


# ---------------------------------------------------------------------------
# output helpers


def _write_outputs(out: str, names, texts):
    """Write each text of `texts`, drawn only when its turn comes, as the
    next name of `names` in the directory `out`.

    A target that is a directory is refused before any text is drawn.  Each
    text goes to a temporary file in `out` and is dropped before the next is
    drawn; all are renamed over their targets once the last is written, and
    none outlives the call.  An OSError becomes InvalidInput naming the path.
    """
    targets = [os.path.join(out, name) for name in names]
    for path in targets:
        if os.path.isdir(path):
            raise InvalidInput(f"cannot write {path}: it is a directory")
    texts = iter(texts)
    temps = []
    try:
        for path in targets:
            fd, tmp = tempfile.mkstemp(dir=out, prefix=".motkit-", suffix=".tmp")
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(next(texts))
        for tmp, path in zip(temps, targets):
            os.replace(tmp, path)
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _check_outdir(out: str):
    if not os.path.isdir(out):
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise InvalidInput(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK):
        raise InvalidInput(f"output directory {out} is not writable")


def _json_text(doc) -> str:
    """`doc` as RFC 8259 JSON; a non-finite number in it is a numerical
    failure (exit 4)."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise MotKitError(f"report holds a non-finite number: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    _check_outdir(args.out)
    ana = cfg["analysis"]
    record = analyse_design(cfg["geometry"], build(cfg["geometry"]),
                            ana["search_radius"], ana["window"],
                            ana["samples"], material=cfg["material"])
    segs, zero = record.segments, record.zero.position
    greport, preport = record.gradients, record.power
    verdict = mot_suitability(greport)
    # the report before the maps, so that a non-finite number in it exits 4
    # ahead of a target that is a directory
    report = _json_text({
        "gradient_report": greport.to_json_dict(),
        "power_report": preport.to_json_dict(),
        "suitability": verdict.to_json_dict(),
    })
    axes = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
    planes = {"xy": ((1, 0, 0), (0, 1, 0)), "xz": ((1, 0, 0), (0, 0, 1)),
              "zy": ((0, 0, 1), (0, 1, 0))}
    half = ana["scan_halfrange"]
    # generators: each map is sampled and rendered only when the writer
    # draws its text, after the one before it is written
    scan_texts = (field_map_csv(sample_line(segs, zero, direction, half,
                                            ana["scan_points"]))
                  for direction in axes.values())
    plane_texts = (field_map_csv(sample_plane(segs, zero, a1, a2, half,
                                              ana["plane_points"]))
                   for a1, a2 in planes.values())
    _write_outputs(args.out, [f"scan_{name}.csv" for name in axes]
                   + [f"plane_{name}.csv" for name in planes] + ["report.json"],
                   itertools.chain(scan_texts, plane_texts, [report]))
    g = greport.g
    print(f"zero at {np.array2string(zero * 1e3, precision=4)} mm")
    print(f"gradients: {g[0]:.3f}, {g[1]:.3f}, {g[2]:.3f} G/cm "
          f"(ratio 1 : {greport.ratio[1]:.3f} : {greport.ratio[2]:.3f})")
    print(f"total power: {preport.total_power:.4f} W ({preport.material.name})")
    print(f"MOT suitability: {'pass' if verdict.passed else 'fail'}")
    return 0


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    if cfg["objective"] is None:
        raise InvalidInput("config is missing the 'objective' section")
    _check_outdir(args.out)
    result = optimize_geometry(cfg["geometry"], cfg["objective"],
                               budget=args.budget, material=cfg["material"])
    _write_outputs(args.out, ["opt_result.json", "opt_trace.csv"],
                   [_json_text(result.to_json_dict()), trace_csv(result)])
    kinds = REGISTRY[cfg["geometry"].variant].parameters
    print("best parameters:")
    for name, value in sorted(result.best_parameters.items()):
        print(f"  {name} = {value * 1e3:.4f} mm" if kinds[name][0] == LENGTH
              else f"  {name} = {value:.6g}")
    print(f"objective {result.best_objective:.6g} after "
          f"{result.evaluations} evaluations "
          f"({'converged' if result.converged else 'budget exhausted'})")
    return 0


def cmd_scale(args) -> int:
    report = scaling_report(args.k)
    print(f"linear scale factor k = {report.k:g}")
    print(f"{'quantity':<12}{'ratio':>12}")
    for name, value in report.ratios.items():
        print(f"{name:<12}{value:>12.6g}")
    if args.out:
        _check_outdir(args.out)
        _write_outputs(args.out, ["scaling.json"],
                       [_json_text(report.to_json_dict())])
    else:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    return 0


def export_obj(segments: SegmentList) -> str:
    """OBJ-style polylines: `v` vertices in millimetres, `l` elements,
    one object per conductor group."""
    lines = []
    offset = 0
    for gid in segments.groups():
        part = segments.group(gid)
        lines.append(f"o {gid}")
        # the starts, then the ends: segment i runs from row i to row
        # len(part) + i
        rows = np.round(np.vstack([part.starts, part.ends]) * 1e3, 6).tolist()
        index = {}   # vertex -> its 1-based number in the file
        ids = [index.setdefault(tuple(row), offset + len(index) + 1)
               for row in rows]
        lines += ["v " + " ".join(f"{c:.6f}" for c in key) for key in index]
        lines += [f"l {i} {j}" for i, j in zip(ids[:len(part)], ids[len(part):])]
        offset += len(index)
    return "\n".join(lines) + "\n"


def cmd_export(args) -> int:
    cfg = load_config(args.config)
    _check_outdir(args.out)
    segs = build(cfg["geometry"])
    _write_outputs(args.out, ["geometry.obj"], [export_obj(segs)])
    print(f"wrote {len(segs)} segments in {len(segs.groups())} groups")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motkit",
        description="Magnetostatic design toolkit for compact printed traps")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="field maps, gradients, power budget")
    sim.add_argument("--config", required=True,
                     help="config file or bundled preset name")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    opt = sub.add_parser("optimize", help="search geometry parameters")
    opt.add_argument("--config", required=True,
                     help="config file or bundled preset name")
    opt.add_argument("--out", required=True)
    opt.add_argument("--budget", type=int, default=200)
    opt.set_defaults(func=cmd_optimize)

    sca = sub.add_parser("scale", help="print miniaturisation ratios")
    sca.add_argument("k", type=float)
    sca.add_argument("--out", default=None)
    sca.set_defaults(func=cmd_scale)

    exp = sub.add_parser("export", help="write geometry as OBJ polylines")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return InvalidInput.exit_code if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except MotKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
