"""Output checks of one benchmark run.

A repetition passes only if it exited 0, its outputs (and standard output)
are byte-identical to the first repetition's, and the first repetition's
outputs pass the content checks below.  Every check is an invariant of the
workload, so it holds for every seed:

simulate
  * report.json puts the field zero within 0.5 mm of the origin;
  * TwoPiece gradients lie in the criterion-5 windows of the acceptance suite;
  * every CSV has the expected header, row count and sample positions, and
    its Bmag_G column equals 1e4 |B| of its own components;
  * the NaN rows are exactly the sample points within EPS_SING of a segment,
    found here by a chunked point-to-segment distance;
  * on a fixed subset of rows, B matches a brute-force numpy Biot-Savart sum
    over the built segments to 1e-9 relative.
optimize
  * best_objective < 1e-4;
  * the evaluations use up the budget, or the search converged;
  * opt_trace.csv has one row per evaluation;
  * with the geometry rebuilt at best_parameters, motkit's field_at matches
    the brute-force sum to 1e-9 relative at fixed points around the reported
    zero.  The objective alone would not show a kernel error this small.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

ZERO_TOL_M = 0.5e-3
# criterion 5 of tests/test_acceptance.py
TWO_PIECE_TARGETS_GCM = (8.98, 9.20, -17.6)
TWO_PIECE_RATIO_Z = (-2.2, -1.6)
OBJECTIVE_MAX = 1e-4

CSV_HEADER = "x_m,y_m,z_m,Bx_T,By_T,Bz_T,Bmag_G"
BRUTE_FORCE_ROWS = 33      # rows checked per CSV, evenly spaced, fixed
BRUTE_FORCE_RTOL = 1e-9
# Near the field zero the sum cancels; below this share of the summed
# per-segment magnitudes the tolerance is taken on that floor instead.
CANCELLATION_FLOOR = 1e-4
MU0_OVER_4PI = 1e-7        # T m / A
# offsets from the optimized trap's zero at which its field is checked (m)
KERNEL_OFFSETS_M = tuple(sign * 4e-3 * np.eye(3)[axis]
                         for axis in range(3) for sign in (1.0, -1.0))
_CHUNK_PAIRS = 1 << 18     # point-segment pairs per distance chunk


def check_reps(reps) -> list:
    """Failures of each repetition: non-zero exit or output bytes differing
    from the first repetition's."""
    first = reps[0]["digests"]
    failures = []
    for rep in reps:
        own = []
        if rep["exit_code"] != 0:
            own.append(f"rep {rep['index']}: exit code {rep['exit_code']}")
        for name, digest in rep["digests"].items():
            if digest is None:
                own.append(f"rep {rep['index']}: {name} missing")
            elif digest != first[name]:
                own.append(f"rep {rep['index']}: {name} differs from rep 0")
        failures.append(own)
    return failures


# ---------------------------------------------------------------------------
# simulate


def sample_grids(zero, halfrange, scan_points, plane_points):
    """Sample positions of `motkit simulate`, by file name, in CSV row order."""
    grids = {}
    for name, axis in (("x", 0), ("y", 1), ("z", 2)):
        d = np.zeros(3)
        d[axis] = 1.0
        s = (np.linspace(-halfrange, halfrange, scan_points)
             if scan_points > 1 else np.array([0.0]))
        grids[f"scan_{name}.csv"] = zero + s[:, None] * d
    u = (np.linspace(-halfrange, halfrange, plane_points)
         if plane_points > 1 else np.array([0.0]))
    eye = np.eye(3)
    for name, (a1, a2) in (("xy", (0, 1)), ("xz", (0, 2)), ("zy", (2, 1))):
        grids[f"plane_{name}.csv"] = (zero + u[:, None, None] * eye[a1]
                                      + u[None, :, None] * eye[a2]).reshape(-1, 3)
    return grids


def singular_mask(starts, ends, points, eps):
    """True where a point lies within `eps` of any segment."""
    line = ends - starts
    line_sq = np.einsum("ij,ij->i", line, line)
    mask = np.zeros(len(points), dtype=bool)
    step = max(1, _CHUNK_PAIRS // len(starts))
    for lo in range(0, len(points), step):
        r1 = points[lo:lo + step, None, :] - starts[None, :, :]
        t = np.clip(np.einsum("pij,ij->pi", r1, line) / line_sq, 0.0, 1.0)
        dist = np.linalg.norm(r1 - t[..., None] * line, axis=2)
        mask[lo:lo + step] = (dist < eps).any(axis=1)
    return mask


def reference_field(starts, ends, currents, p):
    """Brute-force B at one point from the angle form of the finite-wire law,

        B = mu0 I / (4 pi rho^2) (u x r1) (u.r1 / |r1| - u.r2 / |r2|),

    which shares no expression with motkit's closed form.  Returns B, the
    sum of the per-segment magnitudes, and a rounding-error bound that is
    infinite when a term cannot be trusted (a point on a segment's line).
    """
    length = ends - starts
    u = length / np.linalg.norm(length, axis=1)[:, None]
    r1 = p - starts
    r2 = p - ends
    perp = np.cross(u, r1)
    rho_sq = np.einsum("ij,ij->i", perp, perp)
    if np.any(rho_sq == 0.0):
        return np.zeros(3), 0.0, math.inf
    cos_diff = (np.einsum("ij,ij->i", u, r1) / np.linalg.norm(r1, axis=1)
                - np.einsum("ij,ij->i", u, r2) / np.linalg.norm(r2, axis=1))
    terms = (MU0_OVER_4PI * currents * cos_diff / rho_sq)[:, None] * perp
    # cos_diff carries an absolute error of a few ulps of 1
    error = MU0_OVER_4PI * float(np.sum(np.abs(currents) * 1e-15
                                        / np.sqrt(rho_sq)))
    return terms.sum(axis=0), float(np.linalg.norm(terms, axis=1).sum()), error


def brute_force_deviation(starts, ends, currents, p, B):
    """Largest deviation of the field B at p from the brute-force sum,
    relative to its magnitude (or to the cancellation floor).  None when the
    reference is not accurate enough at p to judge B to BRUTE_FORCE_RTOL."""
    ref, scale, error = reference_field(starts, ends, currents, p)
    floor = max(float(np.linalg.norm(ref)), CANCELLATION_FLOOR * scale)
    if not error <= 0.1 * BRUTE_FORCE_RTOL * floor:
        return None
    return float(np.max(np.abs(np.asarray(B) - ref))) / floor


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2) if header else None
    return header, rows


def check_simulate(cfg, segments, eps_sing, outdir) -> tuple:
    """Content checks of one `simulate` output directory.

    `cfg` is motkit.cli.load_config's result for the workload's config and
    `segments` the SegmentList built from it.  Returns (failures, info).
    """
    failures = []
    info = {"sample_points": 0, "nan_rows": 0, "singular_points": 0,
            "brute_force_rows": 0}
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    grad = report["gradient_report"]
    zero = np.asarray(grad["zero_mm"], dtype=float) * 1e-3
    if not np.linalg.norm(zero) < ZERO_TOL_M:
        failures.append(f"zero {zero.tolist()} m is not within "
                        f"{ZERO_TOL_M} m of the origin")
    if cfg["geometry"].variant == "TwoPiece":
        g = grad["g_Gcm"]
        if not TWO_PIECE_RATIO_Z[0] <= grad["ratio"][2] <= TWO_PIECE_RATIO_Z[1]:
            failures.append(f"ratio_z {grad['ratio'][2]} outside "
                            f"{TWO_PIECE_RATIO_Z}")
        for value, target in zip(g, TWO_PIECE_TARGETS_GCM):
            if not (0.5 * abs(target) <= abs(value) <= 1.5 * abs(target)
                    and math.copysign(1.0, value) == math.copysign(1.0, target)):
                failures.append(f"gradient {value} G/cm outside the window "
                                f"around {target} G/cm")

    ana = cfg["analysis"]
    halfrange = ana["scan_halfrange"]
    starts, ends = segments.starts, segments.ends
    currents = segments.currents
    grids = sample_grids(zero, halfrange, ana["scan_points"],
                         ana["plane_points"])
    candidates = 0
    for name, expected in grids.items():
        header, rows = _read_csv(os.path.join(outdir, name))
        if header != CSV_HEADER or rows is None or rows.shape != (len(expected), 7):
            failures.append(f"{name}: header or shape differs from "
                            f"{len(expected)} rows of {CSV_HEADER}")
            continue
        info["sample_points"] += len(expected)
        pos, B, bmag = rows[:, :3], rows[:, 3:6], rows[:, 6]
        if np.max(np.abs(pos - expected)) > 1e-9 * halfrange:
            failures.append(f"{name}: sample positions differ from the grid")
        nan_cells = np.isnan(rows[:, 3:])
        nan_rows = nan_cells.any(axis=1)
        if np.any(nan_rows & ~nan_cells.all(axis=1)):
            failures.append(f"{name}: partly NaN rows")
        finite = ~nan_rows
        mag = 1e4 * np.linalg.norm(B[finite], axis=1)
        if np.any(np.abs(bmag[finite] - mag) > 2e-9 * np.maximum(mag, 1e-300)):
            failures.append(f"{name}: Bmag_G disagrees with its B columns")
        singular = singular_mask(starts, ends, expected, eps_sing)
        info["nan_rows"] += int(nan_rows.sum())
        info["singular_points"] += int(singular.sum())
        if not np.array_equal(nan_rows, singular):
            failures.append(f"{name}: {int(nan_rows.sum())} NaN rows, but "
                            f"{int(singular.sum())} points within "
                            f"{eps_sing:g} m of a segment")
        subset = np.unique(np.linspace(0, len(expected) - 1,
                                       BRUTE_FORCE_ROWS).round().astype(int))
        for i in subset:
            if nan_rows[i] or singular[i]:
                continue
            candidates += 1
            deviation = brute_force_deviation(starts, ends, currents,
                                              expected[i], B[i])
            if deviation is None:
                continue
            info["brute_force_rows"] += 1
            if deviation > BRUTE_FORCE_RTOL:
                failures.append(f"{name} row {i + 1}: B {B[i].tolist()} differs "
                                f"from the brute-force sum by "
                                f"{deviation:.2e} relative")
    if info["brute_force_rows"] < candidates / 2:
        failures.append(f"only {info['brute_force_rows']} rows could be "
                        "checked against the brute-force sum")
    return failures, info


# ---------------------------------------------------------------------------
# optimize


def check_optimize(budget, outdir, rebuild, field_at) -> tuple:
    """Content checks of one `optimize` output directory.

    `rebuild(parameters)` builds the workload's geometry with its parameters
    replaced, and `field_at(segments, p)` is motkit's kernel under test.
    """
    failures = []
    with open(os.path.join(outdir, "opt_result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    if not result["best_objective"] < OBJECTIVE_MAX:
        failures.append(f"best_objective {result['best_objective']} is not "
                        f"below {OBJECTIVE_MAX}")
    if not (result["evaluations"] == budget or result["converged"]):
        failures.append(f"{result['evaluations']} evaluations of a budget of "
                        f"{budget} without convergence")
    with open(os.path.join(outdir, "opt_trace.csv"), encoding="utf-8") as fh:
        trace_rows = len(fh.read().splitlines()) - 1
    if trace_rows != result["evaluations"]:
        failures.append(f"opt_trace.csv has {trace_rows} rows for "
                        f"{result['evaluations']} evaluations")

    segments = rebuild(result["best_parameters"])
    zero = np.asarray(result["gradient_report"]["zero_mm"], dtype=float) * 1e-3
    checked = 0
    for offset in KERNEL_OFFSETS_M:
        p = zero + offset
        deviation = brute_force_deviation(segments.starts, segments.ends,
                                          segments.currents, p,
                                          field_at(segments, p))
        if deviation is None:
            continue
        checked += 1
        if deviation > BRUTE_FORCE_RTOL:
            failures.append(f"field_at {p.tolist()} of the optimized geometry "
                            f"differs from the brute-force sum by "
                            f"{deviation:.2e} relative")
    if checked < len(KERNEL_OFFSETS_M) / 2:
        failures.append(f"only {checked} points of the optimized geometry "
                        "could be checked against the brute-force sum")
    return failures, {"evaluations": result["evaluations"],
                      "best_objective": result["best_objective"],
                      "segments_at_best": len(segments),
                      "kernel_points_checked": checked}
