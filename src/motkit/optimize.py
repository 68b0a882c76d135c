"""Derivative-free search over geometry parameters.

Nelder-Mead with bound projection: fitted gradients are noisy functions of
geometry through the discretization, so finite-difference gradients of the
objective are unreliable at the few-parameter scale this handles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .analysis import (DEFAULT_SAMPLES, DEFAULT_SEARCH_RADIUS, DEFAULT_WINDOW,
                       TARGET_RATIO, GradientReport, find_field_zero,
                       fit_gradients)
from .errors import (InfeasibleStart, InvalidInput, MotKitError,
                     ObjectiveEvaluationError)
from .geometry import COPPER, GeometrySpec, Material, build, clearance_check
from .power import PowerReport, power_report


@dataclass(frozen=True)
class ObjectiveSpec:
    target_gradient: float = 15.0              # G/cm, min-axis magnitude
    target_ratio: tuple = TARGET_RATIO
    w_mag: float = 1.0
    w_ratio: float = 1.0
    w_power: float = 0.1
    power_ref: float = 1.0                     # W; power term is P/power_ref
    beam_diameter: float = 0.015               # m, hard clearance constraint
    max_power: float | None = None             # W, hard cap when set
    bounds: dict = dc_field(default_factory=dict)  # param -> (lo, hi), SI
    search_radius: float = DEFAULT_SEARCH_RADIUS  # m, zero search region
    fit_window: float = DEFAULT_WINDOW         # m
    fit_samples: int = DEFAULT_SAMPLES         # per axis

    def __post_init__(self):
        if not (math.isfinite(self.target_gradient) and self.target_gradient > 0):
            raise InvalidInput("target gradient must be positive and finite")
        if not (math.isfinite(self.power_ref) and self.power_ref > 0):
            raise InvalidInput("power reference must be positive and finite")
        if min(self.w_mag, self.w_ratio, self.w_power) < 0:
            raise InvalidInput("weights must be non-negative")
        if max(self.w_mag, self.w_ratio, self.w_power) == 0:
            raise InvalidInput("at least one weight must be positive")
        for name, (lo, hi) in self.bounds.items():
            if not lo < hi:
                raise InvalidInput(f"bounds for {name!r} are not well-ordered")


@dataclass(frozen=True)
class OptResult:
    best_parameters: dict
    best_objective: float
    gradient_report: GradientReport | None
    power_report: PowerReport | None
    evaluations: int
    converged: bool
    trace: tuple   # rows of (evaluation index, objective, params dict)

    def to_json_dict(self) -> dict:
        return {
            "best_parameters": dict(self.best_parameters),
            "best_objective": self.best_objective,
            "gradient_report": (self.gradient_report.to_json_dict()
                                if self.gradient_report else None),
            "power_report": (self.power_report.to_json_dict()
                             if self.power_report else None),
            "evaluations": self.evaluations,
            "converged": self.converged,
        }


def trace_csv(result: OptResult) -> str:
    names = sorted(result.best_parameters)
    lines = ["eval,objective," + ",".join(names)]
    for idx, obj, params in result.trace:
        vals = ",".join(f"{params[n]:.9e}" for n in names)
        lines.append(f"{idx},{obj:.9e},{vals}")
    return "\n".join(lines) + "\n"


def objective_from_reports(greport: GradientReport, preport: PowerReport | None,
                           obj: ObjectiveSpec) -> float:
    """Weighted score: gradient-magnitude error + ratio error + power."""
    gmin = float(np.min(np.abs(greport.g)))
    mag_term = ((gmin - obj.target_gradient) / obj.target_gradient) ** 2
    ratio_term = sum((r - t) ** 2 for r, t in zip(greport.ratio, obj.target_ratio)) / 4.0
    power = preport.total_power if preport is not None else 0.0
    if obj.max_power is not None and power > obj.max_power:
        return math.inf
    return (obj.w_mag * mag_term + obj.w_ratio * ratio_term
            + obj.w_power * power / obj.power_ref)


def evaluate_design(spec: GeometrySpec, obj: ObjectiveSpec,
                    material: Material = COPPER):
    """Build, check clearance, locate the zero, fit gradients, budget power.

    Returns (gradient_report, power_report); raises ObjectiveEvaluationError
    on solver failure, InvalidInput for an unusable search radius, fit window
    or sample count, and InfeasibleStart never (clearance handled by caller).
    """
    try:
        segs = build(spec)
    except MotKitError as exc:
        raise ObjectiveEvaluationError(f"geometry build failed: {exc}") from exc
    ok, _ = clearance_check(segs, obj.beam_diameter)
    if not ok:
        return None, None
    try:
        zero = find_field_zero(segs, search_radius=obj.search_radius)
        greport = fit_gradients(segs, zero, window=obj.fit_window,
                                n=obj.fit_samples)
    except InvalidInput:
        raise
    except MotKitError as exc:
        raise ObjectiveEvaluationError(f"field analysis failed: {exc}") from exc
    return greport, power_report(spec, material)


def objective_value(spec: GeometrySpec, obj: ObjectiveSpec,
                    material: Material = COPPER) -> float:
    """Objective at one design point; +inf for clearance violations."""
    greport, preport = evaluate_design(spec, obj, material)
    if greport is None:
        return math.inf
    return objective_from_reports(greport, preport, obj)


# Nelder-Mead coefficients (fixed, standard)
_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5


class _BudgetSpent(Exception):
    """Raised by the search's `evaluate` once the budget is used up."""


def optimize_geometry(initial: GeometrySpec, obj: ObjectiveSpec,
                      budget: int = 200,
                      material: Material = COPPER) -> OptResult:
    """Bounded Nelder-Mead over the parameters named in obj.bounds."""
    if budget < 1:
        raise InvalidInput("budget must be at least 1")
    names = sorted(obj.bounds)   # canonical order: declaration order irrelevant
    if not names:
        raise InvalidInput("no free parameters declared")
    lo = np.array([obj.bounds[n][0] for n in names])
    hi = np.array([obj.bounds[n][1] for n in names])
    x0 = np.array([float(initial.parameters[n]) for n in names])
    x0 = np.clip(x0, lo, hi)

    trace = []

    def project(x):
        return np.clip(x, lo, hi)

    def evaluate(x):
        if len(trace) >= budget:
            raise _BudgetSpent
        spec = initial.replace_parameters(**dict(zip(names, x)))
        try:
            val = objective_value(spec, obj, material)
        except ObjectiveEvaluationError:
            val = math.inf
        best = min(trace[-1][1] if trace else math.inf, val)
        trace.append((len(trace) + 1, best, dict(zip(names, x.tolist()))))
        return val

    f0 = evaluate(x0)
    if not math.isfinite(f0):
        raise InfeasibleStart("initial design violates a hard constraint")

    simplex = [x0]
    values = [f0]
    converged = False
    try:
        for i in range(len(names)):
            x = x0.copy()
            step = 0.1 * (hi[i] - lo[i])
            x[i] = x[i] + step if x[i] + step <= hi[i] else x[i] - step
            x = project(x)
            values.append(evaluate(x))
            simplex.append(x)

        while True:
            order = np.argsort(values)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            spread = values[-1] - values[0]
            if math.isfinite(values[0]) and spread < 1e-9 * (1.0 + abs(values[0])):
                converged = True
                break
            centroid = np.mean(simplex[:-1], axis=0)
            xr = project(centroid + _ALPHA * (centroid - simplex[-1]))
            fr = evaluate(xr)
            if values[0] <= fr < values[-2]:
                simplex[-1], values[-1] = xr, fr
                continue
            if fr < values[0]:
                simplex[-1], values[-1] = xr, fr
                xe = project(centroid + _GAMMA * (xr - centroid))
                fe = evaluate(xe)
                if fe < fr:
                    simplex[-1], values[-1] = xe, fe
                continue
            xc = project(centroid + _RHO * (simplex[-1] - centroid))
            fc = evaluate(xc)
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
                continue
            # shrink towards the best vertex; a vertex changes only together
            # with its value
            for i in range(1, len(simplex)):
                x = project(simplex[0] + _SIGMA * (simplex[i] - simplex[0]))
                simplex[i], values[i] = x, evaluate(x)
    except _BudgetSpent:
        pass

    # best point seen anywhere in the trace
    finite = [(v, x) for x, v in zip(simplex, values) if math.isfinite(v)]
    best_x = min(finite, key=lambda t: t[0])[1] if finite else x0
    best_v = min(values) if finite else f0
    best_spec = initial.replace_parameters(**dict(zip(names, best_x.tolist())))
    try:
        greport, preport = evaluate_design(best_spec, obj, material)
    except ObjectiveEvaluationError:
        greport, preport = None, None
    return OptResult(
        best_parameters=dict(zip(names, best_x.tolist())),
        best_objective=float(best_v),
        gradient_report=greport,
        power_report=preport,
        evaluations=len(trace),
        converged=converged,
        trace=tuple(trace),
    )
