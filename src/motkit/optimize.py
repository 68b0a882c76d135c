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
from .geometry import (COPPER, COUNT, CURRENT, LENGTH, NUMBER, REGISTRY,
                       GeometrySpec, Material, _check, _finite, _positive,
                       build, clearance_check)
from .power import PowerReport, power_report


# G/cm: lower bound on target_gradient.  With the weakest-axis gradient g
# near 15 G/cm, the score's ((g - G)/G)^2 overflows only below G ~ 1e-153
MIN_TARGET_GRADIENT = 1e-6
# upper bound on each weight.  The presets and benchmark workloads weigh
# their terms between 0 and 1; a weight of 1e308 overflowed the score
MAX_WEIGHT = 1e6


@dataclass(frozen=True)
class ObjectiveSpec:
    target_gradient: float = 15.0              # G/cm, min-axis magnitude
    w_mag: float = 1.0
    w_ratio: float = 1.0
    w_power: float = 0.1                       # per W
    beam_diameter: float = 0.015               # m, hard clearance constraint
    bounds: dict = dc_field(default_factory=dict)  # param -> (lo, hi), SI
    search_radius: float = DEFAULT_SEARCH_RADIUS  # m, zero search region
    fit_window: float = DEFAULT_WINDOW         # m
    fit_samples: int = DEFAULT_SAMPLES         # per axis

    def __post_init__(self):
        # each number is an int or float, never a bool or a string, by the
        # rule config numbers follow
        if not (_finite(self.target_gradient)
                and self.target_gradient >= MIN_TARGET_GRADIENT):
            raise InvalidInput(f"target gradient must be finite and at least "
                               f"{MIN_TARGET_GRADIENT:g} G/cm")
        _positive("beam diameter", self.beam_diameter)
        if not all(_finite(w) and 0 <= w <= MAX_WEIGHT
                   for w in (self.w_mag, self.w_ratio, self.w_power)):
            raise InvalidInput(f"weights must be between 0 and {MAX_WEIGHT:g}")
        if max(self.w_mag, self.w_ratio, self.w_power) == 0:
            raise InvalidInput("at least one weight must be positive")
        for name, b in self.bounds.items():
            if not (isinstance(b, (tuple, list)) and len(b) == 2 and all(map(_finite, b))):
                raise InvalidInput(f"bounds for {name!r} must be two finite numbers")
            if not b[0] < b[1]:
                raise InvalidInput(f"bounds for {name!r} are not well-ordered")


@dataclass(frozen=True)
class OptResult:
    best_parameters: dict
    best_objective: float
    gradient_report: GradientReport
    power_report: PowerReport
    evaluations: int
    converged: bool
    trace: tuple   # rows of (evaluation index, objective, params dict)

    def to_json_dict(self) -> dict:
        return {
            "best_parameters": dict(self.best_parameters),
            "best_objective": self.best_objective,
            "gradient_report": self.gradient_report.to_json_dict(),
            "power_report": self.power_report.to_json_dict(),
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


def evaluate_design(spec: GeometrySpec, obj: ObjectiveSpec,
                    material: Material = COPPER):
    """Build, check clearance, locate the zero, fit gradients, budget power.

    Returns (gradient_report, power_report).  Raises ObjectiveEvaluationError
    for a design the search discards: conductors inside the beams, or a
    failed build or field analysis.  Raises InvalidInput for an unusable
    search radius, fit window or sample count.
    """
    try:
        segs = build(spec)
    except MotKitError as exc:
        raise ObjectiveEvaluationError(f"geometry build failed: {exc}") from exc
    ok, clearance = clearance_check(segs, obj.beam_diameter)
    if not ok:
        raise ObjectiveEvaluationError(
            f"conductors intrude {-clearance * 1e3:.4g} mm into the beams")
    try:
        zero = find_field_zero(segs, search_radius=obj.search_radius).position
        greport = fit_gradients(segs, zero, window=obj.fit_window,
                                n=obj.fit_samples)
    except InvalidInput:
        raise
    except MotKitError as exc:
        raise ObjectiveEvaluationError(f"field analysis failed: {exc}") from exc
    return greport, power_report(spec, material)


def objective_value(spec: GeometrySpec, obj: ObjectiveSpec,
                    material: Material = COPPER) -> float:
    """Weighted score of one design: gradient-magnitude error + ratio error
    against TARGET_RATIO + power.  Raises what evaluate_design raises."""
    greport, preport = evaluate_design(spec, obj, material)
    gmin = float(np.min(np.abs(greport.g)))
    mag_term = ((gmin - obj.target_gradient) / obj.target_gradient) ** 2
    ratio_term = sum((r - t) ** 2 for r, t in zip(greport.ratio, TARGET_RATIO)) / 4.0
    return (obj.w_mag * mag_term + obj.w_ratio * ratio_term
            + obj.w_power * preport.total_power)


# Nelder-Mead coefficients (fixed, standard)
_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5


class _BudgetSpent(Exception):
    """Raised by the search's `evaluate` once the budget is used up."""


def optimize_geometry(initial: GeometrySpec, obj: ObjectiveSpec,
                      budget: int = 200,
                      material: Material = COPPER) -> OptResult:
    """Bounded Nelder-Mead over the parameters named in obj.bounds."""
    _check("budget", COUNT, budget)
    if budget < 1:
        raise InvalidInput("budget must be at least 1")
    names = sorted(obj.bounds)   # canonical order: declaration order irrelevant
    if not names:
        raise InvalidInput("no free parameters declared")
    kinds = REGISTRY[initial.variant].parameters
    for name in names:
        if name not in kinds or kinds[name][0] not in (LENGTH, CURRENT, NUMBER):
            raise InvalidInput(f"bounds name {name!r}, which is not a numeric "
                               f"parameter of {initial.variant}")
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

    # best point seen anywhere in the trace; f0 is finite, and a sorted
    # simplex keeps its best vertex, so the first least value is finite.
    # evaluate_design is deterministic and succeeded there, so it does again
    best = int(np.argmin(values))
    best_parameters = dict(zip(names, simplex[best].tolist()))
    greport, preport = evaluate_design(
        initial.replace_parameters(**best_parameters), obj, material)
    return OptResult(
        best_parameters=best_parameters,
        best_objective=float(values[best]),
        gradient_report=greport,
        power_report=preport,
        evaluations=len(trace),
        converged=converged,
        trace=tuple(trace),
    )
