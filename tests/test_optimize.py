"""Nelder-Mead geometry search against brute-force oracles."""
import math

import numpy as np
import pytest

import motkit as mk
from motkit.errors import InfeasibleStart, InvalidInput

FAST = 24  # segments per turn


def coil_objective(**overrides):
    base = dict(target_gradient=50.0, w_mag=1.0, w_ratio=0.0, w_power=0.0,
                bounds={"separation": (0.02, 0.1)},
                search_radius=2e-3, fit_window=1e-3)
    base.update(overrides)
    return mk.ObjectiveSpec(**base)


def test_separation_search_matches_grid_argmin():
    spec = mk.GeometrySpec("AntiHelmholtz", {}, FAST)
    obj = coil_objective()
    lo, hi = obj.bounds["separation"]
    grid = np.linspace(lo, hi, 41)
    values = [mk.objective_value(spec.replace_parameters(separation=s), obj)
              for s in grid]
    best_grid = grid[int(np.argmin(values))]
    result = mk.optimize_geometry(spec, obj, budget=120)
    spacing = grid[1] - grid[0]
    assert abs(result.best_parameters["separation"] - best_grid) <= spacing
    assert result.converged


def test_trace_best_so_far_non_increasing():
    spec = mk.GeometrySpec("AntiHelmholtz", {}, FAST)
    result = mk.optimize_geometry(spec, coil_objective(), budget=60)
    best = [row[1] for row in result.trace]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert result.evaluations == len(result.trace)


def test_budget_one_returns_initial_point():
    spec = mk.GeometrySpec("AntiHelmholtz", {}, FAST)
    result = mk.optimize_geometry(spec, coil_objective(), budget=1)
    assert result.evaluations == 1
    assert not result.converged
    assert result.best_parameters["separation"] == pytest.approx(0.05)


def test_parameter_declaration_order_is_irrelevant():
    spec = mk.GeometrySpec("AntiHelmholtz", {}, FAST)
    bounds_a = {"separation": (0.03, 0.08), "radius": (0.04, 0.06)}
    bounds_b = {"radius": (0.04, 0.06), "separation": (0.03, 0.08)}
    res_a = mk.optimize_geometry(spec, coil_objective(bounds=bounds_a),
                                 budget=40)
    res_b = mk.optimize_geometry(spec, coil_objective(bounds=bounds_b),
                                 budget=40)
    assert res_a.best_parameters == res_b.best_parameters
    assert res_a.best_objective == res_b.best_objective


def test_infeasible_start_raises():
    spec = mk.GeometrySpec("TwoPiece")
    obj = mk.ObjectiveSpec(beam_diameter=0.016,  # arms intrude at 16 mm
                           bounds={"height": (0.03, 0.05)})
    with pytest.raises(InfeasibleStart):
        mk.optimize_geometry(spec, obj, budget=10)


def test_beam_intrusion_is_a_discarded_evaluation():
    spec = mk.GeometrySpec("TwoPiece")
    obj = mk.ObjectiveSpec(beam_diameter=0.016,
                           bounds={"height": (0.03, 0.05)})
    ok, clearance = mk.clearance_check(mk.build(spec), obj.beam_diameter)
    assert not ok
    with pytest.raises(mk.ObjectiveEvaluationError,
                       match=f"intrude {-clearance * 1e3:.4g} mm"):
        mk.evaluate_design(spec, obj)


def test_objective_validation():
    cap = mk.optimize.MAX_WEIGHT
    for weight in ("w_mag", "w_ratio", "w_power"):
        for bad in (-1.0, math.inf, math.nan, 1e308, cap * (1 + 1e-15)):
            with pytest.raises(InvalidInput):
                mk.ObjectiveSpec(**{weight: bad})
        assert getattr(mk.ObjectiveSpec(**{weight: cap}), weight) == cap
    with pytest.raises(InvalidInput):
        mk.ObjectiveSpec(w_mag=0.0, w_ratio=0.0, w_power=0.0)
    with pytest.raises(InvalidInput):
        mk.ObjectiveSpec(bounds={"separation": (0.1, 0.1)})
    floor = mk.optimize.MIN_TARGET_GRADIENT
    for bad in (0.0, -1.0, math.inf, math.nan, 1e-320, floor / 2.0):
        with pytest.raises(InvalidInput):
            mk.ObjectiveSpec(target_gradient=bad)
    assert mk.ObjectiveSpec(target_gradient=floor).target_gradient == floor
    # non-numbers, bools and infinite bound ends, by the rule config numbers
    # follow
    for bad, named in (({"target_gradient": "15"}, "target gradient"),
                       ({"target_gradient": True}, "target gradient"),
                       ({"w_mag": "1"}, "weights"),
                       ({"beam_diameter": True}, "beam diameter"),
                       ({"bounds": {"radius": (1, "2")}}, "'radius'"),
                       ({"bounds": {"radius": (0.01, math.inf)}}, "'radius'"),
                       ({"bounds": {"radius": (-math.inf, 0.06)}}, "'radius'"),
                       ({"bounds": {"radius": 0.05}}, "'radius'"),
                       ({"bounds": {"radius": (0.01, 0.05, 0.06)}}, "'radius'")):
        with pytest.raises(InvalidInput, match=named):
            mk.ObjectiveSpec(**bad)
    with pytest.raises(InvalidInput):
        mk.optimize_geometry(mk.GeometrySpec("AntiHelmholtz", {}, FAST),
                             mk.ObjectiveSpec(), budget=10)  # no bounds


@pytest.mark.parametrize("variant, name", [("AntiHelmholtz", "nope"),
                                           ("FreePath", "points"),
                                           ("FreePath", "closed")])
def test_bounds_on_no_numeric_parameter_are_invalid_input(variant, name):
    with pytest.raises(InvalidInput, match=f"'{name}'"):
        mk.optimize_geometry(mk.GeometrySpec(variant, {}, FAST),
                             coil_objective(bounds={name: (0.03, 0.06)}),
                             budget=2)


def test_trace_csv_format():
    spec = mk.GeometrySpec("AntiHelmholtz", {}, FAST)
    result = mk.optimize_geometry(spec, coil_objective(), budget=5)
    text = mk.optimize.trace_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "eval,objective,separation"
    assert len(lines) == 1 + result.evaluations


def test_budget_cut_inside_a_shrink_reports_an_evaluated_pair(monkeypatch):
    # A rugged synthetic objective defeats reflections and contractions, so
    # the search shrinks; with two parameters a budget of 18 ends between
    # the two evaluations of its first shrink.
    seen = []

    def rugged(spec, obj, material=mk.COPPER):
        r = spec.parameters["radius"]
        s = spec.parameters["separation"]
        value = math.sin(900.0 * r) ** 2 + math.cos(700.0 * s) ** 2
        seen.append(value)
        return value

    monkeypatch.setattr(mk.optimize, "objective_value", rugged)
    spec = mk.GeometrySpec("AntiHelmholtz", {}, FAST)
    obj = coil_objective(bounds={"radius": (0.03, 0.06),
                                 "separation": (0.03, 0.08)})
    for budget in range(1, 41):
        seen.clear()
        result = mk.optimize_geometry(spec, obj, budget=budget)
        assert len(seen) == result.evaluations
        assert result.best_objective == min(seen), budget
        best = spec.replace_parameters(**result.best_parameters)
        assert rugged(best, obj) == result.best_objective, budget
        assert_reports_are_those_of(result, best, obj)


def assert_reports_are_those_of(result, best, obj):
    """The result's reports are those of evaluate_design's record at
    `best`, as JSON."""
    record = mk.evaluate_design(best, obj)
    assert result.gradient_report.to_json_dict() == record.gradients.to_json_dict()
    assert result.power_report.to_json_dict() == record.power.to_json_dict()


def test_every_budget_reports_the_best_design():
    # the optimize-coil24 start and bounds, with the real objective: a
    # budget may end anywhere in the search, and the best vertex is always
    # one that evaluate_design accepted
    spec = mk.GeometrySpec("AntiHelmholtz", {"radius": 0.040, "separation": 0.060,
                                             "current": 100.0,
                                             "wire_diameter": 0.001}, FAST)
    obj = mk.ObjectiveSpec(w_power=0.0, bounds={"radius": (0.005, 0.06),
                                                "separation": (0.01, 0.1)})
    for budget in range(1, 21):
        result = mk.optimize_geometry(spec, obj, budget=budget)
        best = spec.replace_parameters(**result.best_parameters)
        assert mk.objective_value(best, obj) == result.best_objective, budget
        assert_reports_are_those_of(result, best, obj)


def test_an_evaluation_takes_three_kernel_calls(monkeypatch):
    # the optimize-coil24 start design: the zero finder's one stencil and its
    # one-point check of |B| (whose zero test reuses that stencil), then the
    # three 41-sample fit axes.  |B| at the centre is about 6e-20 T, not 0,
    # so Newton stops on its step rule and the check is needed
    calls = []

    def counted(segments, points):
        calls.append(len(points))
        return mk.field_many(segments, points)

    monkeypatch.setattr(mk.analysis, "field_many", counted)
    spec = mk.GeometrySpec("AntiHelmholtz", {"radius": 0.040, "separation": 0.060},
                           FAST)
    obj = mk.ObjectiveSpec(w_power=0.0, bounds={"radius": (0.005, 0.06)})
    mk.evaluate_design(spec, obj)
    assert calls == [7, 1, 123]


def test_a_false_zero_is_a_discarded_evaluation(monkeypatch):
    # a bias field has its |B| minimum at the centre but no zero there
    def biased(segments, points):
        points = np.asarray(points, dtype=float)
        return np.column_stack([points[:, 0], points[:, 1],
                                1e-4 + points[:, 2] ** 2])

    monkeypatch.setattr(mk.analysis, "field_many", biased)
    spec = mk.GeometrySpec("AntiHelmholtz", {}, FAST)
    with pytest.raises(mk.ObjectiveEvaluationError, match=r"\|B\| = 1 G"):
        mk.evaluate_design(spec, coil_objective())


@pytest.mark.parametrize("variant, parameters", [
    ("TwistedCage", {"twist_angle": 1.2}),           # the bars cross
    ("CompactFour", {"hole_diameter": 0.0225}),      # no room for prongs
])
def test_a_design_that_does_not_build_is_a_discarded_evaluation(variant,
                                                                parameters):
    spec = mk.GeometrySpec(variant, parameters, FAST)
    with pytest.raises(mk.ObjectiveEvaluationError, match="geometry build failed: "):
        mk.evaluate_design(spec, mk.ObjectiveSpec())
