"""Zero finding, gradient fitting, and suitability verdicts."""
import math
import random

import numpy as np
import pytest

import motkit as mk
from motkit import analysis, cli
from motkit.errors import (DegenerateFit, InvalidInput, MotKitError,
                           ZeroNotBracketed)


def linear_field(matrix, offset=np.zeros(3)):
    """The batched field points (N, 3) -> B (N, 3) of B = m (p - offset)."""
    m = np.asarray(matrix, dtype=float)
    off = np.asarray(offset, dtype=float)
    return lambda points: (points - off) @ m.T


QUADRUPOLE = np.diag([0.009, 0.0092, -0.0176])  # T/m, slopes typical of a compact trap


def test_fit_gradients_recovers_exact_slopes():
    rep = mk.fit_gradients(linear_field(QUADRUPOLE), np.zeros(3))
    expected = np.diag(QUADRUPOLE) * 100.0  # G/cm
    assert np.max(np.abs(rep.g - expected) / np.abs(expected)) < 1e-10
    assert rep.residual_rms < 1e-12  # gauss
    assert rep.ratio == pytest.approx([1.0, 0.0092 / 0.009, -0.0176 / 0.009],
                                      rel=1e-10)


def test_find_zero_of_offset_quadrupole():
    offset = np.array([0.4e-3, -0.7e-3, 1.1e-3])
    zero = mk.find_field_zero(linear_field(QUADRUPOLE, offset)).position
    assert np.linalg.norm(zero - offset) < 1e-9


def test_find_zero_on_anti_helmholtz():
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": 0.05, "separation": 0.05, "current": 100.0},
        segments_per_turn=120))
    result = mk.find_field_zero(segs)
    assert np.linalg.norm(result.position) < 1e-9
    assert result.method == "newton" and result.iterations >= 1
    assert result.residual == float(np.linalg.norm(mk.field_at(segs, result.position)))


def test_a_field_singular_everywhere_brackets_no_zero():
    with pytest.raises(ZeroNotBracketed, match="no non-singular point"):
        mk.find_field_zero(lambda points: np.full(points.shape, np.nan))


def test_a_minimum_that_is_not_a_zero_raises():
    # |B| is least at the origin, 1 G there; no Newton step moves off it
    def biased(points):
        x, y, z = points.T
        return np.stack([x, y, 1e-4 + z ** 2], axis=1)

    with pytest.raises(ZeroNotBracketed, match=r"\|B\| = 1 G") as info:
        mk.find_field_zero(biased)
    assert info.value.exit_code == 4


def test_an_exact_zero_needs_no_jacobian():
    # B = 0 exactly at the origin, where dB_z/dz = 0 makes J singular; the
    # first stencil's centre is that zero, so no point beyond it is evaluated
    rows = []

    def field(points):
        rows.append(len(points))
        x, y, z = points.T
        return np.stack([x, y, z ** 2], axis=1)

    result = mk.find_field_zero(field)
    assert result.position.tolist() == [0.0, 0.0, 0.0]
    assert result.residual == 0.0
    assert (result.method, result.iterations) == ("newton", 1)
    assert sum(rows) == 7


def test_zero_outside_region_raises():
    offset = np.array([0.02, 0.0, 0.0])  # far outside the 3 mm search region
    with pytest.raises(ZeroNotBracketed):
        mk.find_field_zero(linear_field(QUADRUPOLE, offset))


OFF_CENTRE = (1e-3, -0.5e-3, 0.7e-3)  # m


def _designs(seed=8, spread=0.2, count=3,
             variants=("TwoPiece", "CompactFour", "TwistedCage"),
             segments_per_turn=360):
    """The 4 presets and, from a fixed seed, `count` buildable perturbations
    by up to +-`spread` of each of `variants`, as (spec, segments)."""
    for name in ("anti_helmholtz", "compact_four", "twisted_cage", "two_piece"):
        spec = cli.load_config(name)["geometry"]
        yield spec, mk.build(spec)
    rng = random.Random(seed)
    for variant in variants:
        base = mk.GeometrySpec(variant).parameters
        kept = 0
        while kept < count:
            spec = mk.GeometrySpec(
                variant, {k: v * rng.uniform(1.0 - spread, 1.0 + spread)
                          for k, v in base.items()}, segments_per_turn)
            try:
                segs = mk.build(spec)
            except MotKitError:
                continue
            kept += 1
            yield spec, segs


def test_finder_agrees_with_grid_path():
    for spec, segs in _designs():
        for start in ((0.0, 0.0, 0.0), OFF_CENTRE):
            zero = mk.find_field_zero(segs, start).position
            grid = analysis._grid_zero(analysis.as_field(segs),
                                       np.array(start),
                                       analysis.DEFAULT_SEARCH_RADIUS).position
            assert np.max(np.abs(zero - grid)) < 1e-12, (spec, start)


def test_designs_pass_the_zero_test_by_decades():
    # |B| at each found zero against ||J||·h of the finder's stencil step;
    # find_field_zero raises above ZERO_TOLERANCE = 1e-6, and these designs
    # sit below 1e-13
    h = analysis.DEFAULT_SEARCH_RADIUS / 200.0
    checked = 0
    for spec, segs in _designs(seed=16, spread=0.1, count=5, variants=(
            "TwoPiece", "CompactFour", "TwistedCage", "AntiHelmholtz"),
            segments_per_turn=48):
        result = mk.find_field_zero(segs)
        jh = np.linalg.norm(mk.jacobian_at(segs, result.position, h)) * h
        assert result.residual <= 1e-12 * jh, spec
        checked += 1
    assert checked == 4 + 20


@pytest.mark.parametrize("preset", ["anti_helmholtz", "two_piece"])
def test_symmetric_preset_gives_the_exact_centre(preset):
    # Newton moves off the centre by roundoff only; the tie rule keeps the
    # centre, whose |B| is no larger
    segs = mk.build(cli.load_config(preset)["geometry"])
    assert mk.find_field_zero(segs).position.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("x_mm", [2.5, 2.69])
def test_zero_inside_shrunk_cube_is_found(x_mm):
    offset = np.array([x_mm * 1e-3, 0.0, 0.0])
    zero = mk.find_field_zero(linear_field(QUADRUPOLE, offset)).position
    assert np.linalg.norm(zero - offset) < 1e-9


@pytest.mark.parametrize("x_mm", [2.75, 2.85, 2.95])
def test_zero_the_grid_puts_on_its_boundary_raises(x_mm):
    # nearer the grid's outer plane at 3 mm than its inner one at 2.4 mm
    offset = np.array([x_mm * 1e-3, 0.0, 0.0])
    with pytest.raises(ZeroNotBracketed):
        mk.find_field_zero(linear_field(QUADRUPOLE, offset))


def test_singular_centre_falls_back_to_grid():
    offset = np.array(OFF_CENTRE)
    quadrupole = linear_field(QUADRUPOLE, offset)

    def field(points):
        # NaN rows: a conductor at the origin
        B = quadrupole(points)
        B[np.linalg.norm(points, axis=1) < 0.2e-3] = np.nan
        return B

    result = mk.find_field_zero(field)
    assert np.linalg.norm(result.position - offset) < 1e-9
    assert result.method == "grid"


def test_finder_skips_the_grid():
    offset = np.array([0.4e-3, -0.7e-3, 1.1e-3])
    quadrupole = linear_field(QUADRUPOLE, offset)
    rows = []

    def field(points):
        rows.append(len(points))
        return quadrupole(points)

    result = mk.find_field_zero(field)
    assert np.linalg.norm(result.position - offset) < 1e-9
    assert result.method == "newton"
    assert sum(rows) < 100     # the 11^3 grid alone is 1331 points


def _stencils_before_grid(field):
    """find_field_zero on `field`, and the row counts of the calls it makes
    before its 11^3 grid call."""
    rows = []

    def counted(points):
        rows.append(len(points))
        return field(points)

    result = mk.find_field_zero(counted)
    return result, rows[:rows.index(analysis._GRID_N ** 3)]


def test_singular_jacobian_at_the_centre_falls_back_to_grid():
    # dB_z/dz = 2z / 1 mm is exactly 0 on the first stencil, so its Jacobian
    # is singular and Newton stops there; of the zeros at z = +-1.1 mm the
    # grid's tie rule takes the lower one
    def field(points):
        x, y, z = points.T
        return np.stack([x - 0.4e-3, y + 0.7e-3,
                         (z ** 2 - 1.1e-3 ** 2) / 1e-3], axis=1)

    result, before = _stencils_before_grid(field)
    assert before == [7]
    assert result.method == "grid"
    assert np.max(np.abs(result.position - [0.4e-3, -0.7e-3, -1.1e-3])) < 1e-15
    assert result.residual == 0.0


def test_newton_cycle_at_the_centre_falls_back_to_grid():
    # Newton on u^3 - 2u + 2 cycles between about u = 0 and 1; the steps
    # never meet their stop rule, so all 60 stencils run before the grid
    def field(points):
        x, y, z = points.T / 1e-3
        return 1e-3 * np.stack([x ** 3 - 2.0 * x + 2.0, y, z], axis=1)

    result, before = _stencils_before_grid(field)
    assert before == [7] * 60
    assert result.method == "grid"
    assert result.position[0] == pytest.approx(-1.76929e-3, abs=1e-8)
    assert result.position[1:].tolist() == [0.0, 0.0]
    assert result.residual < 1e-17


def test_jacobian_recovers_linear_matrix():
    m = np.array([[1.0, 0.2, -0.1],
                  [0.2, 0.5, 0.3],
                  [-0.1, 0.3, -1.5]]) * 1e-2
    j = mk.jacobian_at(linear_field(m), np.array([1e-3, -2e-3, 0.5e-3]))
    assert np.max(np.abs(j - m)) < 1e-12


def test_jacobian_of_anti_helmholtz_is_traceless_and_symmetric():
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": 0.05, "separation": 0.05, "current": 100.0},
        segments_per_turn=120))
    j = mk.jacobian_at(segs, np.array([0.5e-3, -0.3e-3, 0.8e-3]), 5e-6)
    scale = np.linalg.norm(j)
    assert abs(np.trace(j)) < 1e-6 * scale
    assert np.max(np.abs(j - j.T)) < 1e-6 * scale


def _fit_line(x, y):
    """Reference: the one-axis least-squares slope that `fit_gradients` took
    once per axis, with its standard error and residuals."""
    n = x.size
    if n < 3 or np.ptp(x) == 0.0:
        raise DegenerateFit("not enough distinct abscissae for a slope fit")
    xm = x - x.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise DegenerateFit("degenerate abscissae")
    slope = float(xm @ (y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    var = float(resid @ resid) / (n - 2)
    sigma = math.sqrt(max(var, 0.0) / sxx)
    return slope, sigma, resid


def _per_axis_fit(source, zero, window, n):
    """(g, sigma_g, ratio, residual_rms) from `_fit_line` on each axis of the
    samples `fit_gradients` takes."""
    s = np.linspace(-window, window, n)
    B = analysis.as_field(source)((zero + s[None, :, None] * np.eye(3)[:, None, :])
                                  .reshape(-1, 3)).reshape(3, n, 3)
    fits = [_fit_line(s, B[axis, :, axis]) for axis in range(3)]
    g = np.array([f[0] for f in fits]) * analysis.GCM_PER_TPM
    sigma = np.array([f[1] for f in fits]) * analysis.GCM_PER_TPM
    resid = np.concatenate([f[2] for f in fits])
    rms = float(np.sqrt(np.mean(resid ** 2))) * analysis.GAUSS_PER_TESLA
    return g, sigma, g / g[0], rms


def test_fit_gradients_is_bitwise_the_per_axis_fit():
    def curved(points):
        return (points @ QUADRUPOLE.T + 40.0 * points ** 3
                + 3e-3 * np.sin(900.0 * points[:, ::-1]))

    sources = [(curved, np.array([1e-4, -2e-4, 5e-5]))]
    for name in ("anti_helmholtz", "compact_four", "twisted_cage", "two_piece"):
        segs = mk.build(cli.load_config(name)["geometry"])
        sources.append((segs, mk.find_field_zero(segs).position))
    fits = 0
    for source, zero in sources:
        for window, n in ((2e-3, 41), (1e-3, 5), (0.5e-3, 7), (3e-3, 101)):
            rep = mk.fit_gradients(source, zero, window=window, n=n)
            ref = _per_axis_fit(source, zero, window, n)
            for got, want in zip((rep.g, rep.sigma_g, rep.ratio, rep.residual_rms), ref):
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            fits += 1
    assert fits == 5 * 4


def test_fit_window_validation():
    f = linear_field(QUADRUPOLE)
    with pytest.raises(InvalidInput):
        mk.fit_gradients(f, np.zeros(3), window=-1.0)
    with pytest.raises(InvalidInput):
        mk.fit_gradients(f, np.zeros(3), n=3)


def test_a_window_below_the_abscissae_resolution_is_degenerate():
    # the samples' spread squares to 0 in double precision
    with pytest.raises(DegenerateFit, match="degenerate abscissae"):
        mk.fit_gradients(linear_field(QUADRUPOLE), np.zeros(3), window=1e-300)


def test_zero_x_gradient_is_degenerate():
    m = np.diag([0.0, 0.01, -0.01])
    with pytest.raises(DegenerateFit):
        mk.fit_gradients(linear_field(m), np.zeros(3))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: mk.clearance_check(
        mk.build(mk.GeometrySpec("TwoPiece")), np.nan), id="beam_diameter"),
    pytest.param(lambda: mk.ObjectiveSpec(beam_diameter=np.nan),
                 id="objective_beam_diameter"),
    pytest.param(lambda: mk.ObjectiveSpec(w_mag=np.nan), id="objective_weight"),
    pytest.param(lambda: mk.find_field_zero(
        linear_field(QUADRUPOLE), search_radius=np.nan), id="search_radius"),
    pytest.param(lambda: mk.fit_gradients(
        linear_field(QUADRUPOLE), np.zeros(3), window=np.nan), id="window"),
    pytest.param(lambda: mk.jacobian_at(
        linear_field(QUADRUPOLE), np.zeros(3), h=np.nan), id="stencil_step"),
    pytest.param(lambda: mk.joule_power(1.0, np.nan), id="resistance"),
    pytest.param(lambda: mk.current_density(1.0, np.nan), id="area"),
    pytest.param(lambda: mk.required_heat_transfer_coefficient(1.0, 1e-4, np.nan),
                 id="temperature_budget"),
])
def test_nan_settings_are_invalid_input(call):
    # NaN fails every comparison, so each guard must ask for x > 0
    with pytest.raises(InvalidInput):
        call()


WIRE = mk.make_free_path([(0.01, 0.0, -1.0), (0.01, 0.0, 1.0)], 1.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: mk.sample_line(WIRE, (0, 0), (1, 0, 0), 1e-3, 5),
                 id="line_centre"),
    pytest.param(lambda: mk.sample_line(WIRE, (0, 0, 0), (1, 0, 0, 0), 1e-3, 5),
                 id="line_direction"),
    pytest.param(lambda: mk.sample_plane(WIRE, (0, 0, 0, 0), (1, 0, 0),
                                         (0, 1, 0), 1e-3, 5), id="plane_centre"),
    pytest.param(lambda: mk.sample_plane(WIRE, (0, 0, 0), (1, 0),
                                         (0, 1, 0), 1e-3, 5), id="plane_axis"),
    pytest.param(lambda: mk.sample_line(WIRE, (0, 0, 0), (1, 0, 0), 1e-3, 2.5),
                 id="fractional_count"),
    pytest.param(lambda: mk.sample_plane(WIRE, (0, 0, 0), (1, 0, 0),
                                         (0, 1, 0), 1e-3, True),
                 id="boolean_count"),
    pytest.param(lambda: mk.find_field_zero(WIRE, search_center=(0, 0)),
                 id="search_centre"),
    pytest.param(lambda: mk.fit_gradients(WIRE, (0, 0)), id="fit_zero"),
    pytest.param(lambda: mk.fit_gradients(WIRE, np.zeros(3), n=41.5),
                 id="fit_count"),
    pytest.param(lambda: mk.jacobian_at(WIRE, (0, 0)), id="stencil_centre"),
    pytest.param(lambda: mk.sample_line(WIRE, (0, 0, 0), (1, 0, 0), 1e-3, 0),
                 id="zero_count"),
])
def test_malformed_points_and_counts_are_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


COIL = mk.GeometrySpec("AntiHelmholtz", {}, 24)
COIL_OBJECTIVE = mk.ObjectiveSpec(bounds={"separation": (0.02, 0.1)})


# numbers are ints or floats, never bools, and finite; lengths, steps,
# windows, areas and factors are positive too; counts are ints; 3-vectors
# hold three finite numbers
@pytest.mark.parametrize("call", [
    pytest.param(lambda: mk.find_field_zero(
        linear_field(QUADRUPOLE), search_radius="3"), id="search_radius_str"),
    pytest.param(lambda: mk.find_field_zero(
        linear_field(QUADRUPOLE), search_radius=True), id="search_radius_bool"),
    pytest.param(lambda: mk.find_field_zero(
        linear_field(QUADRUPOLE), search_radius=math.inf), id="search_radius_inf"),
    pytest.param(lambda: mk.find_field_zero(
        linear_field(QUADRUPOLE), search_center="abc"), id="search_centre_str"),
    pytest.param(lambda: mk.fit_gradients(
        linear_field(QUADRUPOLE), np.zeros(3), window="2"), id="window_str"),
    pytest.param(lambda: mk.fit_gradients(
        linear_field(QUADRUPOLE), np.zeros(3), window=math.inf), id="window_inf"),
    pytest.param(lambda: mk.jacobian_at(
        linear_field(QUADRUPOLE), np.zeros(3), h=True), id="stencil_step_bool"),
    pytest.param(lambda: mk.clearance_check(WIRE, "0.015"), id="beam_str"),
    pytest.param(lambda: mk.clearance_check(WIRE, math.inf), id="beam_inf"),
    pytest.param(lambda: mk.clearance_check(WIRE, True), id="beam_bool"),
    pytest.param(lambda: COIL.scaled("2"), id="scaled_str"),
    pytest.param(lambda: COIL.scaled(True), id="scaled_bool"),
    pytest.param(lambda: COIL.scaled(0), id="scaled_zero"),
    pytest.param(lambda: mk.scaling_report("2"), id="scaling_report_str"),
    pytest.param(lambda: mk.scaling_report(True), id="scaling_report_bool"),
    pytest.param(lambda: mk.optimize_geometry(COIL, COIL_OBJECTIVE, budget="3"),
                 id="budget_str"),
    pytest.param(lambda: mk.optimize_geometry(COIL, COIL_OBJECTIVE, budget=True),
                 id="budget_bool"),
    pytest.param(lambda: mk.optimize_geometry(COIL, COIL_OBJECTIVE, budget=2.5),
                 id="budget_fraction"),
    pytest.param(lambda: mk.optimize_geometry(COIL, COIL_OBJECTIVE, budget=0),
                 id="budget_zero"),
    pytest.param(lambda: mk.joule_power(1, "1"), id="resistance_str"),
    pytest.param(lambda: mk.current_density(1, True), id="area_bool"),
    pytest.param(lambda: mk.sample_line(WIRE, (0, 0, 0), (1, 0, 0), "1", 5),
                 id="half_range_str"),
])
def test_numbers_outside_the_rule_are_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


def test_as_field_rejects_other_types():
    with pytest.raises(InvalidInput):
        mk.analysis.as_field(42)


# per-point callables, which map one 3-vector to one field, given the
# (N, 3) points of a batched call
@pytest.mark.parametrize("call", [
    # (3, 3) @ (7, 3): numpy's ValueError inside the callable
    pytest.param(lambda: mk.find_field_zero(
        lambda p: QUADRUPOLE @ np.asarray(p)), id="matmul_fails"),
    # a (3, 3) result for the fit's (3 * samples, 3) points
    pytest.param(lambda: mk.fit_gradients(
        lambda p: np.eye(3), np.zeros(3)), id="fixed_shape"),
    # rows of the points read as components: (3, 3) for a 7-point stencil
    pytest.param(lambda: mk.find_field_zero(
        lambda p: np.array([p[0], p[1], p[2] ** 2])), id="rows_as_components"),
])
def test_per_point_callables_are_invalid_input(call):
    with pytest.raises(InvalidInput, match="field callable"):
        call()


def test_suitability_passes_typical_profile():
    # 9 / 9.2 / -17.6 G/cm, the measured profile of the two-piece trap
    rep = mk.fit_gradients(linear_field(QUADRUPOLE * 10.0), np.zeros(3))
    verdict = mk.mot_suitability(rep)
    assert verdict.passed
    assert verdict.magnitude_ok and verdict.ratio_ok and verdict.linearity_ok


def test_suitability_fails_weak_gradient():
    rep = mk.fit_gradients(linear_field(QUADRUPOLE * 0.01), np.zeros(3))
    verdict = mk.mot_suitability(rep)
    assert not verdict.magnitude_ok
    assert not verdict.passed


def test_suitability_fails_wrong_ratio():
    rep = mk.fit_gradients(linear_field(np.diag([0.01, 0.01, -0.005])),
                           np.zeros(3))
    verdict = mk.mot_suitability(rep)
    assert not verdict.ratio_ok


def test_gradient_report_json_units():
    rep = mk.fit_gradients(linear_field(QUADRUPOLE), np.zeros(3))
    doc = rep.to_json_dict()
    assert doc["g_Gcm"][2] == pytest.approx(-1.76, rel=1e-9)
    assert doc["window_mm"] == pytest.approx(2.0)
