"""Zero finding, gradient fitting, and suitability verdicts."""
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import motkit as mk
from motkit import analysis, cli, field
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
    # the off-centre search runs from the origin on the field shifted by
    # OFF_CENTRE, so its zero lies at the design's zero minus OFF_CENTRE
    for spec, segs in _designs():
        for start in ((0.0, 0.0, 0.0), OFF_CENTRE):
            shift = np.array(start)
            field = lambda points: mk.field_many(segs, points + shift)
            zero = mk.find_field_zero(field).position
            grid = analysis._grid_zero(analysis.as_field(field),
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


# Closed-form anti-Helmholtz oracle: two circular loops of radius R at
# z = +-z0 with currents +-I.  An N-gon inscribed in each loop gives a
# gradient larger than the circle's by about 2 pi^2 / (3 N^2).
AH_R, AH_Z0, AH_I = 0.03, 0.015, 100.0


def _anti_helmholtz(n, separation=2 * AH_Z0):
    spec = mk.GeometrySpec("AntiHelmholtz", {
        "radius": AH_R, "separation": separation, "current": AH_I}, n)
    segs = mk.build(spec)
    return spec, segs, mk.find_field_zero(segs).position


def _polygon_error(n):
    return 2.0 * math.pi ** 2 / (3.0 * n ** 2)


def _closed_form_bz_on_axis(z):
    return mk.MU_0 * AH_I * AH_R ** 2 / 2.0 * (
        (AH_R ** 2 + (z - AH_Z0) ** 2) ** -1.5
        - (AH_R ** 2 + (z + AH_Z0) ** 2) ** -1.5)


@pytest.mark.parametrize("n", [90, 180, 360, 720])
def test_jacobian_matches_the_closed_form_centre_gradient(n):
    _, segs, zero = _anti_helmholtz(n)
    dbz_dz = (3.0 * mk.MU_0 * AH_I * AH_R ** 2 * AH_Z0
              / (AH_R ** 2 + AH_Z0 ** 2) ** 2.5)
    error = mk.jacobian_at(segs, zero, 1e-5)[2, 2] / dbz_dz - 1.0
    assert error / _polygon_error(n) == pytest.approx(1.0, rel=0.02)


@pytest.mark.parametrize("n", [360, 720, 1440])
def test_fitted_slope_matches_the_closed_form_fit(n):
    # the closed-form B_z fitted at the same 41 abscissae over +-2 mm
    _, segs, zero = _anti_helmholtz(n)
    s = np.linspace(-2e-3, 2e-3, 41)
    slope = _fit_line(s, _closed_form_bz_on_axis(zero[2] + s))[0]
    g_z = mk.fit_gradients(segs, zero, window=2e-3, n=41).g[2]
    error = g_z / (slope * analysis.GCM_PER_TPM) - 1.0
    assert error / _polygon_error(n) == pytest.approx(1.0, rel=0.02)


@pytest.mark.parametrize("n", [24, 360])
def test_gradient_per_root_watt_peaks_at_separation_equal_to_radius(n):
    # d/dz0 [z0 / (R^2 + z0^2)^(5/2)] = 0 at z0 = R/2, and P does not depend
    # on the separation
    separations = np.linspace(0.02, 0.05, 61)
    figures = []
    for separation in separations:
        spec, segs, zero = _anti_helmholtz(n, separation)
        figures.append(mk.gradient_per_root_watt(
            mk.fit_gradients(segs, zero), mk.power_report(spec))[2])
    assert separations[int(np.argmax(figures))] == AH_R


def test_power_matches_the_closed_form_joule_power():
    # two loops of 2 pi R of 1 mm copper wire: 80.64 W at 100 A
    spec, _, _ = _anti_helmholtz(24)
    area = math.pi * (0.5e-3) ** 2
    expected = 2.0 * AH_I ** 2 * mk.COPPER.resistivity * 2.0 * math.pi * AH_R / area
    assert mk.power_report(spec).total_power == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(80.64, rel=1e-12)


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

# every reader of [x, y, z] points, given one point: the one-point readers
# take it as it is, the others as the second of two points
POINT_READERS = {
    "field_at": lambda p: mk.field_at(WIRE, p),
    "field_many": lambda p: mk.field_many(WIRE, [(0.001, 0, 0), p]),
    "sample_centre": lambda p: mk.sample_line(WIRE, p, (1, 0, 0), 1e-3, 5),
    "sample_axis": lambda p: mk.sample_plane(WIRE, (0, 0, 0), (1, 0, 0), p,
                                             1e-3, 5),
    "stencil_centre": lambda p: mk.jacobian_at(WIRE, p),
    "fit_zero": lambda p: mk.fit_gradients(WIRE, p),
    "loop_centre": lambda p: mk.make_loop(p, 0.01, 1.0, 24),
    "path_points": lambda p: mk.make_free_path([(0, 0, 0), p], 1.0),
    "terminals": lambda p: WIRE.unbalanced_vertices([(0, 0, 0), p]),
    "config_points": lambda p: mk.GeometrySpec(
        "FreePath", {"points": ((0, 0, 0), p)}),
}
# points outside the rule: three numbers, each an int or float and never a
# bool, and finite, or an int or float array of shape (3,) with finite
# entries
BAD_POINTS = {
    "str": ("0.001", 0, 0),
    "bool": (True, 0, 0),
    "nan": (math.nan, 0, 0),
    "inf": (0, math.inf, 0),
    # a numpy float is a float; an int past the float range converts to inf
    "nan_numpy_float": (0, 0, np.float64(math.nan)),
    "huge_int": (0, 10 ** 400, 0),
    "ragged": (0, 0),
    "nan_array": np.array([0.0, 0.0, math.nan]),
    "bool_array": np.array([True, False, False]),
    "shape": np.zeros((2, 3)),
}


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
    pytest.param(lambda: mk.fit_gradients(WIRE, (0, 0)), id="fit_zero"),
    pytest.param(lambda: mk.fit_gradients(WIRE, np.zeros(3), n=41.5),
                 id="fit_count"),
    pytest.param(lambda: mk.jacobian_at(WIRE, (0, 0)), id="stencil_centre"),
    pytest.param(lambda: mk.sample_line(WIRE, (0, 0, 0), (1, 0, 0), 1e-3, 0),
                 id="zero_count"),
    pytest.param(lambda: mk.sample_plane(WIRE, (0, 0, 0), (1, 1, 0),
                                         (-2, -2, 0), 1e-3, 5),
                 id="parallel_axes"),
    pytest.param(lambda: mk.sample_plane(WIRE, (0, 0, 0), (0.1, 0.3, 0),
                                         (0.2, 0.6, 0), 1e-3, 5),
                 id="parallel_axes_rounded"),
    pytest.param(lambda: mk.field_many(WIRE, "abc"), id="field_points_str"),
    pytest.param(lambda: mk.field_many(WIRE, np.zeros((2, 4))),
                 id="field_points_shape"),
    pytest.param(lambda: mk.field_many(WIRE, np.zeros((2, 2, 3))),
                 id="field_points_3d"),
    pytest.param(lambda: mk.field_at(WIRE, ["0.001", "0", "0"]),
                 id="field_point_str"),
    pytest.param(lambda: mk.make_loop(("a", 0, 0), 0.01, 1.0, 24),
                 id="loop_centre_str"),
    pytest.param(lambda: WIRE.unbalanced_vertices([(0, 0)]),
                 id="terminals_ragged"),
    # a bare point is not a list of points
    pytest.param(lambda: mk.GeometrySpec("FreePath", {"points": (0, 0, 0)}),
                 id="config_bare_point"),
] + [pytest.param(lambda reader=reader, point=point: reader(point),
                  id=f"{reader_name}-{point_name}")
     for reader_name, reader in POINT_READERS.items()
     for point_name, point in BAD_POINTS.items()])
def test_malformed_points_and_counts_are_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: mk.sample_plane(WIRE, (0, 0, 0), (1, 0, 0),
                                         (0, 1, 0), 1e-3, 10 ** 6), id="plane"),
    pytest.param(lambda: mk.sample_line(WIRE, (0, 0, 0), (1, 0, 0), 1e-3,
                                        field.MAX_SAMPLES + 1), id="line"),
    pytest.param(lambda: mk.fit_gradients(WIRE, np.zeros(3), n=10 ** 9),
                 id="fit"),
])
def test_sample_cap_is_checked_before_allocation(call):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match="at most"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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
    pytest.param(lambda: mk.joule_power("2", 1.0), id="current_str"),
    pytest.param(lambda: mk.joule_power(True, 1.0), id="current_bool"),
    pytest.param(lambda: mk.current_density(math.inf, 1e-6), id="current_inf"),
    pytest.param(lambda: mk.required_heat_transfer_coefficient("1", 1.0, 1.0),
                 id="power_str"),
    pytest.param(lambda: mk.make_loop((0, 0, 0), "0.01", 1.0, 24),
                 id="loop_radius_str"),
    pytest.param(lambda: mk.make_loop((0, 0, 0), True, 1.0, 24),
                 id="loop_radius_bool"),
    pytest.param(lambda: mk.make_loop((0, 0, 0), 0.01, "1", 24),
                 id="loop_current_str"),
    pytest.param(lambda: mk.make_loop((0, 0, 0), 0.01, 1.0, 24.5),
                 id="loop_count_fraction"),
    pytest.param(lambda: mk.make_free_path([(0, 0, 0), (0, 0, 1)], "2"),
                 id="path_current_str"),
    pytest.param(lambda: mk.make_free_path([(0, 0, 0), (0, 0, 1)], 1.0,
                                           closed=1), id="path_closed_int"),
    pytest.param(lambda: mk.verify_scaling_numerically(COIL, ["1", "2"]),
                 id="scaling_k_str"),
    pytest.param(lambda: mk.verify_scaling_numerically(COIL, [1, True]),
                 id="scaling_k_bool"),
])
def test_numbers_outside_the_rule_are_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_prints_its_documented_gradients(capsys):
    # the block under "## Python API" runs as written, and rep.g prints the
    # gradients its comment gives
    section = README.read_text(encoding="utf-8").split("## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    documented = re.search(r"print\(rep\.g\).*e\.g\. \[(.*)\]", block).group(1)
    assert [float(v) for v in printed[0].strip("[] ").split()] == pytest.approx(
        [float(v) for v in documented.split(",")], abs=0.01)


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


def test_design_record_is_the_chain_written_out():
    # the record's parts are bitwise those of the four calls made by hand
    spec = mk.GeometrySpec("TwoPiece", {}, 24)
    segs = mk.build(spec)
    record = mk.analyse_design(spec, segs, search_radius=2e-3, window=1e-3,
                               samples=21, material=mk.TITANIUM_LIKE)
    zero = mk.find_field_zero(segs, search_radius=2e-3)
    fit = mk.fit_gradients(segs, zero.position, window=1e-3, n=21)
    assert record.segments is segs
    assert record.zero.position.tobytes() == zero.position.tobytes()
    assert ((record.zero.method, record.zero.iterations, record.zero.residual)
            == (zero.method, zero.iterations, zero.residual))
    assert record.gradients.to_json_dict() == fit.to_json_dict()
    assert record.power == mk.power_report(spec, mk.TITANIUM_LIKE)
    assert record.clearance is None
    with pytest.raises(AttributeError):
        record.clearance = 0.0


def test_design_record_checks_clearance_before_any_field_call(monkeypatch):
    calls = []

    def counted(segments, points):
        calls.append(len(points))
        return mk.field_many(segments, points)

    monkeypatch.setattr(analysis, "field_many", counted)
    spec = mk.GeometrySpec("TwoPiece", {}, 24)
    segs = mk.build(spec)
    ok, clearance = mk.clearance_check(segs, 0.016)   # the arms intrude
    assert not ok
    with pytest.raises(mk.ClearanceError,
                       match=f"intrude {-clearance * 1e3:.4g} mm"):
        mk.analyse_design(spec, segs, beam_diameter=0.016)
    assert calls == []
    record = mk.analyse_design(spec, segs, beam_diameter=0.015)
    assert record.clearance == mk.clearance_check(segs, 0.015)[1] > 0.0
    assert calls
