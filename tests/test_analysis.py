"""Zero finding, gradient fitting, and suitability verdicts."""
import random

import numpy as np
import pytest

import motkit as mk
from motkit import analysis, cli
from motkit.errors import (DegenerateFit, InvalidInput, MotKitError,
                           SingularPoint, ZeroNotBracketed)


def linear_field(matrix, offset=np.zeros(3)):
    m = np.asarray(matrix, dtype=float)
    off = np.asarray(offset, dtype=float)
    return lambda p: m @ (np.asarray(p, dtype=float) - off)


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
    zero = mk.find_field_zero(linear_field(QUADRUPOLE, offset))
    assert np.linalg.norm(zero - offset) < 1e-9


def test_find_zero_on_anti_helmholtz():
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": 0.05, "separation": 0.05, "current": 100.0},
        mk.Discretization(120)))
    zero = mk.find_field_zero(segs)
    assert np.linalg.norm(zero) < 1e-9


def test_zero_outside_region_raises():
    offset = np.array([0.02, 0.0, 0.0])  # far outside the 3 mm search region
    with pytest.raises(ZeroNotBracketed):
        mk.find_field_zero(linear_field(QUADRUPOLE, offset))


OFF_CENTRE = (1e-3, -0.5e-3, 0.7e-3)  # m


def _designs():
    """The 4 presets and, from a fixed seed, 3 buildable +-20 % perturbations
    of each of TwoPiece, CompactFour and TwistedCage, as (spec, segments)."""
    for name in ("anti_helmholtz", "compact_four", "twisted_cage", "two_piece"):
        spec = cli.load_config(name)["geometry"]
        yield spec, mk.build(spec)
    rng = random.Random(8)
    for variant in ("TwoPiece", "CompactFour", "TwistedCage"):
        base = mk.GeometrySpec(variant).parameters
        kept = 0
        while kept < 3:
            spec = mk.GeometrySpec(variant, {k: v * rng.uniform(0.8, 1.2)
                                             for k, v in base.items()})
            try:
                segs = mk.build(spec)
            except MotKitError:
                continue
            kept += 1
            yield spec, segs


def test_finder_agrees_with_grid_path():
    for spec, segs in _designs():
        for start in ((0.0, 0.0, 0.0), OFF_CENTRE):
            zero = mk.find_field_zero(segs, start)
            grid = analysis._grid_zero(analysis.as_field(segs),
                                       np.array(start),
                                       analysis.DEFAULT_SEARCH_RADIUS)
            assert np.max(np.abs(zero - grid)) < 1e-12, (spec, start)


@pytest.mark.parametrize("preset", ["anti_helmholtz", "two_piece"])
def test_symmetric_preset_gives_the_exact_centre(preset):
    # Newton moves off the centre by roundoff only; the tie rule keeps the
    # centre, whose |B| is no larger
    segs = mk.build(cli.load_config(preset)["geometry"])
    assert mk.find_field_zero(segs).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("x_mm", [2.5, 2.69])
def test_zero_inside_shrunk_cube_is_found(x_mm):
    offset = np.array([x_mm * 1e-3, 0.0, 0.0])
    zero = mk.find_field_zero(linear_field(QUADRUPOLE, offset))
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

    def field(p):
        if np.linalg.norm(p) < 0.2e-3:
            raise SingularPoint("conductor at the origin")
        return quadrupole(p)

    zero = mk.find_field_zero(field)
    assert np.linalg.norm(zero - offset) < 1e-9


def test_finder_skips_the_grid():
    offset = np.array([0.4e-3, -0.7e-3, 1.1e-3])
    quadrupole = linear_field(QUADRUPOLE, offset)
    calls = []

    def field(p):
        calls.append(p)
        return quadrupole(p)

    zero = mk.find_field_zero(field)
    assert np.linalg.norm(zero - offset) < 1e-9
    assert len(calls) < 100     # the 11^3 grid alone is 1331 points


def test_jacobian_recovers_linear_matrix():
    m = np.array([[1.0, 0.2, -0.1],
                  [0.2, 0.5, 0.3],
                  [-0.1, 0.3, -1.5]]) * 1e-2
    j = mk.jacobian_at(linear_field(m), np.array([1e-3, -2e-3, 0.5e-3]))
    assert np.max(np.abs(j - m)) < 1e-12


def test_jacobian_of_anti_helmholtz_is_traceless_and_symmetric():
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": 0.05, "separation": 0.05, "current": 100.0},
        mk.Discretization(120)))
    j = mk.jacobian_at(segs, np.array([0.5e-3, -0.3e-3, 0.8e-3]), 5e-6)
    scale = np.linalg.norm(j)
    assert abs(np.trace(j)) < 1e-6 * scale
    assert np.max(np.abs(j - j.T)) < 1e-6 * scale


def test_fit_window_validation():
    f = linear_field(QUADRUPOLE)
    with pytest.raises(InvalidInput):
        mk.fit_gradients(f, np.zeros(3), window=-1.0)
    with pytest.raises(InvalidInput):
        mk.fit_gradients(f, np.zeros(3), n=3)


def test_zero_x_gradient_is_degenerate():
    m = np.diag([0.0, 0.01, -0.01])
    with pytest.raises(DegenerateFit):
        mk.fit_gradients(linear_field(m), np.zeros(3))


def test_as_field_rejects_other_types():
    with pytest.raises(InvalidInput):
        mk.analysis.as_field(42)


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
