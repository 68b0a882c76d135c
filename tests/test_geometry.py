"""Geometry generators, spec round-trips, and clearance checks."""
import math

import numpy as np
import pytest

import motkit as mk
from motkit import cli, geometry
from motkit.errors import InvalidGeometry, InvalidInput


def test_segment_rejects_degenerate_data():
    with pytest.raises(InvalidGeometry):
        mk.SegmentList([np.zeros(3)], [np.zeros(3)], [1.0], ["_"])
    with pytest.raises(InvalidGeometry):
        mk.SegmentList([np.zeros(3)], [np.array([np.nan, 0, 0])], [1.0], ["_"])


def test_closed_polyline_chains_head_to_tail():
    square = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    segs = mk.make_free_path(square, 1.0, closed=True)
    assert len(segs) == 4
    assert segs.unbalanced_vertices().shape == (0, 3)
    assert segs.lengths.sum() == pytest.approx(4.0)


def test_closed_group_with_gap_rejected():
    # a square whose closing side stops 1 nm short of its first vertex
    pts = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1e-9, 0)])
    gapped = mk.SegmentList(pts[:-1], pts[1:], np.ones(4), ["g"] * 4)
    assert sorted(map(tuple, gapped.unbalanced_vertices())) == [
        (0.0, 0.0, 0.0), (0.0, 1e-9, 0.0)]
    assert len(gapped.unbalanced_vertices(terminals=[pts[0], pts[-1]])) == 0
    # an open FreePath is fed at its two ends, so build() accepts it
    spec = mk.GeometrySpec("FreePath", {"points": tuple(map(tuple, pts))})
    assert len(mk.build(spec)) == 4
    closed = mk.GeometrySpec("FreePath", {"points": tuple(map(tuple, pts)),
                                          "closed": True})
    assert len(mk.build(closed)) == 5


def test_build_rejects_a_dropped_connector(monkeypatch, tmp_path):
    real = mk.geometry._connector_points
    dropped = []

    def connector(p0, p1, segments_per_turn):
        pts = real(p0, p1, segments_per_turn)
        if dropped:
            return pts
        dropped.append(p0)
        return pts[:1]   # the first contact of the build goes missing

    monkeypatch.setattr(mk.geometry, "_connector_points", connector)
    with pytest.raises(InvalidGeometry, match="net current"):
        mk.build(mk.GeometrySpec("CompactFour"))
    dropped.clear()
    out = tmp_path / "out"
    assert cli.main(["export", "--config", "compact_four", "--out", str(out)]) == 2
    assert dropped and not (out / "geometry.obj").exists()


def test_make_loop_right_hand_rule():
    loop = mk.make_loop((0, 0, 0), 0.03, (0, 0, 1), 2.0, 64)
    assert mk.field_at(loop, np.zeros(3))[2] > 0
    flipped = mk.make_loop((0, 0, 0), 0.03, (0, 0, -1), 2.0, 64)
    assert mk.field_at(flipped, np.zeros(3))[2] < 0


def test_frame_cross_product_is_bitwise_np_cross():
    # _frame writes the cross product out by component, in np.cross's order
    rng = np.random.default_rng(2)
    scale = 10.0 ** rng.uniform(-6, 6, size=(2000, 2, 1))
    for a, b in rng.normal(size=(2000, 2, 3)) * scale:
        assert geometry._cross(a, b).tobytes() == np.cross(a, b).tobytes()


def test_make_loop_needs_three_segments():
    with pytest.raises(InvalidGeometry):
        mk.make_loop((0, 0, 0), 0.03, (0, 0, 1), 1.0, 2)


def test_spec_json_round_trip_uses_millimetres():
    spec = mk.GeometrySpec("TwoPiece")
    doc = spec.to_json_dict()
    assert doc["parameters"]["height"] == pytest.approx(38.0)
    assert doc["parameters"]["current_per_conductor"] == pytest.approx(25.0)
    back = mk.GeometrySpec.from_json_dict(doc)
    for key, value in spec.parameters.items():
        assert back.parameters[key] == pytest.approx(value)


def test_spec_rejects_unknown_names():
    with pytest.raises(InvalidInput):
        mk.GeometrySpec("NoSuchTrap")
    with pytest.raises(InvalidInput):
        mk.GeometrySpec("TwoPiece", {"bogus_parameter": 1.0})


def test_spec_rejects_malformed_points():
    for points in (((0, 0), (1, 0)), ((0, 0, 0), (1, 0, math.nan)), 5.0,
                   ((0, 0, 0), "abc")):
        with pytest.raises(InvalidInput):
            mk.GeometrySpec("FreePath", {"points": points})
    with pytest.raises(InvalidGeometry):
        mk.SegmentList([(0, 0)], [(1, 0)], [1.0], ["g"])


def test_read_fields_checks_each_kind():
    g = mk.geometry
    kinds = {"l": g.LENGTH, "n": g.NUMBER, "c": g.COUNT, "f": g.FLAG,
             "s": g.NAME, "p": g.POINTS, "pair": (g.NUMBER, g.LENGTH),
             "sub": {"l": g.LENGTH}, "any": None}
    doc = {"l": 7, "n": 3, "c": 4, "f": False, "s": "x", "p": [[1, 2, 3]],
           "pair": [1, 5.5], "sub": {"l": 0.7}, "any": [1, "x"]}
    # lengths are float() then scaled, bitwise as the JSON round trip does
    assert g.read_fields(doc, kinds, "t") == {
        "l": 7.0 * 1e-3, "n": 3.0, "c": 4, "f": False, "s": "x",
        "p": ((1e-3 * 1, 1e-3 * 2, 1e-3 * 3),), "pair": (1.0, 5.5 * 1e-3),
        "sub": {"l": 0.7 * 1e-3}, "any": [1, "x"]}
    assert g.read_fields({}, kinds, "t") == {}
    for key, bad in [("l", 0), ("l", True), ("l", "7"), ("n", True),
                     ("n", math.nan), ("n", 10 ** 400), ("n", None),
                     ("c", 24.9), ("c", True), ("f", "false"), ("f", 0),
                     ("s", 5), ("p", [[1, 2, True]]), ("pair", [1]),
                     ("pair", [1, 2, 3]), ("pair", [1, -2]), ("sub", []),
                     ("sub", {"bogus": 1}), ("bogus", 1),
                     # beyond MAX_LENGTH (1 km) in metres after scaling
                     ("l", 1e300), ("l", 1e7), ("p", [[0, 0, -1e300]]),
                     ("pair", [1, 1e7]), ("sub", {"l": 1e300})]:
        with pytest.raises(InvalidInput, match=r"\bt\b"):
            g.read_fields({key: bad}, kinds, "t")
    with pytest.raises(InvalidInput):
        g.read_fields([], kinds, "t")
    with pytest.raises(InvalidInput):
        mk.GeometrySpec("AntiHelmholtz", {"current": True})


def test_spec_scaled_touches_lengths_only():
    spec = mk.GeometrySpec("AntiHelmholtz").scaled(0.5)
    assert spec.parameters["radius"] == pytest.approx(0.025)
    assert spec.parameters["current"] == pytest.approx(100.0)


def test_all_variants_build():
    for variant in ("AntiHelmholtz", "IoffePritchard", "TwistedCage",
                    "CompactFour", "TwoPiece"):
        segs = mk.build(mk.GeometrySpec(variant))
        assert len(segs) > 0


def test_group_counts_match_part_counts():
    assert len(mk.build(mk.GeometrySpec("TwoPiece")).groups()) == 2
    assert len(mk.build(mk.GeometrySpec("CompactFour")).groups()) == 4
    cage_groups = mk.build(mk.GeometrySpec("TwistedCage")).groups()
    assert sorted(cage_groups) == ["bar0", "bar1", "bar2", "bar3"]


def test_field_zero_at_center_by_symmetry():
    # both compact assemblies are odd under point inversion with current
    # reversal, so the centre field vanishes to rounding error
    for variant in ("TwoPiece", "CompactFour"):
        segs = mk.build(mk.GeometrySpec(variant))
        b = mk.field_at(segs, np.zeros(3))
        assert np.linalg.norm(b) < 1e-12  # tesla


def test_twisted_cage_bar_collision_detected():
    spec = mk.GeometrySpec("TwistedCage", {"twist_angle": 1.2})
    with pytest.raises(InvalidGeometry):
        mk.build(spec)


def test_clearance_check_against_beam_diameter():
    segs = mk.build(mk.GeometrySpec("TwoPiece"))
    ok, clearance = mk.clearance_check(segs, 0.015)
    assert ok and clearance >= 0.0
    ok_big, clearance_big = mk.clearance_check(segs, 0.016)
    assert not ok_big and clearance_big < 0.0


def test_clearance_is_exact_between_samples():
    # the path passes 1 mm from the z beam axis, midway between points
    # that a 9-sample check per segment would test
    spec = mk.GeometrySpec.from_json_dict({"variant": "FreePath", "parameters": {
        "points": [[-10, 1, 50], [150, 1, 50]]}})
    ok, clearance = mk.clearance_check(mk.build(spec), 0.015)
    assert not ok
    assert clearance == pytest.approx(-6.5e-3, abs=1e-12)


def test_clearance_requires_positive_beam():
    segs = mk.build(mk.GeometrySpec("TwoPiece"))
    with pytest.raises(InvalidInput):
        mk.clearance_check(segs, 0.0)


def test_power_budget_and_field_model_name_the_same_conductors():
    for variant in sorted(mk.geometry.REGISTRY):
        params = ({"points": ((0, 0, 0), (0.01, 0, 0), (0.01, 0.01, 0))}
                  if variant == "FreePath" else {})
        spec = mk.GeometrySpec(variant, params)
        assert set(mk.build(spec).groups()) == {
            s.group_id for s in mk.conductor_sections(spec)}, variant


def test_conductor_sections_positive():
    for variant in ("AntiHelmholtz", "IoffePritchard", "TwistedCage",
                    "CompactFour", "TwoPiece"):
        sections = mk.conductor_sections(mk.GeometrySpec(variant))
        assert sections
        for sec in sections:
            assert sec.length > 0 and sec.area > 0


def test_discretization_validation():
    with pytest.raises(InvalidInput):
        mk.Discretization(segments_per_turn=4)
    # rejected from the worst-case segment count, before any allocation
    with pytest.raises(InvalidInput, match="segments"):
        mk.Discretization(segments_per_turn=100_000_000)
    with pytest.raises(InvalidInput, match="segments"):
        mk.Discretization(arm_grid=100_000)
    for counts in ({"segments_per_turn": 24.9}, {"bundle_filaments": 7.0},
                   {"arm_grid": True}):
        with pytest.raises(InvalidInput, match="integer"):
            mk.Discretization(**counts)


def test_anti_helmholtz_on_axis_gradient_matches_analytic():
    r, sep, current = 0.05, 0.05, 100.0
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": r, "separation": sep, "current": current},
        mk.Discretization(720)))
    d = sep / 2.0
    # each loop contributes (3/2) mu0 I r^2 d / (r^2+d^2)^(5/2); the pair doubles it
    expected = 3.0 * mk.MU_0 * current * r * r * d / (r * r + d * d) ** 2.5
    rep = mk.fit_gradients(segs, np.zeros(3), window=1e-3)
    assert abs(rep.g[2]) * 0.01 == pytest.approx(expected, rel=1e-3)
