"""Geometry generators, spec round-trips, and clearance checks."""
import math
import tracemalloc
from dataclasses import replace

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
    with pytest.raises(InvalidGeometry, match="empty segment list"):
        mk.SegmentList(np.zeros((0, 3)), np.zeros((0, 3)), [], [])


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
    loop = mk.make_loop((0, 0, 0), 0.03, 2.0, 64)
    assert mk.field_at(loop, np.zeros(3))[2] > 0
    flipped = mk.make_loop((0, 0, 0), 0.03, -2.0, 64)
    assert mk.field_at(flipped, np.zeros(3))[2] < 0


def _framed_loop_vertices(center, radius, n_segments):
    """Loop vertices as an in-plane frame (u, v) about the normal +z gives
    them: u = x × n and v = n × u, each normalised."""
    n = np.array([0.0, 0.0, 1.0])
    u = np.cross(np.array([1.0, 0.0, 0.0]), n)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    theta = 2.0 * np.pi * np.arange(n_segments) / n_segments
    return np.asarray(center, dtype=float) + radius * (
        np.outer(np.cos(theta), u) + np.outer(np.sin(theta), v))


def test_make_loop_is_bitwise_the_framed_construction():
    for z in (0.0, 0.025, -0.025, 0.040, -0.0312):
        for radius in (1e-3, 0.0125, 0.03, 0.05):
            for n in (3, 4, 7, 24, 360, 1000):
                loop = mk.make_loop((0, 0, z), radius, 1.0, n)
                assert loop.starts.tobytes() == _framed_loop_vertices(
                    (0, 0, z), radius, n).tobytes()
                assert loop.ends.tobytes() == np.roll(loop.starts, -1, axis=0).tobytes()


def test_make_loop_needs_three_segments():
    with pytest.raises(InvalidGeometry):
        mk.make_loop((0, 0, 0), 0.03, 1.0, 2)


def test_make_loop_needs_a_positive_radius():
    with pytest.raises(InvalidGeometry, match="radius"):
        mk.make_loop((0, 0, 0), 0.0, 1.0, 24)


def test_spec_json_round_trip_uses_millimetres():
    spec = mk.GeometrySpec("TwoPiece")
    kinds = geometry.REGISTRY["TwoPiece"].parameters
    doc = {"variant": "TwoPiece", "parameters": {
        key: value * 1e3 if kinds[key][0] == geometry.LENGTH else value
        for key, value in spec.parameters.items()}}
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


def test_free_path_points_are_capped():
    # more points than MAX_SEGMENTS are rejected before any point is read,
    # from the Python API and from a config
    points = [(0.0, 0.0, 0.0)] * (geometry.MAX_SEGMENTS + 1)
    for make in (lambda: mk.GeometrySpec("FreePath", {"points": points}),
                 lambda: mk.GeometrySpec.from_json_dict(
                     {"variant": "FreePath", "parameters": {"points": points}})):
        with pytest.raises(InvalidInput, match="exceeds the 1000000 point cap"):
            make()


def test_read_fields_checks_each_kind():
    g = mk.geometry
    kinds = {"l": g.LENGTH, "n": g.NUMBER, "i": g.CURRENT, "c": g.COUNT,
             "f": g.FLAG, "s": g.NAME, "p": g.POINTS,
             "pair": (g.NUMBER, g.LENGTH), "sub": {"l": g.LENGTH}, "any": None}
    doc = {"l": 7, "n": 3, "i": -1_000_000, "c": 4, "f": False, "s": "x",
           "p": [[1, 2, 3]], "pair": [1, 5.5], "sub": {"l": 0.7},
           "any": [1, "x"]}
    # lengths are float() then scaled, bitwise as the JSON round trip does
    assert g.read_fields(doc, kinds, "t") == {
        "l": 7.0 * 1e-3, "n": 3.0, "i": -1e6, "c": 4, "f": False, "s": "x",
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
                     ("pair", [1, 1e7]), ("sub", {"l": 1e300}),
                     # currents: finite, and within MAX_CURRENT (1 MA)
                     ("i", math.inf), ("i", True), ("i", 1_000_001),
                     ("i", -1e160)]:
        with pytest.raises(InvalidInput, match=r"\bt\b"):
            g.read_fields({key: bad}, kinds, "t")
    with pytest.raises(InvalidInput):
        g.read_fields([], kinds, "t")
    with pytest.raises(InvalidInput):
        mk.GeometrySpec("AntiHelmholtz", {"current": True})


def test_spec_caps_lengths_from_the_python_api():
    # the config reader's MAX_LENGTH cap holds for specs made in Python too,
    # and so for their scaled and re-parametrized copies
    for make in (lambda: mk.GeometrySpec("AntiHelmholtz",
                                         {"radius": 1e80, "separation": 1e80},
                                         segments_per_turn=24),
                 lambda: mk.GeometrySpec("AntiHelmholtz").scaled(1e6),
                 lambda: mk.GeometrySpec("AntiHelmholtz").replace_parameters(
                     radius=2 * geometry.MAX_LENGTH),
                 lambda: mk.GeometrySpec("FreePath", {
                     "points": ((0, 0, 0), (0, 0, -2 * geometry.MAX_LENGTH))})):
        with pytest.raises(InvalidInput, match="length cap"):
            make()
    spec = mk.GeometrySpec("AntiHelmholtz", {"radius": geometry.MAX_LENGTH})
    assert spec.parameters["radius"] == geometry.MAX_LENGTH


def test_spec_caps_currents_from_the_python_api():
    # I^2 overflows near 1e154 A; each family's current is capped far below
    for variant, key in (("AntiHelmholtz", "current"), ("TwistedCage", "current"),
                         ("FreePath", "current"),
                         ("CompactFour", "current_per_conductor"),
                         ("TwoPiece", "current_per_conductor")):
        assert geometry.REGISTRY[variant].parameters[key][0] == geometry.CURRENT
        for current in (1e160, -2 * geometry.MAX_CURRENT):
            with pytest.raises(InvalidInput, match="current cap"):
                mk.GeometrySpec(variant).replace_parameters(**{key: current})
    spec = mk.GeometrySpec("TwoPiece", {"current_per_conductor": -geometry.MAX_CURRENT})
    assert spec.parameters["current_per_conductor"] == -geometry.MAX_CURRENT


def test_spec_scaled_touches_lengths_only():
    spec = mk.GeometrySpec("AntiHelmholtz").scaled(0.5)
    assert spec.parameters["radius"] == pytest.approx(0.025)
    assert spec.parameters["current"] == pytest.approx(100.0)


def test_all_variants_build():
    for variant in ("AntiHelmholtz", "TwistedCage", "CompactFour", "TwoPiece"):
        segs = mk.build(mk.GeometrySpec(variant))
        assert len(segs) > 0


def test_group_counts_match_part_counts():
    assert len(mk.build(mk.GeometrySpec("TwoPiece")).groups()) == 2
    assert len(mk.build(mk.GeometrySpec("CompactFour")).groups()) == 4
    cage_groups = mk.build(mk.GeometrySpec("TwistedCage")).groups()
    assert sorted(cage_groups) == ["bar0", "bar1", "bar2", "bar3"]
    with pytest.raises(InvalidInput, match="no such group: 'nope'"):
        mk.build(mk.GeometrySpec("TwoPiece")).group("nope")


def test_field_zero_at_center_by_symmetry():
    # both compact assemblies are odd under point inversion with current
    # reversal, so the centre field vanishes to rounding error
    for variant in ("TwoPiece", "CompactFour"):
        segs = mk.build(mk.GeometrySpec(variant))
        b = mk.field_at(segs, np.zeros(3))
        assert np.linalg.norm(b) < 1e-12  # tesla


def test_twisted_cage_bar_collision_detected():
    # the pair named is one that converges; 1 mm bars at 1.6 rad cross
    # between any two centreline samples of a 360-segment build
    for params, pair in (({"twist_angle": 1.2}, "0 and 1"),
                         ({"twist_angle": 1.6, "bar_diameter": 0.001}, "0 and 1"),
                         ({"twist_angle": -1.6, "bar_diameter": 0.001}, "0 and 3")):
        with pytest.raises(InvalidGeometry, match=f"^bars {pair} intersect$"):
            mk.build(mk.GeometrySpec("TwistedCage", params))


def test_twisted_cage_twist_cap_at_the_defaults():
    # pi/4 - asin(d / 2 r0) with d = 10 mm and r0 = 22.5 mm: 0.56131 rad
    p = mk.GeometrySpec("TwistedCage").parameters
    r0 = (p["outer_width"] - p["bar_diameter"]) / 2.0
    assert math.pi / 4 - math.asin(p["bar_diameter"] / (2 * r0)) == pytest.approx(
        0.56131, abs=1e-5)
    mk.build(mk.GeometrySpec("TwistedCage", {"twist_angle": 0.5612}))
    with pytest.raises(InvalidGeometry, match="bars 0 and 1 intersect"):
        mk.build(mk.GeometrySpec("TwistedCage", {"twist_angle": 0.5614}))


def _centreline_gap(r0, height, twist, n=1001, block=101):
    """Least distance between the centrelines of any two cage bars, over n
    points per bar, pair by pair and block by block."""
    z = np.linspace(-height / 2, height / 2, n)
    bars = []
    for k in range(4):
        phi = k * np.pi / 2 + (-1) ** k * twist * (2 * z / height) ** 2
        bars.append(np.column_stack([r0 * np.cos(phi), r0 * np.sin(phi), z]))
    return min(np.linalg.norm(bars[i][lo:lo + block, None] - bars[j][None], axis=2).min()
               for i in range(4) for j in range(i + 1, 4) for lo in range(0, n, block))


def test_twisted_cage_contact_matches_a_dense_search():
    # r0 stays fixed as the bar diameter moves, so the centrelines do too:
    # a cage builds just below their least gap and raises just above it
    rng = np.random.default_rng(5)
    for _ in range(12):
        r0, height = rng.uniform(0.005, 0.04), rng.uniform(0.01, 0.15)
        twist = rng.uniform(-0.78, 0.78)
        gap = _centreline_gap(r0, height, twist)
        for bar, ok in ((gap - 1e-9, True), (gap + 1e-9, False)):
            spec = mk.GeometrySpec("TwistedCage", {
                "height": height, "outer_width": 2 * r0 + bar,
                "bar_diameter": bar, "twist_angle": twist}, segments_per_turn=24)
            if ok:
                mk.build(spec)
            else:
                with pytest.raises(InvalidGeometry, match="intersect"):
                    mk.build(spec)


def test_twisted_cage_build_memory_stays_small():
    # the bar check places no points, so a build holds its filaments only
    spec = mk.GeometrySpec("TwistedCage", segments_per_turn=4000)
    tracemalloc.start()
    try:
        mk.build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


_TOO_SHORT = "trap too short for ring sections above the beam holes"


@pytest.mark.parametrize("variant, params, message", [
    ("CompactFour", {"hole_diameter": 0.024}, "hole plus gaps exceeds conductor width"),
    ("CompactFour", {"hole_diameter": 0.0225},
     "no room for prongs between beams and outer wall"),
    ("CompactFour", {"height": 0.0155}, _TOO_SHORT),
    ("TwoPiece", {"hole_diameter": 0.026}, "hole plus gaps exceeds conductor diameter"),
    ("TwoPiece", {"arm_depth": 0.004}, "arms intrude into the beam volume"),
    ("TwoPiece", {"height": 0.0155}, _TOO_SHORT),
    # a design that fails two checks gets the prong or arm check's message
    ("CompactFour", {"height": 0.0155, "hole_diameter": 0.0225},
     "no room for prongs between beams and outer wall"),
    ("TwoPiece", {"height": 0.0155, "arm_depth": 0.004},
     "arms intrude into the beam volume"),
])
def test_builder_clearance_errors_and_their_order(variant, params, message):
    with pytest.raises(mk.ClearanceError) as info:
        mk.build(mk.GeometrySpec(variant, params))
    assert str(info.value) == message


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


def _segment_line_distance(starts, ends, d):
    """Reference: the per-axis distance from each segment to the line through
    the origin along the unit vector d, as `clearance_check` took it one beam
    at a time."""
    line = ends - starts
    u = starts - (starts @ d)[:, None] * d
    w = line - (line @ d)[:, None] * d
    ww = np.einsum("ij,ij->i", w, w)
    t = np.divide(-np.einsum("ij,ij->i", u, w), ww, out=np.zeros_like(ww),
                  where=ww > 0.0)
    pts = starts + np.clip(t, 0.0, 1.0)[:, None] * line
    perp = pts - (pts @ d)[:, None] * d
    return np.linalg.norm(perp, axis=1)


def _per_axis_clearance(segs, beam_diameter):
    min_clear = math.inf
    for axis in np.eye(3):
        dist = _segment_line_distance(segs.starts, segs.ends, axis)
        min_clear = min(min_clear, float(dist.min()) - beam_diameter / 2.0)
    return (min_clear >= 0.0), min_clear


def _clearance_geometries():
    """The 4 presets at 24 and 360 segments per turn, then 200 seeded free
    paths; every other one steps along one axis at a time (w = 0 across that
    beam) and sets coordinates to exactly 0."""
    for name in ("anti_helmholtz", "twisted_cage", "compact_four", "two_piece"):
        spec = cli.load_config(name)["geometry"]
        for spt in (24, 360):
            yield mk.build(replace(spec, segments_per_turn=spt))
    rng = np.random.default_rng(15)
    for k in range(200):
        n = int(rng.integers(2, 30))
        if k % 2 == 0:
            pts = rng.normal(scale=0.02, size=(n, 3))
        else:
            pts = [np.where(rng.random(3) < 0.3, 0.0, rng.normal(scale=0.02, size=3))]
            for _ in range(n - 1):
                q, axis = pts[-1].copy(), rng.integers(3)
                zeroed = q[axis] != 0.0 and rng.random() < 0.3
                q[axis] = 0.0 if zeroed else q[axis] + rng.normal(scale=0.01)
                pts.append(q)
        yield mk.make_free_path(pts, 1.0)


def test_clearance_one_pass_is_bitwise_the_per_axis_check():
    cases = 0
    for segs in _clearance_geometries():
        for beam in (1e-3, 15e-3, 30e-3):
            ok, clearance = mk.clearance_check(segs, beam)
            ref_ok, ref_clearance = _per_axis_clearance(segs, beam)
            assert ok == ref_ok
            assert (np.float64(clearance).tobytes()
                    == np.float64(ref_clearance).tobytes())
            cases += 1
    assert cases == 3 * (8 + 200)


def _one_loop(center, radius, current, n_segments, group_id):
    """Reference: one z-coaxial n-gon, as each loop of a coil pair was built
    on its own."""
    theta = 2.0 * np.pi * np.arange(n_segments) / n_segments
    pts = np.asarray(center, dtype=float) + radius * np.column_stack(
        [np.sin(theta), -np.cos(theta), np.zeros(n_segments)])
    pts = np.vstack([pts, pts[:1]])
    return pts[:-1], pts[1:], current, [group_id] * n_segments


@pytest.mark.parametrize("spt", [8, 13, 24, 360, 721])
@pytest.mark.parametrize("variant", ["AntiHelmholtz"])
def test_coil_pairs_are_bitwise_two_loops(variant, spt):
    spec = mk.GeometrySpec(variant, segments_per_turn=spt)
    p = spec.parameters
    z, radius = p["separation"] / 2.0, p["radius"]
    currents = (p["current"], -p["current"])
    loops = [_one_loop((0, 0, +z), radius, currents[0], spt, "coil_top"),
             _one_loop((0, 0, -z), radius, currents[1], spt, "coil_bottom")]
    segs = mk.build(spec)
    assert segs.starts.tobytes() == np.concatenate([l[0] for l in loops]).tobytes()
    assert segs.ends.tobytes() == np.concatenate([l[1] for l in loops]).tobytes()
    assert segs.currents.tobytes() == np.repeat(currents, spt).astype(float).tobytes()
    assert segs.group_ids == loops[0][3] + loops[1][3]


def test_power_budget_and_field_model_name_the_same_conductors():
    for variant in sorted(mk.geometry.REGISTRY):
        params = ({"points": ((0, 0, 0), (0.01, 0, 0), (0.01, 0.01, 0))}
                  if variant == "FreePath" else {})
        spec = mk.GeometrySpec(variant, params)
        group_ids = [c.group_id for c in mk.conductor_sections(spec)]
        assert set(mk.build(spec).groups()) == set(group_ids), variant
        # one record per conductor
        assert len(group_ids) == len(set(group_ids)), variant


def test_conductor_sections_positive():
    for variant in ("AntiHelmholtz", "TwistedCage", "CompactFour", "TwoPiece"):
        conductors = mk.conductor_sections(mk.GeometrySpec(variant))
        assert conductors
        for conductor in conductors:
            for length, area in conductor.sections:
                assert length > 0 and area > 0


def test_discretization_validation():
    with pytest.raises(InvalidInput):
        mk.GeometrySpec("AntiHelmholtz", segments_per_turn=4)
    # rejected from the worst-case segment count, before any allocation
    for spt in (26_252, 100_000_000):
        with pytest.raises(InvalidInput, match="more than 1000000 segments"):
            mk.GeometrySpec("AntiHelmholtz", segments_per_turn=spt)
    assert mk.GeometrySpec("AntiHelmholtz",
                           segments_per_turn=26_251).segments_per_turn == 26_251
    for spt in (24.9, True):
        with pytest.raises(InvalidInput, match="integer"):
            mk.GeometrySpec("AntiHelmholtz", segments_per_turn=spt)


def test_anti_helmholtz_on_axis_gradient_matches_analytic():
    r, sep, current = 0.05, 0.05, 100.0
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": r, "separation": sep, "current": current},
        segments_per_turn=720))
    d = sep / 2.0
    # each loop contributes (3/2) mu0 I r^2 d / (r^2+d^2)^(5/2); the pair doubles it
    expected = 3.0 * mk.MU_0 * current * r * r * d / (r * r + d * d) ** 2.5
    rep = mk.fit_gradients(segs, np.zeros(3), window=1e-3)
    assert abs(rep.g[2]) * 0.01 == pytest.approx(expected, rel=1e-3)
