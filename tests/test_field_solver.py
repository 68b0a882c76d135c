"""Analytic oracles and sampler behaviour for the Biot-Savart solver."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import motkit as mk
from motkit.cli import export_obj, import_obj
from motkit.errors import EmptySample, InvalidInput, SingularPoint
from motkit.field import _CHUNK_PAIRS, _CSV_BLOCK
from motkit.geometry import MAX_LENGTH


def test_loop_center_matches_analytic():
    r, current, n = 0.025, 1.0, 1000
    loop = mk.make_loop((0, 0, 0), r, (0, 0, 1), current, n)
    b = mk.field_at(loop, np.zeros(3))
    expected = mk.MU_0 * current / (2.0 * r)
    assert abs(b[2] - expected) / expected < 1e-3
    assert abs(b[0]) < 1e-12 * expected and abs(b[1]) < 1e-12 * expected


def test_loop_polygon_converges_from_above():
    # an inscribed n-gon slightly overshoots the circular-loop field by
    # the known tan(pi/n)/(pi/n) factor
    r, current = 0.025, 1.0
    circular = mk.MU_0 * current / (2.0 * r)
    for n in (16, 64, 256):
        loop = mk.make_loop((0, 0, 0), r, (0, 0, 1), current, n)
        bz = mk.field_at(loop, np.zeros(3))[2]
        factor = math.tan(math.pi / n) / (math.pi / n)
        assert bz == pytest.approx(circular * factor, rel=1e-12)


def test_long_wire_matches_analytic():
    wire = mk.make_free_path([(0, 0, -10.0), (0, 0, 10.0)], 1.0)
    d = 0.010
    b = mk.field_at(wire, np.array([d, 0.0, 0.0]))
    expected = mk.MU_0 * 1.0 / (2.0 * math.pi * d)
    assert abs(np.linalg.norm(b) - expected) / expected < 1e-6
    # right-hand rule: current along +z, field at +x points along +y
    assert b[1] > 0 and abs(b[0]) < 1e-20 and abs(b[2]) < 1e-20


def test_collinear_extension_is_exactly_zero():
    seg = mk.make_free_path([(0.0, 0.0, 0.0), (0.0, 0.0, 1.0)], 2.0)
    b = mk.field_at(seg, np.array([0.0, 0.0, 2.5]))
    assert np.all(b == 0.0)
    b = mk.field_at(seg, np.array([0.0, 0.0, -1.0]))
    assert np.all(b == 0.0)


def test_point_on_segment_raises_singular():
    segs = mk.make_free_path([(0, 0, 0), (1, 0, 0)], 1.0)
    with pytest.raises(SingularPoint) as err:
        mk.field_at(segs, np.array([0.5, 0.0, 0.0]))
    assert err.value.segment_index == 0


def _joined(a, b):
    """One SegmentList with the filaments of `a` followed by those of `b`."""
    return mk.SegmentList(np.vstack([a.starts, b.starts]),
                          np.vstack([a.ends, b.ends]),
                          np.concatenate([a.currents, b.currents]),
                          a.group_ids + b.group_ids)


def test_superposition_and_current_linearity():
    a = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 2.0)
    b = mk.make_free_path([(0, 1, -1), (0, 1, 1)], -1.0)
    p = np.array([0.05, 0.3, 0.01])
    combined = mk.field_at(_joined(a, b), p)
    assert combined == pytest.approx(mk.field_at(a, p) + mk.field_at(b, p),
                                     rel=1e-12)
    doubled = mk.field_at(
        mk.SegmentList(a.starts, a.ends, 2.0 * a.currents, a.group_ids), p)
    assert doubled == pytest.approx(2.0 * mk.field_at(a, p), rel=1e-15)


def test_opposite_currents_cancel_exactly():
    a = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.5)
    b = mk.make_free_path([(0, 0, -1), (0, 0, 1)], -1.5)
    p = np.array([0.02, -0.01, 0.3])
    assert np.all(mk.field_at(_joined(a, b), p) == 0.0)


def test_sample_line_positions_and_shape():
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": 0.05, "separation": 0.05, "current": 100.0},
        mk.Discretization(60)))
    fmap = mk.sample_line(segs, (0, 0, 0), (0, 0, 2.0), 0.004, 9)
    assert fmap.shape == (9,)
    assert fmap.positions.shape == (9, 3)
    assert fmap.positions[0] == pytest.approx([0, 0, -0.004])
    assert fmap.positions[-1] == pytest.approx([0, 0, 0.004])
    # anti-Helmholtz axis: Bz odd in z
    assert fmap.B[0, 2] == pytest.approx(-fmap.B[-1, 2], rel=1e-9)


def test_sample_plane_row_major_order():
    segs = mk.make_free_path([(0, 0, -5), (0, 0, 5)], 1.0)
    fmap = mk.sample_plane(segs, (0.1, 0, 0), (1, 0, 0), (0, 1, 0),
                           0.01, 3, 2)
    assert fmap.shape == (3, 2)
    # row-major: the second axis varies fastest
    assert fmap.positions[0] == pytest.approx([0.09, -0.01, 0.0])
    assert fmap.positions[1] == pytest.approx([0.09, 0.01, 0.0])
    assert fmap.positions[2] == pytest.approx([0.10, -0.01, 0.0])


def test_singular_samples_become_nan_gaps():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    fmap = mk.sample_line(segs, (0, 0, 0), (1, 0, 0), 0.01, 5)
    assert np.all(np.isnan(fmap.B[2]))          # the on-axis sample
    assert np.all(np.isfinite(fmap.B[[0, 1, 3, 4]]))
    assert np.isnan(fmap.magnitude[2])


def test_all_singular_raises_empty_sample():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    with pytest.raises(EmptySample):
        mk.sample_line(segs, (0, 0, 0), (0, 0, 1.0), 0.5, 11)


def test_csv_header_and_rows():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    fmap = mk.sample_line(segs, (0.01, 0, 0), (0, 0, 1), 0.005, 4)
    text = mk.field_map_csv(fmap)
    lines = text.strip().split("\n")
    assert lines[0] == "x_m,y_m,z_m,Bx_T,By_T,Bz_T,Bmag_G"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert len(first) == 7
    assert float(first[0]) == pytest.approx(0.01)


def test_csv_is_byte_identical_to_the_per_row_format():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    # more rows than one formatting block, with the middle one on the wire
    n = 2 * _CSV_BLOCK + 3
    fmap = mk.sample_line(segs, (0, 0, 0), (1, 0, 0), 0.01, n)
    assert np.isnan(fmap.B[n // 2]).all()
    # the reference writer formats one row at a time
    expected = "x_m,y_m,z_m,Bx_T,By_T,Bz_T,Bmag_G\n" + "".join(
        f"{x:.9e},{y:.9e},{z:.9e},{bx:.9e},{by:.9e},{bz:.9e},{bm:.9e}\n"
        for (x, y, z), (bx, by, bz), bm
        in zip(fmap.positions, fmap.B, fmap.magnitude * 1e4))
    assert "nan" in expected
    assert mk.field_map_csv(fmap) == expected


def test_direction_must_be_nonzero():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    with pytest.raises(InvalidInput):
        mk.sample_line(segs, (0, 0, 0), (0, 0, 0), 0.01, 5)


def test_field_point_must_be_vector():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    with pytest.raises(InvalidInput):
        mk.field_at(segs, np.zeros((2, 3)))


def brute_force(segments, p):
    """Per-segment Biot-Savart sum in scalar arithmetic, segment by segment.

    Returns the field and the sum of the per-segment magnitudes, the scale
    against which the batched kernel's rounding is judged.
    """
    total = [0.0, 0.0, 0.0]
    scale = 0.0
    for a, b, current in zip(segments.starts.tolist(), segments.ends.tolist(),
                             segments.currents.tolist()):
        r1 = [p[i] - a[i] for i in range(3)]
        r2 = [p[i] - b[i] for i in range(3)]
        n1 = math.sqrt(sum(v * v for v in r1))
        n2 = math.sqrt(sum(v * v for v in r2))
        cross = [r1[1] * r2[2] - r1[2] * r2[1],
                 r1[2] * r2[0] - r1[0] * r2[2],
                 r1[0] * r2[1] - r1[1] * r2[0]]
        dot = sum(u * v for u, v in zip(r1, r2))
        coef = 1e-7 * current * (n1 + n2) / (n1 * n2 * (n1 * n2 + dot))
        for i in range(3):
            total[i] += coef * cross[i]
        scale += abs(coef) * math.hypot(*cross)
    return np.array(total), scale


def assert_matches_brute_force(segments, points, rtol=1e-12):
    B = mk.field_many(segments, points)
    for p, b in zip(points, B):
        expected, scale = brute_force(segments, p)
        assert np.all(np.abs(b - expected) <= rtol * scale)


def kernel_points(segments, n, rng):
    """Random points around a geometry, plus one on each segment's middle
    and first vertex, so that singular rows are part of the output."""
    lo = segments.starts.min(axis=0) - 0.01
    hi = segments.starts.max(axis=0) + 0.01
    return np.vstack([rng.uniform(lo, hi, size=(n, 3)),
                      0.5 * (segments.starts[::97] + segments.ends[::97]),
                      segments.starts[::89]])


def test_field_many_is_bitwise_independent_of_chunks(monkeypatch):
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": 0.05, "separation": 0.05, "current": 100.0},
        mk.Discretization(90)))
    points = kernel_points(segs, 200, np.random.default_rng(3))
    reference = mk.field_many(segs, points)
    assert np.isnan(reference[:, 0]).sum() >= 2
    for chunk in (1, 7, _CHUNK_PAIRS, 1 << 20):
        monkeypatch.setattr(mk.field, "_CHUNK_PAIRS", chunk)
        B = mk.field_many(segs, points)
        assert B.tobytes() == reference.tobytes(), chunk


def reference_field(segments, points):
    """The kernel written with fresh numpy temporaries per chunk, in the same
    per-element operations and order; field_many must match it bitwise."""
    a = np.ascontiguousarray(segments.starts.T)
    b = np.ascontiguousarray(segments.ends.T)
    line = b - a
    length_sq = line[0] * line[0] + line[1] * line[1] + line[2] * line[2]
    k = mk.MU_0 / (4.0 * math.pi) * segments.currents
    eps = mk.EPS_SING
    rows = max(1, _CHUNK_PAIRS // len(segments))
    out = np.empty(points.shape)
    for start in range(0, points.shape[0], rows):
        chunk = points[start:start + rows]
        x, y, z = chunk[:, 0:1], chunk[:, 1:2], chunk[:, 2:3]
        with np.errstate(divide="ignore", invalid="ignore"):
            r1x, r1y, r1z = x - a[0], y - a[1], z - a[2]
            r2x, r2y, r2z = x - b[0], y - b[1], z - b[2]
            n1_sq = r1x * r1x + r1y * r1y + r1z * r1z
            n2_sq = r2x * r2x + r2y * r2y + r2z * r2z
            n1, n2 = np.sqrt(n1_sq), np.sqrt(n2_sq)
            cx = r1y * r2z - r1z * r2y
            cy = r1z * r2x - r1x * r2z
            cz = r1x * r2y - r1y * r2x
            n12 = n1 * n2
            coef = k * (n1 + n2) / (
                n12 * (n12 + (r1x * r2x + r1y * r2y + r1z * r2z)))
            rows_out = np.empty((chunk.shape[0], 3))
            rows_out[:, 0] = (coef * cx).sum(axis=1)
            rows_out[:, 1] = (coef * cy).sum(axis=1)
            rows_out[:, 2] = (coef * cz).sum(axis=1)
            cross_sq = cx * cx + cy * cy + cz * cz
            near = np.flatnonzero(
                (cross_sq < 2.0 * eps * eps * length_sq).any(axis=1))
            if near.size:
                along = (r1x[near] * line[0] + r1y[near] * line[1]
                         + r1z[near] * line[2])
                dist_sq = np.where(along <= 0.0, n1_sq[near],
                                   np.where(along >= length_sq, n2_sq[near],
                                            cross_sq[near] / length_sq))
                rows_out[near[(dist_sq < eps * eps).any(axis=1)]] = np.nan
        out[start:start + rows] = rows_out
    return out


PRESETS = ("AntiHelmholtz", "TwoPiece", "CompactFour", "TwistedCage",
           "IoffePritchard")


@pytest.mark.parametrize("variant", PRESETS)
def test_field_many_is_bitwise_equal_to_the_reference(monkeypatch, variant):
    segs = mk.build(mk.GeometrySpec(variant))
    points = kernel_points(segs, 60, np.random.default_rng(5))
    expected = reference_field(segs, points)
    assert np.isnan(expected[:, 0]).sum() >= 2
    for chunk in (1, 7, _CHUNK_PAIRS):
        monkeypatch.setattr(mk.field, "_CHUNK_PAIRS", chunk)
        B = mk.field_many(segs, points)
        assert B.tobytes() == expected.tobytes(), chunk


def assert_bitwise_equal_to_the_reference(segs, points):
    expected = reference_field(segs, points)
    with pytest.MonkeyPatch.context() as mp:
        for chunk in (1, 7, _CHUNK_PAIRS):
            mp.setattr(mk.field, "_CHUNK_PAIRS", chunk)
            B = mk.field_many(segs, points)
            assert B.tobytes() == expected.tobytes(), chunk
    return expected


CORNERS = [(0.0, 0.0, 0.0), (0.04, 0.0, 0.0), (0.04, 0.04, 0.0),
          (0.0, 0.04, 0.01)]
# geometries whose vertex sharing differs from the closed presets': the
# kernel takes r2 from the next segment's r1 only where that segment starts
# where this one ends
OFF_PRESET = {
    "open_path": lambda: mk.make_free_path(CORNERS, 2.0),
    "closed_path": lambda: mk.make_free_path(CORNERS, -1.5, closed=True),
    # every segment is a break, and the second starts where the first does
    "unchained": lambda: mk.SegmentList(
        [CORNERS[0], CORNERS[0], CORNERS[2], CORNERS[1]],
        [CORNERS[1], CORNERS[3], CORNERS[0], CORNERS[3]],
        [1.0, -2.0, 0.5, 3.0], ["g"] * 4),
    "single_segment": lambda: mk.make_free_path(CORNERS[:2], 1.0),
    "obj_round_trip": lambda: import_obj(
        export_obj(mk.build(mk.GeometrySpec(
            "AntiHelmholtz",
            {"radius": 0.03, "separation": 0.03, "current": 50.0},
            mk.Discretization(24)))),
        currents={"coil_top": 50.0, "coil_bottom": -50.0}),
}


@pytest.mark.parametrize("name", sorted(OFF_PRESET))
def test_field_many_is_bitwise_equal_to_the_reference_off_the_presets(name):
    segs = OFF_PRESET[name]()
    points = kernel_points(segs, 60, np.random.default_rng(7))
    # every vertex, ends included, so that each break column meets a NaN row
    points = np.vstack([points, segs.ends])
    expected = assert_bitwise_equal_to_the_reference(segs, points)
    assert np.isnan(expected[:, 0]).sum() >= 2


# a few exact coordinates, with both signed zeros, so that polylines repeat
# vertices, points land on vertices and segments, and a break can join
# 0.0 to -0.0
exact = st.sampled_from([-0.5, -0.0, 0.0, 0.25, 1.0])
vertex = st.tuples(exact, exact, exact)
anywhere = st.floats(-1.5, 1.5)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.lists(vertex, min_size=2, max_size=6),
                          st.floats(-10.0, 10.0)), min_size=1, max_size=4),
       st.lists(st.one_of(vertex, st.tuples(anywhere, anywhere, anywhere)),
                min_size=1, max_size=20))
def test_field_many_is_bitwise_equal_to_the_reference_property(polylines,
                                                               raw_points):
    # each polyline's segments chain; a break falls between polylines and
    # wherever a repeated vertex would give a zero-length segment
    segments = [(a, b, current) for vertices, current in polylines
                for a, b in zip(vertices, vertices[1:]) if a != b]
    assume(segments)
    starts, ends, currents = zip(*segments)
    segs = mk.SegmentList(starts, ends, currents, ["g"] * len(segments))
    assert_bitwise_equal_to_the_reference(segs, np.array(raw_points))


@pytest.mark.parametrize("length", [1e-6, MAX_LENGTH])
def test_singular_screen_at_extreme_lengths(length):
    eps = mk.EPS_SING
    # three orthonormal directions
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    v = np.array([2.0, -2.0, 1.0]) / 3.0
    w = np.array([2.0, 1.0, -2.0]) / 3.0
    a = np.array([0.1, -0.2, 0.3])
    b, c = a + length * u, a + length * (u + v)
    d = a + 3.0 * length * w
    e = d + length * u
    # a -> b -> c turns a right angle at the chained vertex b; c and e are
    # break vertices, and d -> e starts after a break
    segs = mk.SegmentList([a, b, d], [b, c, e], [1.0, -2.0, 3.0], ["g"] * 3)
    points, inside = [], []
    for start, end, along in ((a, b, u), (b, c, v), (d, e, u)):
        for f in (0.99, 1.01):
            r = f * eps
            points += [0.5 * (start + end) + r * w,   # off the interior
                       start + r * w, end + r * w,    # off each end
                       start - r * along, end + r * along]  # beyond each end
            inside += [f < 1.0] * 5
    points = np.array(points)
    B = assert_bitwise_equal_to_the_reference(segs, points)
    assert np.array_equal(np.isnan(B).any(axis=1), inside)
    assert np.isnan(B[inside]).all()


@pytest.mark.parametrize("variant", ["TwoPiece", "AntiHelmholtz"])
@pytest.mark.parametrize("n", [50, 2000])
def test_field_many_temporaries_stay_under_2_mb(variant, n):
    # the README promises about 1.5 MB of kernel temporaries at any size
    segs = mk.build(mk.GeometrySpec(variant))
    points = np.random.default_rng(0).uniform(-8e-3, 8e-3, size=(n, 3))
    tracemalloc.start()
    try:
        B = mk.field_many(segs, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - B.nbytes < 2e6


def test_field_many_nan_rows_exactly_within_eps_sing():
    eps = mk.EPS_SING
    segs = mk.make_free_path([(0, 0, 0), (1, 0, 0), (1, 1, 0)], 1.0)
    singular = [(0.0, 0.0, 0.0),              # end vertex of the path
                (1.0, 0.0, 0.0),              # corner vertex
                (0.5, 0.0, 0.0),              # mid-segment
                (0.5, 0.5 * eps, 0.0),        # inside the tube
                (-0.5 * eps, 0.0, 0.0),       # just past the end, t < 0
                (1.0, 1.0 + 0.5 * eps, 0.0)]  # just past the end, t > 1
    regular = [(0.5, 2.0 * eps, 0.0),
               (0.5, 0.0, -2.0 * eps),
               (-2.0 * eps, 0.0, 0.0),        # collinear extension
               (-0.5, 0.0, 0.0),
               (1.0, 3.0, 0.0),
               (0.3, 0.4, 0.5)]
    B = mk.field_many(segs, singular + regular)
    assert np.all(np.isnan(B[:len(singular)]))
    assert np.all(np.isfinite(B[len(singular):]))
    assert_matches_brute_force(segs, np.array(regular))


def test_field_many_matches_brute_force_on_presets():
    rng = np.random.default_rng(11)
    for variant in ("AntiHelmholtz", "TwoPiece"):
        segs = mk.build(mk.GeometrySpec(variant))
        points = rng.uniform(-8e-3, 8e-3, size=(20, 3))
        assert_matches_brute_force(segs, points)


def test_field_many_accepts_one_point_and_rejects_bad_shapes():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    p = np.array([0.01, 0.02, 0.0])
    assert mk.field_many(segs, p).shape == (1, 3)
    assert mk.field_many(segs, p)[0].tobytes() == mk.field_at(segs, p).tobytes()
    assert mk.field_many(segs, np.empty((0, 3))).shape == (0, 3)
    with pytest.raises(InvalidInput):
        mk.field_many(segs, np.zeros((4, 2)))


coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
vectors = st.tuples(coords, coords, coords)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.lists(st.tuples(vectors, vectors, st.floats(-10.0, 10.0)),
                min_size=1, max_size=12),
       st.lists(vectors, min_size=1, max_size=25))
def test_field_many_matches_brute_force_property(raw_segments, raw_points):
    starts = np.array([a for a, _, _ in raw_segments])
    ends = np.array([b for _, b, _ in raw_segments])
    assume(np.all(np.linalg.norm(ends - starts, axis=1) > 0.05))
    segs = mk.SegmentList(starts, ends, [c for _, _, c in raw_segments],
                          ["g"] * len(raw_segments))
    points = np.array(raw_points)
    # the closed form loses digits near a wire, in either summation order
    dist = np.array([mk.field._distance_to_segments(p, starts, ends).min()
                     for p in points])
    assume(np.all(dist > 0.05))
    assert_matches_brute_force(segs, points)
