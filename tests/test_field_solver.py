"""Analytic oracles and sampler behaviour for the Biot-Savart solver."""
import decimal
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import motkit as mk
from motkit.errors import EmptySample, InvalidInput, SingularPoint
from motkit.field import _CANCEL, _CHUNK_PAIRS, _CSV_BLOCK, _CsvBlock
from motkit.geometry import MAX_LENGTH


def test_loop_center_matches_analytic():
    r, current, n = 0.025, 1.0, 1000
    loop = mk.make_loop((0, 0, 0), r, current, n)
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
        loop = mk.make_loop((0, 0, 0), r, current, n)
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
    with pytest.raises(SingularPoint, match=r"of segment 0$"):
        mk.field_at(segs, np.array([0.5, 0.0, 0.0]))


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
        segments_per_turn=60))
    fmap = mk.sample_line(segs, (0, 0, 0), (0, 0, 2.0), 0.004, 9)
    assert fmap.positions.shape == (9, 3)
    assert fmap.positions[0] == pytest.approx([0, 0, -0.004])
    assert fmap.positions[-1] == pytest.approx([0, 0, 0.004])
    # anti-Helmholtz axis: Bz odd in z
    assert fmap.B[0, 2] == pytest.approx(-fmap.B[-1, 2], rel=1e-9)


def test_sample_plane_row_major_order():
    segs = mk.make_free_path([(0, 0, -5), (0, 0, 5)], 1.0)
    fmap = mk.sample_plane(segs, (0.1, 0, 0), (1, 0, 0), (0, 1, 0), 0.01, 3)
    assert fmap.positions.shape == (9, 3)
    # row-major: the second axis varies fastest
    assert fmap.positions[0] == pytest.approx([0.09, -0.01, 0.0])
    assert fmap.positions[1] == pytest.approx([0.09, 0.0, 0.0])
    assert fmap.positions[3] == pytest.approx([0.10, -0.01, 0.0])


def test_singular_samples_become_nan_gaps():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    fmap = mk.sample_line(segs, (0, 0, 0), (1, 0, 0), 0.01, 5)
    assert np.all(np.isnan(fmap.B[2]))          # the on-axis sample
    assert np.all(np.isfinite(fmap.B[[0, 1, 3, 4]]))
    assert np.isnan(np.linalg.norm(fmap.B, axis=1)[2])


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
        in zip(fmap.positions, fmap.B, np.linalg.norm(fmap.B, axis=1) * 1e4))
    assert "nan" in expected
    written = mk.field_map_csv(fmap).split("\n")
    wanted = expected.split("\n")
    differ = [(i, w, e) for i, (w, e) in enumerate(zip(written, wanted))
              if w != e]
    if differ or len(written) != len(wanted):
        pytest.fail(f"{len(written)} lines written, {len(wanted)} expected; "
                    f"{len(differ)} rows differ (index, written, expected): "
                    f"{differ[:3]}")


def assert_reads_as_per_value_format(values):
    """The writer's text for a run of values, seven to a row, equals
    '%.9e' % value for each value; a failure lists the values that differ."""
    values = np.asarray(values, dtype=float).reshape(-1)
    text = _CsvBlock(values.size).render(values)
    fields = ["%.9e" % v for v in values.tolist()]
    expected = "".join(",".join(fields[i:i + 7]) + "\n"
                       for i in range(0, len(fields), 7))
    if text != expected:
        written = re.split("[,\n]", text)
        differ = [(v, w, f)
                  for v, w, f in zip(values.tolist(), written, fields) if w != f]
        pytest.fail(f"{len(differ)} values differ (value, written, '%.9e'): "
                    f"{differ[:5]}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                   allow_subnormal=True),
                         min_size=7, max_size=7),
                min_size=1, max_size=8))
def test_csv_values_read_as_the_per_value_format(rows):
    assert_reads_as_per_value_format(rows)


def hard_values():
    """Values where an estimate of the decimal rounding could go wrong."""
    rng = np.random.default_rng(3)
    k = rng.integers(10 ** 9, 10 ** 10, 200).astype(float)
    e = rng.integers(-99, 100, 200)
    # the midpoints (k + 0.5) 10^(e - 9) and up to 4 ulp either side
    middles = (k + 0.5) * 10.0 ** (e - 9).astype(float)
    tens = np.array([float("1e%d" % i) for i in range(-101, 102)])
    centres = np.concatenate([
        middles, tens, 9.9999999995 * tens, [9.9999999995e-5],
        # exact binary ties of the tenth digit
        [12345678905.0, 1234567890.5, 9999999999.5, 98765432105.0],
        # every binary exponent, subnormals included
        np.ldexp(1.0, np.arange(-1074, 1024))])
    near = [centres]
    with np.errstate(over="ignore"):
        for towards in (0.0, np.inf):
            step = centres
            for _ in range(4):
                step = np.nextafter(step, towards)
                near.append(step)
    special = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
               5e-324, 1e99, 1e-99, 1e100, 1e-100, 1.7976931348623157e308]
    values = np.concatenate(near + [special])
    values = np.concatenate([values, -values])
    return np.concatenate([values, np.zeros(-len(values) % 7)])


def test_csv_hard_values_read_as_the_per_value_format():
    values = hard_values()
    # a block of the writer's size, then the rest in shorter ones
    for start in range(0, len(values), 7 * _CSV_BLOCK):
        assert_reads_as_per_value_format(values[start:start + 7 * _CSV_BLOCK])


def test_csv_temporaries_stay_under_half_a_megabyte():
    # an 81 x 81 plane: the writer's scratch is bounded by its block size,
    # and the text is never held twice
    segs = mk.build(mk.GeometrySpec("AntiHelmholtz", {}, 24))
    fmap = mk.sample_plane(segs, (0, 0, 0), (1, 0, 0), (0, 1, 0), 0.01, 81)
    tracemalloc.start()
    try:
        text = mk.field_map_csv(fmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 5e5
    assert peak - sys.getsizeof(text) < 5e5


def test_direction_must_be_nonzero():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    with pytest.raises(InvalidInput):
        mk.sample_line(segs, (0, 0, 0), (0, 0, 0), 0.01, 5)


@pytest.mark.parametrize("center, direction, half_range", [
    ((0, 0, 0), (1, 0, 0), math.nan),
    ((0, 0, 0), (1, 0, 0), math.inf),
    ((0, math.nan, 0), (1, 0, 0), 0.01),
    ((0, 0, 0), (1, 0, -math.inf), 0.01),
])
def test_non_finite_sampler_input_is_invalid(center, direction, half_range):
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    with pytest.raises(InvalidInput, match="finite"):
        mk.sample_line(segs, center, direction, half_range, 5)
    with pytest.raises(InvalidInput, match="finite"):
        mk.sample_plane(segs, center, direction, (0, 1, 0), half_range, 5)


def test_non_finite_field_point_is_invalid():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    for p in ([math.nan, 0, 0], [0, math.inf, 0]):
        with pytest.raises(InvalidInput, match="finite"):
            mk.field_at(segs, p)
        with pytest.raises(InvalidInput, match="finite"):
            mk.field_many(segs, [[0.1, 0, 0], p])


def test_field_point_must_be_vector():
    segs = mk.make_free_path([(0, 0, -1), (0, 0, 1)], 1.0)
    with pytest.raises(InvalidInput):
        mk.field_at(segs, np.zeros((2, 3)))


def brute_force(segments, p):
    """Per-segment Biot-Savart sum in scalar arithmetic, segment by segment.

    Where |r1||r2| + r1.r2 cancels, it is formed as the kernel forms it, as
    |r1 x r2|² / (|r1||r2| - r1.r2), in the same pairs.  Returns the field
    and the sum of the per-segment magnitudes, the scale against which the
    batched kernel's rounding is judged.
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
        line = [b[i] - a[i] for i in range(3)]
        length = math.sqrt(sum(v * v for v in line))
        if dot < 0.0 and n1 + n2 < length * (1.0 + _CANCEL):
            denom = sum(v * v for v in cross) / (n1 * n2 - dot)
        else:
            denom = n1 * n2 + dot
        coef = 1e-7 * current * (n1 + n2) / (n1 * n2 * denom)
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
        segments_per_turn=90))
    points = kernel_points(segs, 200, np.random.default_rng(3))
    reference = mk.field_many(segs, points)
    assert np.isnan(reference[:, 0]).sum() >= 2
    for chunk in (1, 7, _CHUNK_PAIRS, 1 << 20):
        monkeypatch.setattr(mk.field, "_CHUNK_PAIRS", chunk)
        B = mk.field_many(segs, points)
        assert B.tobytes() == reference.tobytes(), chunk


def reference_field(segments, points):
    """The kernel written with fresh numpy temporaries per chunk, in the same
    per-element operations and order; field_many must match it bitwise.
    Where r1.r2 < 0 and |r1| + |r2| < |l| (1 + _CANCEL), the denominator's
    |r1||r2| + r1.r2 is formed as |r1 x r2|² / (|r1||r2| - r1.r2)."""
    a = np.ascontiguousarray(segments.starts.T)
    b = np.ascontiguousarray(segments.ends.T)
    line = b - a
    length_sq = line[0] * line[0] + line[1] * line[1] + line[2] * line[2]
    cancel_reach = np.sqrt(length_sq) * (1.0 + _CANCEL)
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
            dot = r1x * r2x + r1y * r2y + r1z * r2z
            cross_sq = cx * cx + cy * cy + cz * cz
            cancel = (dot < 0.0) & (n1 + n2 < cancel_reach)
            coef = k * (n1 + n2) / (
                n12 * np.where(cancel, cross_sq / (n12 - dot), n12 + dot))
            rows_out = np.empty((chunk.shape[0], 3))
            rows_out[:, 0] = (coef * cx).sum(axis=1)
            rows_out[:, 1] = (coef * cy).sum(axis=1)
            rows_out[:, 2] = (coef * cz).sum(axis=1)
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


# tools/byte_identity.py's SQUARE_PAIR in metres: a 20 mm square 5 mm above
# the centre, then down at its first corner and round the square the other
# way 5 mm below it
SQUARE_PAIR = 1e-3 * np.array(
    [[-10, -10, 5], [10, -10, 5], [10, 10, 5], [-10, 10, 5], [-10, -10, 5],
     [-10, -10, -5], [-10, 10, -5], [10, 10, -5], [10, -10, -5], [-10, -10, -5]])


def square_pairs():
    """SQUARE_PAIR as a closed FreePath at 5 A, then the same path 1.5 times
    larger at -5 A: straight segments up to 30 mm long, and a break mid-list
    where the first path closes.  One closed path alone breaks only at its
    last segment."""
    paths = [mk.build(mk.GeometrySpec("FreePath", {
        "points": (k * SQUARE_PAIR).tolist(), "closed": True,
        "current": current})) for k, current in ((1.0, 5.0), (1.5, -5.0))]
    return mk.SegmentList(*(np.concatenate([getattr(p, name) for p in paths])
                            for name in ("starts", "ends", "currents")),
                          paths[0].group_ids + paths[1].group_ids)


PRESETS = ("AntiHelmholtz", "TwoPiece", "CompactFour", "TwistedCage")
# segment counts that are not a multiple of the 8 doubles of a cache line:
# a call on 9 segments stays below the pair count from which it allocates
# its own scratch, and a map on 1001 segments reaches it
ODD_COUNTS = {
    "FreePath9": lambda: mk.make_free_path(
        [(0.02 * math.cos(a), 0.03 * math.sin(a), 0.002 * a)
         for a in np.linspace(0.0, 5.0, 10)], -1.5),
    "Loop1001": lambda: mk.make_loop((1e-3, 0.0, 0.01), 0.03, 2.0, 1001),
}


@pytest.mark.parametrize("variant", PRESETS + ("FreePath",)
                         + tuple(ODD_COUNTS))
def test_field_many_is_bitwise_equal_to_the_reference(monkeypatch, variant):
    segs = (square_pairs() if variant == "FreePath"
            else ODD_COUNTS[variant]() if variant in ODD_COUNTS
            else mk.build(mk.GeometrySpec(variant)))
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


# the maps `motkit simulate` writes: three axis scans and three planes
SCANS = (((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),))
PLANES = (((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)),
          ((0, 0, 1), (0, 1, 0)))


# planes whose coordinates vary with both indices: y = c + u s_i + v s_j in
# the first, x and y in the second
OBLIQUE = (((1, 1, 0), (0, 1, 1)), ((1, 1, 1), (1, -1, 0)))


def assert_map_is_bitwise_the_reference(segs, center, axes, half_range, n):
    """The map sampled at each block size equals `reference_field` at its
    positions bitwise, and never calls `field_many`: every map takes the
    kernel's grid form."""
    sample = mk.sample_line if len(axes) == 1 else mk.sample_plane
    calls = []

    def field_many(*args):
        calls.append(args)
        return mk.field_many(*args)

    expected = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mk.field, "field_many", field_many)
        for chunk in (1, 7, _CHUNK_PAIRS):
            mp.setattr(mk.field, "_CHUNK_PAIRS", chunk)
            fmap = sample(segs, center, *axes, half_range, n)
            if expected is None:
                expected = reference_field(segs, fmap.positions)
            assert fmap.B.tobytes() == expected.tobytes(), (axes, chunk)
    assert not calls, axes
    return expected


@pytest.mark.parametrize("variant", PRESETS)
def test_preset_maps_are_bitwise_the_reference(variant):
    # each map of `motkit simulate` at the presets' analysis settings: 101
    # scan and 21 x 21 plane samples over +-5 mm round the field zero
    segs = mk.build(mk.GeometrySpec(variant))
    zero = mk.find_field_zero(segs).position
    for axes in SCANS:
        assert_map_is_bitwise_the_reference(segs, zero, axes, 5e-3, 101)
    for axes in PLANES:
        assert_map_is_bitwise_the_reference(segs, zero, axes, 5e-3, 21)


def test_even_maps_are_bitwise_the_reference():
    # an even count puts no sample on the zero itself
    segs = mk.build(mk.GeometrySpec("TwoPiece", segments_per_turn=24))
    zero = mk.find_field_zero(segs).position
    for axes in SCANS + PLANES:
        assert_map_is_bitwise_the_reference(segs, zero, axes, 4e-3, 20)


def test_oblique_and_signed_zero_maps_are_bitwise_the_reference():
    segs = mk.build(mk.GeometrySpec("AntiHelmholtz", segments_per_turn=24))
    centre = (1e-3, -2e-3, 5e-4)
    # x and y vary with the row only and z with the column only, bitwise
    assert_map_is_bitwise_the_reference(
        segs, centre, ((1, 1, 0), (0, 0, 1)), 3e-3, 9)
    for axes in OBLIQUE:
        assert_map_is_bitwise_the_reference(segs, centre, axes, 3e-3, 9)
    # -0.0 + s 0.0 is -0.0 or 0.0 with the sign of s, so the coordinate
    # that neither axis moves varies with the row, and then with the column
    for axes in PLANES:
        assert_map_is_bitwise_the_reference(
            segs, (-0.0, -0.0, -0.0), axes, 3e-3, 9)


@pytest.mark.parametrize("variant, aligned", [("FreePath9", False),
                                              ("Loop1001", True)])
def test_odd_count_maps_are_bitwise_the_reference(variant, aligned):
    segs = ODD_COUNTS[variant]()
    # a 21 x 21 map on 9 segments takes its scratch from the thread's
    # workspace; on 1001 segments it allocates its own from `_aligned`
    with mk.field._Kernel(segs, 21 * 21) as kernel:
        assert (kernel.workspace is None) == aligned
    for axes in PLANES + OBLIQUE:
        assert_map_is_bitwise_the_reference(segs, (2e-3, -1e-3, 0.01), axes,
                                            0.03, 21)
    for axes in PLANES:
        assert_map_is_bitwise_the_reference(segs, (-0.0, -0.0, -0.0), axes,
                                            0.03, 21)


@pytest.mark.parametrize("shape, dtype", [
    ((5,), float), ((3, 9), float), ((2, 3, 7, 1001), float),
    ((4, 1, 5170), float), ((3, 11, 13), bool), ((2, 0, 9), float)])
def test_aligned_puts_every_plane_on_a_cache_line(shape, dtype):
    a = mk.field._aligned(shape, dtype)
    b = mk.field._aligned(shape, dtype)
    assert a.shape == shape and a.dtype == dtype
    # each plane over the last two axes starts on a line, unpadded within;
    # an empty one, as for a call of no points, has no memory to place
    for index in np.ndindex(shape[:-2] if a.size else ()):
        assert a[index].ctypes.data % 64 == 0, index
        assert a[index].flags.c_contiguous, index
    assert not np.shares_memory(a, b)
    b[...] = 1
    a[...] = 0
    assert (b == 1).all()


def test_vertex_hitting_planes_are_bitwise_the_reference():
    # the benchmark's field-map geometry: 81 x 81 planes over +-50 mm hit
    # the coil vertices at (+-50, 0, +-25) and (0, +-50, +-25) mm, which
    # give NaN rows
    segs = mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": 0.05, "separation": 0.05,
                          "current": 100.0}))
    zero = mk.find_field_zero(segs).position
    for axes in PLANES[1:]:
        B = assert_map_is_bitwise_the_reference(segs, zero, axes, 0.05, 81)
        assert np.isnan(B[:, 0]).sum() == 4


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
    inside = np.array(inside)
    B = assert_bitwise_equal_to_the_reference(segs, points)
    assert np.array_equal(np.isnan(B).any(axis=1), inside)
    assert np.isnan(B[inside]).all()
    assert np.isfinite(B[~inside]).all()


@pytest.mark.parametrize("variant", ["TwoPiece", "AntiHelmholtz"])
@pytest.mark.parametrize("n", [50, 2000])
def test_field_many_temporaries_stay_under_2_mb(variant, n):
    # the README gives about 1.2 MB of kernel temporaries at any size:
    # 1.19 MB on AntiHelmholtz and 0.92 MB on TwoPiece, at 50 and 2000 points
    segs = mk.build(mk.GeometrySpec(variant))
    points = np.random.default_rng(0).uniform(-8e-3, 8e-3, size=(n, 3))
    tracemalloc.start()
    try:
        B = mk.field_many(segs, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - B.nbytes < 2e6


@pytest.mark.parametrize("variant, n", [("AntiHelmholtz", 81),
                                        ("TwoPiece", 21)])
def test_sample_plane_temporaries_stay_under_2_mb(variant, n):
    # the grid form's tables and block scratch stay within the same bound
    segs = mk.build(mk.GeometrySpec(variant))
    for axes in PLANES:
        tracemalloc.start()
        try:
            fmap = mk.sample_plane(segs, (1e-4, -2e-4, 3e-4), *axes, 5e-3, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - fmap.B.nbytes - fmap.positions.nbytes < 2e6, axes


def coil(radius, separation, per_turn=24):
    """An anti-Helmholtz pair of 2 * per_turn segments, as the optimizer's
    evaluations build them."""
    return mk.build(mk.GeometrySpec(
        "AntiHelmholtz", {"radius": radius, "separation": separation,
                          "current": 100.0}, segments_per_turn=per_turn))


def small_calls(segs, seed):
    """The point sets of the optimizer's three small calls per evaluation
    (a 7-point stencil, one point, a 123-point fit), the first with a
    singular point on a vertex."""
    rng = np.random.default_rng(seed)
    calls = [rng.uniform(-3e-3, 3e-3, size=(count, 3)) for count in (7, 1, 123)]
    calls[0][3] = segs.starts[5]
    return calls


def test_interleaved_small_calls_are_bitwise_the_reference():
    # two 48-segment geometries share the workspace's layouts; at 720
    # segments the 7- and 1-point calls take other ones and the 123-point
    # call its own scratch
    geometries = [coil(0.04, 0.06), coil(0.03, 0.05), coil(0.05, 0.05, 360)]
    assert [len(segs) for segs in geometries] == [48, 48, 720]
    cases = [(segs, points, reference_field(segs, points))
             for k, segs in enumerate(geometries)
             for points in small_calls(segs, k)]
    assert np.isnan(cases[0][2][3, 0])
    for _ in range(3):
        for segs, points, expected in cases:
            B = mk.field_many(segs, points)
            assert B.tobytes() == expected.tobytes()


def test_two_live_kernels_keep_their_own_segment_tables():
    first, second = coil(0.04, 0.06), coil(0.03, 0.05)
    points = small_calls(first, 1)[2]
    a = mk.field._Kernel(first, len(points))
    b = mk.field._Kernel(second, len(points))
    for name in ("starts", "k", "reach"):
        assert not np.shares_memory(getattr(a, name), getattr(b, name))
    with a:
        B = a.points(points)
    assert B.tobytes() == reference_field(first, points).tobytes()
    with b:
        assert b.points(points).tobytes() == (
            reference_field(second, points).tobytes())
    # the output is a fresh array, which a later call does not overwrite
    mk.field_many(first, points[::-1].copy())
    assert B.tobytes() == reference_field(first, points).tobytes()


def test_call_inside_a_block_takes_its_own_scratch(monkeypatch):
    # the inner call has the outer one's layout, so in the workspace it
    # would overwrite the outer block's tables before its body reads them
    outer, inner = coil(0.04, 0.06), coil(0.03, 0.05)
    points = small_calls(outer, 2)[2]
    inner_points = small_calls(inner, 3)[2]
    sums = mk.field._Kernel._sums
    inner_results = []

    def reentrant(self, *args):
        if not inner_results:
            assert mk.field._workspace.busy
            # marked first, since the inner call's own blocks come here too
            inner_results.append(None)
            inner_results[0] = mk.field_many(inner, inner_points)
        return sums(self, *args)

    monkeypatch.setattr(mk.field._Kernel, "_sums", reentrant)
    B = mk.field_many(outer, points)
    assert B.tobytes() == reference_field(outer, points).tobytes()
    assert inner_results[0].tobytes() == (
        reference_field(inner, inner_points).tobytes())
    assert not mk.field._workspace.busy


def test_threads_keep_their_own_workspaces():
    # more threads than cores, each on its own geometry, switching often
    geometries = [coil(0.04, 0.06), coil(0.03, 0.05), coil(0.05, 0.04),
                  coil(0.035, 0.07)]
    calls = [small_calls(segs, k) for k, segs in enumerate(geometries)]
    serial = [[mk.field_many(segs, points).tobytes() for points in sets]
              for segs, sets in zip(geometries, calls)]
    start = threading.Barrier(len(geometries))
    results = [[] for _ in geometries]

    def run(k):
        start.wait()
        for i in range(50):
            points = calls[k][i % 3]
            results[k].append(mk.field_many(geometries[k], points).tobytes())

    threads = [threading.Thread(target=run, args=(k,))
               for k in range(len(geometries))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(len(geometries)):
        assert results[k] == [serial[k][i % 3] for i in range(50)]


def test_repeated_small_call_allocates_only_its_output():
    segs = coil(0.04, 0.06)
    points = small_calls(segs, 4)[2]
    mk.field_many(segs, points)
    views = dict(mk.field._workspace.views)
    tracemalloc.start()
    try:
        B = mk.field_many(segs, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the call took the views that the first one placed
    assert views and all(mk.field._workspace.views[specs] is arrays
                         for specs, arrays in views.items())
    # the scratch, about 0.8 MB, is the workspace's.  numpy 2.4 still
    # allocates iterator buffers inside a ufunc that broadcasts an operand,
    # as the kernel's segment tables are: up to two of the block's doubles
    buffers = 2 * 8 * len(points) * len(segs)
    assert peak - B.nbytes < buffers + 20e3


def test_workspace_holds_at_most_one_full_block():
    # in a new thread, whose workspace starts empty
    segs = coil(0.04, 0.06)
    n, nb = len(segs), 2      # two closed loops: two break columns
    rows = _CHUNK_PAIRS // n
    points = np.random.default_rng(5).uniform(-3e-3, 3e-3, size=(2000, 3))
    seen = {}

    def run():
        # the largest layout first, so that the smaller ones reuse its
        # buffer and the workspace keeps only the last few sets of views
        for count in range(300, 0, -1):
            mk.field_many(segs, points[:count])
        mk.field_many(segs, points)
        workspace = mk.field._workspace
        seen["bytes"] = workspace.raw.nbytes
        seen["arrays"] = [a for arrays in workspace.views.values()
                          for a in arrays]

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()

    def lines(nbytes):
        return -(-nbytes // 64) * 64

    # 16 planes of doubles and one of booleans over the block's pairs, and
    # 7 planes of doubles at its break columns
    block = (16 * lines(8 * rows * n) + lines(rows * n)
             + 7 * lines(8 * rows * nb))
    assert 0 < seen["bytes"] <= block
    assert len(seen["arrays"]) <= 8 * mk.field._LAYOUTS
    for a in seen["arrays"]:
        for index in np.ndindex(a.shape[:-2]):
            assert a[index].ctypes.data % 64 == 0


def test_failed_workspace_growth_leaves_it_usable(monkeypatch):
    # in a new thread, whose workspace starts empty, so its first small
    # call grows it; that growth fails once, as a MemoryError or an
    # interrupt inside `_aligned` would
    segs = coil(0.04, 0.06)
    points = small_calls(segs, 6)
    aligned = mk.field._aligned
    failures = []

    def failing(shape, dtype=float):
        if not failures:
            failures.append(shape)
            raise MemoryError
        return aligned(shape, dtype)

    monkeypatch.setattr(mk.field, "_aligned", failing)
    seen = {}

    def run():
        try:
            mk.field_many(segs, points[2])
        except MemoryError:
            seen["raised"] = True
        workspace = mk.field._workspace
        seen["busy"] = workspace.busy
        seen["B"] = [mk.field_many(segs, p).tobytes() for p in points]

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert seen["raised"] and failures and not seen["busy"]
    assert seen["B"] == [reference_field(segs, p).tobytes() for p in points]


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


def decimal_field(segments, p):
    """The field at p from the exact values of the float inputs, summed
    over the segments in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        p = [D(v) for v in p]
        total = [D(0)] * 3
        for a, b, current in zip(segments.starts.tolist(),
                                 segments.ends.tolist(),
                                 segments.currents.tolist()):
            r1 = [p[i] - D(a[i]) for i in range(3)]
            r2 = [p[i] - D(b[i]) for i in range(3)]
            n1 = sum(v * v for v in r1).sqrt()
            n2 = sum(v * v for v in r2).sqrt()
            cross = [r1[1] * r2[2] - r1[2] * r2[1],
                     r1[2] * r2[0] - r1[0] * r2[2],
                     r1[0] * r2[1] - r1[1] * r2[0]]
            dot = sum(u * v for u, v in zip(r1, r2))
            coef = (D("1e-7") * D(current) * (n1 + n2)
                    / (n1 * n2 * (n1 * n2 + dot)))
            total = [t + coef * c for t, c in zip(total, cross)]
        return np.array([float(t) for t in total])


@pytest.mark.parametrize("length", [1e-3, 1.0, 100.0, MAX_LENGTH])
@pytest.mark.parametrize("distance", [1.01 * mk.EPS_SING, 1e-6, 1e-3])
def test_near_field_matches_a_50_digit_oracle(length, distance):
    # beside a segment 0.05 L off its middle, where |r1||r2| + r1.r2
    # cancels: a 3 x 3 plane across the wire, whose centre is on it
    segs = mk.make_free_path([(0.0, 0.0, 0.0), (length, 0.0, 0.0)], 1.0)
    fmap = mk.sample_plane(segs, (0.55 * length, 0.0, 0.0), (0, 1, 0),
                           (0, 0, 1), distance, 3)
    off = np.delete(fmap.positions, 4, axis=0)
    expected = np.array([decimal_field(segs, p) for p in off])
    for B in (fmap.B, mk.field_many(segs, fmap.positions)):
        assert np.isnan(B[4]).all()
        B = np.delete(B, 4, axis=0)
        assert np.isfinite(B).all()
        error = (np.linalg.norm(B - expected, axis=1)
                 / np.linalg.norm(expected, axis=1))
        assert error.max() <= 1e-12, error


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
