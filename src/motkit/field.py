"""Analytic Biot-Savart evaluation over finite straight filaments.

The field of one filament uses the closed form

    B = (mu0 I / 4 pi) * (|r1| + |r2|) * (r1 x r2)
        / ( |r1| |r2| ( |r1| |r2| + r1.r2 ) )

with r1, r2 the vectors from the segment ends to the field point.  This is
exact for a finite straight wire, vanishes identically on the collinear
extension, and is singular only on the segment itself.  `field_many`
evaluates it for many points at once and marks points within EPS_SING of a
filament as NaN rows; `field_at` raises SingularPoint for them instead.
`field_many` walks the points in chunks that write into one set of scratch
arrays, allocated once per call; the rows are bitwise the same whatever the
chunk size.

Consecutive filaments of a path share a vertex, so each vertex's offset
p - v and distance |p - v| are formed once per point: r2 and |r2| of a
segment are r1 and |r1| of the next one, and only the breaks (a segment
whose end is not the next one's start, and the last segment) form their
own.  Singular points are screened with one compare per pair on a sum the
field needs anyway: by the triangle inequality a point within d of a
segment has |r1| + |r2| <= |l| + 2d, so only rows with some
|r1| + |r2| < |l| + 4 EPS_SING can lie within EPS_SING of a filament, and
only those rows compute the exact distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, InvalidInput, SingularPoint
from .geometry import SegmentList

MU_0 = 4.0 * math.pi * 1e-7  # T m / A, exact by convention here
EPS_SING = 1e-7              # m: singular tube radius around each filament
_CHUNK_PAIRS = 8192          # point-segment pairs per kernel chunk

CSV_HEADER = "x_m,y_m,z_m,Bx_T,By_T,Bz_T,Bmag_G"
_CSV_ROW = "%.9e," * 6 + "%.9e\n"
# rows per %-format: bounds the tuple of Python floats that one format takes,
# so a map's CSV peaks no higher than the text itself
_CSV_BLOCK = 256


def _distance_to_segments(p, starts, ends):
    line = ends - starts
    r1 = p - starts
    t = np.einsum("ij,ij->i", r1, line) / np.einsum("ij,ij->i", line, line)
    t = np.clip(t, 0.0, 1.0)
    closest = starts + t[:, None] * line
    return np.linalg.norm(p - closest, axis=1)


def field_many(segments: SegmentList, points) -> np.ndarray:
    """Field at many points (tesla, (N, 3)); singular points give NaN rows.

    Points are walked in chunks of at most _CHUNK_PAIRS point-segment pairs
    (at least one point each), which bounds the scratch arrays and keeps
    them in cache.  The scratch is allocated once per call, sized for one
    chunk, and every chunk writes into it (the last one into leading
    views), so no chunk allocates (points x segments) temporaries.  Each
    row sums over the segments in stored order along a contiguous axis, so
    the result is bitwise independent of the chunk size.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != 3:
        raise InvalidInput("field points must be an (N, 3) array")
    n = len(segments)
    # segment ends a, b as (2, 3, n), one row per component
    ends = np.array([segments.starts.T, segments.ends.T])
    line = ends[1] - ends[0]
    length_sq = line[0] * line[0] + line[1] * line[1] + line[2] * line[2]
    k = MU_0 / (4.0 * math.pi) * segments.currents
    # a point within d of a segment has |r1| + |r2| <= |l| + 2d; the screen
    # doubles that margin for d = EPS_SING so that rounding cannot drop a row
    reach = np.sqrt(length_sq) + 4.0 * EPS_SING
    # break columns: each segment whose end is not the next one's start, and
    # the last one
    brk = np.flatnonzero(np.append(
        (ends[1, :, :-1] != ends[0, :, 1:]).any(axis=0), True))
    brk_ends = ends[1][:, brk]
    rows = max(1, _CHUNK_PAIRS // n)
    m = min(rows, points.shape[0])
    r1_buf = np.empty((3, m, n))        # point minus segment start
    r2_buf = np.empty((3, m, n))        # point minus segment end
    prod_buf = np.empty((2, 3, m, n))   # products, |r1|, |r2|, k (|r1|+|r2|)
    cross_buf = np.empty((3, m, n))     # r1 x r2
    dot_buf = np.empty((m, n))          # r1.r2, then the denominator
    tmp_buf = np.empty((m, n))          # |r1|^2, |r1||r2|, then coef
    hit_buf = np.empty((m, n), dtype=bool)
    brk_buf = np.empty((2, 3, m, brk.size))  # r2 at the breaks, squared
    brk_norm_buf = np.empty((m, brk.size))   # |r2| at the breaks
    out = np.empty(points.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, points.shape[0], rows):
            p = points[start:start + rows]
            t = p.shape[0]
            r1, r2, cross = r1_buf[:, :t], r2_buf[:, :t], cross_buf[:, :t]
            prod, dot, tmp = prod_buf[:, :, :t], dot_buf[:t], tmp_buf[:t]
            rb, rb_sq = brk_buf[0, :, :t], brk_buf[1, :, :t]
            rb_norm, hit = brk_norm_buf[:t], hit_buf[:t]
            np.subtract(p.T[:, :, None], ends[0][:, None, :], out=r1)
            # r2 of each segment is r1 of the next one, except at the breaks
            np.copyto(r2[:, :, :-1], r1[:, :, 1:])
            np.subtract(p.T[:, :, None], brk_ends[:, None, :], out=rb)
            r2[:, :, brk] = rb
            # r1 x r2 = (r1y r2z, r1z r2x, r1x r2y)
            #         - (r1z r2y, r1x r2z, r1y r2x)
            np.multiply(r1[1:], r2[2::-2], out=prod[0, :2])
            np.multiply(r1[0], r2[1], out=prod[0, 2])
            np.multiply(r1[2::-2], r2[1:], out=prod[1, :2])
            np.multiply(r1[1], r2[0], out=prod[1, 2])
            np.subtract(prod[0], prod[1], out=cross)
            # |r1|, and |r2| shifted from it like r2 from r1
            norm = prod[0, :2]
            np.multiply(r1, r1, out=prod[0])
            np.add(prod[0, 0], prod[0, 1], out=tmp)
            np.add(tmp, prod[0, 2], out=tmp)
            np.sqrt(tmp, out=norm[0])
            np.copyto(norm[1][:, :-1], norm[0][:, 1:])
            np.multiply(rb, rb, out=rb_sq)
            np.add(rb_sq[0], rb_sq[1], out=rb_norm)
            np.add(rb_norm, rb_sq[2], out=rb_norm)
            np.sqrt(rb_norm, out=rb_norm)
            norm[1][:, brk] = rb_norm
            np.multiply(r1, r2, out=prod[1])
            np.add(prod[1, 0], prod[1, 1], out=dot)
            np.add(dot, prod[1, 2], out=dot)
            np.multiply(norm[0], norm[1], out=tmp)
            np.add(tmp, dot, out=dot)
            np.multiply(tmp, dot, out=dot)
            np.add(norm[0], norm[1], out=prod[0, 2])
            np.less(prod[0, 2], reach, out=hit)
            np.multiply(k, prod[0, 2], out=prod[0, 2])
            # collinear-outside points: cross == 0 while denom > 0; keep
            # the 0/denom
            np.divide(prod[0, 2], dot, out=tmp)
            np.multiply(tmp, cross, out=prod[1])
            np.add.reduce(prod[1], axis=2, out=out[start:start + t].T)
            # A point is singular when its squared distance d2 to a segment
            # is below EPS_SING^2: with u = (r1.l) / |l|^2, d2 is |r1|^2 for
            # u <= 0, |r2|^2 for u >= 1 and |r1 x r2|^2 / |l|^2 between.
            # Only rows that pass the |r1| + |r2| screen can hold such a
            # point, and only they compute d2.
            if hit.any():
                near = np.flatnonzero(hit.any(axis=1))
                a, b, c = r1[:, near], r2[:, near], cross[:, near]
                along = a[0] * line[0] + a[1] * line[1] + a[2] * line[2]
                dist_sq = np.where(
                    along <= 0.0, a[0] * a[0] + a[1] * a[1] + a[2] * a[2],
                    np.where(along >= length_sq,
                             b[0] * b[0] + b[1] * b[1] + b[2] * b[2],
                             (c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
                             / length_sq))
                inside = (dist_sq < EPS_SING * EPS_SING).any(axis=1)
                out[start + near[inside]] = np.nan
    return out


def field_at(segments: SegmentList, p) -> np.ndarray:
    """Superposed field of all segments at point p (tesla).

    The one-point case of `field_many`; a singular point raises
    SingularPoint naming the nearest segment.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise InvalidInput("field point must be a 3-vector")
    b = field_many(segments, p[None, :])[0]
    if np.isnan(b[0]):
        dist = _distance_to_segments(p, segments.starts, segments.ends)
        idx = int(np.argmin(dist))
        raise SingularPoint(
            f"point {p.tolist()} within {EPS_SING:g} m of segment {idx}")
    return b


@dataclass(frozen=True)
class FieldMap:
    """Samples of B over a line or grid, row-major in `positions`."""

    positions: np.ndarray  # (N, 3) m
    B: np.ndarray          # (N, 3) tesla, NaN rows are singular gaps

    @property
    def magnitude(self) -> np.ndarray:
        return np.linalg.norm(self.B, axis=1)


def _sample(segments, center, axes, half_range, n) -> FieldMap:
    """Row-major grid of n points per axis on center +- half_range * axes[i]."""
    if n < 1:
        raise InvalidInput("need at least one sample per axis")
    s = np.linspace(-half_range, half_range, n) if n > 1 else np.array([0.0])
    grid = np.asarray(center, dtype=float)
    for axis in axes:
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise InvalidInput("sample axes must be non-zero")
        grid = grid[..., None, :] + s[:, None] * (axis / norm)
    positions = grid.reshape(-1, 3)
    B = field_many(segments, positions)
    if np.all(np.isnan(B[:, 0])):
        raise EmptySample("every sample point is singular")
    return FieldMap(positions=positions, B=B)


def sample_line(segments: SegmentList, origin, direction, half_range,
                n) -> FieldMap:
    """n equally spaced samples on origin +- half_range * direction."""
    return _sample(segments, origin, (direction,), half_range, n)


def sample_plane(segments: SegmentList, center, axis1, axis2, half_range,
                 n) -> FieldMap:
    """Row-major n x n grid over center + u*axis1 + v*axis2, with u and v
    in +- half_range."""
    return _sample(segments, center, (axis1, axis2), half_range, n)


def field_map_csv(fmap: FieldMap) -> str:
    """CSV rendering: x_m,y_m,z_m,Bx_T,By_T,Bz_T,Bmag_G (gaps as nan)."""
    rows = np.column_stack([fmap.positions, fmap.B, fmap.magnitude * 1e4])
    blocks = (rows[i:i + _CSV_BLOCK] for i in range(0, len(rows), _CSV_BLOCK))
    return CSV_HEADER + "\n" + "".join(
        _CSV_ROW * len(b) % tuple(b.ravel().tolist()) for b in blocks)
