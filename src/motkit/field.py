"""Analytic Biot-Savart evaluation over finite straight filaments.

The field of one filament uses the closed form

    B = (mu0 I / 4 pi) * (|r1| + |r2|) * (r1 x r2)
        / ( |r1| |r2| ( |r1| |r2| + r1.r2 ) )

with r1, r2 the vectors from the segment ends to the field point.  This is
exact for a finite straight wire, vanishes identically on the collinear
extension, and is singular only on the segment itself.  `field_many`
evaluates it for many points at once and marks points within EPS_SING of a
filament as NaN rows; `field_at` raises SingularPoint for them instead.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, InvalidInput, SingularPoint
from .geometry import SegmentList

MU_0 = 4.0 * math.pi * 1e-7  # T m / A, exact by convention here
EPS_SING = 1e-7              # m: singular tube radius around each filament
_CHUNK_PAIRS = 8192          # point-segment pairs per kernel chunk

CSV_HEADER = "x_m,y_m,z_m,Bx_T,By_T,Bz_T,Bmag_G"


def _distance_to_segments(p, starts, ends):
    line = ends - starts
    r1 = p - starts
    t = np.einsum("ij,ij->i", r1, line) / np.einsum("ij,ij->i", line, line)
    t = np.clip(t, 0.0, 1.0)
    closest = starts + t[:, None] * line
    return np.linalg.norm(p - closest, axis=1)


def _segment_data(segments: SegmentList):
    """Per-segment kernel inputs, one row per component: starts, ends and
    direction l as (3, n), then |l|^2 and mu0 I / 4 pi as (n,)."""
    a = np.ascontiguousarray(segments.starts.T)
    b = np.ascontiguousarray(segments.ends.T)
    line = b - a
    length_sq = line[0] * line[0] + line[1] * line[1] + line[2] * line[2]
    return a, b, line, length_sq, MU_0 / (4.0 * math.pi) * segments.currents


def _field_chunk(seg, points) -> np.ndarray:
    """Field rows of a few points in a (points, segments) layout.

    Each row sums over the segments in stored order along a contiguous
    axis, so a row does not depend on which other points share the chunk.
    """
    a, b, line, length_sq, k = seg
    x, y, z = points[:, 0:1], points[:, 1:2], points[:, 2:3]
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
        # collinear-outside points: cross == 0 while denom > 0; keep the 0/denom
        coef = k * (n1 + n2) / (n12 * (n12 + (r1x * r2x + r1y * r2y + r1z * r2z)))
        out = np.empty((points.shape[0], 3))
        out[:, 0] = (coef * cx).sum(axis=1)
        out[:, 1] = (coef * cy).sum(axis=1)
        out[:, 2] = (coef * cz).sum(axis=1)
        # A point is singular when its squared distance d2 to a segment is
        # below EPS_SING^2: with t = (r1.l) / |l|^2, d2 is |r1|^2 for t <= 0,
        # |r2|^2 for t >= 1 and |r1 x r2|^2 / |l|^2 between.  That last term
        # is the distance to the segment's line and never exceeds d2, so d2
        # is needed only on rows where it falls below twice the bound.
        cross_sq = cx * cx + cy * cy + cz * cz
        near = np.flatnonzero(
            (cross_sq < 2.0 * EPS_SING * EPS_SING * length_sq).any(axis=1))
        if near.size:
            along = (r1x[near] * line[0] + r1y[near] * line[1]
                     + r1z[near] * line[2])
            dist_sq = np.where(along <= 0.0, n1_sq[near],
                               np.where(along >= length_sq, n2_sq[near],
                                        cross_sq[near] / length_sq))
            out[near[(dist_sq < EPS_SING * EPS_SING).any(axis=1)]] = np.nan
    return out


def field_many(segments: SegmentList, points) -> np.ndarray:
    """Field at many points (tesla, (N, 3)); singular points give NaN rows.

    Points are walked in chunks of at most _CHUNK_PAIRS point-segment pairs
    (at least one point each), which bounds the temporaries and keeps them
    in cache.  The result is bitwise independent of the chunk size.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != 3:
        raise InvalidInput("field points must be an (N, 3) array")
    seg = _segment_data(segments)
    rows = max(1, _CHUNK_PAIRS // len(segments))
    out = np.empty(points.shape)
    for start in range(0, points.shape[0], rows):
        out[start:start + rows] = _field_chunk(seg, points[start:start + rows])
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
            f"point {p.tolist()} within {EPS_SING:g} m of segment {idx}",
            segment_index=idx)
    return b


@dataclass(frozen=True)
class FieldMap:
    """Samples of B over a line or grid, row-major in `positions`."""

    positions: np.ndarray  # (N, 3) m
    B: np.ndarray          # (N, 3) tesla, NaN rows are singular gaps
    shape: tuple           # (n,) for lines, (n1, n2) for planes

    @property
    def magnitude(self) -> np.ndarray:
        return np.linalg.norm(self.B, axis=1)


def _finish_map(segments, positions, shape):
    B = field_many(segments, positions)
    if np.all(np.isnan(B[:, 0])):
        raise EmptySample("every sample point is singular")
    return FieldMap(positions=positions, B=B, shape=shape)


def sample_line(segments: SegmentList, origin, direction, half_range,
                n) -> FieldMap:
    """n equally spaced samples on origin +- half_range * direction."""
    if n < 1:
        raise InvalidInput("need at least one sample")
    origin = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise InvalidInput("direction must be non-zero")
    d = d / norm
    s = np.linspace(-half_range, half_range, n) if n > 1 else np.array([0.0])
    positions = origin + s[:, None] * d
    return _finish_map(segments, positions, (n,))


def sample_plane(segments: SegmentList, center, axis1, axis2, half_ranges,
                 n1, n2) -> FieldMap:
    """Row-major n1 x n2 grid over center + u*axis1 + v*axis2."""
    if n1 < 1 or n2 < 1:
        raise InvalidInput("need at least one sample per axis")
    center = np.asarray(center, dtype=float)
    a1 = np.asarray(axis1, dtype=float)
    a2 = np.asarray(axis2, dtype=float)
    if np.linalg.norm(a1) == 0 or np.linalg.norm(a2) == 0:
        raise InvalidInput("plane axes must be non-zero")
    a1 = a1 / np.linalg.norm(a1)
    a2 = a2 / np.linalg.norm(a2)
    h1, h2 = half_ranges if np.iterable(half_ranges) else (half_ranges, half_ranges)
    u = np.linspace(-h1, h1, n1) if n1 > 1 else np.array([0.0])
    v = np.linspace(-h2, h2, n2) if n2 > 1 else np.array([0.0])
    positions = (center
                 + u[:, None, None] * a1
                 + v[None, :, None] * a2).reshape(-1, 3)
    return _finish_map(segments, positions, (n1, n2))


def field_map_csv(fmap: FieldMap) -> str:
    """CSV rendering: x_m,y_m,z_m,Bx_T,By_T,Bz_T,Bmag_G (gaps as nan)."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    mag_gauss = fmap.magnitude * 1e4
    for (x, y, z), (bx, by, bz), bm in zip(fmap.positions, fmap.B, mag_gauss):
        buf.write(f"{x:.9e},{y:.9e},{z:.9e},{bx:.9e},{by:.9e},{bz:.9e},{bm:.9e}\n")
    return buf.getvalue()
