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
# rows per rendered block: the writer's scratch is about 60 bytes per value,
# so about 0.2 MB at this size
_CSV_BLOCK = 512
# bytes per value in a block: sign or pad, digit, '.', nine digits, 'e',
# exponent sign, two exponent digits, pad, then ',' or '\n'; a value that
# '%.9e' renders itself fills the first _CSV_TEXT bytes, padded
_CSV_SLOT = 18
_CSV_TEXT = _CSV_SLOT - 1
# a rounding decision closer than this to a tie goes to '%.9e'; the float64
# scaled mantissa is within about 3e-6 of the exact one
_CSV_TIE_MARGIN = 1e-4


def _csv_words(texts):
    """Four-byte strings as little-endian uint32 words."""
    return np.frombuffer("".join(texts).encode("ascii"), "<u4")


# Each slot is written as five uint32 words, at offsets 0, 3, 6, 9 and 13.
# The first four overlap by one byte and are written in that order, so the
# next word overwrites each one's junk fourth byte.  The head is indexed by
# 2 * lead digit + negative, where a lead of 10 is a mantissa that rounded
# up to 1e10.
_CSV_HEAD = _csv_words(sign + ("1" if lead == 10 else str(lead)) + ".\0"
                       for lead in range(11) for sign in ("\0", "-"))
_CSV_DIGITS = _csv_words("%03d\0" % i for i in range(1000))
_CSV_DIGITS_E = _csv_words("%03de" % i for i in range(1000))
_CSV_EXPONENT = _csv_words("%+03d\0" % e for e in range(-99, 100))
# 10^(9 - e) at index e + _CSV_SCALE_MID, for every estimate e of a
# two-digit exponent; other estimates are clipped to the ends and fall back
_CSV_SCALE_MID = 110
_CSV_SCALE = np.array([float("1e%d" % (9 - e))
                       for e in range(-_CSV_SCALE_MID, _CSV_SCALE_MID + 1)])


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
    """CSV rendering: x_m,y_m,z_m,Bx_T,By_T,Bz_T,Bmag_G (gaps as nan).

    Every value reads exactly as `'%.9e' % value`.  Rows are rendered in
    blocks of at most _CSV_BLOCK into scratch allocated once per call, and
    each block's text is appended to the result, which CPython grows in
    place, so the text is never held twice.
    """
    count = len(fmap.positions)
    rows = max(1, min(count, _CSV_BLOCK))
    values = np.empty((rows, 7))
    squares = np.empty((rows, 3))
    block = _CsvBlock(7 * rows)
    text = CSV_HEADER + "\n"
    for start in range(0, count, _CSV_BLOCK):
        B = fmap.B[start:start + _CSV_BLOCK]
        t = B.shape[0]
        v = values[:t]
        v[:, :3] = fmap.positions[start:start + _CSV_BLOCK]
        v[:, 3:6] = B
        # |B| in gauss, as FieldMap.magnitude * 1e4 computes it
        mag = v[:, 6]
        np.multiply(B, B, out=squares[:t])
        np.add.reduce(squares[:t], axis=1, out=mag)
        np.sqrt(mag, out=mag)
        mag *= 1e4
        text += block.render(v.reshape(-1))
    return text


class _CsvBlock:
    """Scratch for rendering up to `size` values, seven to a row, as
    `'%.9e'` text.

    Each value gets a _CSV_SLOT-byte slot.  The sign, the decimal exponent e
    and the ten-digit mantissa M = round(|x| 10^(9 - e)) come from float64
    arithmetic, and the digits from tables.  Values the estimate cannot
    decide (a rounding within _CSV_TIE_MARGIN of a tie), three-digit
    exponents, nan and +-inf are rendered by '%.9e' into their slot
    instead.  Pads are NUL bytes, dropped from the block's text.
    """

    def __init__(self, size: int):
        self.slots = np.empty((size // 7, 7, _CSV_SLOT), np.uint8)
        self.slots[:, :, -1] = ord(",")
        self.slots[:, -1, -1] = ord("\n")
        self.slots = self.slots.reshape(size, _CSV_SLOT)
        self.words = [np.ndarray((size,), "<u4", self.slots, offset,
                                 (_CSV_SLOT,)) for offset in (0, 3, 6, 9, 13)]
        self.floats = np.empty((3, size))
        self.ints = np.empty((2, size), np.int32)
        self.flags = np.empty((2, size), bool)

    def render(self, x) -> str:
        n = x.shape[0]
        a, s, m = self.floats[:, :n]
        e, k = self.ints[:, :n]
        bad, flag = self.flags[:, :n]
        head, d1, d2, d3, exponent = (w[:n] for w in self.words)
        with np.errstate(invalid="ignore"):
            np.abs(x, out=a)
            # e = floor(log10 |x|) or one less: floor((e2 - 1) log10 2) for
            # |x| in [2^(e2 - 1), 2^e2), and -1 at 0
            np.frexp(a, out=(s, e))
            e -= 1
            e *= 78913
            e >>= 18
            np.add(e, _CSV_SCALE_MID, out=k)
            np.take(_CSV_SCALE, k, out=s, mode="clip")
            s *= a
            np.greater_equal(s, 1e10, out=flag)
            e += flag
            k += flag
            np.take(_CSV_SCALE, k, out=s, mode="clip")
            s *= a
            np.rint(s, out=m)
            # s - m is exact; nan and +-inf leave it nan
            s -= m
            np.abs(s, out=s)
            np.less_equal(s, 0.5 - _CSV_TIE_MARGIN, out=bad)
            np.logical_not(bad, out=bad)
            # a mantissa that rounded up to 1e10 is 1.000000000e(e + 1)
            np.greater_equal(m, 1e10, out=flag)
            e += flag
            np.equal(a, 0.0, out=flag)
            e += flag
            np.abs(e, out=k)
            np.greater(k, 99, out=flag)
            bad |= flag
            np.add(e, 99, out=k)
            np.take(_CSV_EXPONENT, k, out=exponent, mode="clip")
            # the digits of M, split exactly in float64: M = 1e6 hi + lo
            np.divide(m, 1e6, out=s)
            np.floor(s, out=s)
            np.multiply(s, 1e6, out=a)
            m -= a
            np.divide(s, 1e3, out=a)
            np.floor(a, out=a)
            np.copyto(k, a, casting="unsafe")
            k += k
            np.signbit(x, out=flag)
            k += flag
            np.take(_CSV_HEAD, k, out=head, mode="clip")
            a *= 1e3
            s -= a
            np.copyto(k, s, casting="unsafe")
            np.take(_CSV_DIGITS, k, out=d1, mode="clip")
            np.divide(m, 1e3, out=s)
            np.floor(s, out=s)
            np.copyto(k, s, casting="unsafe")
            np.take(_CSV_DIGITS, k, out=d2, mode="clip")
            s *= 1e3
            m -= s
            np.copyto(k, m, casting="unsafe")
            np.take(_CSV_DIGITS_E, k, out=d3, mode="clip")
        slots = self.slots[:n]
        fallback = np.flatnonzero(bad)
        if fallback.size:
            texts = b"".join(
                ("%.9e" % value).encode("ascii").ljust(_CSV_TEXT, b"\0")
                for value in x[fallback].tolist())
            slots[fallback, :_CSV_TEXT] = np.frombuffer(
                texts, np.uint8).reshape(-1, _CSV_TEXT)
        return slots.tobytes().translate(None, b"\0").decode("ascii")
