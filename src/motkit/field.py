"""Analytic Biot-Savart evaluation over finite straight filaments.

The field of one filament uses the closed form

    B = (mu0 I / 4 pi) * (|r1| + |r2|) * (r1 x r2)
        / ( |r1| |r2| ( |r1| |r2| + r1.r2 ) )

with r1, r2 the vectors from the segment ends to the field point.  This is
exact for a finite straight wire, vanishes identically on the collinear
extension, and is singular only on the segment itself.  `field_many`
evaluates it for many points at once and marks points within EPS_SING of a
filament as NaN rows; `field_at` raises SingularPoint for them instead.
`field_many` walks the points in blocks that write into one set of scratch
arrays, sized for one block; the rows are bitwise the same whatever the
block size.

Consecutive filaments of a path share a vertex, so each vertex's offset
p - v and distance |p - v| are formed once per point: r2 and |r2| of a
segment are r1 and |r1| of the next one, and only the breaks (a segment
whose end is not the next one's start, and the last segment) form their
own.  Singular points are screened with one compare per pair on a sum the
field needs anyway: by the triangle inequality a point within d of a
segment has |r1| + |r2| <= |l| + 2d, so only rows with some
|r1| + |r2| < |l| + 4 EPS_SING can lie within EPS_SING of a filament, and
only their screened pairs compute the exact distance.

Beside a long segment the denominator's |r1||r2| + r1.r2 cancels: it
loses about u / (4 e) of its value, with e = (|r1| + |r2|) / |l| - 1, so
at 1.01 EPS_SING from a 1 km segment it rounded to 0.  The screen is
relative as well, |r1| + |r2| < max(|l| + 4 EPS_SING, |l| (1 + _CANCEL)),
and each screened pair with e < _CANCEL and r1.r2 < 0 takes the same
quantity as |r1 x r2|² / (|r1||r2| - r1.r2), which does not cancel.

`sample_line` and `sample_plane` evaluate every map in the grid form.  Each
coordinate of a map's samples is, bitwise, constant, a function of the row
alone, of the column alone, or, as on an oblique plane, of both.  r1, r2,
their squares and products, and each sum or cross component of two
coordinates are tables formed at the coarsest level their inputs allow:
once per map, once per panel of columns, once per row and panel, or per
block.  In an xy plane that leaves about 21 element operations per pair of
the 39 that `field_many` does; an 81 x 81 plane at 720 segments takes about
0.65 of the time.  One body does the per-pair arithmetic for both forms
with the same element operations, so a map is bitwise `field_many` at its
positions.  The tables, segment data and block scratch stay within about
1.75 MB.

Every component plane of the kernel's scratch (a block's rows by the
segments), and of a large call's segment tables, starts on a 64-byte cache
line, and is padded, not its rows, to whole lines.  `np.empty`
starts such arrays 16, 32 or 48 bytes past a line, where numpy's AVX-512 add
or multiply of 7,920 doubles takes 6.5-9.1 us against 3.7 us aligned.

A call of fewer than _OWN_SCRATCH_PAIRS point-segment pairs, such as a
Newton step's stencil or a gradient fit on a small geometry, takes its
scratch from its thread's `_Workspace`: one line-aligned buffer that outlives
the call, and the views of the last few layouts placed in it.  A call whose
layout recurs, as each of the optimizer's 7-, 1- and 123-point calls does on
every geometry of 48 segments, reuses its views and allocates no scratch.
The buffer grows to the largest small call's scratch and stays: about
1.1 MB for `field_many` up to 8192 segments and 2.1 MB beyond, and at most
2.8 MB for a map.  With scratch allocated and freed per call, glibc could
trim it off the heap top after each call and the next call fault it back
in, so a 123-point call at 48 segments took about 1.6 times as long in some
processes as in others.  A larger call allocates its own scratch from
`_aligned`, one array at a time, freed when it returns: each allocation is
spread over many blocks, and a workspace that kept such arrays would keep
that much memory for good.
"""
from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, InvalidInput, SingularPoint
from .geometry import COUNT, NUMBER, SegmentList, _check, _points

MU_0 = 4.0 * math.pi * 1e-7  # T m / A, exact by convention here
EPS_SING = 1e-7              # m: singular tube radius around each filament
_CHUNK_PAIRS = 8192          # point-segment pairs per kernel block
_PANEL_PAIRS = 16384         # point-segment pairs per grid column panel
_LINE = 64                   # bytes per cache line
# point-segment pairs from which a call allocates its own scratch; smaller
# calls take theirs from their thread's workspace
_OWN_SCRATCH_PAIRS = 2 * _CHUNK_PAIRS
# layouts whose views a workspace keeps: the most that one workload's small
# calls take, the optimizer's 7-, 1- and 123-point calls at 48 segments
_LAYOUTS = 3
# |r1||r2| + r1.r2 loses about u / (4 e) of its value, with
# e = (|r1| + |r2|) / |l| - 1, so pairs with r1.r2 < 0 and e below this take
# its stable form instead; outside them the loss is at most about 3e-14
_CANCEL = 1e-3
# upper bound on the field samples one map, one gradient fit or one command
# takes, checked before anything is allocated; the bundled presets take 1,749
MAX_SAMPLES = 1_000_000

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


def _planes(shape, dtype):
    """The layout `_aligned` gives an array of `shape`: its planes over the
    last two axes (one for a shape of one axis) as the rows of a `rows`
    array of `dtype`, each row's first `size` items the plane and the rest
    padding to whole lines; and the layout's size in bytes."""
    size = shape[-1] * (shape[-2] if len(shape) > 1 else 1)
    itemsize = np.dtype(dtype).itemsize
    per_line = _LINE // itemsize
    rows = (math.prod(shape[:-2]), -(-size // per_line) * per_line)
    return rows, size, rows[0] * rows[1] * itemsize


def _aligned(shape, dtype=float):
    """An uninitialized array of `shape` in which each plane over the last
    two axes, such as one component of a block's (rows, segments) table, is
    contiguous and starts on a _LINE-byte cache line; a shape of one axis is
    one plane.

    Each plane is padded in memory to whole lines, so the leading axes step
    by whole lines.  The rows within a plane are not padded: numpy runs a
    ufunc over a contiguous plane as one loop, and over padded rows one row
    at a time, which made kernel calls on 721 to 1300 segments 1.5-1.8
    times slower.  The memory is freed with the array.
    """
    rows, size, nbytes = _planes(shape, dtype)
    raw = np.empty(nbytes + _LINE, np.uint8)
    skip = -ctypes.addressof(ctypes.c_char.from_buffer(raw)) % _LINE
    return np.ndarray(rows, dtype, raw, skip)[:, :size].reshape(shape)


class _Workspace(threading.local):
    """One thread's scratch for the kernel calls of fewer than
    _OWN_SCRATCH_PAIRS pairs.

    `raw` is a line-aligned buffer, grown to the largest layout placed in
    it and never shrunk.  `views` maps each of the last _LAYOUTS layouts,
    as their (shape, dtype) specs, to their arrays in `raw`, so that a call
    whose layout recurs, such as each of the optimizer's calls on its
    geometry, allocates nothing: cutting a call's views anew costs more
    than allocating them.  A kernel holds the workspace while `busy` (see
    `_Kernel.__enter__`).
    """

    def __init__(self):
        self.raw = np.empty(0, np.uint8)
        self.views = {}
        self.busy = False

    def take(self, specs):
        """Arrays of the (shape, dtype) `specs`, each laid out as `_aligned`
        lays it out, one after another in `raw`."""
        arrays = self.views.get(specs)
        if arrays is None:
            layouts = [_planes(*spec) for spec in specs]
            need = sum(nbytes for _, _, nbytes in layouts)
            if need > self.raw.size:
                # free the old buffer, which the old views hold too, before
                # the new one is allocated; if that fails, the workspace is
                # left empty and the next take grows it again
                self.views.clear()
                self.raw = np.empty(0, np.uint8)
                self.raw = _aligned((need,), np.uint8)
            elif len(self.views) == _LAYOUTS:
                del self.views[next(iter(self.views))]
            arrays, offset = [], 0
            for (shape, dtype), (rows, size, nbytes) in zip(specs, layouts):
                arrays.append(np.ndarray(rows, dtype, self.raw, offset)
                              [:, :size].reshape(shape))
                offset += nbytes
            self.views[specs] = arrays
        return arrays


_workspace = _Workspace()


# The level of a grid table says what its rows vary with.  A table formed
# from two others varies with what either does, so levels join by bitwise or.
_CONST, _ROW, _COL, _PAIR = 0, 1, 2, 3


class _Kernel:
    """One geometry's segment data, and its field at many points.

    `points` evaluates arbitrary points and `grid` the points of a grid,
    whose coordinates each vary with the row, the column, both or neither.
    Each forms the tables of r1 = p - a, r2 = p - b and their
    products its own way, and hands each block of points to `_sums`, the
    one body of the per-pair arithmetic, whose inputs broadcast.

    A kernel serves one call of `count` points, inside a `with` block.  Its
    segment data is its own.  Its scratch comes from `_scratch`: views of
    the thread's workspace if the call has fewer than _OWN_SCRATCH_PAIRS
    point-segment pairs and the kernel holds the workspace, else new arrays
    from `_aligned`.
    """

    def __init__(self, segments: SegmentList, count: int):
        self.n = n = len(segments)
        # points per block: at most _CHUNK_PAIRS pairs, at least one point
        self.rows = max(1, _CHUNK_PAIRS // n)
        self.small = count * n < _OWN_SCRATCH_PAIRS
        self.workspace = None
        # the segment tables are the kernel's own.  A small call's come from
        # np.empty: placing its four arrays on lines took 16 of the 80 us
        # of a 1-point call at 48 segments
        table = np.empty if self.small else _aligned
        # segment starts a as (3, n), one row per component; ends b alike
        self.starts = starts = table((3, 1, n))[:, 0]   # a plane each
        starts[...] = segments.starts.T
        self.ends = ends = segments.ends.T
        line = ends - starts
        self.length_sq = length_sq = table((n,))
        np.multiply(line[0], line[0], out=length_sq)
        length_sq += line[1] * line[1]
        length_sq += line[2] * line[2]
        self.k = table((n,))
        np.multiply(MU_0 / (4.0 * math.pi), segments.currents, out=self.k)
        # the denominator may cancel where |r1| + |r2| < cancel_reach.  A
        # point within d of a segment has |r1| + |r2| <= |l| + 2d; the
        # screen doubles that margin for d = EPS_SING so that rounding
        # cannot drop a row, and takes in the cancelling pairs too
        self.reach = table((n,))
        np.sqrt(length_sq, out=self.reach)
        self.cancel_reach = self.reach * (1.0 + _CANCEL)
        self.reach += 4.0 * EPS_SING
        np.maximum(self.reach, self.cancel_reach, out=self.reach)
        # break columns: each segment whose end is not the next one's
        # start, and the last one
        self.brk = np.flatnonzero(np.append(
            (ends[:, :-1] != starts[:, 1:]).any(axis=0), True))
        self.brk_ends = ends[:, self.brk]

    def __enter__(self):
        """Hold the thread's workspace if the call is small and no other
        call holds it.  One that does is a call that this one interrupts:
        from a signal handler, or from inside one of its blocks."""
        workspace = _workspace
        if self.small and not workspace.busy:
            # bound first: an interruption between the two leaves the flag
            # clear, not set for good
            self.workspace = workspace
            workspace.busy = True
        return self

    def __exit__(self, *exc):
        if self.workspace is not None:
            self.workspace.busy = False
            self.workspace = None

    def _scratch(self, specs):
        """Arrays of the (shape, dtype) `specs`, each plane on a line."""
        if self.workspace is not None:
            return self.workspace.take(specs)
        return [_aligned(shape, dtype) for shape, dtype in specs]

    def _sums(self, sq, dots, brk_sq, r1, r2, cross, scratch, out):
        """Field of the t points of one block into `out` (t, 3): each row
        sums its terms over the segments, or is NaN at a singular point.

        Every input broadcasts to (t, n), or to (t, B) at the B break
        columns: `sq` holds x² + y² and z² of r1, `dots` r1x r2x + r1y r2y
        and r1z r2z, `brk_sq` x² + y² and z² of r2 at the breaks, and `r1`,
        `r2` and `cross` = r1 x r2 their three components.  `scratch` is a
        (3, t, n) array for |r1|, |r2| and r1.r2 and then the terms, a
        (t, n) one, a (t, n) boolean and a (t, B) one; `sq` may lie in the
        first.
        """
        work, tmp, hit, brk_norm = scratch
        norm, dot = work[:2], work[2]
        # |r1|, and |r2| shifted from it like r2 from r1
        np.add(sq[0], sq[1], out=tmp)
        np.sqrt(tmp, out=norm[0])
        np.copyto(norm[1][:, :-1], norm[0][:, 1:])
        np.add(brk_sq[0], brk_sq[1], out=brk_norm)
        np.sqrt(brk_norm, out=brk_norm)
        norm[1][:, self.brk] = brk_norm
        np.add(dots[0], dots[1], out=dot)
        np.multiply(norm[0], norm[1], out=tmp)
        np.add(tmp, dot, out=dot)
        np.multiply(tmp, dot, out=dot)
        np.add(norm[0], norm[1], out=tmp)
        np.less(tmp, self.reach, out=hit)
        np.multiply(self.k, tmp, out=tmp)
        # collinear-outside points: cross == 0 while denom > 0; keep the
        # 0/denom
        np.divide(tmp, dot, out=tmp)
        for c in range(3):
            np.multiply(tmp, cross[c], out=work[c])
        np.add.reduce(work, axis=2, out=out.T)
        if hit.any():
            self._near(hit, r1, r2, cross, work, out)

    def _near(self, hit, r1, r2, cross, work, out):
        """Mend the rows of a block from the pairs that pass the screen
        `hit`; `work` holds the block's terms and `out` its rows.

        Where r1.r2 < 0 and |r1| + |r2| < |l| (1 + _CANCEL), the denominator
        |r1||r2| + r1.r2 cancels; those terms take it as
        |r1 x r2|² / (|r1||r2| - r1.r2) instead, and their rows are summed
        again.  Then a row is NaN if it is within EPS_SING of a segment: with
        u = (r1.l) / |l|², its squared distance is |r1|² for u <= 0, |r2|²
        for u >= 1 and |r1 x r2|² / |l|² between.  Only screened pairs can
        lie that close.  Each pair's |r1|, |r2| and r1.r2 are formed from
        its gathered components in the body's order, so they are bitwise
        the body's.
        """
        i, j = np.nonzero(hit)
        a, b, c = ([np.broadcast_to(v, hit.shape)[i, j] for v in w]
                   for w in (r1, r2, cross))
        a_sq, b_sq, c_sq = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
                            for v in (a, b, c))
        norms = np.sqrt(a_sq), np.sqrt(b_sq)
        dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
        total = norms[0] + norms[1]
        cancel = np.flatnonzero((dot < 0.0) & (total < self.cancel_reach[j]))
        if cancel.size:
            p, q = i[cancel], j[cancel]
            n12 = norms[0][cancel] * norms[1][cancel]
            coef = (self.k[q] * total[cancel]) / (
                n12 * (c_sq[cancel] / (n12 - dot[cancel])))
            for comp in range(3):
                work[comp][p, q] = coef * c[comp][cancel]
            rows = np.zeros(hit.shape[0], dtype=bool)
            rows[p] = True
            rows = np.flatnonzero(rows)
            out[rows] = np.add.reduce(work[:, rows], axis=2).T
        line = self.ends[:, j] - self.starts[:, j]
        length_sq = self.length_sq[j]
        along = a[0] * line[0] + a[1] * line[1] + a[2] * line[2]
        dist_sq = np.where(along <= 0.0, a_sq,
                           np.where(along >= length_sq, b_sq, c_sq / length_sq))
        out[i[dist_sq < EPS_SING * EPS_SING]] = np.nan

    def points(self, points) -> np.ndarray:
        """Field at arbitrary (N, 3) points, every table formed per pair.

        Points are walked in blocks of at most _CHUNK_PAIRS pairs (at least
        one point each), all writing into one set of scratch, sized for one
        block, or for all the points of a call of fewer.  Cut for a whole
        block, the planes of a 123-point call at 48 segments do not meet,
        numpy buffers r1 = p - a in 143 kB instead of 96 kB, and the
        optimizer ran 1.8 % slower.
        """
        n, brk, rows = self.n, self.brk, self.rows
        m = min(rows, points.shape[0])
        (r1_buf,          # point minus segment start
         r2_buf,          # point minus segment end
         prod_buf,        # products, then squares and the body's work; dots
         cross_buf,       # r1 x r2
         brk_buf,         # r2 at the breaks, squared
         tmp_buf, hit_buf, brk_norm_buf) = self._scratch((
             ((3, m, n), float), ((3, m, n), float), ((2, 3, m, n), float),
             ((3, m, n), float), ((2, 3, m, brk.size), float), ((m, n), float),
             ((m, n), bool), ((m, brk.size), float)))
        out = np.empty(points.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for start in range(0, points.shape[0], rows):
                p = points[start:start + rows]
                t = p.shape[0]
                r1, r2, cross = r1_buf[:, :t], r2_buf[:, :t], cross_buf[:, :t]
                prod = prod_buf[:, :, :t]
                rb, rb_sq = brk_buf[0, :, :t], brk_buf[1, :, :t]
                np.subtract(p.T[:, :, None], self.starts[:, None, :], out=r1)
                # r2 of each segment is r1 of the next one, except at the
                # breaks
                np.copyto(r2[:, :, :-1], r1[:, :, 1:])
                np.subtract(p.T[:, :, None], self.brk_ends[:, None, :],
                            out=rb)
                r2[:, :, brk] = rb
                # r1 x r2 = (r1y r2z, r1z r2x, r1x r2y)
                #         - (r1z r2y, r1x r2z, r1y r2x)
                np.multiply(r1[1:], r2[2::-2], out=prod[0, :2])
                np.multiply(r1[0], r2[1], out=prod[0, 2])
                np.multiply(r1[2::-2], r2[1:], out=prod[1, :2])
                np.multiply(r1[1], r2[0], out=prod[1, 2])
                np.subtract(prod[0], prod[1], out=cross)
                np.multiply(r1, r1, out=prod[0])
                np.add(prod[0, 0], prod[0, 1], out=prod[0, 0])
                np.multiply(rb, rb, out=rb_sq)
                np.add(rb_sq[0], rb_sq[1], out=rb_sq[0])
                np.multiply(r1, r2, out=prod[1])
                np.add(prod[1, 0], prod[1, 1], out=prod[1, 0])
                self._sums(prod[0, ::2], prod[1, ::2], rb_sq[::2], r1, r2,
                           cross, (prod[0], tmp_buf[:t], hit_buf[:t],
                                   brk_norm_buf[:t]),
                           out[start:start + t])
        return out

    def _axis(self, c, p, table, brk_table):
        """Coordinate c's tables at the values p (rows, 1): r1, r2, r1² and
        r1 r2 into `table` (4, rows, n), and r2 and r2² at the breaks into
        `brk_table` (2, rows, B)."""
        r1, r2, sq, dot = table
        rb, rb_sq = brk_table
        np.subtract(p, self.starts[c], out=r1)
        np.copyto(r2[:, :-1], r1[:, 1:])
        np.subtract(p, self.brk_ends[c], out=rb)
        r2[:, self.brk] = rb
        np.multiply(r1, r1, out=sq)
        np.multiply(r1, r2, out=dot)
        np.multiply(rb, rb, out=rb_sq)

    @staticmethod
    def _first_sums(x, y, brk_x, brk_y, sums, brk_sum):
        """x² + y² and r1x r2x + r1y r2y from the x and y tables, and
        x² + y² of r2 at the breaks."""
        np.add(x[2], y[2], out=sums[0])
        np.add(x[3], y[3], out=sums[1])
        np.add(brk_x[1], brk_y[1], out=brk_sum)

    @staticmethod
    def _cross(u, v, out, spare):
        """The cross component r1u r2v - r1v r2u from the u and v tables."""
        np.multiply(u[0], v[1], out=out)
        np.multiply(v[0], u[1], out=spare)
        np.subtract(out, spare, out=out)

    def grid(self, coords, shape) -> np.ndarray:
        """Field at the row-major points of a U x V grid whose coordinates
        are (U, 1), (1, V), (U, V) or (1, 1) arrays: each varies with the
        row, with the column, with both, or not at all.

        Each table is formed at the coarsest level its inputs allow: a
        coordinate's tables, and each sum or cross component of two
        coordinates, once per call if constant, once per panel of columns
        if they vary with the column, once per row and panel if with the
        row, and per block of at most _CHUNK_PAIRS pairs within a row if
        with both.  The body then runs on each block.  Every element
        operation is one that `points` performs, so the rows are bitwise
        the same.
        """
        n, nb = self.n, self.brk.size
        U, V = shape
        block = min(V, self.rows)
        # one row reuses no column table, so its panel is one block
        panel = block if U == 1 else min(V, max(block, _PANEL_PAIRS // n))
        size = (1, 1, panel, block)
        lv = [(c.shape[0] > 1) | 2 * (c.shape[1] > 1) for c in coords]
        # the coordinates that vary with both indices, as (U, V, 1) arrays
        pair = [(c, coords[c][..., None]) for c in range(3) if lv[c] == _PAIR]
        first = lv[0] | lv[1]
        cross_lv = (lv[1] | lv[2], lv[2] | lv[0], first)
        # the body's (3, t, n) scratch is free outside the body, so each
        # cross component's second product goes there too, in `room`; at the
        # default sizes a panel is at most 3 blocks, so this costs nothing
        # extra.  `room` is one plane, so the body's planes start on a line
        # only when block * n is a multiple of 8
        arrays = self._scratch(tuple(
            [((4, size[level], n), float) for level in lv]
            + [((2, size[level], nb), float) for level in lv]
            + [((2, size[first], n), float), ((size[first], nb), float)]
            + [((size[level], n), float) for level in cross_lv]
            + [((max(3 * block, panel), n), float), ((block, n), float),
               ((block, n), bool), ((block, nb), float)]))
        tab, brk_tab = arrays[:3], arrays[3:6]
        sums, brk_sum, *cross, room = arrays[6:12]
        scratch = (room[:3 * block].reshape(3, block, n), *arrays[12:])
        spare = {level: room[:size[level]] for level in cross_lv}
        # the tables formed from two coordinates', as (level, function,
        # (table, its level) for each argument)
        combined = [(first, self._first_sums,
                     ((tab[0], lv[0]), (tab[1], lv[1]), (brk_tab[0], lv[0]),
                      (brk_tab[1], lv[1]), (sums, first), (brk_sum, first)))]
        for c, level in enumerate(cross_lv):
            u, v = (c + 1) % 3, (c + 2) % 3
            combined.append((level, self._cross,
                             ((tab[u], lv[u]), (tab[v], lv[v]),
                              (cross[c], level), (spare[level], level))))
        whole = slice(None)

        def view(table, level, cut):
            # cut[level] selects the rows of a table of that level
            return table[..., cut[level], :]

        def run(stage, cut):
            for level, fn, args in combined:
                if level == stage:
                    fn(*(view(a, lev, cut) for a, lev in args))

        def bind(start, t):
            """The pair-level tables' functions and the body's arguments,
            bound to the views of the block of t columns at `start` in its
            panel; every panel writes into the same tables."""
            cut = (whole, whole, slice(start, start + t), slice(0, t))
            tasks = [(fn, tuple(view(a, lev, cut) for a, lev in args))
                     for level, fn, args in combined if level == _PAIR]
            body = ((view(sums[0], first, cut), view(tab[2][2], lv[2], cut)),
                    (view(sums[1], first, cut), view(tab[2][3], lv[2], cut)),
                    (view(brk_sum, first, cut),
                     view(brk_tab[2][1], lv[2], cut)),
                    [view(tab[c][0], lv[c], cut) for c in range(3)],
                    [view(tab[c][1], lv[c], cut) for c in range(3)],
                    [view(cross[c], cross_lv[c], cut) for c in range(3)],
                    tuple(a[..., :t, :] for a in scratch))
            return tasks, body

        bound = {}
        out = np.empty((U * V, 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            for c in range(3):
                if lv[c] == _CONST:
                    self._axis(c, coords[c], tab[c], brk_tab[c])
            run(_CONST, (whole,) * 4)
            for p0 in range(0, V, panel):
                p1 = min(p0 + panel, V)
                cols = slice(0, p1 - p0)
                for c in range(3):
                    if lv[c] == _COL:
                        self._axis(c, coords[c][:, p0:p1].T, tab[c][:, cols],
                                   brk_tab[c][:, cols])
                run(_COL, (whole, whole, cols, whole))
                for i in range(U):
                    for c in range(3):
                        if lv[c] == _ROW:
                            self._axis(c, coords[c][i:i + 1], tab[c],
                                       brk_tab[c])
                    run(_ROW, (whole,) * 4)
                    for b0 in range(p0, p1, block):
                        b1 = min(b0 + block, p1)
                        key = (b0 - p0, b1 - b0)
                        if key not in bound:
                            bound[key] = bind(*key)
                        tasks, body = bound[key]
                        for c, values in pair:
                            self._axis(c, values[i, b0:b1], tab[c][:, :b1 - b0],
                                       brk_tab[c][:, :b1 - b0])
                        for fn, args in tasks:
                            fn(*args)
                        self._sums(*body, out[i * V + b0:i * V + b1])
        return out


def field_many(segments: SegmentList, points) -> np.ndarray:
    """Field at many points (tesla, (N, 3)); singular points give NaN rows.
    `points` are (N, 3) rows or a list of [x, y, z] points, one point being
    one row.

    Points are walked in blocks of at most _CHUNK_PAIRS point-segment pairs
    (at least one point each), which bounds the scratch arrays and keeps
    them in cache.  The scratch is sized for one block, and every block
    writes into it, so no block allocates (points x segments) temporaries.
    A small call takes it from the thread's workspace, and a larger one
    allocates its own.  Each row sums over the segments in stored order
    along a contiguous axis, so the result is bitwise independent of the
    block size.
    """
    points = _points(points, "field points", rows=True)
    with _Kernel(segments, points.shape[0]) as kernel:
        return kernel.points(points)


def field_at(segments: SegmentList, p) -> np.ndarray:
    """Superposed field of all segments at point p (tesla).

    The one-point case of `field_many`; a singular point raises
    SingularPoint naming the nearest segment.
    """
    p = _points(p, "field point")
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


def _sample(segments, center, axes, half_range, n) -> FieldMap:
    """Row-major grid of n points per axis on center +- half_range * axes[i],
    in the kernel's grid form."""
    _check("sample count", COUNT, n)
    if n < 1:
        raise InvalidInput("need at least one sample per axis")
    if n ** len(axes) > MAX_SAMPLES:
        raise InvalidInput(f"a map may take at most {MAX_SAMPLES} samples")
    _check("sample half-range", NUMBER, half_range)
    grid = _points(center, "sample centre")
    units = []
    for axis in [_points(a, "sample axis") for a in axes]:
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise InvalidInput("sample axes must be non-zero")
        units.append(axis / norm)
    # the sine of the angle between a plane's axes, past rounding
    if len(units) == 2 and np.linalg.norm(np.cross(*units)) < 1e-12:
        raise InvalidInput("sample axes must not be parallel")
    s = np.linspace(-half_range, half_range, n) if n > 1 else np.array([0.0])
    for unit in units:
        grid = grid[..., None, :] + s[:, None] * unit
    # a line is one row of the grid
    grid = grid.reshape(-1, n, 3)
    positions = grid.reshape(-1, 3)
    with _Kernel(segments, len(positions)) as kernel:
        B = kernel.grid(_separable(grid), grid.shape[:2])
    if np.all(np.isnan(B[:, 0])):
        raise EmptySample("every sample point is singular")
    return FieldMap(positions=positions, B=B)


def _separable(grid):
    """The three coordinates of a (U, V, 3) grid, each as a (U, 1), (1, V),
    (1, 1) or (U, V) array as it, bitwise, depends on the row alone, on the
    column alone, on neither or on both."""
    bits = grid.view(np.int64)
    coords = []
    for c in range(3):
        g = bits[:, :, c]
        by_row = (g == g[:, :1]).all()
        by_col = (g == g[:1, :]).all()
        coords.append(grid[:1 if by_col else None, :1 if by_row else None, c])
    return coords


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
        # |B| in gauss, as np.linalg.norm(B, axis=1) * 1e4 computes it
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
