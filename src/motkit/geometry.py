"""Conductor geometries as bundles of straight current filaments.

Every generator returns a :class:`SegmentList`: oriented straight segments,
each carrying a signed current, tagged with the physical conductor (group)
it belongs to.  Volumetric conductors are approximated by filament bundles
with uniform current sharing; cross-sections used for resistance come from
the declared solid dimensions, not the filament count.

Each trap family is one entry of `REGISTRY`: its parameters with their
kinds and defaults, its builder and its solid conductors.  `build` of a
`GeometrySpec` is the one way to build a family, so every build passes the
spec's parameter checks, and `build` checks Kirchhoff's current law on every
result, so the filaments of each variant form closed circuits.

Internal units are strict SI (metre, ampere).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ClearanceError, InvalidGeometry, InvalidInput

# upper bound on the worst-case segment count of a build at a spec's
# segments_per_turn, and on the points of a FreePath; the presets need at
# most about 16,000
MAX_SEGMENTS = 1_000_000
# filaments per round bar (centre + hexagon) and per side of the n x n grid
# over a rectangular section
BUNDLE_FILAMENTS = 7
ARM_GRID = 3
# metres: upper bound on every length and point coordinate a config or a
# GeometrySpec gives, far below the 1e77 m where the field kernel's products
# of distances overflow
MAX_LENGTH = 1e3
# amperes: upper bound on every current a config or a GeometrySpec gives,
# far below the 1e154 A where a Joule power's I^2 overflows
MAX_CURRENT = 1e6
# ohm metres: upper bound on a material's resistivity, far above the metals'
# 1e-8 to 1e-6; below it, only a vanishing cross-section makes a Joule power
# overflow
MAX_RESISTIVITY = 1.0


# ---------------------------------------------------------------------------
# core containers


class SegmentList:
    """Ordered collection of filament segments with per-segment group ids."""

    def __init__(self, starts, ends, currents, group_ids):
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        ends = np.atleast_2d(np.asarray(ends, dtype=float))
        currents = np.atleast_1d(np.asarray(currents, dtype=float))
        group_ids = list(group_ids)
        n = starts.shape[0]
        if n == 0:
            raise InvalidGeometry("empty segment list")
        if (starts.shape[1:] != (3,) or ends.shape != starts.shape
                or currents.shape[0] != n or len(group_ids) != n):
            raise InvalidGeometry("inconsistent segment array shapes")
        if not (np.all(np.isfinite(starts)) and np.all(np.isfinite(ends)) and np.all(np.isfinite(currents))):
            raise InvalidGeometry("non-finite segment data")
        lengths = np.linalg.norm(ends - starts, axis=1)
        if np.any(lengths <= 0.0):
            raise InvalidGeometry("zero-length segment")
        self.starts = starts
        self.ends = ends
        self.currents = currents
        self.group_ids = group_ids

    def __len__(self):
        return self.starts.shape[0]

    # -- group access

    def groups(self):
        seen = {}
        for g in self.group_ids:
            seen.setdefault(g, None)
        return list(seen)

    def group(self, group_id) -> "SegmentList":
        m = np.array([g == group_id for g in self.group_ids], dtype=bool)
        if not m.any():
            raise InvalidInput(f"no such group: {group_id!r}")
        return SegmentList(self.starts[m], self.ends[m], self.currents[m],
                           [group_id] * int(m.sum()))

    @property
    def lengths(self) -> np.ndarray:
        return np.linalg.norm(self.ends - self.starts, axis=1)

    def unbalanced_vertices(self, terminals=()) -> np.ndarray:
        """Vertices whose inflowing and outflowing currents do not cancel
        exactly (Kirchhoff's current law), except the `terminals` points.

        Vertices match by exact coordinates.  Returns an (m, 3) array; it is
        empty when every filament belongs to a closed circuit.
        """
        points = np.concatenate([self.starts, self.ends])
        flow = np.concatenate([-self.currents, self.currents])
        order = np.lexsort(points.T)
        points, flow = points[order], flow[order]
        first = np.flatnonzero(np.concatenate(
            [[True], (points[1:] != points[:-1]).any(axis=1)]))
        bad = points[first[np.add.reduceat(flow, first) != 0.0]]
        term = np.asarray(terminals, dtype=float).reshape(-1, 3)
        return bad[~(bad[:, None, :] == term[None, :, :]).all(axis=2).any(axis=1)]


def _finite(value) -> bool:
    # NaN compares false, and an integer compares exactly, so one too large
    # for a float is rejected before anything converts it
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _positive(key, value):
    if not (_finite(value) and value > 0):
        raise InvalidInput(f"{key} must be positive and finite")


# ---------------------------------------------------------------------------
# materials


@dataclass(frozen=True)
class Material:
    name: str
    resistivity: float  # ohm * m

    def __post_init__(self):
        if not (_finite(self.resistivity)
                and 0 < self.resistivity <= MAX_RESISTIVITY):
            raise InvalidInput(f"resistivity must be positive and at most "
                               f"{MAX_RESISTIVITY:g} ohm m")


COPPER = Material("copper", 1.68e-8)
# titanium / nickel print alloys: ~10x copper resistivity
TITANIUM_LIKE = Material("titanium-like", 1.68e-7)

MATERIALS = {m.name: m for m in (COPPER, TITANIUM_LIKE)}


# ---------------------------------------------------------------------------
# parametric specifications


# value kinds of config fields: lengths are millimetres in JSON and metres
# inside, points are [x, y, z] lengths, currents (amperes), other numbers
# (angles, weights), flags, counts and names pass unchanged
LENGTH, POINTS, CURRENT, NUMBER, FLAG, COUNT, NAME = (
    "length", "points", "current", "number", "flag", "count", "name")


def _check(key, kind, value):
    if kind == LENGTH and not (_finite(value) and value > 0):
        raise InvalidInput(f"{key} must be a positive length")
    if kind in (CURRENT, NUMBER) and not _finite(value):
        raise InvalidInput(f"{key} must be a finite number")
    if kind == POINTS and isinstance(value, (list, tuple)) and len(value) > MAX_SEGMENTS:
        raise InvalidInput(f"{key} exceeds the {MAX_SEGMENTS} point cap")
    if kind == POINTS and not (isinstance(value, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 3 and all(map(_finite, p))
            for p in value)):
        raise InvalidInput(f"{key} must be a list of [x, y, z] points")
    if kind == FLAG and not isinstance(value, bool):
        raise InvalidInput(f"{key} must be true or false")
    if kind == COUNT and not (isinstance(value, int) and not isinstance(value, bool)):
        raise InvalidInput(f"{key} must be an integer")
    if kind == NAME and not isinstance(value, str):
        raise InvalidInput(f"{key} must be a string")


def _check_cap(key, kind, value):
    """Reject a length or coordinate, in metres, beyond MAX_LENGTH, and a
    current beyond MAX_CURRENT."""
    if ((kind == LENGTH and abs(value) > MAX_LENGTH) or (kind == POINTS and any(
            abs(c) > MAX_LENGTH for p in value for c in p))):
        raise InvalidInput(f"{key} exceeds the {MAX_LENGTH:g} m length cap")
    if kind == CURRENT and abs(value) > MAX_CURRENT:
        raise InvalidInput(f"{key} exceeds the {MAX_CURRENT:g} A current cap")


def _scale(kind, value, k):
    """A parameter value with every length in it multiplied by k."""
    if kind == LENGTH:
        return value * k
    if kind == POINTS:
        return tuple(tuple(k * c for c in p) for p in value)
    return value


def read_fields(doc, kinds: dict, context: str) -> dict:
    """The fields of a JSON object `doc`, checked by kind, lengths in metres.

    `kinds` maps each allowed key to its kind; a dict of kinds reads a
    nested object, a tuple of kinds a list of that many values, and None
    takes any value as it is, for its own reader.  Only the keys `doc` gives
    are returned.  A non-object, an unknown key, a value of the wrong kind
    or a length, coordinate or current beyond its cap raises InvalidInput
    naming `context`.
    """
    if not isinstance(doc, dict):
        raise InvalidInput(f"{context} must be a JSON object")
    unknown = set(doc) - set(kinds)
    if unknown:
        raise InvalidInput(f"unknown keys in {context}: {sorted(unknown)}")
    return {key: _read(kinds[key], value, f"{context}.{key}")
            for key, value in doc.items()}


def _read(kind, value, key):
    if isinstance(kind, dict):
        return read_fields(value, kind, key)
    if isinstance(kind, tuple):
        if not (isinstance(value, list) and len(value) == len(kind)):
            raise InvalidInput(f"{key} must be a list of {len(kind)} values")
        return tuple(_read(k, v, f"{key}[{i}]")
                     for i, (k, v) in enumerate(zip(kind, value)))
    _check(key, kind, value)
    value = _scale(kind, float(value) if kind in (LENGTH, CURRENT, NUMBER)
                   else value, 1e-3)
    _check_cap(key, kind, value)
    return value


def _variant(name) -> "Variant":
    if not isinstance(name, str) or name not in REGISTRY:
        raise InvalidInput(f"unknown variant {name!r}")
    return REGISTRY[name]


@dataclass(frozen=True)
class GeometrySpec:
    """Parametric description of one trap family (SI units internally),
    built with `segments_per_turn` segments to each full turn of a curve."""

    variant: str
    parameters: dict = field(default_factory=dict)
    segments_per_turn: int = 360

    def __post_init__(self):
        _check("segments_per_turn", COUNT, self.segments_per_turn)
        if self.segments_per_turn < 8:
            raise InvalidInput("segments_per_turn must be >= 8")
        # a worst-case estimate, checked before any builder allocates: two
        # circuits per bundle filament, each under 2 (segments_per_turn + 64)
        # segments, plus a coil pair; the builders stay under 40 % of it
        filaments = max(BUNDLE_FILAMENTS, ARM_GRID ** 2)
        if (4 * filaments + 2) * (self.segments_per_turn + 64) > MAX_SEGMENTS:
            raise InvalidInput(f"segments_per_turn may need more than "
                               f"{MAX_SEGMENTS} segments")
        known = _variant(self.variant).parameters
        merged = {key: default for key, (_, default) in known.items()}
        for key, value in self.parameters.items():
            if key not in known:
                raise InvalidInput(f"unknown parameter {key!r} for {self.variant}")
            merged[key] = value
        for key, (kind, _) in known.items():
            _check(f"parameter {key!r}", kind, merged[key])
            _check_cap(f"parameter {key!r}", kind, merged[key])
        object.__setattr__(self, "parameters", merged)

    def replace_parameters(self, **updates) -> "GeometrySpec":
        params = dict(self.parameters)
        params.update(updates)
        return replace(self, parameters=params)

    def scaled(self, k: float) -> "GeometrySpec":
        """Scale every length parameter by k (currents untouched)."""
        _positive("scale factor", k)
        known = REGISTRY[self.variant].parameters
        return replace(self, parameters={
            key: _scale(known[key][0], value, k)
            for key, value in self.parameters.items()})

    @classmethod
    def from_json_dict(cls, doc) -> "GeometrySpec":
        """The spec of a config's geometry section: lengths in millimetres
        (the conventional units of trap drawings), currents in amperes."""
        if not isinstance(doc, dict):
            raise InvalidInput("geometry must be a JSON object")
        variant = doc.get("variant")
        kinds = {key: kind for key, (kind, _) in _variant(variant).parameters.items()}
        given = read_fields(doc, {"variant": NAME, "parameters": kinds,
                                  "discretization": {"segments_per_turn": COUNT}},
                            "geometry")
        return cls(variant, given.get("parameters", {}),
                   **given.get("discretization", {}))


# ---------------------------------------------------------------------------
# elementary builders
#
# The private builders below return circuits, tuples (starts, ends, current,
# group_ids) with one current per circuit; `_assemble` concatenates them
# into one SegmentList.


def _assemble(circuits, matrix=None) -> SegmentList:
    """One SegmentList from circuits, rotated by `matrix` once concatenated."""
    starts = np.concatenate([c[0] for c in circuits])
    ends = np.concatenate([c[1] for c in circuits])
    currents = np.concatenate([np.full(len(c[3]), float(c[2])) for c in circuits])
    group_ids = [g for c in circuits for g in c[3]]
    if matrix is not None:
        m = np.asarray(matrix, dtype=float)
        starts, ends = starts @ m.T, ends @ m.T
    return SegmentList(starts, ends, currents, group_ids)


def _loop(centers, radius, currents, n_segments, group_ids):
    """One regular n-gon circuit coaxial with z about each of `centers`, with
    its own current and group; a coil pair is one call."""
    if radius <= 0:
        raise InvalidGeometry("loop radius must be positive")
    if n_segments < 3:
        raise InvalidGeometry("need at least 3 segments for a loop")
    theta = 2.0 * np.pi * np.arange(n_segments) / n_segments
    starts = np.asarray(centers, dtype=float)[:, None, :] + radius * np.column_stack(
        [np.sin(theta), -np.cos(theta), np.zeros(n_segments)])
    ends = np.concatenate([starts[:, 1:], starts[:, :1]], axis=1)
    return [(s, e, i, [g] * n_segments)
            for s, e, i, g in zip(starts, ends, currents, group_ids)]


def make_loop(center, radius, current, n_segments) -> SegmentList:
    """Regular n-gon inscribed in a circle about `center`, coaxial with z,
    in group "loop"; a positive current circulates counter-clockwise seen
    from +z.  A reversed loop is a negated current."""
    return _assemble(_loop([center], radius, [current], n_segments, ["loop"]))


def make_free_path(points, current, closed=False) -> SegmentList:
    """Polyline through `points` in group "path", closed when `closed`."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        raise InvalidGeometry("polyline needs at least two points")
    if closed:
        pts = np.vstack([pts, pts[:1]])
    n = pts.shape[0] - 1
    return SegmentList(pts[:-1], pts[1:], np.full(n, float(current)), ["path"] * n)


# ---------------------------------------------------------------------------
# bundle helpers


def _hex_offsets(radius_xsec, n_filaments):
    """Filament offsets (2D) over a circular cross-section: centre + rings."""
    offs = [(0.0, 0.0)]
    ring = n_filaments - 1
    r = radius_xsec * 2.0 / 3.0
    for i in range(ring):
        a = 2.0 * np.pi * i / ring
        offs.append((r * np.cos(a), r * np.sin(a)))
    return np.asarray(offs)


def _grid_offsets(half_u, half_v):
    """ARM_GRID x ARM_GRID filament offsets over a rectangular cross-section."""
    u = np.linspace(-half_u, half_u, ARM_GRID)
    v = np.linspace(-half_v, half_v, ARM_GRID)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel()])


def _arc_points(radius, z, phi0, phi1, n):
    phi = np.linspace(phi0, phi1, n + 1)
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi),
                            np.full(n + 1, z)])


def _offset_point(radius, phi, z, d_tangential=0.0):
    e_r = np.array([math.cos(phi), math.sin(phi), 0.0])
    e_t = np.array([-math.sin(phi), math.cos(phi), 0.0])
    return radius * e_r + d_tangential * e_t + np.array([0.0, 0.0, z])


def _connector_points(p0, p1, segments_per_turn):
    """Bridge p0 -> p1 with a polyline interpolated in cylindrical coords."""
    r0 = math.hypot(p0[0], p0[1])
    r1 = math.hypot(p1[0], p1[1])
    phi0 = math.atan2(p0[1], p0[0])
    phi1 = math.atan2(p1[1], p1[0])
    dphi = (phi1 - phi0 + math.pi) % (2.0 * math.pi) - math.pi
    n = max(2, int(math.ceil(abs(dphi) / (2.0 * math.pi) * segments_per_turn)))
    t = np.linspace(0.0, 1.0, n + 1)
    r = r0 + (r1 - r0) * t
    phi = phi0 + dphi * t
    z = p0[2] + (p1[2] - p0[2]) * t
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    pts[0], pts[-1] = p0, p1
    return pts


def _closed_circuit(blocks, current, segments_per_turn):
    """Chain (points, group_id) blocks into one closed filament loop.

    Gaps between consecutive blocks (and from the last block back to the
    first) are bridged by connector polylines, so every filament carries its
    current around a closed path and the summed field stays curl-free away
    from the conductors.  Steps shorter than 1 pm are dropped.
    """
    polylines = []
    m = len(blocks)
    for i, (pts, g) in enumerate(blocks):
        pts = np.asarray(pts, dtype=float)
        polylines.append((pts, g))
        nxt = np.asarray(blocks[(i + 1) % m][0], dtype=float)[0]
        if np.linalg.norm(nxt - pts[-1]) > 1e-12:
            polylines.append((_connector_points(pts[-1], nxt, segments_per_turn), g))
    starts, ends, group_ids = [], [], []
    for pts, g in polylines:
        keep = np.linalg.norm(pts[1:] - pts[:-1], axis=1) > 1e-12
        starts.append(pts[:-1][keep])
        ends.append(pts[1:][keep])
        group_ids += [g] * int(keep.sum())
    return np.concatenate(starts), np.concatenate(ends), current, group_ids


# ---------------------------------------------------------------------------
# trap assemblies
#
# Each builder takes (parameters, segments_per_turn), both already checked
# and the parameters completed by GeometrySpec, and is called through `build`
# only.


# groups of a coil pair's loops at +z and -z
_COIL_PAIR = ("coil_top", "coil_bottom")
# metres: the stand-off of the compact traps' filaments from the beam holes,
# the outer wall and the end faces
_MARGIN = 0.2e-3


def _ring(p, outer, what):
    """The beam-hole ring of CompactFour and TwoPiece, of diameter p[outer]:
    this decides the ring and its margin.  Returns its outer and hole radii
    and the band z_lo..z_hi above the holes open to its filaments; raises
    ClearanceError when the hole and its two gaps leave no conductor."""
    if p["hole_diameter"] + 2.0 * p["gap"] >= p[outer]:
        raise ClearanceError(f"hole plus gaps exceeds conductor {what}")
    r_hole = p["hole_diameter"] / 2.0
    return p[outer] / 2.0, r_hole, r_hole + _MARGIN, p["height"] / 2.0 - _MARGIN


def _anti_helmholtz(p, spt) -> SegmentList:
    """Coaxial loop pair at z = +-separation/2 with opposite currents."""
    z = p["separation"] / 2.0
    return _assemble(_loop([(0, 0, z), (0, 0, -z)], p["radius"],
                           [p["current"], -p["current"]], spt, _COIL_PAIR))


# The cylinder-style builders below assemble their conductors about a local
# z symmetry axis and then rotate into the lab frame, where the symmetry axis
# lies along y and the strong-gradient axis along z.  The rotation is the
# cyclic permutation x->z, y->x, z->y (a proper rotation), so the beam holes
# remain aligned with the lab x, y and z axes.
_CYL_TO_LAB = np.array([[0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0],
                        [1.0, 0.0, 0.0]])


def _twisted_cage(p, spt, _filaments=BUNDLE_FILAMENTS) -> SegmentList:
    """Four-bar cage with bars twisting about the z-axis.

    Bar centrelines follow r(t) = (R cos(theta0 + phi(z)), R sin(...), z) with
    theta0 in {0, 90, 180, 270} deg; the finished cage is rotated 45 deg about
    z so the horizontal beam axes pass midway between the bars.  The twist
    profile is an even profile phi(z) = s * twist_angle * (2z/h)^2 whose
    handedness s follows the bar's current sign.  That makes the net azimuthal
    current odd in z (zero at the mid-plane, circulating oppositely above and
    below), which produces an axial gradient while keeping the field zero at
    the centre: a common (same-handed) twist would cancel the azimuthal
    currents pairwise and give no axial gradient at all.  Opposite-handed
    bars converge towards the ends, where their angular gap and their height
    difference are both least, so bars of diameter d clear each other iff
    |twist_angle| < pi/4 - asin(d / 2R): 0.5613 rad at the defaults.
    Adjacent bar pairs close into series circuits through end arcs standing
    in for the physical end contacts, keeping every filament loop closed.
    Each bar is a bundle of `_filaments` filaments; the power model measures
    a single-filament cage.
    """
    height, bar_diameter, twist_angle = p["height"], p["bar_diameter"], p["twist_angle"]
    r_bar = bar_diameter / 2.0
    r0 = p["outer_width"] / 2.0 - r_bar
    if r0 <= 0:
        raise InvalidGeometry("bar diameter exceeds cage width")
    # at heights u1, u2 (u = 2z/h) adjacent bars lie pi/2 - a (u1^2 + u2^2)
    # apart in angle, a = |twist_angle|, in the pairs that converge: (0, 1)
    # and (2, 3) when twist_angle >= 0, else (1, 2) and (3, 0).  While
    # a < pi/4, that angle and the height difference are both least at
    # u1 = u2 = +-1, a chord of 2 r0 sin(pi/4 - a); from a = pi/4 the angle
    # closes inside the cage.  The other adjacent pairs, pi/2 + a (u1^2 + u2^2)
    # apart, and opposite bars, pi -+ a (u1^2 - u2^2), stay at least
    # r0 sqrt(2) apart
    twist = abs(twist_angle)
    if twist >= math.pi / 4.0 or 2.0 * r0 * math.sin(math.pi / 4.0 - twist) <= bar_diameter:
        raise InvalidGeometry(f"bars 0 and {1 if twist_angle >= 0 else 3} intersect")
    n_pts = max(33, spt // 4 + 1)
    t = np.linspace(-0.5, 0.5, n_pts)
    z = t * height
    filaments = []   # filaments[k][j] = point array of filament j of bar k
    for k in range(4):
        sign = 1.0 if k % 2 == 0 else -1.0
        phi = k * np.pi / 2.0 + sign * twist_angle * (2.0 * z / height) ** 2
        centre = np.column_stack([r0 * np.cos(phi), r0 * np.sin(phi), z])
        # local transverse frame along the bar
        tang = np.gradient(centre, axis=0)
        tang /= np.linalg.norm(tang, axis=1)[:, None]
        e_r = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
        e1 = e_r - (np.sum(e_r * tang, axis=1))[:, None] * tang
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e2 = np.cross(tang, e1)
        filaments.append([centre + du * e1 + dv * e2
                          for du, dv in _hex_offsets(r_bar, _filaments)])
    # each up-bar pairs with the next down-bar into one closed circuit, the
    # joining end arcs standing in for the physical end-ring contacts
    share = p["current"] / _filaments
    circuits = []
    for k_up in (0, 2):
        k_dn = k_up + 1
        for j in range(_filaments):
            circuits.append(_closed_circuit(
                [(filaments[k_up][j], f"bar{k_up}"),
                 (filaments[k_dn][j][::-1], f"bar{k_dn}")], share, spt))
    c = math.cos(math.pi / 4.0)
    rot45 = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
    return _assemble(circuits, rot45)


def _compact_four(p, spt) -> SegmentList:
    """Four-piece trap: one straight prong plus one ring arc per piece.

    Prongs sit on the diagonals between the beam holes and span just the
    inter-hole region; the current then fans into the ring material, modelled
    as an arc sheet just above the beam holes that hugs the outer wall.  The
    filaments of each series loop are chained into closed circuits through
    short connectors, so the summed field is curl-free off the conductors.
    The top arcs
    share one circulation sense and the bottom arcs the opposite, giving the
    axial gradient, while the alternating prong currents shape the transverse
    field.  The assembly is odd under point inversion with current reversal,
    so the field vanishes at the centre exactly.
    """
    r_out, r_hole, z_lo, z_hi = _ring(p, "width", "width")

    # prong band: wedged between the two horizontal beam cylinders
    half_t = 0.3e-3
    r_hi = r_out - 0.3e-3
    # inner radius so the innermost tangential corner clears the beams
    delta = half_t / r_hi
    r_lo_min = z_lo / math.sin(math.pi / 4.0 - delta)
    if r_lo_min >= r_hi:
        raise ClearanceError("no room for prongs between beams and outer wall")
    r_lo = max(r_lo_min, r_hi - 0.4e-3)   # current hugs the outer prong face
    r_prong = 0.5 * (r_lo + r_hi)
    half_r = 0.5 * (r_hi - r_lo)

    # arc band: the ring material above/below the horizontal holes; the
    # effective current sheet sits just above the holes and hugs the outer
    # wall, which reproduces the measured gradient pattern of the solid part
    if z_lo >= z_hi:
        raise ClearanceError("trap too short for ring sections above the beam holes")
    r_arc_out = r_out - _MARGIN
    arc_r = (r_arc_out - 0.35 * (r_arc_out - z_lo), r_arc_out)
    z_top = z_lo + 0.1 * (z_hi - z_lo)
    n_arc = max(16, int(round(spt / 4.0)))
    # angular stand-off at the contacts
    gamma = (p["gap"] / 2.0 + half_t) / r_prong

    offs_arc = _grid_offsets(0.5 * (arc_r[1] - arc_r[0]), 0.5 * (z_top - z_lo))
    offs_prong = _grid_offsets(half_r, half_t)
    nf = offs_arc.shape[0]
    share = p["current_per_conductor"] / nf
    r_arc_mid = 0.5 * (arc_r[0] + arc_r[1])
    z_arc_mid = 0.5 * (z_lo + z_top)

    # the pieces chain into two closed series loops: top arc of an up piece,
    # down its prong, around the preceding piece's bottom arc and back up
    # that piece's prong
    circuits = []
    for k_up in (0, 2):
        k_dn = (k_up + 3) % 4
        phi_u = math.pi / 4.0 + k_up * math.pi / 2.0
        phi_d = phi_u - math.pi / 2.0
        g_up, g_dn = f"conductor{k_up}", f"conductor{k_dn}"
        for j in range(nf):
            dr_a, dz_a = offs_arc[j]
            dr_p, dt_p = offs_prong[j]
            top_arc = _arc_points(r_arc_mid + dr_a, z_arc_mid + dz_a,
                                  phi_u - math.pi / 2.0 + gamma, phi_u - gamma,
                                  n_arc)
            prong_u = [_offset_point(r_prong + dr_p, phi_u, z_lo, dt_p),
                       _offset_point(r_prong + dr_p, phi_u, -z_lo, dt_p)]
            bot_arc = _arc_points(r_arc_mid + dr_a, -(z_arc_mid + dz_a),
                                  phi_d + math.pi / 2.0 - gamma, phi_d + gamma,
                                  n_arc)
            prong_d = [_offset_point(r_prong + dr_p, phi_d, -z_lo, dt_p),
                       _offset_point(r_prong + dr_p, phi_d, z_lo, dt_p)]
            circuits.append(_closed_circuit(
                [(top_arc, g_up), (prong_u, g_up),
                 (bot_arc, g_dn), (prong_d, g_dn)], share, spt))
    return _assemble(circuits, _CYL_TO_LAB)


def _two_piece(p, spt) -> SegmentList:
    """Two nesting conductors: two straight arms joined by a ~270 deg ring arc.

    Piece A: current enters the top of one arm, runs down to the bottom ring,
    three quarters of the way around, and back up the adjacent arm; the
    circuit closes through vertical feed leads that rejoin well above the
    trap, so every filament forms a closed loop.  Piece B is the
    point-inversion image with the current sense reversed (its ring sits at
    the top).  The pair is odd under inversion + current reversal, so B = 0
    at the centre exactly; the opposed ring circulations give the axial
    gradient.
    """
    height, arm_depth = p["height"], p["arm_depth"]
    r_out, r_hole, z_lo, z_hi = _ring(p, "outer_diameter", "diameter")

    half_t = p["arm_width"] / 2.0 * 0.4   # filament spread, not the solid width
    half_r = arm_depth / 2.0 * 0.6
    r_arm = r_out - _MARGIN - arm_depth / 2.0
    delta = (half_t) / (r_arm - half_r)
    if (r_arm - half_r) * math.sin(math.pi / 4.0 - delta) < r_hole:
        raise ClearanceError("arms intrude into the beam volume")

    if z_lo >= z_hi:
        raise ClearanceError("trap too short for ring sections above the beam holes")
    ring_r = (z_lo, r_out - _MARGIN)
    z_ring = 0.5 * (z_lo + z_hi)
    n_arc = max(32, int(round(spt * 0.75)))
    r_ring_mid = 0.5 * (ring_r[0] + ring_r[1])
    gamma = (p["gap"] / 2.0 + half_t) / r_ring_mid
    z_far = 0.25   # feed leads rejoin well above the trap

    p45, p135 = math.pi / 4.0, 3 * math.pi / 4.0
    offs_arm = _grid_offsets(half_r, half_t)
    offs_ring = _grid_offsets(0.5 * (ring_r[1] - ring_r[0]), 0.5 * (z_hi - z_lo))
    nf = offs_arm.shape[0]
    share = p["current_per_conductor"] / nf

    # piece A: down the 45 deg arm, 270 deg clockwise around the bottom ring
    # (via 315/225 deg), up the 135 deg arm; the circuit closes through
    # vertical feed leads joined far above the trap
    piece_a = []
    for j in range(nf):
        dr, dt = offs_arm[j]
        drr, dzr = offs_ring[j]
        arm1 = [_offset_point(r_arm + dr, p45, height / 2.0, dt),
                _offset_point(r_arm + dr, p45, -z_ring, dt)]
        ring = _arc_points(r_ring_mid + drr, -z_ring - dzr, p45 - gamma,
                           p135 - 2.0 * math.pi + gamma, n_arc)
        arm2 = [_offset_point(r_arm + dr, p135, -z_ring, dt),
                _offset_point(r_arm + dr, p135, height / 2.0, dt)]
        leads = [np.array([arm2[1][0], arm2[1][1], z_far]),
                 np.array([arm1[0][0], arm1[0][1], z_far])]
        piece_a.append(_closed_circuit(
            [(arm1, "piece_a"), (ring, "piece_a"),
             (arm2, "piece_a"), (leads, "piece_a")], share, spt))

    # piece B: point-inversion image with the current sense reversed (its
    # ring sits at the top); the pair is odd under inversion + reversal
    piece_b = [(-s, -e, -i, ["piece_b"] * len(g)) for s, e, i, g in piece_a]
    return _assemble(piece_a + piece_b, _CYL_TO_LAB)


# ---------------------------------------------------------------------------
# laser clearance


# the two cross-axis columns of the x, y and z beams
_BEAM_CROSS = ((1, 2), (0, 2), (0, 1))


def clearance_check(segments: SegmentList, beam_diameter: float):
    """True iff no filament point lies inside any of the three beam
    cylinders, which run along the x, y and z axes through the origin.

    Returns (ok, min_clearance): min_clearance is the smallest distance from
    any conductor point to any beam surface (negative when intruding).
    """
    _positive("beam diameter", beam_diameter)
    # across beam j a segment runs u + t w for t in [0, 1], with u and w its
    # start and direction in beam j's cross-axis columns; its closest
    # approach is at t = -(u.w) / |w|^2, or anywhere when w = 0
    u = segments.starts[:, _BEAM_CROSS]
    w = (segments.ends - segments.starts)[:, _BEAM_CROSS]
    ww = w[..., 0] * w[..., 0] + w[..., 1] * w[..., 1]
    t = np.divide(-(u[..., 0] * w[..., 0] + u[..., 1] * w[..., 1]), ww,
                  out=np.zeros_like(ww), where=ww > 0.0)
    perp = u + np.clip(t, 0.0, 1.0)[..., None] * w
    dist = np.sqrt(perp[..., 0] * perp[..., 0] + perp[..., 1] * perp[..., 1])
    min_clear = float(dist.min()) - beam_diameter / 2.0
    return (min_clear >= 0.0), min_clear


# ---------------------------------------------------------------------------
# solid conductors for the power budget


@dataclass(frozen=True)
class Conductor:
    group_id: str
    current: float       # A carried by the physical conductor
    sections: tuple      # (length m, declared solid cross-section m^2) pairs


def _anti_helmholtz_sections(p):
    coil = ((2.0 * math.pi * p["radius"], math.pi * (p["wire_diameter"] / 2.0) ** 2),)
    return [Conductor(g, p["current"], coil) for g in _COIL_PAIR]


def _twisted_cage_sections(p):
    area = math.pi * (p["bar_diameter"] / 2.0) ** 2
    # arc length of the twisted centreline
    segs = _twisted_cage(p, 64, _filaments=1)
    return [Conductor(f"bar{k}", p["current"],
                      ((float(segs.group(f"bar{k}").lengths.sum()), area),))
            for k in range(4)]


def _ring_section(p, outer, sweep):
    """The hole radius, the half height and the (length, cross-section) of
    the solid ring of `_ring` over `sweep` radians, along its mid-radius."""
    r_out = p[outer] / 2.0
    r_hole = p["hole_diameter"] / 2.0
    half_h = p["height"] / 2.0
    return r_hole, half_h, (sweep * 0.5 * (r_out + r_hole),
                            (r_out - r_hole) * (half_h - r_hole))


def _compact_four_sections(p):
    r_hole, half_h, arc = _ring_section(p, "width", math.pi / 2.0)
    # to the arc's mid-plane, through the slim wedge between the beam holes
    prong = (p["hole_diameter"] + (half_h - r_hole), 2.0e-6)
    return [Conductor(f"conductor{k}", p["current_per_conductor"], (prong, arc))
            for k in range(4)]


def _two_piece_sections(p):
    # a 270 deg ring
    r_hole, half_h, ring = _ring_section(p, "outer_diameter", 1.5 * math.pi)
    z_ring = 0.5 * (r_hole + half_h)
    arm = (half_h + z_ring, p["arm_width"] * p["arm_depth"])
    return [Conductor(g, p["current_per_conductor"], (arm, arm, ring))
            for g in ("piece_a", "piece_b")]


def _free_path_sections(p):
    area = math.pi * (0.5e-3) ** 2  # nominal 1 mm wire
    return [Conductor("path", p["current"],
                      ((float(make_free_path(**p).lengths.sum()), area),))]


# ---------------------------------------------------------------------------
# variant registry


@dataclass(frozen=True)
class Variant:
    """One trap family: its parameters as name -> (kind, SI default), its
    builder (parameters, segments_per_turn) -> SegmentList, its solid conductors
    (parameters) -> [Conductor], one per group, and its terminals
    (parameters) -> points where current may enter or leave the filaments."""

    parameters: dict
    build: Callable
    sections: Callable
    terminals: Callable = lambda p: ()


REGISTRY = {
    "AntiHelmholtz": Variant(
        {"radius": (LENGTH, 0.050), "separation": (LENGTH, 0.050),
         "current": (CURRENT, 100.0), "wire_diameter": (LENGTH, 0.001)},
        _anti_helmholtz, _anti_helmholtz_sections),
    # reference design: 110 mm tall, 55 mm outer width, 10 mm bars, 100 A
    "TwistedCage": Variant(
        {"height": (LENGTH, 0.110), "outer_width": (LENGTH, 0.055),
         "bar_diameter": (LENGTH, 0.010), "twist_angle": (NUMBER, 0.5),
         "current": (CURRENT, 100.0)},
        _twisted_cage, _twisted_cage_sections),
    # reference design: 45 mm tall, 24 mm wide, 15 mm holes, 0.5 mm gaps, 40 A
    "CompactFour": Variant(
        {"height": (LENGTH, 0.045), "width": (LENGTH, 0.024),
         "hole_diameter": (LENGTH, 0.015), "gap": (LENGTH, 0.0005),
         "current_per_conductor": (CURRENT, 40.0)},
        _compact_four, _compact_four_sections),
    # reference design: 38 mm tall, 26 mm outer diameter, 3.1 mm arms, 25 A
    "TwoPiece": Variant(
        {"height": (LENGTH, 0.038), "outer_diameter": (LENGTH, 0.026),
         "arm_width": (LENGTH, 0.0031), "hole_diameter": (LENGTH, 0.015),
         "gap": (LENGTH, 0.0005), "current_per_conductor": (CURRENT, 25.0),
         "arm_depth": (LENGTH, 0.0016)},
        _two_piece, _two_piece_sections),
    # an open path is fed at its two ends
    "FreePath": Variant(
        {"points": (POINTS, ()), "current": (CURRENT, 1.0), "closed": (FLAG, False)},
        lambda p, spt: make_free_path(**p),
        _free_path_sections,
        lambda p: () if p["closed"] else (p["points"][0], p["points"][-1])),
}


def build(spec: GeometrySpec) -> SegmentList:
    """Realise a GeometrySpec as a filament SegmentList.

    Raises InvalidGeometry unless the currents cancel exactly at every
    vertex but the variant's terminals, that is unless the filaments form
    closed circuits.
    """
    variant = REGISTRY[spec.variant]
    segments = variant.build(spec.parameters, spec.segments_per_turn)
    bad = segments.unbalanced_vertices(variant.terminals(spec.parameters))
    if len(bad):
        raise InvalidGeometry(
            f"net current is not zero at {len(bad)} vertices, first at "
            f"{np.round(bad[0] * 1e3, 6).tolist()} mm")
    return segments


def conductor_sections(spec: GeometrySpec):
    """One Conductor per group: its current and its solid sections, each a
    (length, cross-section) pair.

    Resistance models the printed solid, so areas come from the declared
    dimensions rather than filament counts.
    """
    return REGISTRY[spec.variant].sections(spec.parameters)
