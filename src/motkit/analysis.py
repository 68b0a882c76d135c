"""Field-zero location, gradient fits, and MOT suitability checks.

Accepts either a SegmentList or a batched field callable, which maps
points (N, 3) in metres to B (N, 3) in tesla with NaN rows at singular
points, as `field_many` does; the callable form is what the synthetic-field
tests use.  Every analysis evaluates its points in one batched call: each
Newton step's seven-point stencil, the zero finder's fallback grid and the
three axis scans of a gradient fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (ClearanceError, DegenerateFit, InvalidInput,
                     SingularPoint, ZeroNotBracketed)
from .field import MAX_SAMPLES, field_many
from .geometry import (COPPER, COUNT, GeometrySpec, Material, SegmentList,
                       _check, _points, _positive, clearance_check)
from .power import PowerReport, power_report

GAUSS_PER_TESLA = 1.0e4
GCM_PER_TPM = 100.0           # 1 T/m = 100 G/cm

# the one copy of each analysis default, for both `simulate` and `optimize`
DEFAULT_SEARCH_RADIUS = 3.0e-3  # m
DEFAULT_WINDOW = 2.0e-3       # m
DEFAULT_SAMPLES = 41
DEFAULT_STENCIL = 1.0e-4      # m
_GRID_N = 11                  # zero-finder grid points per axis
# a |B| minimum counts as a zero only if its |B| is at most this share of
# ||J||·h, the field change across the last Newton stencil; the presets and
# designs near them give below 1e-13, a trap with a 9 G bias about 80
ZERO_TOLERANCE = 1.0e-6

# MOT suitability: minimum-axis gradient range (G/cm), the 1:1:-2 ratio of a
# quadrupole with its relative tolerance, and the largest residual_rms /
# (|g| * window)
GRADIENT_RANGE = (5.0, 25.0)
TARGET_RATIO = (1.0, 1.0, -2.0)
RATIO_TOLERANCE = 0.25
LINEARITY_MAX = 0.1


def as_field(source):
    """A SegmentList as the batched function points (N, 3) -> B (N, 3),
    with NaN rows at singular points; a callable is taken to be one, and
    raises InvalidInput where it fails on (N, 3) points with a ValueError,
    as numpy's shape checks do, or returns another shape."""
    if isinstance(source, SegmentList):
        return lambda points: field_many(source, points)
    if not callable(source):
        raise InvalidInput("expected a SegmentList or a field callable")

    def batched(points):
        try:
            B = np.asarray(source(points))
        except ValueError as err:
            raise InvalidInput(
                f"field callable failed on {points.shape} points: {err}"
            ) from err
        if B.shape != points.shape:
            raise InvalidInput(
                f"field callable returned shape {B.shape} for "
                f"{points.shape} points; it must map (N, 3) to (N, 3)")
        return B

    return batched


def _regular(B, what: str) -> np.ndarray:
    """B itself, or SingularPoint if any of its rows is singular."""
    if np.isnan(B).any():
        raise SingularPoint(f"{what} touches a conductor")
    return B


def _stencil(p, h: float) -> np.ndarray:
    """p followed by p + h e_j and p - h e_j for j = x, y, z."""
    offsets = np.zeros((7, 3))
    offsets[1::2] = h * np.eye(3)
    offsets[2::2] = -h * np.eye(3)
    return p + offsets


def _central_jacobian(B, h: float) -> np.ndarray:
    """dB_i/dx_j from the field on `_stencil` rows 1..6."""
    return (B[1::2] - B[2::2]).T / (2.0 * h)


@dataclass(frozen=True)
class GradientReport:
    zero_position: np.ndarray          # m
    g: np.ndarray                      # (gx, gy, gz) in G/cm
    sigma_g: np.ndarray                # per-axis slope uncertainty, G/cm
    ratio: np.ndarray                  # g / gx
    linear_window: float               # m
    residual_rms: float                # G

    def to_json_dict(self) -> dict:
        return {
            "zero_mm": [v * 1e3 for v in self.zero_position.tolist()],
            "g_Gcm": self.g.tolist(),
            "sigma_Gcm": self.sigma_g.tolist(),
            "ratio": self.ratio.tolist(),
            "window_mm": self.linear_window * 1e3,
            "residual_G": self.residual_rms,
        }


@dataclass(frozen=True)
class ZeroResult:
    position: np.ndarray               # m
    method: str                        # "newton", or "grid" after the scan
    iterations: int                    # Newton stencils on the returned path
    residual: float                    # |B| at position, T


def find_field_zero(source, search_radius=DEFAULT_SEARCH_RADIUS) -> ZeroResult:
    """Zero of B: Newton steps on B = 0 from the origin, the trap's centre
    where the beams cross, with a grid scan of the search cube as fallback.
    A caller whose zero lies elsewhere shifts its field or FreePath points.

    Near a quadrupole zero B is linear, so Newton on the vector field
    converges quadratically to it.  Its result stands only if every stencil
    it solves is finite, the steps end on their stop rule, every iterate
    stays in the search cube shrunk by half a grid spacing, so a zero the
    grid would put on its boundary still raises ZeroNotBracketed, and the
    result is a zero.  Otherwise `_grid_zero` scans 11^3 points of the cube
    and refines the best; `_refine` holds the rules of both refinements.
    """
    _positive("search radius", search_radius)
    f = as_field(source)
    inner = search_radius * (1.0 - 1.0 / (_GRID_N - 1))
    try:
        return _refine(f, "newton", np.zeros(3), None, search_radius,
                       lambda q: np.max(np.abs(q)) > inner)
    except (SingularPoint, ZeroNotBracketed):
        pass
    return _grid_zero(f, search_radius)


def _grid_zero(f, search_radius) -> ZeroResult:
    """`find_field_zero`'s fallback: the |B| minimum of an 11^3 grid over the
    search cube about the origin, refined by Newton steps."""
    axis = np.linspace(-search_radius, search_radius, _GRID_N)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    mags = np.linalg.norm(f(grid), axis=1)
    mags[np.isnan(mags)] = math.inf     # singular grid points never win
    # Only a strict new running minimum can pass the tie rule below, so the
    # scan in grid order visits those alone.
    earlier = np.minimum.accumulate(np.concatenate(([math.inf], mags[:-1])))
    best, best_m = None, math.inf
    for index in np.flatnonzero(mags < earlier).tolist():
        m = float(mags[index])
        # ties resolved towards the lexicographically smallest point
        if best is None or m < best_m * (1.0 - 1e-12):
            best_m, best = m, index
    if best is None:
        raise ZeroNotBracketed("no non-singular point in the search region")
    if any(i in (0, _GRID_N - 1)
           for i in np.unravel_index(best, (_GRID_N,) * 3)):
        raise ZeroNotBracketed("|B| minimum lies on the search-region boundary")
    limit = search_radius * math.sqrt(3.0)
    return _refine(f, "grid", grid[best], best_m, search_radius,
                   lambda q: np.linalg.norm(q) > limit)


def _refine(f, method, start, m_start, search_radius, outside) -> ZeroResult:
    """The zero that Newton steps on B = 0 reach from `start`, each step
    solving the 7-point stencil's Jacobian and capped at a quarter of the
    search radius.  The steps stop on |B| == 0 at a stencil centre or a step
    under 1e-13 m; a singular Jacobian or the 60th stencil also ends them.

    Returns the ZeroResult at the last iterate, or at `start` if the last
    iterate's |B| exceeds `m_start` (the first stencil's |B| if None), with
    the number of stencils evaluated.  |B| at the last iterate takes one
    more field call, except at an exact zero at a stencil centre.  Raises
    ZeroNotBracketed if a `"newton"` run's steps end without their stop rule
    (a `"grid"` run keeps its last iterate), at an iterate q for which
    `outside(q)` holds, and if the returned |B| exceeds ZERO_TOLERANCE times
    ||J||·h of the last stencil's Jacobian (0 if none was formed); and
    SingularPoint at a NaN stencil row around a non-zero field or a NaN
    field at the returned point.
    """
    h = max(search_radius / 200.0, 1e-6)
    cap = search_radius / 4.0
    p, jh, stopped = start, 0.0, False
    for stencils in range(1, 61):
        B = f(_stencil(p, h))
        m = float(np.linalg.norm(B[0]))
        if m_start is None:
            m_start = m
        if m == 0.0:
            stopped = True
            break
        m = None                        # measured after the steps end
        J = _central_jacobian(_regular(B, "Newton stencil"), h)
        jh = float(np.linalg.norm(J)) * h
        try:
            step = np.linalg.solve(J, B[0])
        except np.linalg.LinAlgError:
            break
        norm = np.linalg.norm(step)
        if norm > cap:
            step *= cap / norm
        p = p - step
        if outside(p):
            raise ZeroNotBracketed("zero refinement left the search region")
        if norm < 1e-13:
            stopped = True
            break
    if method == "newton" and not stopped:
        raise ZeroNotBracketed("Newton steps ended without converging")
    if m is None:
        m = float(np.linalg.norm(_regular(f(p[None, :]), "field zero")[0]))
    if m > m_start:
        p, m = start, m_start
    if m > ZERO_TOLERANCE * jh:
        raise ZeroNotBracketed(
            f"|B| minimum is not a zero: |B| = {m * GAUSS_PER_TESLA:.4g} G at "
            f"{np.round(p * 1e3, 4).tolist()} mm")
    return ZeroResult(position=p, method=method, iterations=stencils, residual=m)


def jacobian_at(source, p, h: float = DEFAULT_STENCIL) -> np.ndarray:
    """Central-difference Jacobian dB_i/dx_j (T/m); column j is d/dx_j."""
    _positive("stencil step", h)
    f = as_field(source)
    p = _points(p, "stencil centre")
    return _central_jacobian(_regular(f(_stencil(p, h)), "Jacobian stencil"), h)


def fit_gradients(source, zero, window: float = DEFAULT_WINDOW,
                  n: int = DEFAULT_SAMPLES) -> GradientReport:
    """Per-axis linear fit of the signed on-axis component over +-window.

    The signed component (B_x along x, ...) is fitted rather than |B|, which
    is non-differentiable at the zero; slope magnitudes agree on each
    half-axis.  The three axes are one least-squares problem over their
    shared abscissae.
    """
    _positive("fit window", window)
    _check("sample count", COUNT, n)
    if n < 5:
        raise InvalidInput("need at least 5 samples per axis")
    if 3 * n > MAX_SAMPLES:
        raise InvalidInput(f"a fit may take at most {MAX_SAMPLES} samples")
    f = as_field(source)
    zero = _points(zero, "field zero")
    s = np.linspace(-window, window, n)
    # rows axis * n + i hold zero + s[i] * e_axis
    B = _regular(f((zero + s[None, :, None] * np.eye(3)[:, None, :])
                   .reshape(-1, 3)), "gradient-fit sample").reshape(3, n, 3)
    y = B[(0, 1, 2), :, (0, 1, 2)]     # (3, n): B_x along x, B_y along y, ...
    xm = s - s.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise DegenerateFit("degenerate abscissae")
    ym = y.mean(axis=1)
    # (3, 1, n) @ (n,) is one BLAS dot per row, as a 1-D fit of each axis
    # takes, so the three fits round as three separate ones would
    slope = ((y - ym[:, None])[:, None, :] @ xm)[:, 0] / sxx
    resid = y - (slope[:, None] * s + (ym - slope * s.mean())[:, None])
    var = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0] / (n - 2)
    g = slope * GCM_PER_TPM
    if g[0] == 0.0:
        raise DegenerateFit("x-gradient is zero; ratio undefined")
    return GradientReport(
        zero_position=zero,
        g=g,
        sigma_g=np.sqrt(var / sxx) * GCM_PER_TPM,
        ratio=g / g[0],
        linear_window=window,
        residual_rms=float(np.sqrt(np.mean(resid ** 2))) * GAUSS_PER_TESLA,
    )


@dataclass(frozen=True)
class DesignRecord:
    """One analysed design, as `analyse_design` returns it."""
    segments: SegmentList
    zero: ZeroResult
    gradients: GradientReport
    power: PowerReport
    clearance: float | None            # m; None without a beam diameter


def analyse_design(spec: GeometrySpec, segments: SegmentList,
                   search_radius=DEFAULT_SEARCH_RADIUS, window=DEFAULT_WINDOW,
                   samples=DEFAULT_SAMPLES, material: Material = COPPER,
                   beam_diameter=None) -> DesignRecord:
    """`spec`, built as `segments`, through `clearance_check` if a beam
    diameter is given, `find_field_zero`, `fit_gradients` and `power_report`
    in that order.  Raises ClearanceError, before any field call, if the
    conductors intrude into the beams, and what the later stages raise."""
    clearance = None
    if beam_diameter is not None:
        ok, clearance = clearance_check(segments, beam_diameter)
        if not ok:
            raise ClearanceError(f"conductors intrude {-clearance * 1e3:.4g} "
                                 f"mm into the beams")
    zero = find_field_zero(segments, search_radius=search_radius)
    gradients = fit_gradients(segments, zero.position, window=window, n=samples)
    return DesignRecord(segments, zero, gradients,
                        power_report(spec, material), clearance)


@dataclass(frozen=True)
class SuitabilityVerdict:
    magnitude_ok: bool
    ratio_ok: bool
    linearity_ok: bool
    details: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.magnitude_ok and self.ratio_ok and self.linearity_ok

    def to_json_dict(self) -> dict:
        return {"magnitude_ok": self.magnitude_ok, "ratio_ok": self.ratio_ok,
                "linearity_ok": self.linearity_ok, "passed": self.passed,
                "details": self.details}


def mot_suitability(report: GradientReport) -> SuitabilityVerdict:
    """Check gradient magnitude, ratio against 1:1:-2, and fit linearity."""
    gmin = float(np.min(np.abs(report.g)))
    magnitude_ok = GRADIENT_RANGE[0] <= gmin <= GRADIENT_RANGE[1]
    ratio_ok = True
    for r, t in zip(report.ratio, TARGET_RATIO):
        if abs(r - t) > RATIO_TOLERANCE * abs(t):
            ratio_ok = False
    window_cm = report.linear_window * 100.0
    linearity = report.residual_rms / max(gmin * window_cm, 1e-30)
    linearity_ok = linearity < LINEARITY_MAX
    return SuitabilityVerdict(
        magnitude_ok=magnitude_ok, ratio_ok=ratio_ok, linearity_ok=linearity_ok,
        details={"min_gradient_Gcm": gmin, "linearity": linearity,
                 "ratio": report.ratio.tolist()})
