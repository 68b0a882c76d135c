"""Field-zero location, gradient fits, and MOT suitability checks.

Accepts either a SegmentList or any callable p -> B (tesla); the callable
form is what the synthetic-field tests use.  Every analysis evaluates its
points in one batched call: the zero finder's grid, each Newton step's
seven-point stencil and the three axis scans of a gradient fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DegenerateFit, InvalidInput, SingularPoint, ZeroNotBracketed
from .field import field_many
from .geometry import SegmentList

GAUSS_PER_TESLA = 1.0e4
GCM_PER_TPM = 100.0           # 1 T/m = 100 G/cm

# the one copy of each analysis default, for both `simulate` and `optimize`
DEFAULT_SEARCH_RADIUS = 3.0e-3  # m
DEFAULT_WINDOW = 2.0e-3       # m
DEFAULT_SAMPLES = 41
DEFAULT_STENCIL = 1.0e-4      # m
_GRID_N = 11                  # zero-finder grid points per axis

# MOT suitability: minimum-axis gradient range (G/cm), the 1:1:-2 ratio of a
# quadrupole with its relative tolerance, and the largest residual_rms /
# (|g| * window)
GRADIENT_RANGE = (5.0, 25.0)
TARGET_RATIO = (1.0, 1.0, -2.0)
RATIO_TOLERANCE = 0.25
LINEARITY_MAX = 0.1


def as_field(source):
    """Normalise a SegmentList or callable p -> B into a batched function
    points (N, 3) -> B (N, 3) with NaN rows at singular points."""
    if isinstance(source, SegmentList):
        return lambda points: field_many(source, points)
    if not callable(source):
        raise InvalidInput("expected a SegmentList or a field callable")

    def rows(points):
        out = np.empty((len(points), 3))
        for i, p in enumerate(points):
            try:
                out[i] = source(p)
            except SingularPoint:
                out[i] = np.nan
        return out

    return rows


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


def find_field_zero(source, search_center=(0.0, 0.0, 0.0),
                    search_radius=DEFAULT_SEARCH_RADIUS) -> np.ndarray:
    """|B| minimum: coarse grid scan, then Newton steps on B = 0.

    Near a quadrupole zero B is linear, so Newton on the vector field is the
    quadratic-convergence refinement of the |B|^2 descent.
    """
    if search_radius <= 0:
        raise InvalidInput("search radius must be positive")
    f = as_field(source)
    c = np.asarray(search_center, dtype=float)
    axis = np.linspace(-search_radius, search_radius, _GRID_N)
    grid = c + np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
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

    best_p = grid[best]
    p = best_p.copy()
    h = max(search_radius / 200.0, 1e-6)
    for _ in range(60):
        B = f(_stencil(p, h))
        if np.linalg.norm(B[0]) == 0.0:
            break
        J = _central_jacobian(_regular(B, "Newton stencil"), h)
        try:
            step = np.linalg.solve(J, B[0])
        except np.linalg.LinAlgError:
            break
        norm = np.linalg.norm(step)
        cap = search_radius / 4.0
        if norm > cap:
            step *= cap / norm
        p = p - step
        if np.linalg.norm(p - c) > search_radius * math.sqrt(3.0):
            raise ZeroNotBracketed("zero refinement left the search region")
        if norm < 1e-13:
            break
    if float(np.linalg.norm(_regular(f(p[None, :]), "field zero")[0])) <= best_m:
        return p
    return best_p


def jacobian_at(source, p, h: float = DEFAULT_STENCIL) -> np.ndarray:
    """Central-difference Jacobian dB_i/dx_j (T/m); column j is d/dx_j."""
    if h <= 0:
        raise InvalidInput("stencil step must be positive")
    f = as_field(source)
    p = np.asarray(p, dtype=float)
    return _central_jacobian(_regular(f(_stencil(p, h)), "Jacobian stencil"), h)


def _fit_line(x, y):
    """Least-squares slope with its standard error and residuals."""
    n = x.size
    if n < 3 or np.ptp(x) == 0.0:
        raise DegenerateFit("not enough distinct abscissae for a slope fit")
    xm = x - x.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise DegenerateFit("degenerate abscissae")
    slope = float(xm @ (y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    var = float(resid @ resid) / (n - 2)
    sigma = math.sqrt(max(var, 0.0) / sxx)
    return slope, sigma, resid


def fit_gradients(source, zero, window: float = DEFAULT_WINDOW,
                  n: int = DEFAULT_SAMPLES) -> GradientReport:
    """Per-axis linear fit of the signed on-axis component over +-window.

    The signed component (B_x along x, ...) is fitted rather than |B|, which
    is non-differentiable at the zero; slope magnitudes agree on each
    half-axis.
    """
    if window <= 0:
        raise InvalidInput("fit window must be positive")
    if n < 5:
        raise InvalidInput("need at least 5 samples per axis")
    f = as_field(source)
    zero = np.asarray(zero, dtype=float)
    s = np.linspace(-window, window, n)
    # rows axis * n + i hold zero + s[i] * e_axis
    B = _regular(f((zero + s[None, :, None] * np.eye(3)[:, None, :])
                   .reshape(-1, 3)), "gradient-fit sample").reshape(3, n, 3)
    g = np.empty(3)
    sigma = np.empty(3)
    residuals = []
    for axis in range(3):
        slope, err, resid = _fit_line(s, B[axis, :, axis])
        g[axis] = slope * GCM_PER_TPM
        sigma[axis] = err * GCM_PER_TPM
        residuals.append(resid)
    if g[0] == 0.0:
        raise DegenerateFit("x-gradient is zero; ratio undefined")
    resid_all = np.concatenate(residuals)
    return GradientReport(
        zero_position=zero,
        g=g,
        sigma_g=sigma,
        ratio=g / g[0],
        linear_window=window,
        residual_rms=float(np.sqrt(np.mean(resid_all ** 2))) * GAUSS_PER_TESLA,
    )


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
