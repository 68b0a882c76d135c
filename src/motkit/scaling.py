"""Miniaturisation scaling relations for shape-preserving rescales.

For a rescale of all lengths by k the tabulated ratios are:

    trap volume       ~ k^3
    resistance        ~ 1/k
    drive current     ~ k^(3/2)   (maximum current at fixed temperature:
                                   dissipation k^2 matches surface area)
    field at centre   ~ k^(-1/2)  (at constant drive power, I ~ k^(1/2))
    field gradient    ~ k^(-3/2)  (same constant-power drive)
    power = heat rate ~ k^2

`heat_rate` is the surface heat-dissipation capacity, distinct from the
material resistivity.  The current row is a thermal headroom bound; the
field and gradient rows describe operation at unchanged supply power.

The field is linear in the drive current, so g ~ I, P ~ I^2 and the zero
does not move: the figure of merit |g|/sqrt(P) per axis depends on the
geometry alone.  By Biot-Savart g ~ I/k^2 and P ~ I^2/k, so it scales as
k^(-3/2), the gradient row at constant power.  The numerical verifier
below fits that exponent for any variant, with no current to rescale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import GradientReport, find_field_zero, fit_gradients
from .errors import DegenerateFit, InvalidInput
from .geometry import GeometrySpec, _positive, build
from .power import PowerReport, power_report

# m: the verifier's zero search radius and fit window at k = 1, scaled by k
WINDOW = 1.0e-3

RATIO_EXPONENTS = {
    "volume": 3.0,
    "resistance": -1.0,
    "current": 1.5,
    "field": -0.5,
    "gradient": -1.5,
    "power": 2.0,
    "heat_rate": 2.0,
}


@dataclass(frozen=True)
class ScalingReport:
    k: float
    ratios: dict

    def to_json_dict(self) -> dict:
        return {"k": self.k, "ratios": dict(self.ratios)}


def scaling_report(k: float) -> ScalingReport:
    _positive("scale factor", k)
    # a float power raises on overflow but silently underflows to 0.0
    try:
        ratios = {name: k ** e for name, e in RATIO_EXPONENTS.items()}
        representable = all(0.0 < v < math.inf for v in ratios.values())
    except OverflowError:
        representable = False
    if not representable:
        raise InvalidInput(f"scale factor {k:g} gives a ratio that is zero "
                           "or infinite in double precision")
    return ScalingReport(k=k, ratios=ratios)


def gradient_per_root_watt(greport: GradientReport,
                           preport: PowerReport) -> np.ndarray:
    """Per-axis |g|/sqrt(P) in G cm^-1 W^-1/2, from a gradient fit and the
    Joule power of the same geometry at the same drive current."""
    return np.abs(greport.g) / math.sqrt(preport.total_power)


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    k_values: tuple
    g_per_root_watt: tuple   # |g_z|/sqrt(P) per k, G cm^-1 W^-1/2


def verify_scaling_numerically(base_spec: GeometrySpec, k_values) -> ScalingFit:
    """Simulate shape-preserving rescales and fit the |g_z|/sqrt(P) power
    law in k.

    The figure needs no current rescale, so any variant can be checked.  Its
    fitted log-log slope should be -3/2, the gradient relation at constant
    power quoted alongside the field's k^(-1/2), wherever `scaled` scales
    every length the geometry holds.
    """
    ks = sorted(float(k) for k in k_values)
    if len(set(ks)) < 2:
        raise DegenerateFit("need at least two distinct scale factors")
    figures = []
    for k in ks:
        spec = base_spec.scaled(k)
        segs = build(spec)
        zero = find_field_zero(segs, search_radius=WINDOW * k).position
        rep = fit_gradients(segs, zero, window=WINDOW * k)
        figures.append(float(gradient_per_root_watt(rep, power_report(spec))[2]))
    slope = np.polyfit(np.log(ks), np.log(figures), 1)[0]
    return ScalingFit(exponent=float(slope), k_values=tuple(ks),
                      g_per_root_watt=tuple(figures))
