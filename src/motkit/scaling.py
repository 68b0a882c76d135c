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
field and gradient rows describe operation at unchanged supply power, which
is what the numerical verifier below reproduces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import find_field_zero, fit_gradients
from .errors import DegenerateFit, InvalidInput
from .geometry import GeometrySpec, build

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
    if not (math.isfinite(k) and k > 0):
        raise InvalidInput("scale factor must be positive and finite")
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


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    k_values: tuple
    gradients_Gcm: tuple


def verify_scaling_numerically(base_spec: GeometrySpec, k_values,
                               scale_current: bool = True,
                               window: float = 1.0e-3) -> ScalingFit:
    """Simulate shape-preserving rescales and fit the |g_z| power law in k.

    With scale_current=True the drive current follows k^(1/2), which holds
    the dissipated power I^2 R constant (R scales as 1/k); the fitted log-log
    slope should then be -3/2, the gradient relation quoted alongside the
    field's k^(-1/2).  With the current held fixed the slope is -2 by
    dimensional analysis of Biot-Savart.
    """
    ks = sorted(float(k) for k in k_values)
    if len(set(ks)) < 2:
        raise DegenerateFit("need at least two distinct scale factors")
    if base_spec.variant != "AntiHelmholtz":
        raise InvalidInput("numerical scaling check uses the coil-pair family")
    gz = []
    for k in ks:
        spec = base_spec.scaled(k)
        if scale_current:
            spec = spec.replace_parameters(
                current=base_spec.parameters["current"] * k ** 0.5)
        segs = build(spec)
        zero = find_field_zero(segs, search_radius=window * k)
        rep = fit_gradients(segs, zero, window=window * k)
        gz.append(abs(rep.g[2]))
    slope = np.polyfit(np.log(ks), np.log(gz), 1)[0]
    return ScalingFit(exponent=float(slope), k_values=tuple(ks),
                      gradients_Gcm=tuple(gz))
