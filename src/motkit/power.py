"""Resistance, Joule power, current density, and heat-sinking budgets."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput
from .geometry import (COPPER, CURRENT, NUMBER, GeometrySpec, Material, _check,
                       _finite, _positive, conductor_sections)


def _sum(values) -> float:
    """Left-to-right float sum.  The builtin sum() compensates its rounding
    from Python 3.12 on, which would make the figures depend on the Python
    version."""
    total = 0.0
    for value in values:
        total += value
    return total


def joule_power(current: float, resistance: float) -> float:
    """P = I^2 R (watt)."""
    _check("current", CURRENT, current)
    if not (_finite(resistance) and resistance >= 0):
        raise InvalidInput("resistance must be non-negative and finite")
    return current * current * resistance


def current_density(current: float, area: float) -> float:
    """Current density in A/mm^2 for a conductor of cross-section `area` m^2."""
    _check("current", CURRENT, current)
    _positive("area", area)
    return current / (area * 1.0e6)


def required_heat_transfer_coefficient(power: float, contact_area: float,
                                       delta_t: float) -> float:
    """W/m^2K needed to sink `power` through `contact_area` at `delta_t`."""
    _check("power", NUMBER, power)
    _positive("contact area", contact_area)
    _positive("temperature budget", delta_t)
    return power / (contact_area * delta_t)


@dataclass(frozen=True)
class ConductorBudget:
    group_id: str
    length: float            # m, total path length
    cross_section: float     # m^2, narrowest declared section
    resistance: float        # ohm, summed over sections
    current: float           # A
    power: float             # W
    current_density: float   # A/mm^2 at the narrowest section


@dataclass(frozen=True)
class PowerReport:
    material: Material
    conductors: tuple        # of ConductorBudget
    total_power: float       # W

    def to_json_dict(self) -> dict:
        return {
            "material": {"name": self.material.name,
                         "resistivity_ohm_m": self.material.resistivity},
            "conductors": [
                {"group": c.group_id, "length_m": c.length,
                 "cross_section_mm2": c.cross_section * 1e6,
                 "resistance_ohm": c.resistance, "current_A": c.current,
                 "power_W": c.power,
                 "current_density_A_mm2": c.current_density}
                for c in self.conductors
            ],
            "total_power_W": self.total_power,
        }


def power_report(spec: GeometrySpec, material: Material = COPPER) -> PowerReport:
    """Joule budget from the declared solid cross-sections of a geometry.

    Each conductor carries its one current through its sections in series:
    its length is the sum of their lengths, its resistance is the
    resistivity times sum(length/area), multiplied once so that power scales
    exactly with the material's resistivity ratio, and its current density
    is taken at its narrowest section.  Every sum adds left to right.
    """
    conductors = []
    for c in conductor_sections(spec):
        narrowest = min(area for _, area in c.sections)
        # first, so that an area that underflows to 0 is InvalidInput
        density = current_density(c.current, narrowest)
        resistance = material.resistivity * _sum(
            length / area for length, area in c.sections)
        conductors.append(ConductorBudget(
            group_id=c.group_id,
            length=_sum(length for length, _ in c.sections),
            cross_section=narrowest, resistance=resistance, current=c.current,
            power=joule_power(c.current, resistance),
            current_density=density))
    return PowerReport(material=material, conductors=tuple(conductors),
                       total_power=_sum(c.power for c in conductors))
