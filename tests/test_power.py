"""Resistance, Joule power, current density, and heat-sink arithmetic."""
import math

import pytest

import motkit as mk
from motkit.errors import InvalidInput


def test_joule_power():
    assert mk.joule_power(25.0, 4.0e-4) == pytest.approx(0.25)
    with pytest.raises(InvalidInput):
        mk.joule_power(1.0, -1.0)


def test_current_density_in_amps_per_mm2():
    # typical operating point: 25 A through a 3.1 mm x 1.6 mm arm is about 5 A/mm^2
    density = mk.current_density(25.0, 0.0031 * 0.0016)
    assert density == pytest.approx(5.04, rel=1e-2)
    with pytest.raises(InvalidInput):
        mk.current_density(1.0, 0.0)


def test_heat_transfer_coefficient_exact():
    assert mk.required_heat_transfer_coefficient(0.2, 4e-5, 200.0) == 25.0
    with pytest.raises(InvalidInput):
        mk.required_heat_transfer_coefficient(0.2, 0.0, 200.0)
    with pytest.raises(InvalidInput):
        mk.required_heat_transfer_coefficient(0.2, 4e-5, 0.0)


def test_material_table():
    assert mk.MATERIALS["copper"] is mk.COPPER
    assert mk.TITANIUM_LIKE.resistivity == pytest.approx(
        10.0 * mk.COPPER.resistivity, rel=1e-12)
    for bad in (0.0, -1e-8, math.nan, math.inf, "1e-8", True):
        with pytest.raises(InvalidInput, match="resistivity"):
            mk.Material("bad", bad)


def test_power_scales_exactly_with_resistivity():
    spec = mk.GeometrySpec("TwoPiece")
    p_cu = mk.power_report(spec, mk.COPPER).total_power
    p_ti = mk.power_report(spec, mk.TITANIUM_LIKE).total_power
    assert p_ti == 10.0 * p_cu


def test_two_piece_power_order():
    report = mk.power_report(mk.GeometrySpec("TwoPiece"), mk.COPPER)
    assert 0.05 <= report.total_power <= 1.0
    assert len(report.conductors) == 2
    for budget in report.conductors:
        assert budget.resistance > 0
        assert budget.power > 0
        assert budget.current == pytest.approx(25.0)


def test_twisted_cage_power_order_of_magnitude():
    report = mk.power_report(mk.GeometrySpec("TwistedCage"), mk.COPPER)
    # the volumetric simulation quotes 14.9 W; a filament estimate agrees
    # only to order of magnitude
    assert 0.149 <= report.total_power <= 149.0


def _left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize("spec", [
    mk.GeometrySpec("TwoPiece"), mk.GeometrySpec("CompactFour"),
    # Python 3.12's compensated sum() gives this spec another total
    mk.GeometrySpec("TwistedCage", {"bar_diameter": 0.009}),
], ids=["TwoPiece", "CompactFour", "TwistedCage_9mm"])
def test_power_figures_add_left_to_right(spec):
    # every Python version must give the same bits
    report = mk.power_report(spec, mk.COPPER)
    for c, budget in zip(mk.conductor_sections(spec), report.conductors):
        resistance = mk.COPPER.resistivity * _left_to_right(
            length / area for length, area in c.sections)
        assert budget.length == _left_to_right(length for length, _ in c.sections)
        assert budget.resistance == resistance
        assert budget.power == c.current * c.current * resistance
    assert report.total_power == _left_to_right(b.power for b in report.conductors)


def test_power_report_json_shape():
    doc = mk.power_report(mk.GeometrySpec("AntiHelmholtz")).to_json_dict()
    assert doc["material"]["name"] == "copper"
    assert len(doc["conductors"]) == 2
    assert doc["total_power_W"] > 0
    row = doc["conductors"][0]
    assert set(row) == {"group", "length_m", "cross_section_mm2",
                        "resistance_ohm", "current_A", "power_W",
                        "current_density_A_mm2"}
