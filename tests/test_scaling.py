"""Miniaturisation ratio table and its numerical verification."""
import math

import pytest

import motkit as mk
from motkit.errors import DegenerateFit, InvalidInput


def test_unity_scale_gives_all_ones():
    report = mk.scaling_report(1.0)
    assert all(v == pytest.approx(1.0) for v in report.ratios.values())


def test_quoted_exponents_at_k4():
    ratios = mk.scaling_report(4.0).ratios
    assert ratios["volume"] == pytest.approx(64.0)
    assert ratios["resistance"] == pytest.approx(0.25)
    assert ratios["current"] == pytest.approx(8.0)
    assert ratios["field"] == pytest.approx(0.5)
    assert ratios["gradient"] == pytest.approx(0.125)
    assert ratios["power"] == pytest.approx(16.0)
    assert ratios["heat_rate"] == pytest.approx(16.0)


def test_scale_factor_must_be_positive():
    with pytest.raises(InvalidInput):
        mk.scaling_report(0.0)
    with pytest.raises(InvalidInput):
        mk.scaling_report(-2.0)
    for k in (math.nan, math.inf):
        with pytest.raises(InvalidInput):
            mk.scaling_report(k)


def test_numerical_gradient_exponent_constant_power():
    fit = mk.verify_scaling_numerically(mk.GeometrySpec("AntiHelmholtz"),
                                        [0.5, 1.0, 2.0])
    assert fit.exponent == pytest.approx(-1.5, abs=0.05)
    assert fit.k_values == (0.5, 1.0, 2.0)
    assert all(g > 0 for g in fit.g_per_root_watt)


def test_numerical_exponent_is_exact_on_any_variant():
    # no current to rescale, so the check takes any variant whose lengths
    # all scale; factors of two scale every length exactly
    for variant in ("AntiHelmholtz", "TwistedCage"):
        fit = mk.verify_scaling_numerically(mk.GeometrySpec(variant),
                                            [0.5, 1.0, 2.0])
        assert fit.exponent == pytest.approx(-1.5, abs=1e-9)


def test_numerical_check_requires_two_scales():
    with pytest.raises(DegenerateFit):
        mk.verify_scaling_numerically(mk.GeometrySpec("AntiHelmholtz"), [1.0])


def test_report_json():
    doc = mk.scaling_report(2.0).to_json_dict()
    assert doc["k"] == 2.0
    assert doc["ratios"]["gradient"] == pytest.approx(2.0 ** -1.5)


def test_numerical_figures_are_bitwise_the_hand_written_chain():
    # build, find the zero, fit the gradients and budget the power, written
    # out by hand at the verifier's k-scaled search radius and fit window
    spec = mk.GeometrySpec("AntiHelmholtz", {}, 24)
    ks = (0.5, 1.0, 2.0)
    fit = mk.verify_scaling_numerically(spec, ks)
    expected = []
    for k in ks:
        scaled = spec.scaled(k)
        segs = mk.build(scaled)
        window = mk.scaling.WINDOW * k
        zero = mk.find_field_zero(segs, search_radius=window).position
        rep = mk.fit_gradients(segs, zero, window=window)
        power = mk.power_report(scaled).total_power
        expected.append(float(abs(rep.g[2]) / math.sqrt(power)))
    assert [x.hex() for x in fit.g_per_root_watt] == [x.hex() for x in expected]
