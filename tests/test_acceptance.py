"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line so the criterion status is visible in
`pytest -v` output even when the suite is large.
"""
import json
import math
import time

import numpy as np
import pytest

import motkit as mk
from motkit import cli
from motkit.field import _distance_to_segments

GCM = 100.0  # (T/m) -> G/cm


def _analyze(variant):
    segs = mk.build(mk.GeometrySpec(variant))
    zero = mk.find_field_zero(segs)
    return segs, zero, mk.fit_gradients(segs, zero)


def test_criterion_01_loop_oracle():
    start = time.perf_counter()
    r, current = 0.025, 1.0
    loop = mk.make_loop((0, 0, 0), r, (0, 0, 1), current, 1000)
    bz = mk.field_at(loop, np.zeros(3))[2]
    expected = mk.MU_0 * current / (2.0 * r)
    elapsed = time.perf_counter() - start
    assert abs(bz - expected) / expected < 1e-3
    assert elapsed < 1.0
    print(f"criterion 1: PASS (loop field {bz:.6e} T vs {expected:.6e} T, "
          f"{elapsed * 1e3:.0f} ms)")


def test_criterion_02_wire_oracle():
    wire = mk.make_free_path([(0, 0, -10.0), (0, 0, 10.0)], 1.0)
    d = 0.010
    b = np.linalg.norm(mk.field_at(wire, np.array([d, 0.0, 0.0])))
    expected = mk.MU_0 / (2.0 * math.pi * d)
    rel = abs(b - expected) / expected
    assert rel < 1e-6
    print(f"criterion 2: PASS (wire field relative error {rel:.2e})")


def test_criterion_03_anti_helmholtz_ratio():
    _, _, rep = _analyze("AntiHelmholtz")
    gx, gy, gz = rep.g
    assert abs(gx - gy) <= 5e-3 * abs(gx)
    assert abs(gx - (-gz / 2.0)) <= 5e-3 * abs(gx)
    assert abs(gy - (-gz / 2.0)) <= 5e-3 * abs(gy)
    print(f"criterion 3: PASS (gradients {gx:.4f}/{gy:.4f}/{gz:.4f} G/cm)")


def test_criterion_04_maxwell_invariants():
    rng = np.random.default_rng(20260824)
    presets = ["AntiHelmholtz", "IoffePritchard", "TwistedCage",
               "CompactFour", "TwoPiece"]
    h = 5e-6
    margin = 2e-3
    checked = 0
    worst_trace, worst_asym = 0.0, 0.0
    for variant in presets:
        segs = mk.build(mk.GeometrySpec(variant))
        need = 20
        while need > 0:
            p = rng.uniform(-6e-3, 6e-3, size=3)
            if _distance_to_segments(p, segs.starts, segs.ends).min() < margin:
                continue
            j = mk.jacobian_at(segs, p, h)
            scale = np.linalg.norm(j)
            if scale == 0.0:
                continue
            rel_trace = abs(np.trace(j)) / scale
            rel_asym = np.max(np.abs(j - j.T)) / scale
            worst_trace = max(worst_trace, rel_trace)
            worst_asym = max(worst_asym, rel_asym)
            assert rel_trace < 1e-4
            assert rel_asym < 1e-4  # all sample points are current-free
            need -= 1
            checked += 1
    assert checked == 100
    print(f"criterion 4: PASS (100 points, worst trace {worst_trace:.1e}, "
          f"worst asymmetry {worst_asym:.1e})")


def test_criterion_05_two_piece_preset():
    start = time.perf_counter()
    _, zero, rep = _analyze("TwoPiece")
    elapsed = time.perf_counter() - start
    assert np.linalg.norm(zero) < 0.5e-3
    ratio_z = rep.ratio[2]
    assert -2.2 <= ratio_z <= -1.6
    targets = np.array([8.98, 9.20, -17.6])
    for g, t in zip(rep.g, targets):
        assert abs(g) >= 0.5 * abs(t) and abs(g) <= 1.5 * abs(t)
        assert np.sign(g) == np.sign(t)
    assert elapsed < 30.0
    print(f"criterion 5: PASS (g = {rep.g[0]:.2f}/{rep.g[1]:.2f}/"
          f"{rep.g[2]:.2f} G/cm, ratio z {ratio_z:.2f}, {elapsed:.1f} s)")


def test_criterion_06_compact_four_preset():
    _, zero, rep = _analyze("CompactFour")
    assert np.linalg.norm(zero) < 0.5e-3
    ratio_z = rep.ratio[2]
    assert -2.3 <= ratio_z <= -1.7
    targets = np.array([11.5, 11.9, -22.5])
    for g, t in zip(rep.g, targets):
        assert abs(g) >= 0.5 * abs(t) and abs(g) <= 1.5 * abs(t)
        assert np.sign(g) == np.sign(t)
    print(f"criterion 6: PASS (g = {rep.g[0]:.2f}/{rep.g[1]:.2f}/"
          f"{rep.g[2]:.2f} G/cm, ratio z {ratio_z:.2f})")


def test_criterion_07_scaling_law():
    start = time.perf_counter()
    fit = mk.verify_scaling_numerically(mk.GeometrySpec("AntiHelmholtz"),
                                        [0.5, 1.0, 2.0])
    elapsed = time.perf_counter() - start
    assert fit.exponent == pytest.approx(-1.50, abs=0.05)
    assert elapsed < 10.0
    print(f"criterion 7: PASS (exponent {fit.exponent:.4f}, {elapsed:.1f} s)")


def test_criterion_08_thermal_arithmetic():
    h = mk.required_heat_transfer_coefficient(0.2, 4e-5, 200.0)
    assert h == 25.0
    spec = mk.GeometrySpec("TwoPiece")
    p_cu = mk.power_report(spec, mk.COPPER).total_power
    p_ti = mk.power_report(spec, mk.TITANIUM_LIKE).total_power
    assert p_ti == 10.0 * p_cu
    print(f"criterion 8: PASS (h = {h} W/m2K, power x{p_ti / p_cu:g})")


def test_criterion_09_power_order():
    p_two = mk.power_report(mk.GeometrySpec("TwoPiece"), mk.COPPER).total_power
    assert 0.05 <= p_two <= 1.0
    p_cage = mk.power_report(mk.GeometrySpec("TwistedCage"),
                             mk.COPPER).total_power
    assert 0.149 <= p_cage <= 149.0  # order of magnitude about 14.9 W
    print(f"criterion 9: PASS (two-piece {p_two:.3f} W, cage {p_cage:.2f} W)")


def test_criterion_10_optimizer_oracle():
    spec = mk.GeometrySpec("AntiHelmholtz", {},
                           mk.Discretization(segments_per_turn=24))
    obj = mk.ObjectiveSpec(target_gradient=50.0, w_mag=1.0, w_ratio=0.0,
                           w_power=0.0, bounds={"separation": (0.02, 0.1)},
                           search_radius=2e-3, fit_window=1e-3)
    lo, hi = obj.bounds["separation"]
    grid = np.linspace(lo, hi, 200)
    values = [mk.objective_value(spec.replace_parameters(separation=s), obj)
              for s in grid]
    best_grid = grid[int(np.argmin(values))]
    result = mk.optimize_geometry(spec, obj, budget=120)
    spacing = grid[1] - grid[0]
    assert abs(result.best_parameters["separation"] - best_grid) <= spacing
    best = [row[1] for row in result.trace]
    assert all(b <= a for a, b in zip(best, best[1:]))
    print(f"criterion 10: PASS (optimum {result.best_parameters['separation']:.5f} m "
          f"vs grid {best_grid:.5f} m, spacing {spacing:.5f} m)")


def test_criterion_11_synthetic_linear_field():
    m = np.diag([0.009, 0.0092, -0.0176])  # T/m
    rep = mk.fit_gradients(lambda p: m @ np.asarray(p, dtype=float),
                           np.zeros(3))
    expected = np.diag(m) * GCM
    rel = np.max(np.abs(rep.g - expected) / np.abs(expected))
    assert rel < 1e-10
    assert rep.residual_rms < 1e-12
    print(f"criterion 11: PASS (slope error {rel:.1e}, "
          f"residual {rep.residual_rms:.1e} G)")


def test_criterion_12_reproducibility(tmp_path):
    doc = {
        "geometry": {"variant": "TwoPiece", "parameters": {}},
        "analysis": {"scan_points": 21, "plane_points": 5},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    files = ["scan_x.csv", "scan_y.csv", "scan_z.csv", "plane_xy.csv",
             "plane_xz.csv", "plane_zy.csv", "report.json"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out)
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print("criterion 12: PASS (byte-identical outputs across two runs)")


def test_criterion_13_headline_gradient_per_root_watt():
    # the abstract's "gradients around 15 G/cm ... Joule heating as low as
    # 0.2 W" as a current-free figure, on the axial gradient
    spec = mk.GeometrySpec("TwoPiece")
    segs, _, rep = _analyze("TwoPiece")
    figure = mk.gradient_per_root_watt(rep, mk.power_report(spec, mk.COPPER))
    headline = 15.0 / math.sqrt(0.2)
    assert figure[2] >= headline
    ok, clearance = mk.clearance_check(segs, 15e-3)
    assert ok
    print(f"criterion 13: PASS (|g|/sqrt(P) = {figure[0]:.2f}/{figure[1]:.2f}/"
          f"{figure[2]:.2f} G/cm/W^0.5 vs {headline:.2f}, 15 mm beams clear "
          f"by {clearance * 1e3:.2f} mm)")
