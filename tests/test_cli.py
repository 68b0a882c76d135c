"""End-to-end CLI behaviour: exit codes, files, reproducibility."""
import argparse
import importlib.util
import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motkit as mk
from motkit import cli


def run(argv):
    return cli.main(argv)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def coil_config(**extra):
    doc = {
        "geometry": {
            "variant": "AntiHelmholtz",
            "parameters": {"radius": 50.0, "separation": 50.0,
                           "current": 100.0, "wire_diameter": 1.0},
            "discretization": {"segments_per_turn": 60},
        },
        "analysis": {"scan_points": 11, "plane_points": 5},
    }
    doc.update(extra)
    return doc


SIM_FILES = ["scan_x.csv", "scan_y.csv", "scan_z.csv",
             "plane_xy.csv", "plane_xz.csv", "plane_zy.csv", "report.json"]


def test_simulate_writes_all_outputs(tmp_path):
    cfg = write_config(tmp_path, coil_config())
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    for name in SIM_FILES:
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    ratio = report["gradient_report"]["ratio"]
    assert ratio[1] == pytest.approx(1.0, abs=5e-3)
    assert ratio[2] == pytest.approx(-2.0, abs=1e-2)


def test_simulate_accepts_bundled_preset(tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", "anti_helmholtz",
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gradient_report"]["ratio"][2] == pytest.approx(-2.0, abs=1e-2)


def test_two_piece_preset_report(tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", "two_piece", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    ratio = report["gradient_report"]["ratio"]
    assert -2.2 <= ratio[2] <= -1.6
    assert report["suitability"]["passed"] is True
    assert 0.05 <= report["power_report"]["total_power_W"] <= 1.0


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, coil_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert run(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    for name in SIM_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_unknown_config_key_is_exit_2(tmp_path):
    cfg = write_config(tmp_path, dict(coil_config(), surprise=1))
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_geometry_leaves_no_partial_output(tmp_path):
    doc = coil_config()
    doc["geometry"]["parameters"]["radius"] = -5.0
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or not list(out.iterdir())


def test_unusable_output_directory_is_exit_2(tmp_path):
    cfg = write_config(tmp_path, coil_config())
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    assert run(["simulate", "--config", cfg, "--out", str(blocker)]) == 2


@pytest.mark.parametrize("command, blocked", [("simulate", "scan_x.csv"),
                                              ("simulate", "plane_zy.csv"),
                                              ("simulate", "report.json"),
                                              ("optimize", "opt_trace.csv")])
def test_unwritable_target_writes_nothing_and_is_exit_2(tmp_path, capsys,
                                                       command, blocked):
    # one target is a directory, so the command writes none of its files and
    # leaves no temporary file
    cfg = write_config(tmp_path, coil_config(objective={
        "bounds_mm": {"separation": [30.0, 80.0]}}))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    capsys.readouterr()
    assert run([command, "--config", cfg, "--out", str(out),
                *(["--budget", "3"] if command == "optimize" else [])]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in out.iterdir()] == [blocked]
    assert not list((out / blocked).iterdir())


def test_simulate_holds_one_map_at_a_time(tmp_path):
    # three 201 x 201 planes: every text held until the last is rendered
    # would take more than the files it writes
    cfg = write_config(tmp_path, {
        "geometry": {"variant": "AntiHelmholtz",
                     "discretization": {"segments_per_turn": 24}},
        "analysis": {"plane_points": 201}})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(path.stat().st_size for path in out.glob("*.csv"))
    assert peak < written


def test_failed_write_removes_its_temporaries(tmp_path, capsys, monkeypatch):
    real = cli.tempfile.mkstemp
    made = []

    def mkstemp(**kwargs):
        if len(made) == 3:
            raise OSError(28, "No space left on device")
        made.append(real(**kwargs))
        return made[-1]

    monkeypatch.setattr(cli.tempfile, "mkstemp", mkstemp)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, coil_config())
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert len(made) == 3 and not list(out.iterdir())


def test_failed_map_removes_the_written_temporaries(tmp_path, capsys,
                                                    monkeypatch):
    # the scans are in their temporary files when the first plane fails
    def empty(*args):
        raise mk.EmptySample("every sample point is singular")

    monkeypatch.setattr(cli, "sample_plane", empty)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, coil_config())
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert "every sample point is singular" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_report_with_a_non_finite_number_is_exit_4():
    with pytest.raises(mk.MotKitError, match="non-finite number") as info:
        cli._json_text({"g_Gcm": [math.nan, 1.0, -2.0]})
    assert info.value.exit_code == 4


def test_missing_config_file_is_exit_2(tmp_path):
    assert run(["simulate", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o")]) == 2
    # a file that is not UTF-8 is unreadable too
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    assert run(["simulate", "--config", str(binary),
                "--out", str(tmp_path / "o")]) == 2


def test_config_without_geometry_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: config is missing the 'geometry' section\n")


def test_usage_errors_are_exit_2_and_help_is_exit_0(capsys):
    assert run([]) == 2
    assert run(["simulate"]) == 2
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: motkit")


def test_optimize_requires_objective(tmp_path):
    cfg = write_config(tmp_path, coil_config())
    assert run(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_optimize_writes_result_and_trace(tmp_path):
    doc = coil_config(objective={
        "target_gradient_Gcm": 10.0,
        "weights": {"w_mag": 1.0, "w_ratio": 0.0, "w_power": 0.0},
        "bounds_mm": {"separation": [30.0, 80.0]},
    })
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run(["optimize", "--config", cfg, "--out", str(out),
                "--budget", "15"]) == 0
    result = json.loads((out / "opt_result.json").read_text())
    assert 0.030 <= result["best_parameters"]["separation"] <= 0.080
    trace = (out / "opt_trace.csv").read_text().strip().split("\n")
    assert trace[0] == "eval,objective,separation"
    assert len(trace) == 1 + result["evaluations"]


def test_optimize_infeasible_start_is_exit_3(tmp_path):
    doc = {
        "geometry": {"variant": "TwoPiece", "parameters": {}},
        "objective": {
            "beam_diameter_mm": 16.0,
            "bounds_mm": {"height": [30.0, 50.0]},
        },
    }
    cfg = write_config(tmp_path, doc)
    assert run(["optimize", "--config", cfg, "--out", str(tmp_path / "o"),
                "--budget", "3"]) == 3


def test_scale_table_and_errors(tmp_path, capsys):
    assert run(["scale", "4"]) == 0
    out = capsys.readouterr().out
    assert "current" in out and "8" in out
    assert run(["scale", "-1"]) == 2
    assert run(["scale", "nan"]) == 2
    assert run(["scale", "inf"]) == 2
    # ratios beyond the double range: k**3 overflows, k**-1.5 overflows,
    # and k**3 underflows to zero
    for k in ("1e308", "1e-308", "1e-200"):
        assert run(["scale", k]) == 2, k
    out_dir = tmp_path / "s"
    assert run(["scale", "2", "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "scaling.json").read_text())
    assert doc["ratios"]["gradient"] == pytest.approx(2.0 ** -1.5)


def test_export_square_loop(tmp_path):
    doc = {"geometry": {"variant": "FreePath", "parameters": {
        "points": [[0, 0, 0], [10, 0, 0], [10, 10, 0], [0, 10, 0]],
        "current": 1.0, "closed": True}}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run(["export", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "geometry.obj").read_text()
    lines = text.strip().split("\n")
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("l ")) == 4


def test_export_two_piece_has_two_groups(tmp_path):
    out = tmp_path / "out"
    assert run(["export", "--config", "two_piece", "--out", str(out)]) == 0
    text = (out / "geometry.obj").read_text()
    groups = [l.split()[1] for l in text.splitlines() if l.startswith("o ")]
    assert groups == ["piece_a", "piece_b"]


def test_obj_export_lists_each_segment_by_its_ends(tmp_path):
    doc = {"geometry": {"variant": "FreePath", "parameters": {
        "points": [[0, 0, 0], [40, 0, 0], [40, 40, 0], [0, 40, 0]],
        "current": 2.0, "closed": True}}}
    # one group, and two whose vertex numbers run on across groups
    for cfg in (write_config(tmp_path, doc), "anti_helmholtz"):
        out = tmp_path / "out"
        assert run(["export", "--config", cfg, "--out", str(out)]) == 0
        vertices, lines = [], []
        for line in (out / "geometry.obj").read_text().splitlines():
            kind, *fields = line.split()
            if kind == "v":
                vertices.append([float(c) for c in fields])
            elif kind == "l":
                lines.append([vertices[int(i) - 1] for i in fields])
        segs = mk.build(cli.load_config(cfg)["geometry"])
        parts = [segs.group(g) for g in segs.groups()]
        expected = np.concatenate(
            [np.stack([p.starts, p.ends], axis=1) for p in parts]) * 1e3
        assert np.array(lines).shape == expected.shape
        assert np.max(np.abs(np.array(lines) - expected)) <= 1e-6, cfg


def test_all_presets_load_and_build():
    for name in ("anti_helmholtz", "twisted_cage", "compact_four", "two_piece"):
        cfg = cli.load_config(name)
        segs = mk.build(cfg["geometry"])
        assert len(segs) > 0


def test_unknown_preset_name_is_exit_2(tmp_path):
    assert run(["simulate", "--config", "no_such_preset",
                "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("path, value", [
    (["analysis"], 5), (["analysis"], []),
    (["analysis", "samples"], "x"), (["analysis", "samples"], None),
    (["analysis", "samples"], math.inf), (["analysis", "samples"], True),
    (["analysis", "window_mm"], math.nan),
    (["analysis", "scan_halfrange_mm"], -5),
    (["material"], 5), (["material"], []),
    (["material", "resistivity_ohm_m"], None),
    (["material", "resistivity_ohm_m"], math.nan),
    (["objective"], 5), (["objective", "weights"], 5),
    (["objective", "target_ratio"], 5),
    (["objective", "target_ratio"], ["a", 1, 1]),
    (["objective", "bounds_mm"], []),
    (["objective", "bounds_mm", "radius"], ["a", "b"]),
    (["objective", "bounds_mm", "bogus"], [1.0, 2.0]),
    (["objective", "max_power_W"], []), (["objective", "power_ref_W"], 0),
    (["objective", "weights", "w_mag"], math.nan),
    # sample counts: over the cap, not positive, or too few for a fit
    (["analysis", "plane_points"], 5000),
    (["analysis", "samples"], 1_000_000_000),
    (["analysis", "samples"], -1_000_000_000), (["analysis", "scan_points"], 0),
    (["analysis", "samples"], 3),
    # lengths beyond MAX_LENGTH, which would overflow the field kernel
    (["analysis", "scan_halfrange_mm"], 1e300),
    (["analysis", "search_radius_mm"], 1e300),
    # a removed key: there is no power cap
    (["objective", "max_power_W"], -1),
    # current bounds beyond MAX_CURRENT, whose I^2 would overflow
    (["objective", "bounds_mm", "current"], [1.0, 1e160]),
    # keys of settings that were removed: the ratio target is TARGET_RATIO,
    # and there is no power cap
    (["objective", "target_ratio"], [1, 1, -2]),
    (["objective", "max_power_W"], None),
    # below MIN_TARGET_GRADIENT, where the score's square would overflow
    (["objective", "target_gradient_Gcm"], 1e-320),
    # beyond MAX_RESISTIVITY, where the power would overflow
    (["material", "resistivity_ohm_m"], 1e300),
    # beyond MAX_WEIGHT, where the weighted power would overflow
    (["objective", "weights", "w_power"], 1e308),
])
def test_malformed_config_is_exit_2(tmp_path, path, value):
    doc = coil_config(objective={
        "weights": {"w_mag": 1.0, "w_ratio": 1.0, "w_power": 0.0},
        "bounds_mm": {"radius": [5.0, 60.0]}})
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run(["optimize", "--config", cfg, "--out", str(out),
                "--budget", "2"]) == 2
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("text", [
    '{"geometry": ' + "[" * 100_000, "[" * 100_000], ids=["in_geometry", "bare"])
def test_deeply_nested_config_is_exit_2(tmp_path, capsys, text):
    # written as text, since json.dumps would recurse as deep; json.load
    # raises RecursionError at this depth on every Python version
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config")
    assert not out.exists()


def test_optimize_and_simulate_share_the_analysis_section(tmp_path):
    doc = coil_config(objective={"bounds_mm": {"separation": [30.0, 80.0]}})
    doc["analysis"].update(search_radius_mm=2.0, window_mm=1.0, samples=9)
    cfg = write_config(tmp_path, doc)
    sim, opt = tmp_path / "sim", tmp_path / "opt"
    assert run(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    assert run(["optimize", "--config", cfg, "--out", str(opt),
                "--budget", "1"]) == 0
    blocks = [json.dumps(json.loads(path.read_text())["gradient_report"],
                         sort_keys=True)
              for path in (sim / "report.json", opt / "opt_result.json")]
    assert blocks[0] == blocks[1]


def test_optimize_analysis_defaults_equal_no_analysis(tmp_path):
    objective = {"weights": {"w_mag": 1.0, "w_ratio": 1.0, "w_power": 0.0},
                 "bounds_mm": {"radius": [30.0, 60.0]}}
    spelled = {"window_mm": 2.0, "samples": 41, "scan_halfrange_mm": 5.0,
               "scan_points": 101, "plane_points": 21, "search_radius_mm": 3.0}
    outs = []
    for analysis in (None, spelled):
        doc = coil_config(objective=objective)
        del doc["analysis"]
        if analysis is not None:
            doc["analysis"] = analysis
        out = tmp_path / f"out{len(outs)}"
        assert run(["optimize", "--config", write_config(tmp_path, doc),
                    "--out", str(out), "--budget", "6"]) == 0
        outs.append(out)
    for name in ("opt_result.json", "opt_trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_bounds_are_read_in_their_parameters_units(tmp_path, capsys):
    doc = {"geometry": {"variant": "TwistedCage"}, "objective": {"bounds_mm": {
        "twist_angle": [0.1, 0.5], "current": [50, 150], "height": [100, 120]}}}
    bounds = cli.load_config(write_config(tmp_path, doc))["objective"].bounds
    assert bounds == {"twist_angle": (0.1, 0.5), "current": (50.0, 150.0),
                      "height": (100.0 * 1e-3, 120.0 * 1e-3)}
    doc = coil_config(objective={"bounds_mm": {"current": [50, 150],
                                               "radius": [40, 60]}})
    assert run(["optimize", "--config", write_config(tmp_path, doc),
                "--out", str(tmp_path / "out"), "--budget", "1"]) == 0
    out = capsys.readouterr().out
    assert "current = 100\n" in out and "radius = 50.0000 mm" in out
    free = {"variant": "FreePath",
            "parameters": {"points": [[0, 0, 0], [10, 0, 0]]}}
    for bound in ({"points": [1, 2]}, {"closed": [0, 1]},
                  {"current": [1, math.nan]}, {"current": [1]},
                  {"current": "ab"}, {"current": [2, 1]}):
        cfg = write_config(tmp_path, {"geometry": free,
                                      "objective": {"bounds_mm": bound}})
        assert run(["optimize", "--config", cfg, "--out", str(tmp_path / "o"),
                    "--budget", "2"]) == 2


def test_clearance_error_while_building_is_exit_3(tmp_path):
    # a 30 mm hole does not fit in CompactFour's 24 mm width
    doc = {"geometry": {"variant": "CompactFour",
                        "parameters": {"hole_diameter": 30.0}}}
    out = tmp_path / "out"
    assert run(["export", "--config", write_config(tmp_path, doc),
                "--out", str(out)]) == 3
    assert not os.listdir(out)


@pytest.mark.parametrize("geometry", [
    {"variant": "FreePath",
     "parameters": {"points": [[0, 0], [10, 0], [10, 10]], "closed": True}},
    {"variant": "AntiHelmholtz",
     "discretization": {"segments_per_turn": 100_000_000}},
    # flags are booleans and counts integers
    {"variant": "FreePath", "parameters": {
        "points": [[0, 0, 0], [10, 0, 0], [10, 10, 0]], "closed": "false"}},
    {"variant": "AntiHelmholtz", "discretization": {"segments_per_turn": 24.9}},
    # lengths and coordinates beyond MAX_LENGTH
    {"variant": "AntiHelmholtz", "parameters": {"radius": 1e200}},
    {"variant": "FreePath",
     "parameters": {"points": [[0, 0, 0], [1e300, 0, 0], [10, 10, 0]]}},
    # the filament counts are fixed, not settable
    {"variant": "TwistedCage", "discretization": {"bundle_filaments": 2}},
    {"variant": "TwoPiece", "discretization": {"arm_grid": 2}},
    # currents beyond MAX_CURRENT, whose I^2 would overflow
    {"variant": "AntiHelmholtz", "parameters": {"current": 1e160}},
    # a wire so thin that its cross-section underflows to zero
    {"variant": "AntiHelmholtz", "parameters": {"wire_diameter": 1e-197}},
    # one whose cross-section is subnormal, so that its resistance overflows
    {"variant": "AntiHelmholtz", "parameters": {"wire_diameter": 1.13e-156}},
])
def test_malformed_geometry_is_exit_2(tmp_path, geometry):
    cfg = write_config(tmp_path, {"geometry": geometry})
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or not os.listdir(out)


_REGISTRY = mk.geometry.REGISTRY
_PARAMETER_NAMES = sorted({name for variant in _REGISTRY.values()
                           for name in variant.parameters} | {"bogus"})
_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                  st.sampled_from([0.0, -1.0, 1e300, math.inf, math.nan]))
_numbers = st.one_of(st.integers(-40, 40), st.floats(-60.0, 60.0))
_points = st.lists(st.one_of(st.lists(_numbers, min_size=3, max_size=3),
                             st.lists(_numbers, max_size=4)), max_size=5)
# counts stay small so that no example builds more than a few thousand segments
_discretization = st.fixed_dictionaries(
    {"segments_per_turn": st.one_of(st.integers(0, 40), _junk)},
    optional={"bogus": _junk})


def _plausible(variant):
    """Documents of one variant whose values mostly pass validation."""
    values = {mk.geometry.LENGTH: st.floats(0.05, 80.0),
              mk.geometry.CURRENT: st.floats(-100.0, 100.0),
              mk.geometry.NUMBER: st.floats(-100.0, 100.0),
              mk.geometry.POINTS: _points, mk.geometry.FLAG: st.booleans()}
    return st.fixed_dictionaries(
        {"variant": st.just(variant),
         "discretization": st.fixed_dictionaries({
             "segments_per_turn": st.integers(8, 40)}),
         "parameters": st.fixed_dictionaries({}, optional={
             name: values[kind]
             for name, (kind, _) in _REGISTRY[variant].parameters.items()})})


_geometry = st.one_of(
    _junk,
    st.fixed_dictionaries(
        {"variant": st.sampled_from(sorted(_REGISTRY) + ["Bogus"]),
         "discretization": st.one_of(_discretization, _junk)},
        optional={"parameters": st.one_of(
            st.dictionaries(st.sampled_from(_PARAMETER_NAMES),
                            st.one_of(_numbers, _points, _junk), max_size=4),
            _junk)}),
    st.sampled_from(sorted(_REGISTRY)).flatmap(_plausible))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_geometry)
def test_export_ends_in_a_documented_exit_code(tmp_path_factory, geometry):
    tmp_path = tmp_path_factory.mktemp("export")
    cfg = write_config(tmp_path, {"geometry": geometry})
    assert run(["export", "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 2, 3, 4)


def _config(junky):
    """Whole configs around a tiny coil pair: each section plausible or, if
    `junky`, junk or an object whose values may be junk."""
    def section(plausible, required=None):
        if not junky:
            return st.fixed_dictionaries(required or {}, optional=plausible)
        return st.one_of(_junk, st.fixed_dictionaries({}, optional={
            key: st.one_of(value, _junk)
            for key, value in {**(required or {}), **plausible}.items()}))

    lengths = st.floats(0.05, 8.0)
    bound = st.lists(st.floats(1.0, 150.0), min_size=2, max_size=2).map(sorted)
    # sample counts stay small so that no example is slow
    analysis = section({
        "window_mm": lengths, "samples": st.integers(0, 9),
        "scan_halfrange_mm": lengths, "scan_points": st.integers(0, 9),
        "plane_points": st.integers(0, 5), "search_radius_mm": lengths})
    material = st.one_of(
        st.sampled_from(["copper", "titanium-like", "bogus"]),
        section({"name": st.text(max_size=3)},
                required={"resistivity_ohm_m": st.floats(1e-9, 1e-6)}))
    objective = section({
        "target_gradient_Gcm": st.floats(1.0, 30.0),
        "weights": section({"w_mag": st.floats(0.0, 2.0),
                            "w_ratio": st.floats(0.0, 2.0),
                            "w_power": st.floats(0.0, 2.0)}),
        "beam_diameter_mm": st.floats(1.0, 60.0)},
        required={"bounds_mm": section({"separation": bound, "current": bound},
                                       required={"radius": bound})})
    return st.fixed_dictionaries(
        {"geometry": st.fixed_dictionaries({
            "variant": st.just("AntiHelmholtz"),
            "discretization": st.fixed_dictionaries({
                "segments_per_turn": st.integers(8, 24)})})},
        optional={"analysis": analysis, "material": material,
                  "objective": objective})


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.booleans().flatmap(_config))
def test_every_section_ends_in_a_documented_exit_code(tmp_path_factory, doc):
    tmp_path = tmp_path_factory.mktemp("config")
    out = tmp_path / "out"
    argv = ["--config", write_config(tmp_path, doc), "--out", str(out)]
    if "objective" in doc:
        argv = ["optimize", *argv, "--budget", "2"]
    else:
        argv = ["simulate", *argv]
    assert run(argv) in (0, 2, 3, 4)
    # every number in every report is finite
    for path in out.glob("*.json") if out.exists() else ():
        json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.fixture
def gate(monkeypatch):
    """The `tools/byte_identity.py` module."""
    # the gate puts bench/ on sys.path to read its workloads
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "byte_identity.py")
    spec = importlib.util.spec_from_file_location("byte_identity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_byte_identity_gate_runs_every_subcommand(tmp_path, gate):
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    covered = {argv[0] for _, argv in gate.runs(str(tmp_path / "configs"))}
    assert covered == set(subparsers.choices)


def test_byte_identity_gate_compares_every_exit_code(tmp_path, gate, capsys):
    expected = {
        "negative_length": (2, 2, "geometry.parameters.radius must be a positive length"),
        "twisted_cage_crossing": (2, 2, "bars 0 and 1 intersect"),
        "compact_four_no_prongs": (3, 3, "no room for prongs between beams and outer wall"),
        "free_path_wire": (4, 0, "|B| minimum lies on the search-region boundary")}
    codes = set()
    for label, argv in gate.runs(str(tmp_path / "configs")):
        command, name = label.split("-", 1)
        if name in expected:
            code = run([*argv, "--out", str(tmp_path / label)])
            simulate_code, export_code, message = expected[name]
            assert code == (simulate_code if command == "simulate" else export_code)
            err = capsys.readouterr().err
            assert err == (f"error: {message}\n" if code else "")
            codes.add(code)
    assert codes == {0, 2, 3, 4}


def test_byte_identity_gate_blocks_targets(tmp_path, gate, capsys):
    # a directory at a target exits 2 before any map is sampled; the wire's
    # numerical failure comes first and exits 4
    found = {}
    for label, argv in gate.runs(str(tmp_path / "configs")):
        if label in gate.BLOCKED_RUNS:
            blocked = gate.BLOCKED_RUNS[label][1]
            out = tmp_path / label
            (out / blocked).mkdir(parents=True)
            found[blocked] = run([*argv, "--out", str(out)])
            assert [path.name for path in out.iterdir()] == [blocked]
    assert found == {"scan_x.csv": 2, "plane_zy.csv": 2, "report.json": 4}


def test_byte_identity_gate_reaches_every_discard_path(tmp_path, gate,
                                                       monkeypatch):
    # the TwoPiece searches discard designs that do not build and designs
    # whose conductors intrude into the beams; at 15.4 mm beams the start
    # itself intrudes
    reasons = []
    evaluate = mk.optimize.evaluate_design

    def counted(*args):
        try:
            return evaluate(*args)
        except mk.ObjectiveEvaluationError as exc:
            # "geometry build failed: ..." or "conductors intrude ..."
            reasons.append(str(exc).split(" ", 2)[1])
            raise

    monkeypatch.setattr(mk.optimize, "evaluate_design", counted)
    found = {}
    for label, argv in gate.runs(str(tmp_path / "configs")):
        if label.startswith("optimize-two_piece"):
            reasons.clear()
            code = run([*argv, "--out", str(tmp_path / label)])
            found[label] = (code, sorted(reasons))
    assert found == {
        "optimize-two_piece_beam15.2": (0, ["build"] * 3 + ["intrude"] * 6),
        "optimize-two_piece_beam15.4": (3, ["intrude"])}


def test_byte_identity_gate_finds_a_zero_through_the_grid(tmp_path, gate):
    # the spur's tip is the origin, so the first Newton stencil is
    # singular and the one zero the gate compares from a grid scan is this
    argv = next(argv for label, argv in gate.runs(str(tmp_path / "configs"))
                if label == "simulate-free_path_spur")
    cfg = cli.load_config(argv[argv.index("--config") + 1])
    result = mk.find_field_zero(mk.build(cfg["geometry"]),
                                search_radius=cfg["analysis"]["search_radius"])
    assert result.method == "grid"
    assert np.round(result.position * 1e3, 4).tolist() == [1.25, -0.75, 1.5]
