"""Scenario file handling, emission formats, plotting, and CLI exit codes."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rdvsafe import default_scenario, falsify, verify
from rdvsafe.cli import (
    ScenarioError,
    cli_main,
    emit_flowpipe,
    emit_plot,
    emit_report,
    load_flowpipe_csv,
    load_scenario,
    report_to_dict,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

QUICK = {"step_s": 30.0}  # coarse step keeps CLI runs fast


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def quick_report():
    return verify(default_scenario(h=30.0))


def test_empty_document_yields_default_scenario(tmp_path):
    sc = load_scenario(_write(tmp_path, "empty.json", {}))
    ref = default_scenario()
    assert sc.variant == ref.variant
    assert sc.params == ref.params
    assert np.array_equal(sc.init.lo, ref.init.lo)
    assert (sc.t1, sc.t2, sc.horizon, sc.h) == (7200.0, 7500.0, 16200.0, 1.0)
    assert sc.window_width == 300.0 and sc.seed == 0


@pytest.mark.parametrize("doc,pointer", [
    ({"t1_s": 8000.0, "t2_s": 7000.0}, "/t1_s"),
    ({"bogus_key": 1}, "/bogus_key"),
    ({"mu": "heavy"}, "/mu"),
    ({"mu": -5.0}, "/mu"),
    ({"init_halfwidth": [1.0, 2.0, 3.0]}, "/init_halfwidth"),
    ({"init_halfwidth": [-1.0, 0.0, 0.0, 0.0]}, "/init_halfwidth"),
    ({"horizon_s": 100.0}, "/t2_s"),
    ({"step_s": 0.0}, "/step_s"),
    ({"seed": 1.5}, "/seed"),
    ({"properties": {"nope": 1}}, "/properties/nope"),
    ({"bryson": {"prox_a": {"max_state": [1, 2]}}}, "/bryson/prox_a/max_state"),
    ({"bryson": {"warp": {}}}, "/bryson/warp"),
])
def test_scenario_errors_carry_json_pointers(tmp_path, doc, pointer):
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, "bad.json", doc))
    assert err.value.pointer == pointer


def test_scenario_roundtrip_is_canonical_and_exact(tmp_path):
    doc = {"variant": "lin_prox_th_tracking", "t1_s": 7000.0, "t2_s": 7212.5,
           "mu": 3.986e14, "seed": 9,
           "bryson": {"prox_a": {"max_state": [1100.0, 1000.0, 0.5, 0.4]}},
           "properties": {"velocity_limit_mps": 0.0625}}
    sc = load_scenario(_write(tmp_path, "sc.json", doc))
    out = tmp_path / "canon.json"
    save_scenario(sc, out)
    sc2 = load_scenario(str(out))
    assert scenario_to_dict(sc2) == scenario_to_dict(sc)
    assert sc2.params.mu == 3.986e14 and sc2.t2 == 7212.5
    assert sc2.property_overrides["velocity_limit_mps"] == 0.0625
    out2 = tmp_path / "canon2.json"
    save_scenario(sc2, out2)
    assert out.read_text() == out2.read_text()


def test_report_json_contents(tmp_path, quick_report):
    path = tmp_path / "report.json"
    emit_report(quick_report, path, flowpipe_csv="flowpipe.csv")
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "safe"
    assert doc["violations"] == []
    assert doc["tool"] == "rdvsafe"
    assert doc["flowpipe_csv"] == "flowpipe.csv"
    K = np.array(doc["gains"]["prox_a"]["K"])
    assert K.shape == (2, 4)
    assert doc["steps_total"] == quick_report.steps_total
    echo = scenario_from_dict(doc["config"])
    assert echo.h == 30.0


def test_report_emission_deterministic(tmp_path, quick_report):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(quick_report, p1)
    emit_report(quick_report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_flowpipe_rows_and_lossless_roundtrip(tmp_path, quick_report):
    path = tmp_path / "flowpipe.csv"
    emit_flowpipe(quick_report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("step,time_s,mode," +
                       ",".join(f"lo_{i}" for i in range(1, 5)) + "," +
                       ",".join(f"hi_{i}" for i in range(1, 5)) + ",flags")
    assert len(lines) - 1 == quick_report.steps_total
    back = load_flowpipe_csv(path)
    assert len(back) == len(quick_report.segments)
    for orig, rest in zip(quick_report.segments, back):
        assert rest.mode == orig.mode
        assert np.array_equal(rest.lo, orig.lo)
        assert np.array_equal(rest.hi, orig.hi)
        assert rest.t_lo0 == orig.t_lo0


def test_plot_structure_and_plane_validation(tmp_path, quick_report):
    path = tmp_path / "plot.svg"
    emit_plot(quick_report, "xy", path)
    root = ET.parse(path).getroot()
    groups = [g for g in root if g.tag.endswith("g")]
    assert len(groups) == len(quick_report.segments)
    for g in groups:
        assert len(list(g)) >= 1
    with pytest.raises(ValueError):
        emit_plot(quick_report, "uxuy", tmp_path / "nope.svg")
    with pytest.raises(ValueError):
        emit_plot(quick_report, "sideways", tmp_path / "nope.svg")


def test_plot_rectangles_invert_to_flowpipe_boxes(tmp_path, quick_report):
    svg_path = tmp_path / "plot.svg"
    emit_plot(quick_report, "xy", svg_path)
    root = ET.parse(svg_path).getroot()
    xmin, xmax = float(root.get("data-xmin")), float(root.get("data-xmax"))
    ymin, ymax = float(root.get("data-ymin")), float(root.get("data-ymax"))
    left, right = float(root.get("data-left")), float(root.get("data-right"))
    top, bottom = float(root.get("data-top")), float(root.get("data-bottom"))

    def inv_x(px):
        return xmin + (px - left) * (xmax - xmin) / (right - left)

    def inv_y(py):
        return ymax - (py - top) * (ymax - ymin) / (bottom - top)

    atol = 1e-9 * max(xmax - xmin, ymax - ymin)
    groups = [g for g in root if g.tag.endswith("g")]
    for g, seg in zip(groups, quick_report.segments):
        for rect in g:
            x = float(rect.get("x"))
            y = float(rect.get("y"))
            w = float(rect.get("width"))
            h = float(rect.get("height"))
            lo = np.array([inv_x(x), inv_y(y + h)])
            hi = np.array([inv_x(x + w), inv_y(y)])
            err = (np.abs(seg.lo[:, :2] - lo).max(axis=1)
                   + np.abs(seg.hi[:, :2] - hi).max(axis=1))
            assert err.min() <= atol


def test_cli_verify_safe_exit_zero(tmp_path, capsys):
    sc = _write(tmp_path, "sc.json", QUICK)
    out = tmp_path / "out"
    assert cli_main(["verify", sc, "--out", str(out)]) == 0
    assert (out / "report.json").exists() and (out / "flowpipe.csv").exists()
    assert "verdict: safe" in capsys.readouterr().out


def test_cli_verify_unsafe_exit_one(tmp_path):
    sc = _write(tmp_path, "sc.json",
                {**QUICK, "properties": {"separation_halfwidth_m": 50.0}})
    assert cli_main(["verify", sc, "--out", str(tmp_path / "out")]) == 1


def test_cli_verify_windowed_flag(tmp_path):
    sc = _write(tmp_path, "sc.json", QUICK)
    assert cli_main(["verify", sc, "--out", str(tmp_path / "out"), "--window", "150"]) == 0


def test_cli_falsify_exit_codes(tmp_path):
    clean = _write(tmp_path, "clean.json", QUICK)
    assert cli_main(["falsify", clean, "--samples", "4", "--out", str(tmp_path / "o1")]) == 0
    hot = _write(tmp_path, "hot.json",
                 {**QUICK, "properties": {"separation_halfwidth_m": 50.0}})
    assert cli_main(["falsify", hot, "--samples", "8", "--out", str(tmp_path / "o2")]) == 1
    assert (tmp_path / "o2" / "counterexample.csv").exists()


def test_cli_simulate_writes_trajectories(tmp_path):
    sc = _write(tmp_path, "sc.json", QUICK)
    out = tmp_path / "sims"
    assert cli_main(["simulate", sc, "--samples", "2", "--out", str(out)]) == 0
    assert (out / "trajectory_000.csv").exists()
    assert (out / "trajectory_001.csv").exists()


def test_cli_simulate_abort_step_inside_window(tmp_path, capsys):
    # t1/h is 7 only up to rounding; the abort must still land on step 7,
    # the one sample inside the point window.
    sc = _write(tmp_path, "sc.json",
                {"t1_s": 2.1, "t2_s": 2.1, "step_s": 0.3, "horizon_s": 30})
    out = tmp_path / "sims"
    assert cli_main(["simulate", sc, "--out", str(out)]) == 0
    assert "abort at t=2.1s" in capsys.readouterr().out
    rows = (out / "trajectory_000.csv").read_text().splitlines()[1:]
    modes = [row.rsplit(",", 1)[1] for row in rows]
    assert modes.index("passive") == 7


def test_cli_simulate_horizon_shorter_than_a_step(tmp_path):
    # The nonlinear variant used to refuse a horizon below one step.
    for variant in ("lin_prox", "nlin_prox"):
        sc = _write(tmp_path, f"{variant}.json", {"variant": variant, "t1_s": 0.0, "t2_s": 0.0,
                                                  "horizon_s": 0.5, "step_s": 1.0})
        out = tmp_path / variant
        assert cli_main(["simulate", sc, "--out", str(out)]) == 0
        assert len((out / "trajectory_000.csv").read_text().splitlines()) == 2


def test_abort_window_without_sample_is_rejected(tmp_path):
    # No sample of step 0.3 s lies in [2.2, 2.3] s: every command refuses the
    # window, where falsify and simulate used to abort at 2.1 s.
    doc = {"t1_s": 2.2, "t2_s": 2.3, "step_s": 0.3, "horizon_s": 30}
    with pytest.raises(ValueError, match="holds no sample"):
        falsify(scenario_from_dict(doc), 4)
    sc = _write(tmp_path, "sc.json", doc)
    for cmd in (["verify"], ["falsify", "--samples", "4"], ["simulate"]):
        assert cli_main([*cmd, sc, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "counterexample.csv").exists()


def test_cli_plot_from_report(tmp_path):
    sc = _write(tmp_path, "sc.json", QUICK)
    out = tmp_path / "out"
    assert cli_main(["verify", sc, "--out", str(out)]) == 0
    assert cli_main(["plot", str(out / "report.json"), "--plane", "xy"]) == 0
    assert (out / "plot_xy.svg").exists()


def test_cli_usage_and_config_errors(tmp_path, capsys):
    assert cli_main(["warp-speed"]) == 2
    capsys.readouterr()
    assert cli_main(["verify", str(tmp_path / "missing.json")]) == 2
    bad = _write(tmp_path, "bad.json", {"t1_s": 9000.0, "t2_s": 8000.0})
    assert cli_main(["verify", bad]) == 2
    err = capsys.readouterr().err
    assert "/t1_s" in err


def test_cli_nonlinear_verify_is_config_error(tmp_path):
    sc = _write(tmp_path, "nl.json", {**QUICK, "variant": "nlin_prox"})
    assert cli_main(["verify", sc]) == 2


def test_cli_sweep_outputs(tmp_path, capsys):
    sc = _write(tmp_path, "sc.json", QUICK)
    out = tmp_path / "sweep"
    code = cli_main(["sweep", sc, "--angles", "180:231:50", "--radius", "950",
                     "--jobs", "1", "--out", str(out)])
    assert code == 0
    csv = (out / "sweep.csv").read_text().strip().splitlines()
    assert csv[0] == "angle_deg,radius_m,max_safe_T_s"
    assert len(csv) == 3  # angles 180, 230
    assert (out / "sweep.svg").exists()
    assert cli_main(["sweep", sc, "--angles", "nonsense"]) == 2


def test_report_dict_round_trips_config(quick_report):
    doc = report_to_dict(quick_report)
    sc = scenario_from_dict(doc["config"])
    assert sc.h == quick_report.scenario.h
    assert np.array_equal(sc.init.lo, quick_report.scenario.init.lo)
