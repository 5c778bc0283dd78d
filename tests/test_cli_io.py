"""Scenario file handling, emission formats, plotting, and CLI exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import rdvsafe
from rdvsafe import Box, OrbitalParams, Scenario, cli, default_scenario, falsify, verifier, verify
from rdvsafe.cli import (
    ScenarioError,
    cli_main,
    emit_flowpipe,
    emit_report,
    load_flowpipe_csv,
    load_scenario,
    report_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from rdvsafe.hybrid import PROPERTY_DEFAULTS
from rdvsafe.numsim import _CSV_BLOCK
from rdvsafe.orbital import FieldError

QUICK = {"step_s": 30.0}  # coarse step keeps CLI runs fast
HEADER_4D = "step,time_s,mode,lo_1,lo_2,lo_3,lo_4,hi_1,hi_2,hi_3,hi_4,flags\n"


def _save_scenario(sc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit_plot(report, plane, path):
    cli.emit_plot_segments(report.segments, report.scenario, plane, path)


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
    ({"variant": "bogus"}, "/variant"),
    ({"seed": -1}, "/seed"),
    ({"seed": True}, "/seed"),
    ({"bryson": {"prox_b": {"max_state": [1, 2, "x", 4]}}}, "/bryson/prox_b/max_state/2"),
    ({"bryson": {"prox_a": {"max_state": [1, 1, 1, 1], "extra": 1}}}, "/bryson/prox_a/extra"),
    ({"init_center": [-900.0, -400.0, 0, 0, 0, 0], "init_halfwidth": [25.0, 25.0, 0, 0]},
     "/init_halfwidth"),
    ({"properties": {"separation_halfwidth_m": -1.0}}, "/properties/separation_halfwidth_m"),
    ({"mu": 10 ** 400}, "/mu"),
    ({"init_center": [-900, -400, 0, 0, 0, 0], "init_halfwidth": [25, 25, 0, 0, 0, 0]},
     "/init_center"),
    ({"r_orbit": 1e200}, "/r_orbit"),
    ({"init_center": [1e308, 0, 0, 0], "init_halfwidth": [1e308, 0, 0, 0]}, "/init_center"),
    ({"bryson": {"max_input": [0.0, 1.0]}}, "/bryson/max_input/0"),
    ({"bryson": {"prox_b": {"max_state": [100.0, 100.0, 0.025, -0.025]}}},
     "/bryson/prox_b/max_state/3"),
    ({"step_s": 1e-9}, "/step_s"),
])
def test_scenario_errors_carry_json_pointers(tmp_path, doc, pointer):
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, "bad.json", doc))
    assert err.value.pointer == pointer


@pytest.mark.parametrize("text, message", [('{"t1_s": 7200,', "invalid JSON: "),
                                           ("[1, 2]", "expected an object")])
def test_cli_root_level_scenario_error_names_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli_main(["verify", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {message}")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(path))
    assert exc.value.pointer == ""


def _echo_paths(doc, prefix=()):
    """Every key path of the echo, recursing into objects and taking lists whole."""
    for key, val in doc.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _echo_paths(val, prefix + (key,))


@pytest.mark.parametrize("path", ["/".join(p) for p in _echo_paths(scenario_to_dict(Scenario()))])
def test_a_null_at_any_echo_path_is_refused_there(path):
    doc = None
    for key in reversed(path.split("/")):
        doc = {key: doc}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.pointer == "/" + path


def _broken(params=None, **overrides):
    return default_scenario(params=OrbitalParams(**(params or {})), **overrides)


# One bad value per rule of Scenario and OrbitalParams, and the field it names.
@pytest.mark.parametrize("overrides,field", [
    ({"variant": "bogus"}, "variant"),
    ({"t1": math.nan}, "t1"),
    ({"t2": math.inf}, "t2"),
    ({"horizon": math.nan}, "horizon"),
    ({"h": math.inf}, "h"),
    ({"t1": -1.0}, "t1"),
    ({"horizon": 7000.0}, "t2"),
    ({"h": 0.0}, "h"),
    ({"h": 1e-9}, "h"),
    ({"window_width": 0.0}, "window_width"),
    ({"seed": -1}, "seed"),
    ({"init": Box(lo=np.zeros(6), hi=np.ones(6))}, "init"),
    ({"property_overrides": {"los_half_angle_deg": 90.0}}, "property_overrides/los_half_angle_deg"),
    ({"bryson": {"prox_a": {"max_state": [1.0, 0.0, 1.0, 1.0]}}}, "bryson/prox_a/max_state/1"),
    ({"bryson": {"prox_b": {"max_state": [1.0, 1.0, 1.0, 0.0]}}}, "bryson/prox_b/max_state/3"),
    ({"bryson": {"max_input": [1.0, -1.0]}}, "bryson/max_input/1"),
    ({"params": {"mu": 0.0}}, "mu"),
    ({"params": {"r": -1.0}}, "r"),
    ({"params": {"m_c": 0.0}}, "m_c"),
    ({"params": {"r": 1e200}}, "r"),
])
def test_every_field_a_rule_names_is_a_path_of_the_echo(overrides, field):
    with pytest.raises(FieldError) as err:
        _broken(**overrides)
    assert err.value.field == field
    head, _, rest = field.partition("/")
    node = scenario_to_dict(Scenario())
    for key in [cli._POINTERS.get(head, head), *filter(None, rest.split("/"))]:
        node = node[int(key)] if isinstance(node, list) else node[key]     # else KeyError


def test_scenario_roundtrip_is_canonical_and_exact(tmp_path):
    doc = {"variant": "lin_prox_th_tracking", "t1_s": 7000.0, "t2_s": 7212.5,
           "mu": 3.986e14, "seed": 9,
           "bryson": {"prox_a": {"max_state": [1100.0, 1000.0, 0.5, 0.4]}},
           "properties": {"velocity_limit_mps": 0.0625}}
    sc = load_scenario(_write(tmp_path, "sc.json", doc))
    out = tmp_path / "canon.json"
    _save_scenario(sc, out)
    sc2 = load_scenario(str(out))
    assert scenario_to_dict(sc2) == scenario_to_dict(sc)
    assert sc2.params.mu == 3.986e14 and sc2.t2 == 7212.5
    assert sc2.property_overrides["velocity_limit_mps"] == 0.0625
    out2 = tmp_path / "canon2.json"
    _save_scenario(sc2, out2)
    assert out.read_text() == out2.read_text()


# The registered properties each setting moves.
_MOVES = {
    "separation_halfwidth_m": {"separation"},
    "velocity_limit_mps": {f"velocity_{45 * k:03d}" for k in range(8)},
    "thrust_limit_n": {"thrust_x_hi", "thrust_x_lo", "thrust_y_hi", "thrust_y_lo"},
    "los_base_x_m": {"los_range"},
    "los_half_angle_deg": {"los_cone_upper", "los_cone_lower"},
    "intersample_bloat": set(),
}


def _unsafe_set(p):
    return p.normals.tolist(), p.offsets.tolist()


@pytest.mark.parametrize("key", sorted(PROPERTY_DEFAULTS))
def test_each_property_setting_reaches_the_engine(tmp_path, key):
    default = PROPERTY_DEFAULTS[key]
    value = (not default) if isinstance(default, bool) else 1.25 * default
    doc = {**QUICK, "variant": "lin_prox_th_tracking"}
    base = load_scenario(_write(tmp_path, "base.json", doc))
    sc = load_scenario(_write(tmp_path, "sc.json", {**doc, "properties": {key: value}}))
    assert scenario_to_dict(sc)["properties"] == {**PROPERTY_DEFAULTS, key: value}
    model, ref = verifier._model_of(sc), verifier._model_of(base)
    moved = {p.name for p, q in zip(model.aut.properties, ref.aut.properties)
             if _unsafe_set(p) != _unsafe_set(q)}
    assert moved == _MOVES[key]
    assert model.bloat is (key == "intersample_bloat")
    if key == "thrust_limit_n":
        report = verify(sc)
        assert report.thrust_margin_n == value - report.max_thrust_n


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


def _hit_pairs(seg):
    return {(k, seg.names[j]) for k, j in np.argwhere(seg.hits).tolist()}


def test_flowpipe_rows_and_lossless_roundtrip(tmp_path, quick_report):
    # A 40 m collision box makes separation fire in the passive pipe, so the
    # second report fills the flags column.
    flagged = verify(default_scenario(h=10.0, property_overrides={"separation_halfwidth_m": 40.0}))
    assert any(seg.hits.any() for seg in flagged.segments)
    for report in (quick_report, flagged):
        path = tmp_path / "flowpipe.csv"
        emit_flowpipe(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("step,time_s,mode," +
                           ",".join(f"lo_{i}" for i in range(1, 5)) + "," +
                           ",".join(f"hi_{i}" for i in range(1, 5)) + ",flags")
        assert len(lines) - 1 == report.steps_total
        # The start box's velocity dims have zero width: their lower bounds
        # are written as 0, not -0.
        assert lines[1].split(",")[5:7] == ["0", "0"]
        back = load_flowpipe_csv(path)
        assert len(back) == len(report.segments)
        for orig, rest in zip(report.segments, back):
            assert rest.mode == orig.mode
            assert np.array_equal(rest.lo, orig.lo)
            assert np.array_equal(rest.hi, orig.hi)
            assert rest.t_lo0 == orig.t_lo0
            # The file keeps the hit (step, name) pairs, naming only the
            # properties the pipe hits, sorted.
            assert _hit_pairs(rest) == _hit_pairs(orig)
            assert list(rest.names) == sorted({name for _k, name in _hit_pairs(orig)})


def _reference_flowpipe_csv(report):
    """The flowpipe CSV formatted one row and one value at a time."""
    dim = report.segments[0].dim if report.segments else 0
    lines = [",".join(["step", "time_s", "mode"] + [f"lo_{d + 1}" for d in range(dim)]
                      + [f"hi_{d + 1}" for d in range(dim)] + ["flags"])]
    for seg in report.segments:
        times = seg.times_lo()
        for k in range(seg.n_steps):
            flags = ";".join(sorted(n for n, hit in zip(seg.names, seg.hits[k]) if hit))
            nums = ",".join(f"{x:.17g}" for x in [*seg.lo[k], *seg.hi[k]])
            lines.append(f"{k},{times[k]:.17g},{seg.mode},{nums},{flags}")
    return "\n".join(lines) + "\n"


# Cells that Python formats (exponent notation), a signed zero and a subnormal.
_PYTHON_PATH_CELLS = [1e-5, -1e-5, 1e17, -1e17, -0.0, 5e-324, 1.2345e-300]


def _hand_built_segments(dim=4):
    """Pipes of 1, B-1, B, B+1 and 2B+1 rows around the emitter's block size
    B, with values over many magnitudes, cells on Python's path, and rows
    hitting several of the unsorted names."""
    rng = np.random.default_rng(16)
    names = ("velocity_045", "los_range", "collision", "los_cone_lower")
    segments = []
    for i, n in enumerate((1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 1)):
        lo = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-12, 12, (n, dim))
        lo[:, 3] = 0.0
        hi = lo + rng.random((n, dim))
        odd = rng.choice(lo.size, min(lo.size, 40), replace=False)
        lo.flat[odd] = rng.choice(_PYTHON_PATH_CELLS, len(odd))
        hits = rng.random((n, len(names))) < 0.5
        hits[0] = [True, True, True, False]
        segments.append(verifier.FlowpipeSegment(
            mode=("prox_a", "passive")[i % 2], lo=lo, hi=hi,
            t_lo0=7200.0 + i / 3, t_hi0=7300.0, h=0.1, names=names, hits=hits))
    return segments


def _block_edge_segments():
    """One 4-dim pipe of 3B+5 rows whose flags change exactly at the block
    edges B, 2B and 3B: none, then collision, then labels that change from
    row to row, then both names."""
    n, B = 3 * _CSV_BLOCK + 5, _CSV_BLOCK
    names = ("los_range", "collision")
    hits = np.zeros((n, 2), bool)
    hits[B:2 * B, 1] = True
    hits[2 * B:3 * B, 1] = np.arange(B) % 2 == 0
    hits[2 * B:3 * B, 0] = np.arange(B) % 3 == 0
    hits[3 * B:] = True
    lo = np.linspace(-900.0, 40.0, 4 * n).reshape(n, 4)
    return [verifier.FlowpipeSegment(mode="prox_b", lo=lo, hi=lo + 0.5, t_lo0=1.0, t_hi0=1.0,
                                     h=1.0, names=names, hits=hits)]


def _inconclusive_report():
    """A real run that ends inconclusive, at its first restart, so it has no pipes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "_MAX_SEGMENTS", 1)
        return verify(default_scenario(h=30.0))


_FLOWPIPE_REPORTS = {
    "quick": lambda quick: quick,
    "flagged_40m": lambda quick: verify(default_scenario(
        h=10.0, property_overrides={"separation_halfwidth_m": 40.0})),
    "explicit": lambda quick: verify(default_scenario(variant="lin_prox_th_explicit", h=10.0)),
    "windowed_60": lambda quick: verifier.verify_windowed(default_scenario(h=10.0), 60.0),
    "no_pipes": lambda quick: dataclasses.replace(quick, segments=[]),
    "inconclusive": lambda quick: _inconclusive_report(),
    "hand_built": lambda quick: dataclasses.replace(quick, segments=_hand_built_segments()),
    "hand_built_6d": lambda quick: dataclasses.replace(quick, segments=_hand_built_segments(6)),
    "block_edge_flags": lambda quick: dataclasses.replace(quick, segments=_block_edge_segments()),
}


@pytest.mark.parametrize("case", list(_FLOWPIPE_REPORTS))
def test_flowpipe_bytes_match_a_per_value_reference(tmp_path, quick_report, case):
    report = _FLOWPIPE_REPORTS[case](quick_report)
    path = tmp_path / "flowpipe.csv"
    emit_flowpipe(report, path)
    text = _reference_flowpipe_csv(report)
    assert path.read_bytes() == text.encode()
    # Each case exercises what it is here for.
    lines = text.splitlines()
    if case == "flagged_40m":
        assert lines[1].split(",")[5:7] == ["0", "0"] and ",-0," not in text
        assert any(line.endswith(",separation") for line in lines)
    elif case == "explicit":
        assert report.segments[0].dim == 6
    elif case == "windowed_60":
        assert sum(seg.mode == "passive" for seg in report.segments) >= 3
    elif case in ("no_pipes", "inconclusive"):
        assert text == "step,time_s,mode,flags\n"
        assert report.verdict == ("inconclusive" if case == "inconclusive" else "safe")
    elif case.startswith("hand_built"):
        assert len(lines) == 1 + 5 * _CSV_BLOCK + 2
        assert len(lines[0].split(",")) == 4 + 2 * (6 if case == "hand_built_6d" else 4)
        assert lines[1].endswith(",collision;los_range;velocity_045")
        assert all(f",{x:.17g}," in text for x in (1e-05, 1e17, -0.0))
    elif case == "block_edge_flags":
        B = _CSV_BLOCK
        flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert flags[B - 1:B + 1] == ["", "collision"]
        assert flags[2 * B - 1:2 * B + 2] == ["collision", "collision;los_range", ""]
        assert flags[3 * B - 1:3 * B + 1] == ["los_range", "collision;los_range"]


@pytest.mark.parametrize("n", [1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
def test_sweep_csv_bytes_match_a_per_value_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    rows = [(float(a), 950.0, float(t)) for a, t in
            zip(np.arange(150.0, 150.0 + 0.37 * n, 0.37), rng.choice([-1.0, 600.0, 7290.5], n))]
    rows[0] = (1e-5, 1e17, -0.0)
    cli._emit_sweep_csv(rows, tmp_path / "sweep.csv")
    want = "angle_deg,radius_m,max_safe_T_s\n" + "".join(
        f"{a:.17g},{r:.17g},{t:.17g}\n" for a, r, t in rows)
    assert (tmp_path / "sweep.csv").read_bytes() == want.encode()
    assert want.splitlines()[1] == "1.0000000000000001e-05,1e+17,-0"


def test_plot_structure_and_plane_validation(tmp_path, quick_report):
    path = tmp_path / "plot.svg"
    _emit_plot(quick_report, "xy", path)
    root = ET.parse(path).getroot()
    groups = [g for g in root if g.tag.endswith("g")]
    assert len(groups) == len(quick_report.segments)
    for g in groups:
        assert len(list(g)) >= 1
    with pytest.raises(ValueError):
        _emit_plot(quick_report, "uxuy", tmp_path / "nope.svg")
    with pytest.raises(ValueError):
        _emit_plot(quick_report, "sideways", tmp_path / "nope.svg")


def test_plot_rectangles_invert_to_flowpipe_boxes(tmp_path, quick_report):
    svg_path = tmp_path / "plot.svg"
    _emit_plot(quick_report, "xy", svg_path)
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


def _svg_to_data(root):
    """Maps of SVG x and y back to plane coordinates, from the data-* attributes."""
    x0, x1, y0, y1 = (float(root.get(f"data-{k}")) for k in ("xmin", "xmax", "ymin", "ymax"))
    left, right, top, bottom = (float(root.get(f"data-{k}"))
                                for k in ("left", "right", "top", "bottom"))
    return (lambda px: x0 + (px - left) * (x1 - x0) / (right - left),
            lambda py: y1 - (py - top) * (y1 - y0) / (bottom - top))


@pytest.fixture(scope="module")
def tracking_report():
    return verify(default_scenario(h=30.0, variant="lin_prox_th_tracking"))


def test_plot_velocity_plane_draws_the_velocity_bound(tmp_path, tracking_report):
    path = tmp_path / "vxvy.svg"
    _emit_plot(tracking_report, "vxvy", path)
    root = ET.parse(path).getroot()
    inv_x, inv_y = _svg_to_data(root)
    polygon, = [p for p in root if p.tag.endswith("polygon")]
    assert polygon.find("{*}title").text == "velocity bound"
    pts = [tuple(map(float, pt.split(","))) for pt in polygon.get("points").split()]
    lim = PROPERTY_DEFAULTS["velocity_limit_mps"]
    # An octagon of circumradius lim with vertices at 22.5 + 45 k degrees.
    want = [(lim * math.cos(math.radians(22.5 + 45 * k)),
             lim * math.sin(math.radians(22.5 + 45 * k))) for k in range(8)]
    got = [(inv_x(x), inv_y(y)) for x, y in pts]
    assert np.allclose(got, want, rtol=0, atol=1e-9 * lim)
    assert len([g for g in root if g.tag.endswith("g")]) == len(tracking_report.segments)


def test_plot_thrust_plane_draws_the_thrust_limits(tmp_path, tracking_report):
    path = tmp_path / "uxuy.svg"
    _emit_plot(tracking_report, "uxuy", path)
    root = ET.parse(path).getroot()
    inv_x, inv_y = _svg_to_data(root)
    lines = [el for el in root if el.tag.endswith("line")]
    lim = PROPERTY_DEFAULTS["thrust_limit_n"]
    # Per sign, one vertical line at ux = +/-lim and one horizontal at uy = +/-lim.
    assert len(lines) == 4
    xs = sorted(inv_x(float(el.get("x1"))) for el in lines if el.get("x1") == el.get("x2"))
    ys = sorted(inv_y(float(el.get("y1"))) for el in lines if el.get("y1") == el.get("y2"))
    assert np.allclose(xs, [-lim, lim], rtol=0, atol=1e-9 * lim)
    assert np.allclose(ys, [-lim, lim], rtol=0, atol=1e-9 * lim)
    # The limits lie inside the plotted range, and so do the thrust boxes.
    assert float(root.get("data-xmin")) < -lim and lim < float(root.get("data-xmax"))
    seg = tracking_report.segments[0]
    assert float(root.get("data-xmin")) <= seg.lo[:, 4].min()


def test_cli_plot_thrust_plane_of_a_four_dim_report_is_refused(tmp_path, capsys):
    sc = _write(tmp_path, "sc.json", QUICK)
    out = tmp_path / "out"
    assert cli_main(["verify", sc, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["plot", str(out / "report.json"), "--plane", "uxuy"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: plane 'uxuy' unavailable for a 4-dimensional flowpipe"]
    assert not (out / "plot_uxuy.svg").exists()


def _sweep_cells(path):
    """(title, fill, angular span in degrees) of each cell of a sweep SVG."""
    root = ET.parse(path).getroot()
    cx, cy = float(root.get("width")) / 2.0, float(root.get("height")) / 2.0
    cells = []
    for el in root:
        if el.tag.endswith("polygon"):
            pts = [tuple(map(float, pt.split(","))) for pt in el.get("points").split()]
            angles = [math.degrees(math.atan2(cy - y, x - cx)) for x, y in pts]
            cells.append((el.find("{*}title").text, el.get("fill"), max(angles) - min(angles)))
    return cells


def test_sweep_svg_colours_safe_deadlines_by_their_share_of_the_horizon(tmp_path):
    path = tmp_path / "sweep.svg"
    cli._emit_sweep_svg([(150.0, 950.0, 16200.0), (160.0, 950.0, 8100.0),
                         (170.0, 950.0, -1.0)], 16200.0, path)
    cells = _sweep_cells(path)
    assert [(title, fill) for title, fill, _span in cells] == [
        ("150 deg: 16200 s", "#28f050"), ("160 deg: 8100 s", "#37968c"),
        ("170 deg: never", "#202020")]
    assert all(span == pytest.approx(10.0) for _t, _f, span in cells)


def test_sweep_svg_of_a_single_row_draws_a_five_degree_cell(tmp_path):
    path = tmp_path / "sweep.svg"
    cli._emit_sweep_svg([(90.0, 950.0, 0.0)], 16200.0, path)
    (title, fill, span), = _sweep_cells(path)
    assert (title, fill) == ("90 deg: 0 s", "#463cc8")
    assert span == pytest.approx(5.0)


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


def test_cli_falsify_seed_flag_is_the_scenario_seed(tmp_path):
    hot = {**QUICK, "properties": {"separation_halfwidth_m": 50.0}}
    flag = _write(tmp_path, "flag.json", hot)
    field = _write(tmp_path, "field.json", {**hot, "seed": 7})
    assert cli_main(["falsify", flag, "--samples", "8", "--seed", "7",
                     "--out", str(tmp_path / "flag")]) == 1
    assert cli_main(["falsify", field, "--samples", "8", "--out", str(tmp_path / "field")]) == 1
    csv = (tmp_path / "flag" / "counterexample.csv").read_bytes()
    assert csv == (tmp_path / "field" / "counterexample.csv").read_bytes()


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_sample_count_below_one_is_usage_error(tmp_path, capsys, count):
    sc = _write(tmp_path, "sc.json", QUICK)
    for cmd in ("simulate", "falsify"):
        out = tmp_path / cmd
        assert cli_main([cmd, sc, "--samples", count, "--out", str(out)]) == 2
        assert "need at least one sample" in capsys.readouterr().err
        assert not out.exists()


def test_the_cli_runs_with_every_scipy_import_refused(tmp_path):
    # A finder first on sys.meta_path refuses every scipy module, as if only
    # numpy were installed: verify, and falsify and simulate past the box
    # corners into the Halton points, all run and exit normally.
    src = str(Path(rdvsafe.__file__).resolve().parents[1])
    scenario = str(Path(__file__).resolve().parents[1] / "scenarios" / "default.json")
    script = f"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{{name}} refused")

sys.meta_path.insert(0, NoScipy())
import rdvsafe, rdvsafe.cli
for cmd in (["verify"], ["falsify", "--samples", "20"], ["simulate", "--samples", "20"]):
    out = {str(tmp_path)!r} + "/" + cmd[0]
    print("@", cmd[0], rdvsafe.cli.cli_main([cmd[0], {scenario!r}, *cmd[1:], "--out", out]))
print("@", sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("@ ")]
    assert lines == ["@ verify 0", "@ falsify 0", "@ simulate 0", "@ []"], proc.stderr
    assert len(list((tmp_path / "simulate").glob("trajectory_*.csv"))) == 20


def test_importing_the_cli_loads_no_process_pool():
    # Only a pooled sweep (jobs > 1) starts worker processes, so a fresh
    # import of the CLI loads neither multiprocessing nor the process pool.
    src = str(Path(rdvsafe.__file__).resolve().parents[1])
    script = ("import sys, rdvsafe.cli; print(sorted(m for m in sys.modules if m in"
              " ('multiprocessing', 'concurrent.futures.process')))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_cli_verify_window_that_cannot_advance_is_usage_error(tmp_path, capsys):
    # 7200 + 1e-13 == 7200 in floating point: the window cover cannot advance.
    sc = _write(tmp_path, "sc.json", QUICK)
    assert cli_main(["verify", sc, "--window", "1e-13", "--out", str(tmp_path / "out")]) == 2
    assert "cannot advance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_window_with_too_many_windows_is_usage_error(tmp_path, capsys):
    # From t = 0 a 1e-13 s width advances, but [0, 600] would take 6e15 windows.
    sc = _write(tmp_path, "sc.json", {**QUICK, "window_width_s": 1e-13})
    assert cli_main(["sweep", sc, "--angles", "180:181:1", "--out", str(tmp_path / "w")]) == 2
    assert "window width 1e-13" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_cli_nonlinear_verify_is_config_error(tmp_path):
    sc = _write(tmp_path, "nl.json", {**QUICK, "variant": "nlin_prox"})
    assert cli_main(["verify", sc]) == 2


def test_cli_nonlinear_sweep_is_config_error(tmp_path, capsys):
    sc = _write(tmp_path, "nl.json", {**QUICK, "variant": "nlin_prox"})
    assert cli_main(["sweep", sc, "--angles", "180:181:1", "--out", str(tmp_path / "w")]) == 2
    assert "simulation-only" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


_EVERY_SCENARIO_COMMAND = [["verify"], ["simulate"], ["falsify", "--samples", "2"],
                           ["sweep", "--angles", "180:181:1"]]


@pytest.mark.parametrize("cmd", _EVERY_SCENARIO_COMMAND)
def test_cli_six_dim_box_on_a_four_dim_variant_is_config_error(tmp_path, capsys, cmd):
    sc = _write(tmp_path, "sc.json", {**QUICK, "init_center": [-900.0, -400.0, 0, 0, 0, 0],
                                      "init_halfwidth": [25.0, 25.0, 0, 0, 0, 0]})
    assert cli_main([cmd[0], sc, *cmd[1:], "--out", str(tmp_path / "out")]) == 2
    assert "initial box dim 6 incompatible with variant lin_prox" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _assert_one_error_line(tmp_path, capsys, cmd, doc, message):
    """The command on doc exits 2, writes nothing and prints one error line:
    no warning on the way reaches the user."""
    sc = _write(tmp_path, "sc.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main([cmd[0], sc, *cmd[1:], "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd", _EVERY_SCENARIO_COMMAND)
@pytest.mark.parametrize("doc,message", [
    ({"bryson": {"max_input": [0.0, 1.0]}}, "Bryson maxima must be strictly positive"),
    ({"r_orbit": 1.0, "step_s": 30.0}, "CARE residual"),
], ids=["zero_max_input", "tiny_orbit"])
def test_cli_scenario_without_a_controller_is_config_error(tmp_path, capsys, cmd, doc, message):
    _assert_one_error_line(tmp_path, capsys, cmd, doc, message)


@pytest.mark.parametrize("cmd", _EVERY_SCENARIO_COMMAND)
@pytest.mark.parametrize("doc,message", [
    ({"r_orbit": 1e200}, "/r_orbit: mean motion sqrt(mu / r^3) must be finite"),
    ({"init_center": [1e308, 0, 0, 0], "init_halfwidth": [1e308, 0, 0, 0]},
     "/init_center: box bounds must be finite"),
], ids=["huge_orbit", "huge_box"])
def test_cli_scenario_past_the_float_range_is_config_error(tmp_path, capsys, cmd, doc, message):
    _assert_one_error_line(tmp_path, capsys, cmd, doc, message)


@pytest.mark.parametrize("cmd", _EVERY_SCENARIO_COMMAND)
def test_cli_step_count_past_its_bound_is_config_error(tmp_path, capsys, cmd):
    # 1.62e13 steps: refused when the scenario is read, before any array of
    # them is allocated.
    _assert_one_error_line(tmp_path, capsys, cmd, {"step_s": 1e-9},
                           "/step_s: horizon / h = 1.62e+13 steps exceed the limit of 1000000")


@pytest.mark.parametrize("cmd", [["verify"], ["verify", "--window", "1e300"], ["simulate"],
                                 ["falsify", "--samples", "2"]])
def test_cli_step_whose_one_step_map_overflows_is_config_error(tmp_path, capsys, cmd):
    # exp(A h) of every mode overflows at h = 1e300 s.
    doc = {"step_s": 1e300, "horizon_s": 1e300, "t2_s": 1e300, "t1_s": 0}
    _assert_one_error_line(tmp_path, capsys, cmd, doc,
                           "step 1e+300 s is too long: the one-step map exp(A h) overflows")


@pytest.mark.parametrize("cmd", ["simulate", "falsify"])
def test_cli_sample_count_past_its_bound_is_config_error(tmp_path, capsys, monkeypatch, cmd):
    # 10^12 samples: counted, never drawn, so no Halton point is made.
    def no_sampler(*args, **kwargs):
        raise AssertionError("Halton points were made")

    monkeypatch.setattr(verifier, "_halton", no_sampler)
    _assert_one_error_line(tmp_path, capsys, [cmd, "--samples", str(10 ** 12)], QUICK,
                           "1000000000000 samples exceed the limit of 1000000")


def test_cli_sweep_deadline_grid_past_its_bound_is_config_error(tmp_path, capsys):
    # The default grid of a 1e300 s horizon is counted, never built.
    doc = {"step_s": 1e300, "horizon_s": 1e300, "t2_s": 1e300, "t1_s": 0}
    _assert_one_error_line(tmp_path, capsys, ["sweep"], doc,
                           "horizon 1e+300 s needs over 1000000 deadlines")


@pytest.mark.parametrize("cmd", [["simulate"], ["falsify", "--samples", "2"]])
def test_cli_nonlinear_run_past_the_earth_center_is_config_error(tmp_path, capsys, cmd):
    # The chaser starts 1e-150 m from the Earth's center, where r_c^-3 overflows.
    doc = {"variant": "nlin_prox", "init_center": [-42164000.0, 1e-150, 0, 0],
           "init_halfwidth": [0, 0, 0, 0]}
    _assert_one_error_line(tmp_path, capsys, cmd, doc, "r_c^-3 overflows")


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
    capsys.readouterr()
    assert cli_main(["sweep", sc, "--angles", "180:231:50", "--jobs", "0",
                     "--out", str(tmp_path / "nojobs")]) == 2
    assert "at least one job" in capsys.readouterr().err
    assert not (tmp_path / "nojobs").exists()


@pytest.mark.parametrize("angles", ["0:360:0", "0:360:-5", "90:90:5"])
def test_cli_sweep_empty_angle_grid_is_usage_error(tmp_path, capsys, angles):
    sc = _write(tmp_path, "sc.json", QUICK)
    assert cli_main(["sweep", sc, "--angles", angles, "--out", str(tmp_path / "w")]) == 2
    assert "selects no angle" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("angles,message", [
    ("nonsense", "cannot parse --angles 'nonsense'"),
    ("0:360:0", "--angles '0:360:0' selects no angle"),
])
def test_cli_sweep_angle_grid_refusals_print_one_error_line(tmp_path, capsys, angles, message):
    _assert_one_error_line(tmp_path, capsys, ["sweep", f"--angles={angles}"], QUICK, message)


@pytest.mark.parametrize("report,message", [
    ([1, 2], "report is not a JSON object with a config"),
    ({"flowpipe_csv": "f.csv"}, "report is not a JSON object with a config"),
    ({"config": {}}, "report carries no flowpipe reference"),
])
def test_cli_plot_refusals_print_one_error_line(tmp_path, capsys, report, message):
    path = _write(tmp_path, "report.json", report)
    assert cli_main(["plot", path, "--plane", "xy", "--out", str(tmp_path / "p.svg")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: {message}; nothing to plot"]
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("config,where", [
    ([], "/config: expected an object"),
    ({"t1_s": 9000.0, "t2_s": 8000.0}, "/config/t1_s: need 0 <= t1 <= t2"),
])
def test_cli_plot_bad_config_names_the_report_and_the_key(tmp_path, capsys, config, where):
    path = _write(tmp_path, "report.json", {"config": config, "flowpipe_csv": "f.csv"})
    assert cli_main(["plot", path, "--plane", "xy"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {where}")


@pytest.mark.parametrize("angles", ["inf:360:5", "-inf:360:5", "0:inf:5", "0:360:nan",
                                    "nan:360:5", "0:360:inf"])
def test_cli_sweep_non_finite_angles_are_usage_errors(tmp_path, capsys, monkeypatch, angles):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sweep_passive_time", no_sweep)
    # One token, so that argparse takes "-inf:..." as the value, not an option.
    _assert_one_error_line(tmp_path, capsys, ["sweep", f"--angles={angles}"], QUICK, "--angles")


def test_cli_sweep_angle_grid_too_large_is_usage_error(tmp_path, capsys, monkeypatch):
    # 3.6e14 angles: counted, never built, and no angle runs.
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sweep_passive_time", no_sweep)
    sc = _write(tmp_path, "sc.json", QUICK)
    assert cli_main(["sweep", sc, "--angles", "0:360:1e-12", "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "over 1000000 angles" in err[0]
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("doc", [[], "report", {}, {"flowpipe_csv": "flowpipe.csv"},
                                 {"config": []}, {"config": {}, "flowpipe_csv": 5}])
def test_cli_plot_rejects_malformed_report(tmp_path, capsys, doc):
    report = _write(tmp_path, "report.json", doc)
    assert cli_main(["plot", report, "--plane", "xy"]) == 2
    assert capsys.readouterr().err.strip()
    assert not (tmp_path / "plot_xy.svg").exists()


@pytest.mark.parametrize("csv", ["", "step,time_s,mode,lo_1,hi_1,flags\n0,1.0,prox_a,1\n",
                                 HEADER_4D + "0,1.0,prox_a,1,2\n",
                                 HEADER_4D + "0,1.0,prox_a,1,2,3,4,5,6,7,x,\n"],
                         ids=["empty", "short_row_1d", "short_row", "not_a_number"])
def test_cli_plot_rejects_malformed_flowpipe_csv(tmp_path, capsys, csv):
    (tmp_path / "flowpipe.csv").write_text(csv)
    report = _write(tmp_path, "report.json", {"config": {}, "flowpipe_csv": "flowpipe.csv"})
    assert cli_main(["plot", report, "--plane", "xy"]) == 2
    err = capsys.readouterr().err
    assert "flowpipe.csv" in err and ("line" in err or "empty" in err)
    assert not (tmp_path / "plot_xy.svg").exists()


def test_report_dict_round_trips_config(quick_report):
    doc = report_to_dict(quick_report)
    sc = scenario_from_dict(doc["config"])
    assert sc.h == quick_report.scenario.h
    assert np.array_equal(sc.init.lo, quick_report.scenario.init.lo)


def test_module_entry_point_runs_the_cli(tmp_path):
    # `python -m rdvsafe.cli` must run the command: an exit 0 that did
    # nothing would read as "safe" to a script.
    src = str(Path(rdvsafe.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    sc = _write(tmp_path, "sc.json", {**QUICK, "properties": {"separation_halfwidth_m": 50.0}})
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "rdvsafe.cli", "verify", sc, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "verdict: unsafe" in proc.stdout
    assert json.loads((out / "report.json").read_text())["verdict"] == "unsafe"


def test_one_process_runs_two_subcommands_as_two_processes_do(tmp_path):
    """The parser is built once per process; the second command parses its
    own arguments: the exit codes and files match one process per command."""
    src = str(Path(rdvsafe.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    sc = _write(tmp_path, "sc.json", {**QUICK, "properties": {"separation_halfwidth_m": 50.0}})
    commands = [["verify", sc], ["simulate", sc, "--samples", "2"]]
    codes = {}
    for how in ("one", "each"):
        for i, cmd in enumerate(commands):
            argv = cmd + ["--out", str(tmp_path / how / str(i))]
            if how == "one":
                codes[how, i] = cli_main(argv)
            else:
                codes[how, i] = subprocess.run([sys.executable, "-m", "rdvsafe.cli", *argv],
                                               env=env, capture_output=True, timeout=300).returncode
    assert cli._build_parser() is cli._build_parser()
    assert [codes["one", i] for i in range(2)] == [codes["each", i] for i in range(2)] == [1, 0]
    files = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*.*"))
    assert [str(p) for p in files] == ["0/flowpipe.csv", "0/report.json",
                                       "1/trajectory_000.csv", "1/trajectory_001.csv"]
    for p in files:
        assert (tmp_path / "one" / p).read_bytes() == (tmp_path / "each" / p).read_bytes()
