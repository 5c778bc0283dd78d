"""Scenario files, report/flowpipe/plot emission, and the command line.

Scenarios are JSON, reports are JSON, flowpipes are CSV, plots are SVG.  The
CSVs (flowpipe, trajectories, counterexample, sweep) and the SVG ``data-*``
attributes write numbers as ``f"{x:.17g}"``; the JSON files use ``json``'s
shortest round-trip repr (``0.02``, ``369800000000000.0``).  Both read back
to the same doubles, and every emitted file is deterministic for a fixed
scenario and seed (wall-clock timing is never written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .hybrid import GUARD_RADIUS_M
from .numsim import _CSV_BLOCK, _END, _MODE, MODE_PASSIVE, MODE_PROX_A, MODE_PROX_B, _write_csv_rows
from .orbital import FieldError, OrbitalParams
from .starset import Box
from .verifier import (
    FlowpipeSegment,
    Scenario,
    VerificationReport,
    falsify,
    sample_runs,
    simulate_scenario,
    sweep_passive_time,
    verify,
    verify_windowed,
)

_PLANES = {"xy": (0, 1), "vxvy": (2, 3), "uxuy": (4, 5)}
_MODE_COLORS = {MODE_PROX_A: "#5b8fd6", MODE_PROX_B: "#58b06a", MODE_PASSIVE: "#9a9a9a"}
_MAX_ANGLES = 1_000_000     # sweep grid points, counted before the grid is built
# The file's key of each model field whose name differs.
_POINTERS = dict(r="r_orbit", t1="t1_s", t2="t2_s", horizon="horizon_s", h="step_s",
                 window_width="window_width_s", init="init_center", property_overrides="properties")


class ScenarioError(ValueError):
    """Scenario file problem, carrying a JSON pointer to the offending field.
    The message names the file's path, when given, then the pointer, unless
    it is the root's, ""."""

    def __init__(self, pointer: str, message: str, path: str = ""):
        super().__init__(": ".join([part for part in (path, pointer) if part] + [message]))
        self.pointer, self.message = pointer, message


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _checked(val, default, pointer: str):
    """``val`` checked against ``default``, the echo's value at the same JSON
    pointer: an object may hold only the echo's keys, a list must have the
    echo's length (4 or 6 for the initial box), and a leaf the echo's type,
    a real number read as a float."""
    if isinstance(default, dict):
        if not isinstance(val, dict):
            raise ScenarioError(pointer, "expected an object")
        for key in val:
            if key not in default:
                raise ScenarioError(f"{pointer}/{key}", "unknown key")
        return {key: _checked(v, default[key], f"{pointer}/{key}") for key, v in val.items()}
    if isinstance(default, list):
        lengths = (4, 6) if pointer in ("/init_center", "/init_halfwidth") else (len(default),)
        if not isinstance(val, list) or len(val) not in lengths:
            raise ScenarioError(pointer, f"expected a list of length {' or '.join(map(str, lengths))}")
        return [_checked(v, default[0], f"{pointer}/{i}") for i, v in enumerate(val)]
    if isinstance(default, float):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ScenarioError(pointer, f"expected a number, got {type(val).__name__}")
        if not abs(val) <= sys.float_info.max:      # also an int too large for a float
            raise ScenarioError(pointer, "value must be finite")
        return float(val)
    if type(val) is not type(default):
        raise ScenarioError(pointer, f"expected {type(default).__name__}, got {type(val).__name__}")
    return val


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a document whose keys override the echo of the default
    scenario, ``scenario_to_dict(Scenario())``; each value must have the type
    and shape of the echo's, and a key the echo lacks is an error.  The model's
    value rules raise a FieldError, whose field becomes the error's pointer."""
    defaults = scenario_to_dict(Scenario())
    doc = {**defaults, **_checked(doc, defaults, "")}
    center, halfwidth = doc["init_center"], doc["init_halfwidth"]
    if len(halfwidth) != len(center):
        raise ScenarioError("/init_halfwidth", f"expected a list of length {len(center)}")
    if any(hw < 0.0 for hw in halfwidth):
        raise ScenarioError("/init_halfwidth", "half-widths must be nonnegative")
    try:
        # Python floats round an overflowing bound to inf without numpy's warning.
        init = Box(lo=[c - hw for c, hw in zip(center, halfwidth)],
                   hi=[c + hw for c, hw in zip(center, halfwidth)])
    except ValueError as exc:
        raise ScenarioError("/init_center", str(exc)) from exc
    try:
        return Scenario(
            params=OrbitalParams(mu=doc["mu"], r=doc["r_orbit"], m_c=doc["m_c"]),
            variant=doc["variant"], init=init, t1=doc["t1_s"], t2=doc["t2_s"],
            horizon=doc["horizon_s"], h=doc["step_s"], window_width=doc["window_width_s"],
            bryson=doc["bryson"], property_overrides=doc["properties"], seed=doc["seed"])
    except FieldError as exc:
        head, sep, rest = exc.field.partition("/")
        raise ScenarioError(f"/{_POINTERS.get(head, head)}{sep}{rest}", str(exc)) from exc


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file; absent keys take mission defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError("", f"invalid JSON: {exc}", path) from exc
    try:
        return scenario_from_dict(doc)
    except ScenarioError as exc:
        if exc.pointer:
            raise
        raise ScenarioError("", exc.message, path) from exc


def scenario_to_dict(sc: Scenario) -> dict:
    """Canonical fully-populated form of a scenario (the config echo)."""
    return {
        "variant": sc.variant,
        "mu": sc.params.mu,
        "r_orbit": sc.params.r,
        "m_c": sc.params.m_c,
        "init_center": [float(v) for v in sc.init.mid()],
        "init_halfwidth": [float(v) for v in sc.init.halfwidth()],
        "t1_s": sc.t1,
        "t2_s": sc.t2,
        "horizon_s": sc.horizon,
        "step_s": sc.h,
        "window_width_s": sc.window_width,
        "seed": sc.seed,
        "bryson": {
            "prox_a": {"max_state": list(sc.maxima[0])},
            "prox_b": {"max_state": list(sc.maxima[1])},
            "max_input": list(sc.maxima[2]),
        },
        "properties": dict(sc.settings),
    }


# ---------------------------------------------------------------------------
# report and flowpipe emission


def report_to_dict(report: VerificationReport, flowpipe_csv: str | None = None) -> dict:
    k1, k2 = report.gains
    return {
        "tool": "rdvsafe",
        "version": __version__,
        "verdict": report.verdict,
        "reason": report.reason,
        "config": scenario_to_dict(report.scenario),
        "gains": {
            "prox_a": {"K": k1.K.tolist(), "P": k1.P.tolist()},
            "prox_b": {"K": k2.K.tolist(), "P": k2.P.tolist()},
        },
        "pipes": [
            {"mode": seg.mode, "steps": seg.n_steps,
             "t_start_earliest_s": seg.t_lo0, "t_start_latest_s": seg.t_hi0}
            for seg in report.segments
        ],
        "steps_total": report.steps_total,
        "max_thrust_n": report.max_thrust_n,
        "thrust_margin_n": report.thrust_margin_n,
        "violations": [
            {"property": v.property, "mode": v.mode, "time_s": v.time_s, "step": v.step,
             "witness_lo": [float(x) for x in v.witness_lo],
             "witness_hi": [float(x) for x in v.witness_hi]}
            for v in report.violations
        ],
        "flowpipe_csv": flowpipe_csv,
    }


def emit_report(report: VerificationReport, path: str, flowpipe_csv: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report, flowpipe_csv), fh, sort_keys=True, indent=2)
        fh.write("\n")


def emit_flowpipe(report: VerificationReport, path: str) -> None:
    """Write every pipe's per-step boxes: step,time_s,mode,lo_*,hi_*,flags, with
    `_write_csv_rows`: the step is a float cell, the mode replaces the
    separator after time_s, and the flags end each row as its `_END` separator.
    The cells are stacked a `_CSV_BLOCK` of rows at a time, so no copy of a
    whole pipe is made."""
    dim = report.segments[0].dim if report.segments else 0
    header = (
        ["step", "time_s", "mode"]
        + [f"lo_{d + 1}" for d in range(dim)]
        + [f"hi_{d + 1}" for d in range(dim)]
        + ["flags"]
    )
    seps = b"," + _MODE + b"," * (2 * dim - 1) + _END
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for seg in report.segments:
            codes = seg.hits @ (1 << np.arange(len(seg.names)))
            found, which = np.unique(codes, return_inverse=True)
            labels = [";".join(sorted(n for j, n in enumerate(seg.names) if code >> j & 1))
                      for code in found.tolist()]
            ends = [b",%s\n" % label.encode() for label in labels]
            times, mode = seg.times_lo(), b",%s," % seg.mode.encode()
            for a in range(0, seg.n_steps, _CSV_BLOCK):
                rows = slice(a, a + _CSV_BLOCK)
                X = np.column_stack((np.arange(a, min(a + _CSV_BLOCK, seg.n_steps), dtype=float),
                                     times[rows], seg.lo[rows], seg.hi[rows]))
                _write_csv_rows(fh, X, seps, mode, ends, which[rows])


def load_flowpipe_csv(path: str) -> list[FlowpipeSegment]:
    """Rebuild pipe segments from a flowpipe CSV (step 0 starts a new pipe).

    The CSV stores one time per step (the earliest covered), so the
    reconstructed segments carry a degenerate step-0 time range; a segment's
    ``names`` are only the properties it hits, sorted.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(n, line) for n, line in enumerate(fh.read().split("\n"), 1) if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty flowpipe CSV, expected a header line")
    header = rows[0][1].split(",")
    if header == ["step", "time_s", "mode", "flags"] and len(rows) == 1:
        return []       # the file of a run with no pipes
    dim = (len(header) - 4) // 2
    if dim < 1 or len(header) != 2 * dim + 4:
        raise ValueError(f"{path}, line {rows[0][0]}: not a flowpipe CSV header")
    width, body = len(header), rows[1:]
    cells = ",".join(line for _n, line in body).split(",") if body else []
    try:        # column by column; a failure is then located row by row
        if any(line.count(",") != width - 1 for _n, line in body):
            raise ValueError
        steps = list(map(int, cells[0::width]))
        cols = [list(map(float, cells[j::width])) for j in (1, *range(3, width - 1))]
    except ValueError:
        for n, line in body:
            parts = line.split(",")
            try:
                if len(parts) != width:
                    raise ValueError(f"expected {width} fields, got {len(parts)}")
                int(parts[0]), float(parts[1]), [float(v) for v in parts[3:-1]]
            except ValueError as exc:
                raise ValueError(f"{path}, line {n}: {exc}") from None
        raise
    times, modes, flags = cols[0], cells[2::width], cells[width - 1::width]
    boxes = np.array(cols[1:]).T
    starts = [k for k, step in enumerate(steps) if step == 0 or k == 0] + [len(steps)]
    segments = []
    for a, b in zip(starts, starts[1:]):
        sets = {f: set(f.split(";")) if f else set() for f in set(flags[a:b])}
        names = tuple(sorted(set().union(*sets.values())))
        rows_of = {f: [n in s for n in names] for f, s in sets.items()}
        segments.append(FlowpipeSegment(
            mode=modes[a], lo=boxes[a:b, :dim], hi=boxes[a:b, dim:],
            t_lo0=times[a], t_hi0=times[a], h=(times[a + 1] - times[a]) if b - a > 1 else 1.0,
            names=names, hits=np.array([rows_of[f] for f in flags[a:b]], dtype=bool),
        ))
    return segments


# ---------------------------------------------------------------------------
# SVG plotting

_MAX_RECTS_PER_PIPE = 2000


def _plane_overlays(plane: str, sc: Scenario):
    props = sc.settings
    shapes = []
    if plane == "xy":
        verts = [(GUARD_RADIUS_M * math.cos(math.radians(45 * k)),
                  GUARD_RADIUS_M * math.sin(math.radians(45 * k))) for k in range(8)]
        shapes.append(("polygon", verts, "#d08030", "guard octagon"))
        base = props["los_base_x_m"]
        t = math.tan(math.radians(props["los_half_angle_deg"]))
        shapes.append(("polygon", [(0.0, 0.0), (base, -base * t), (base, base * t)],
                       "#c04040", "line of sight"))
        hw = props["separation_halfwidth_m"]
        shapes.append(("polygon", [(-hw, -hw), (hw, -hw), (hw, hw), (-hw, hw)],
                       "#000000", "separation box"))
    elif plane == "vxvy":
        lim = props["velocity_limit_mps"]
        verts = [(lim * math.cos(math.radians(22.5 + 45 * k)),
                  lim * math.sin(math.radians(22.5 + 45 * k))) for k in range(8)]
        shapes.append(("polygon", verts, "#c04040", "velocity bound"))
    elif plane == "uxuy":
        lim = props["thrust_limit_n"]
        shapes.append(("limits", lim, "#c04040", "thrust limit"))
    return shapes


def emit_plot_segments(segments: list[FlowpipeSegment], sc: Scenario, plane: str,
                       path: str) -> None:
    if plane not in _PLANES:
        raise ValueError(f"unknown plane {plane!r}; expected one of {sorted(_PLANES)}")
    d0, d1 = _PLANES[plane]
    if not segments:
        raise ValueError("nothing to plot: empty flowpipe")
    dim = segments[0].dim
    if d1 >= dim:
        raise ValueError(f"plane {plane!r} unavailable for a {dim}-dimensional flowpipe")

    overlays = _plane_overlays(plane, sc)
    xs, ys = [], []
    for seg in segments:
        xs += [seg.lo[:, d0].min(), seg.hi[:, d0].max()]
        ys += [seg.lo[:, d1].min(), seg.hi[:, d1].max()]
    for shape in overlays:
        if shape[0] == "polygon":
            xs += [p[0] for p in shape[1]]
            ys += [p[1] for p in shape[1]]
        else:
            xs += [shape[1], -shape[1]]
            ys += [shape[1], -shape[1]]
    xmin, xmax = float(min(xs)), float(max(xs))
    ymin, ymax = float(min(ys)), float(max(ys))
    xpad = 0.05 * (xmax - xmin or 1.0)
    ypad = 0.05 * (ymax - ymin or 1.0)
    xmin, xmax = xmin - xpad, xmax + xpad
    ymin, ymax = ymin - ypad, ymax + ypad

    W, H = 900.0, 680.0
    L, R, T, B = 70.0, 20.0, 20.0, 50.0

    def px(x):
        return L + (x - xmin) / (xmax - xmin) * (W - L - R)

    def py(y):
        return T + (ymax - y) / (ymax - ymin) * (H - T - B)

    labels = {"xy": ("x [m]", "y [m]"), "vxvy": ("vx [m/s]", "vy [m/s]"),
              "uxuy": ("ux [N]", "uy [N]")}[plane]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:g}" height="{H:g}" '
        f'viewBox="0 0 {W:g} {H:g}" data-xmin="{_fmt(xmin)}" data-xmax="{_fmt(xmax)}" '
        f'data-ymin="{_fmt(ymin)}" data-ymax="{_fmt(ymax)}" data-left="{_fmt(L)}" '
        f'data-right="{_fmt(W - R)}" data-top="{_fmt(T)}" data-bottom="{_fmt(H - B)}">',
        f'<rect x="{L:g}" y="{T:g}" width="{W - L - R:g}" height="{H - T - B:g}" '
        'fill="white" stroke="#333333"/>',
    ]
    for seg in segments:
        color = _MODE_COLORS.get(seg.mode, "#777777")
        stride = max(1, -(-seg.n_steps // _MAX_RECTS_PER_PIPE))
        ks = list(range(0, seg.n_steps, stride))
        if ks[-1] != seg.n_steps - 1:
            ks.append(seg.n_steps - 1)
        out.append(f'<g fill="{color}" fill-opacity="0.25" class="pipe-{seg.mode}">')
        for k in ks:
            x0, x1 = seg.lo[k, d0], seg.hi[k, d0]
            y0, y1 = seg.lo[k, d1], seg.hi[k, d1]
            out.append(
                f'<rect x="{_fmt(px(x0))}" y="{_fmt(py(y1))}" '
                f'width="{_fmt(px(x1) - px(x0))}" height="{_fmt(py(y0) - py(y1))}"/>'
            )
        out.append("</g>")
    for shape in overlays:
        if shape[0] == "polygon":
            pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in shape[1])
            out.append(f'<polygon points="{pts}" fill="none" stroke="{shape[2]}" '
                       f'stroke-width="1.5"><title>{shape[3]}</title></polygon>')
        else:
            lim = shape[1]
            for v in (lim, -lim):
                out.append(f'<line x1="{_fmt(px(v))}" y1="{_fmt(py(ymin))}" x2="{_fmt(px(v))}" '
                           f'y2="{_fmt(py(ymax))}" stroke="{shape[2]}" stroke-dasharray="4 3"/>')
                out.append(f'<line x1="{_fmt(px(xmin))}" y1="{_fmt(py(v))}" x2="{_fmt(px(xmax))}" '
                           f'y2="{_fmt(py(v))}" stroke="{shape[2]}" stroke-dasharray="4 3"/>')
    out.append(f'<text x="{(L + W - R) / 2:g}" y="{H - 12:g}" text-anchor="middle" '
               f'font-size="14">{labels[0]}</text>')
    out.append(f'<text x="18" y="{(T + H - B) / 2:g}" text-anchor="middle" font-size="14" '
               f'transform="rotate(-90 18 {(T + H - B) / 2:g})">{labels[1]}</text>')
    out.append(f'<text x="{L:g}" y="{H - B + 16:g}" font-size="11">{_fmt(xmin)}</text>')
    out.append(f'<text x="{W - R:g}" y="{H - B + 16:g}" text-anchor="end" font-size="11">'
               f'{_fmt(xmax)}</text>')
    out.append(f'<text x="{L - 4:g}" y="{H - B:g}" text-anchor="end" font-size="11">'
               f'{_fmt(ymin)}</text>')
    out.append(f'<text x="{L - 4:g}" y="{T + 10:g}" text-anchor="end" font-size="11">'
               f'{_fmt(ymax)}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def _emit_sweep_csv(rows, path):
    with open(path, "wb") as fh:
        fh.write(b"angle_deg,radius_m,max_safe_T_s\n")
        _write_csv_rows(fh, np.array(rows, float).reshape(-1, 3), b",,\n")


def _emit_sweep_svg(rows, horizon, path):
    """Polar map of the largest safe abort deadline per bearing."""
    W = H = 640.0
    cx = cy = W / 2.0
    r_in, r_out = 120.0, 280.0
    if len(rows) > 1:
        step = min(abs(b[0] - a[0]) for a, b in zip(rows, rows[1:])) or 5.0
    else:
        step = 5.0
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:g}" height="{H:g}" '
           f'viewBox="0 0 {W:g} {H:g}">',
           f'<circle cx="{cx:g}" cy="{cy:g}" r="{r_out:g}" fill="none" stroke="#333"/>']
    for angle, _radius, max_t in rows:
        a0 = math.radians(angle - step / 2.0)
        a1 = math.radians(angle + step / 2.0)
        if max_t < 0:
            color = "#202020"
        else:
            frac = max(0.0, min(1.0, max_t / horizon))
            color = f"#{int(40 + 30 * (1 - frac)):02x}{int(60 + 180 * frac):02x}{int(200 - 120 * frac):02x}"
        pts = []
        for rr, aa in ((r_in, a0), (r_out, a0), (r_out, a1), (r_in, a1)):
            pts.append(f"{_fmt(cx + rr * math.cos(aa))},{_fmt(cy - rr * math.sin(aa))}")
        out.append(f'<polygon points="{" ".join(pts)}" fill="{color}" stroke="none">'
                   f'<title>{angle:g} deg: '
                   f'{"never" if max_t < 0 else f"{max_t:g} s"}</title></polygon>')
        lx = cx + (r_out + 22) * math.cos(math.radians(angle))
        ly = cy - (r_out + 22) * math.sin(math.radians(angle))
        out.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="middle" font-size="11">'
                   f'{angle:g}</text>')
    out.append(f'<text x="{cx:g}" y="{H - 14:g}" text-anchor="middle" font-size="13">'
               'largest safe abort deadline per bearing (dark = never)</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# command line


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rdvsafe",
        description="Reachability-based safety verification of a two-phase "
                    "spacecraft rendezvous with passive aborts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="compute the flowpipe and decide every property")
    v.add_argument("scenario")
    v.add_argument("--out", default="out", help="output directory (default: out)")
    v.add_argument("--window", type=float, default=None,
                   help="split the abort window into subwindows of this width (s);"
                        " without it the window is one (the scenario's"
                        " window_width_s is not used here)")

    s = sub.add_parser("simulate", help="export sampled closed-loop trajectories")
    s.add_argument("scenario")
    s.add_argument("--samples", type=int, default=1)
    s.add_argument("--out", default="out")

    f = sub.add_parser("falsify", help="search for a concrete counterexample")
    f.add_argument("scenario")
    f.add_argument("--samples", type=int, required=True)
    f.add_argument("--seed", type=int, default=None)
    f.add_argument("--out", default="out")

    w = sub.add_parser("sweep", help="largest safe abort deadline over initial bearings")
    w.add_argument("scenario")
    w.add_argument("--angles", default="0:360:5", help="grid as start:stop:step degrees")
    w.add_argument("--radius", type=float, default=950.0)
    w.add_argument("--jobs", type=int, default=max(1, os.cpu_count() or 1))
    w.add_argument("--out", default="out")

    pl = sub.add_parser("plot", help="render a reach-set plane from a report")
    pl.add_argument("report")
    pl.add_argument("--plane", required=True, choices=sorted(_PLANES))
    pl.add_argument("--out", default=None, help="output SVG path")
    return p


def _cmd_verify(args) -> int:
    sc = load_scenario(args.scenario)
    report = verify_windowed(sc, args.window) if args.window is not None else verify(sc)
    os.makedirs(args.out, exist_ok=True)
    emit_flowpipe(report, os.path.join(args.out, "flowpipe.csv"))
    emit_report(report, os.path.join(args.out, "report.json"), flowpipe_csv="flowpipe.csv")
    print(f"verdict: {report.verdict}"
          + (f" ({report.reason})" if report.reason else "")
          + f" | pipes: {len(report.segments)} | steps: {report.steps_total}"
          + f" | wall: {report.wall_time_s:.2f}s")
    for v in report.violations:
        print(f"  {v.property}: first possible hit at t={v.time_s:g}s in {v.mode}"
              " (over-approximation witness; confirm via falsify)")
    return {"safe": 0, "unsafe": 1, "inconclusive": 3}[report.verdict]


def _cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    runs = sample_runs(sc, args.samples)
    for i, (x0, abort) in enumerate(zip(*runs)):
        traj = simulate_scenario(sc, x0, int(abort))
        # Made after a run, so a scenario that fails to build leaves no directory.
        os.makedirs(args.out, exist_ok=True)
        out = os.path.join(args.out, f"trajectory_{i:03d}.csv")
        traj.to_csv(out)
        print(f"sample {i}: abort at t={abort * sc.h:g}s -> {out}")
    return 0


def _cmd_falsify(args) -> int:
    sc = load_scenario(args.scenario)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    traj = falsify(sc, args.samples)
    if traj is None:
        print(f"no counterexample in {args.samples} samples")
        return 0
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "counterexample.csv")
    traj.to_csv(out)
    name, step = traj.violation
    print(f"counterexample: {name} violated at t={traj.times[step]:g}s -> {out}")
    return 1


def _cmd_sweep(args) -> int:
    sc = load_scenario(args.scenario)
    try:
        a, b, step = (float(x) for x in args.angles.split(":"))
    except ValueError:
        raise ValueError(f"cannot parse --angles {args.angles!r};"
                         " expected start:stop:step") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError(f"--angles {args.angles!r} must be finite start:stop:step degrees")
    # ceil((b - a) / step) angles, compared without the ceil, which overflows.
    if step and (b - a) / step > _MAX_ANGLES:
        raise ValueError(f"--angles {args.angles!r} selects over {_MAX_ANGLES} angles")
    angles = list(np.arange(a, b, step)) if step else []
    if not angles:
        raise ValueError(f"--angles {args.angles!r} selects no angle; the step must be"
                         " nonzero and lead from start toward stop")
    rows = sweep_passive_time(sc, angles, args.radius, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    _emit_sweep_csv(rows, os.path.join(args.out, "sweep.csv"))
    _emit_sweep_svg(rows, sc.horizon, os.path.join(args.out, "sweep.svg"))
    for angle, radius, max_t in rows:
        print(f"angle {angle:7.2f} deg radius {radius:g} m -> "
              + ("never" if max_t < 0 else f"safe through T={max_t:g}s"))
    return 0


def _cmd_plot(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "config" not in doc:
        raise ValueError(f"{args.report}: report is not a JSON object with a config;"
                         " nothing to plot")
    try:
        sc = scenario_from_dict(doc["config"])
    except ScenarioError as exc:
        raise ScenarioError(f"/config{exc.pointer}", exc.message, args.report) from exc
    csv_name = doc.get("flowpipe_csv")
    if not isinstance(csv_name, str) or not csv_name:
        raise ValueError(f"{args.report}: report carries no flowpipe reference;"
                         " nothing to plot")
    csv_path = os.path.join(os.path.dirname(os.path.abspath(args.report)), csv_name)
    segments = load_flowpipe_csv(csv_path)
    out = args.out or os.path.join(os.path.dirname(os.path.abspath(args.report)),
                                   f"plot_{args.plane}.svg")
    emit_plot_segments(segments, sc, args.plane, out)
    print(f"wrote {out}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "falsify":
            return _cmd_falsify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "plot":
            return _cmd_plot(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
