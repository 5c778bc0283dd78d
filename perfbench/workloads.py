"""The four benchmark workloads: seeded input pools, the timed operation of
each pool entry, and the digest of its output that the reference check uses.

A pool is a fixed list of scenarios drawn from a pool seed (``main`` or the
held-out pool).  The run's ``--seed`` only sets the order in which the pool is
issued, so every run of a workload covers nearly the same inputs and every
input has a recorded reference.  Import this module only after ``src/`` is on
``sys.path``: it imports ``rdvsafe``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from rdvsafe.cli import cli_main, scenario_from_dict
from rdvsafe.starset import Box
from rdvsafe.verifier import falsify, sample_initial_points, verify, verify_windowed

WORKLOADS = ("mission", "abort_windows", "bounce", "falsify")
POOL_SEEDS = {"main": 1, "heldout": 2}
POOL_SIZES = {"mission": 12, "abort_windows": 9, "bounce": 48, "falsify": 10}

MISSION_VARIANTS = ("lin_prox", "lin_prox_th_tracking", "lin_prox_th_explicit")
ABORT_WIDTHS_S = (20.0, 30.0, 60.0)
ABORT_T1_GRID_S = (7200.0, 7800.0)
FALSIFY_SAMPLES = 2
BOUNCE_BRYSON = {
    "prox_a": {"max_state": [1000.0, 1000.0, 2.0, 2.0]},
    "prox_b": {"max_state": [100.0, 100.0, 2.0, 2.0]},
}

# Reach boxes may drift at ulp level between versions; anything above this
# share of a dimension's scale counts as a different result.
BOX_RTOL = 1e-9


@dataclass
class Entry:
    """One pool entry: its generated input and the operation run on it."""

    index: int
    stratum: str              # inputs of one stratum cost about the same
    doc: dict                 # the generated scenario document
    run: Callable[[], Any]    # the timed operation
    digest: Callable[[Any], dict]  # output -> comparable digest (untimed)


# ---------------------------------------------------------------------------
# input generation


def _mission_doc(rnd: random.Random, variant: str, t1_grid=(6000.0, 9000.0)) -> dict:
    r = rnd.uniform(850.0, 1000.0)
    bearing = math.radians(204.0 + rnd.uniform(-10.0, 10.0))
    t1 = rnd.randrange(int(t1_grid[0]), int(t1_grid[1]) + 1, 60) * 1.0
    return {
        "variant": variant,
        "init_center": [r * math.cos(bearing), r * math.sin(bearing), 0.0, 0.0],
        "init_halfwidth": [rnd.uniform(10.0, 25.0), rnd.uniform(10.0, 25.0), 0.0, 0.0],
        "t1_s": t1, "t2_s": t1 + 300.0, "horizon_s": 16200.0, "step_s": 1.0,
    }


def _bounce_doc(rnd: random.Random) -> dict:
    r = rnd.uniform(40.0, 85.0)
    bearing = rnd.uniform(0.0, 2.0 * math.pi)
    speed = rnd.uniform(1.0, 4.0)
    c, s = math.cos(bearing), math.sin(bearing)
    return {
        "init_center": [r * c, r * s, speed * c, speed * s],
        "init_halfwidth": [rnd.uniform(0.5, 3.0), rnd.uniform(0.5, 3.0), 0.0, 0.0],
        "t1_s": 1500.0, "t2_s": 1800.0, "horizon_s": 1900.0, "step_s": 1.0,
        "bryson": BOUNCE_BRYSON,
    }


def generate_docs(workload: str, pool: str) -> list[tuple[str, dict]]:
    """The pool's (stratum, scenario document) pairs; pure Python, no rdvsafe."""
    rnd = random.Random(f"rdvsafe-bench:{workload}:{POOL_SEEDS[pool]}")
    out = []
    for i in range(POOL_SIZES[workload]):
        if workload == "mission":
            variant = MISSION_VARIANTS[i % len(MISSION_VARIANTS)]
            out.append((variant, _mission_doc(rnd, variant)))
        elif workload == "abort_windows":
            w = ABORT_WIDTHS_S[i % len(ABORT_WIDTHS_S)]
            # A narrow abort-time range keeps the passive work of one width
            # nearly equal, so a run's median does not jump between inputs.
            doc = _mission_doc(rnd, "lin_prox", t1_grid=ABORT_T1_GRID_S)
            doc["window_width_s"] = w
            out.append((f"w{w:g}", doc))
        elif workload == "bounce":
            out.append(("bounce", _bounce_doc(rnd)))
        elif workload == "falsify":
            doc = _mission_doc(rnd, "nlin_prox")
            doc["seed"] = rnd.randrange(2**31)
            out.append(("falsify", doc))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return out


def issue_order(entries: list[Entry], seed: int):
    """Endless seeded order over the pool, in blocks holding one entry per stratum.

    Each round is a fresh permutation; interleaving the strata keeps the mix
    of cheap and dear inputs even whenever the run stops.
    """
    rnd = random.Random(f"rdvsafe-bench-order:{seed}")
    strata: dict[str, list[int]] = {}
    for e in entries:
        strata.setdefault(e.stratum, []).append(e.index)
    while True:
        lanes = []
        for idx in strata.values():
            lane = list(idx)
            rnd.shuffle(lane)
            lanes.append(lane)
        for j in range(max(len(lane) for lane in lanes)):
            block = [lane[j] for lane in lanes if j < len(lane)]
            rnd.shuffle(block)
            yield from block


# ---------------------------------------------------------------------------
# digests


def _pipe_digest(lo: np.ndarray, hi: np.ndarray) -> dict:
    n = lo.shape[0]
    ks = sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})
    return {
        "k": ks,
        "lo": lo[ks].tolist(),
        "hi": hi[ks].tolist(),
        "abs_lo": np.abs(lo).sum(axis=0).tolist(),
        "abs_hi": np.abs(hi).sum(axis=0).tolist(),
        "scale": np.maximum(np.abs(lo).max(axis=0), np.abs(hi).max(axis=0)).tolist(),
    }


def report_digest(report) -> dict:
    return {
        "verdict": report.verdict,
        "pipes": [[s.mode, s.n_steps] for s in report.segments],
        "violations": [[v.property, v.mode, v.step] for v in report.violations],
        "boxes": [_pipe_digest(s.lo, s.hi) for s in report.segments],
        "steps": report.steps_total,
    }


def _flowpipe_boxes(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        dim = (len(fh.readline().split(",")) - 4) // 2
    if dim == 0:
        return []
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=[0] + list(range(3, 3 + 2 * dim)))
    starts = list(np.nonzero(data[:, 0] == 0)[0]) + [data.shape[0]]
    return [_pipe_digest(data[a:b, 1:1 + dim], data[a:b, 1 + dim:])
            for a, b in zip(starts, starts[1:])]


def _mission_digest(out_dir: str, result) -> dict:
    exit_code, _stdout = result
    report_path = os.path.join(out_dir, "report.json")
    flowpipe_path = os.path.join(out_dir, "flowpipe.csv")
    with open(report_path, encoding="utf-8") as fh:
        rep = json.load(fh)
    digest = {
        "exit_code": exit_code,
        "verdict": rep["verdict"],
        "pipes": [[p["mode"], p["steps"]] for p in rep["pipes"]],
        "violations": [[v["property"], v["mode"], v["step"]] for v in rep["violations"]],
        "boxes": _flowpipe_boxes(flowpipe_path),
        "steps": rep["steps_total"],
    }
    # The next op must write its own files, not pass on these.
    os.remove(report_path)
    os.remove(flowpipe_path)
    return digest


def _trajectory_steps(sc, traj, samples: int) -> int:
    """Trajectory steps one falsify call simulated: all samples, or up to the hit."""
    per_run = int(round(sc.horizon / sc.h))
    if traj is None:
        return samples * per_run
    pts = sample_initial_points(Box(lo=sc.init.lo[:4], hi=sc.init.hi[:4]), samples)
    hit = int(np.nonzero(np.all(pts == traj.states[0][:4], axis=1))[0][0])
    return (hit + 1) * per_run


def _falsify_digest(sc_nlin, sc_lin, result) -> dict:
    t_nlin, t_lin = result
    return {
        "nlin": None if t_nlin is None else list(t_nlin.violation),
        "lin": None if t_lin is None else list(t_lin.violation),
        "steps": (_trajectory_steps(sc_nlin, t_nlin, FALSIFY_SAMPLES)
                  + _trajectory_steps(sc_lin, t_lin, FALSIFY_SAMPLES)),
    }


def _normalized(fn):
    """JSON round trip, so digests compare equal to the stored reference."""
    return lambda result: json.loads(json.dumps(fn(result)))


# ---------------------------------------------------------------------------
# pools


def _quiet_cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def build_pool(workload: str, pool: str, work_dir: str) -> list[Entry]:
    """Generate the pool's inputs and bind each to its operation."""
    entries = []
    for i, (stratum, doc) in enumerate(generate_docs(workload, pool)):
        if workload == "mission":
            path = os.path.join(work_dir, f"scenario_{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = os.path.join(work_dir, "out")
            run = (lambda p=path, o=out: _quiet_cli(["verify", p, "--out", o]))
            digest = (lambda r, o=out: _mission_digest(o, r))
        elif workload == "abort_windows":
            sc = scenario_from_dict(doc)
            run = (lambda sc=sc: verify_windowed(sc, sc.window_width))
            digest = report_digest
        elif workload == "bounce":
            sc = scenario_from_dict(doc)
            run = (lambda sc=sc: verify(sc))
            digest = report_digest
        else:
            sc_nlin = scenario_from_dict(doc)
            sc_lin = scenario_from_dict(dict(doc, variant="lin_prox"))
            run = (lambda a=sc_nlin, b=sc_lin: (falsify(a, FALSIFY_SAMPLES),
                                                 falsify(b, FALSIFY_SAMPLES)))
            digest = (lambda r, a=sc_nlin, b=sc_lin: _falsify_digest(a, b, r))
        entries.append(Entry(index=i, stratum=stratum, doc=doc, run=run,
                             digest=_normalized(digest)))
    return entries


# ---------------------------------------------------------------------------
# reference check


def _close(got, ref, tol) -> bool:
    return len(got) == len(ref) and all(abs(g - r) <= t for g, r, t in zip(got, ref, tol))


def _compare_boxes(got: list, ref: list) -> list[str]:
    if len(got) != len(ref):
        return [f"boxes: {len(got)} pipes, reference has {len(ref)}"]
    errors = []
    for p, (g, r) in enumerate(zip(got, ref)):
        tol = [BOX_RTOL * s for s in r["scale"]]
        if g["k"] != r["k"]:
            errors.append(f"pipe {p}: sampled steps {g['k']} != {r['k']}")
            continue
        for key in ("lo", "hi"):
            for k, gv, rv in zip(r["k"], g[key], r[key]):
                if not _close(gv, rv, tol):
                    errors.append(f"pipe {p} step {k} {key}: {gv} != {rv}")
        for key in ("abs_lo", "abs_hi", "scale"):
            if not _close(g[key], r[key], [BOX_RTOL * abs(v) for v in r[key]]):
                errors.append(f"pipe {p} {key}: {g[key]} != {r[key]}")
    return errors


def compare(got: dict, ref: dict) -> list[str]:
    """Differences between an output digest and its reference; empty if equal."""
    errors = []
    for key, rv in ref.items():
        if key == "boxes":
            errors += _compare_boxes(got.get("boxes", []), rv)
        elif got.get(key) != rv:
            errors.append(f"{key}: {got.get(key)!r} != reference {rv!r}")
    return errors
