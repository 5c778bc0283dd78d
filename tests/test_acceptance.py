"""Acceptance suite: end-to-end mission criteria at full resolution (h = 1 s).

Each criterion prints one PASS/FAIL line (run pytest with -s or check the
captured output).  Expected total runtime is a few minutes, dominated by the
nonlinear falsification batch and the robustness sweep.
"""

import time
from itertools import product

import numpy as np
import pytest

from rdvsafe import (
    cwh_matrices,
    default_scenario,
    design_mode_gains,
    falsify,
    monte_carlo_containment,
    solve_care,
    supports,
    sweep_passive_time,
    verify,
)
from rdvsafe.cli import cli_main
from rdvsafe.hybrid import SEPARATION_HALFWIDTH_M
from rdvsafe.lqr import (
    DEFAULT_MAX_INPUT,
    PROXA_MAX_STATE,
    PROXB_MAX_STATE,
    Weights,
    bryson_weights,
    care_residual,
)
from rdvsafe.numsim import MODE_PASSIVE, MODE_PROX_B
from rdvsafe.verifier import _model_of, simulate_scenario


def _report(num, ok, detail=""):
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def lin_report():
    sc = default_scenario()
    t0 = time.perf_counter()
    rep = verify(sc)
    rep.wall_time_s = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def tracking_report():
    return verify(default_scenario(variant="lin_prox_th_tracking"))


def test_criterion_1_default_mission_safety(lin_report):
    ok = lin_report.verdict == "safe" and lin_report.wall_time_s <= 60.0
    _report(1, ok,
            f"default mission verdict={lin_report.verdict} in {lin_report.wall_time_s:.2f}s "
            f"({lin_report.steps_total} reach steps, "
            f"{len([v for v in lin_report.violations])} violations)")


def test_criterion_2_thrust_margin(tracking_report):
    rep = tracking_report
    thrust_viols = [v for v in rep.violations if v.property.startswith("thrust")]
    ok = (rep.verdict == "safe" and not thrust_viols
          and rep.max_thrust_n is not None and rep.max_thrust_n < 10.0)
    _report(2, ok,
            f"thrust-tracking verdict={rep.verdict}, peak |u| = {rep.max_thrust_n:.3f} N, "
            f"margin = {rep.thrust_margin_n:.3f} N below the 10 N limit")


def test_criterion_3_coarse_variant_dominates(tracking_report):
    rep_ex = verify(default_scenario(variant="lin_prox_th_explicit"))
    seg_tr = tracking_report.segments[0]
    seg_ex = rep_ex.segments[0]
    n = min(seg_tr.n_steps, seg_ex.n_steps)
    w_tr = (seg_tr.hi - seg_tr.lo)[:n, :2]
    w_ex = (seg_ex.hi - seg_ex.lo)[:n, :2]
    dominates = bool(np.all(w_ex >= w_tr - 1e-9))
    strict = bool(np.any(w_ex > w_tr + 1e-9))
    _report(3, dominates and strict,
            f"explicit-thrust position widths dominate tracking widths over {n} common "
            f"steps (max ratio {float((w_ex[-1] / w_tr[-1]).max()):.1f}x at the last one)")


def test_criterion_4_robustness_sweep_shape():
    # Far-range velocity maxima of 0.15 m/s keep the approach slow enough for
    # the abort coasts to differ by bearing; the default gains give "never"
    # on every bearing, which would make any ordering check vacuous.
    sc = default_scenario(bryson={"prox_a": {"max_state": [1000.0, 1000.0, 0.15, 0.15]}})
    angles = [135.0, 150.0, 165.0, 180.0, 195.0, 230.0]
    t0 = time.perf_counter()
    rows = sweep_passive_time(sc, angles, 950.0)
    wall = time.perf_counter() - t0
    by_angle = {a: t for a, _r, t in rows}
    expected = [14400.0, 15000.0, 16200.0, 14400.0, -1.0, -1.0]
    ok = [by_angle[a] for a in angles] == expected and wall <= 900.0
    _report(4, ok,
            "sweep max-safe-T by angle: "
            + ", ".join(f"{a:g}deg={'never' if by_angle[a] < 0 else f'{by_angle[a]:g}s'}"
                        for a in angles)
            + f" ({wall:.1f}s)")


def _corners(c, V):
    """Every extreme point c + V a, a in {-1, 1}^n, of the star c + V [-1, 1]^n."""
    return c + np.array(list(product((-1.0, 1.0), repeat=V.shape[1]))) @ V.T


def test_criterion_5_star_exactness_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    # The collision box is a multi-row property: the passive checker must flag
    # it exactly when the stars' corner bounding box meets the box.
    passive = _model_of(default_scenario()).checkers[MODE_PASSIVE]
    sep, hw = passive.names.index("separation"), SEPARATION_HALFWIDTH_M
    box_hits = {True: 0, False: 0}
    for _ in range(1000):
        c, V = rng.normal(scale=5.0, size=4), rng.normal(size=(4, 4))
        phi = rng.normal(scale=0.6, size=(4, 4))
        # The engine's propagation: one product with the stacked [c | V].
        moved = phi @ np.column_stack([c, V])
        c, V = moved[:, 0], moved[:, 1:]
        a = rng.normal(size=4)
        b = rng.normal(scale=4.0)
        pts = _corners(c, V)
        oracle = float((pts @ a).max())
        got = float(supports(c[None], V[None], a[None])[0, 0])
        worst = max(worst, abs(got - oracle) / max(1.0, abs(oracle)))
        assert abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))
        if abs(oracle - b) > 1e-9 * max(1.0, abs(b)):
            assert (got >= b) == (oracle >= b)
        lo, hi = pts[:, :2].min(axis=0), pts[:, :2].max(axis=0)
        if np.all(np.abs(np.concatenate([lo - hw, hi + hw])) > 1e-9):
            meets = bool(np.all(lo <= hw) and np.all(hi >= -hw))
            flagged = bool(passive.check(supports(c[None], V[None], passive.normals))[0, sep])
            assert flagged == meets
            box_hits[meets] += 1
    # The worked box example through the rows [I; -I]: hi = (3, 3), -lo = (1, -1).
    rows = np.vstack([np.eye(2), -np.eye(2)])
    box = supports(np.array([[1.0, 2.0]]), np.array([[[1.0, 1.0], [0.0, 1.0]]]), rows)
    worked = np.array_equal(box, [[3.0, 3.0, 1.0, -1.0]])
    _report(5, worked and min(box_hits.values()) > 0,
            f"1000 random propagated stars match the corner oracle "
            f"(worst support deviation {worst:.2e}); the collision box is flagged exactly "
            f"when their bounding box meets it ({box_hits[True]} met, {box_hits[False]} missed); "
            f"worked box example exact")


def test_criterion_6_containment_soundness(lin_report):
    res = monte_carlo_containment(lin_report, 1000)
    ok = res["violations"] == 0
    _report(6, ok,
            f"1000 sampled closed-loop runs stayed inside the reach boxes over "
            f"{res['checked_steps']} steps (max excess {res['max_excess']:.2e} m)")


def test_criterion_7_controller_certificates():
    params = default_scenario().params
    model = cwh_matrices(params)
    B_acc = params.m_c * model.B
    k1, k2 = design_mode_gains(params)
    details = []
    ok = True
    for name, gain, ms in (("far", k1, PROXA_MAX_STATE), ("close", k2, PROXB_MAX_STATE)):
        w = bryson_weights(ms, DEFAULT_MAX_INPUT)
        res = care_residual(model.A, B_acc, w, gain.P)
        tol = 1e-8 * np.linalg.norm(w.Q, "fro")
        alpha = float(np.max(np.linalg.eigvals(model.A - B_acc @ gain.K).real))
        ok = ok and res <= tol and alpha < 0.0
        details.append(f"{name}: residual {res:.2e} <= {tol:.2e}, abscissa {alpha:.2e}")
    dbl = solve_care(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]),
                     Weights(Q=np.eye(2), R=np.eye(1)))
    dbl_ok = np.allclose(dbl.K, [[1.0, np.sqrt(3.0)]], atol=1e-8)
    ok = ok and dbl_ok
    _report(7, ok, "; ".join(details) + f"; double-integrator gain exact: {dbl_ok}")


def test_criterion_8_nonlinear_consistency():
    sc_nl = default_scenario(variant="nlin_prox")
    cx = falsify(sc_nl, 100)
    sc_lin = default_scenario()
    center = sc_lin.init.mid()[:4]
    lin = simulate_scenario(sc_lin, center, None)
    nl = simulate_scenario(sc_nl, center, None)
    entry = next(k for k, m in enumerate(lin.modes) if m == MODE_PROX_B)
    diff = float(np.hypot(*(lin.states[entry][:2] - nl.states[entry][:2])))
    ok = cx is None and diff <= 5.0
    _report(8, ok,
            f"100 nonlinear falsification runs clean; linear-vs-nonlinear position "
            f"difference at the close-range entry (t={entry}s): {diff:.2e} m <= 5 m")


def test_criterion_9_determinism(tmp_path):
    doc = ('{"step_s": 5.0, "seed": 42, '
           '"properties": {"separation_halfwidth_m": 50.0}}')
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(doc)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["verify", str(sc_path), "--out", str(out)]) == 1
        assert cli_main(["falsify", str(sc_path), "--samples", "6",
                         "--out", str(out)]) == 1
        assert cli_main(["plot", str(out / "report.json"), "--plane", "xy"]) == 0
        outs.append(out)
    files = ["report.json", "flowpipe.csv", "counterexample.csv", "plot_xy.svg"]
    identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                    for f in files)
    _report(9, identical,
            f"repeated verify/falsify/plot runs byte-identical across {files}")
