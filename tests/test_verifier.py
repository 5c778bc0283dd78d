"""Verification loop tests on step-coarsened scenarios (h=10 keeps them fast;
the acceptance suite runs the full-resolution mission)."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdvsafe import (
    Box,
    cli,
    verifier,
    default_scenario,
    falsify,
    monte_carlo_containment,
    partition_window,
    sweep_passive_time,
    verify,
    verify_windowed,
)
from rdvsafe.hybrid import SafetyProperty
from rdvsafe.numsim import MODE_PASSIVE, MODE_PROX_A, MODE_PROX_B
from rdvsafe.verifier import sample_initial_points, simulate_scenario

# Close-range starts that leave and re-enter the guard octagon.  The 2 m/s
# velocity maxima let the controller tolerate the outward speed long enough
# for the set to cross or graze the octagon.
BOUNCE_BRYSON = {
    "prox_a": {"max_state": [1000.0, 1000.0, 2.0, 2.0]},
    "prox_b": {"max_state": [100.0, 100.0, 2.0, 2.0]},
}
# Grazes the octagon from inside, restarts what may have crossed in prox_a,
# which crosses back in full.
GRAZE = {
    "init_center": [10.296601713539001, 51.74966097477807,
                    0.34792349703803466, 1.748627704342766],
    "init_halfwidth": [1.3971501862221174, 1.0947376834781284, 0, 0],
    "t1_s": 1500.0, "t2_s": 1800.0, "horizon_s": 1900.0, "step_s": 1.0,
    "bryson": BOUNCE_BRYSON,
}
# Still crossing out of the octagon when the clock bound t2 stops the pipe.
CLOCK_BOUND = {
    "init_center": [-45.93945961576009, -39.87918448678439,
                    -2.193178686797979, -1.903857341702277],
    "init_halfwidth": [2.45990195968574, 1.632793298249826, 0, 0],
    "t1_s": 0.0, "t2_s": 14.0, "horizon_s": 200.0, "step_s": 1.0,
    "bryson": BOUNCE_BRYSON,
}


@pytest.fixture(scope="module")
def quick():
    return default_scenario(h=10.0)


@pytest.fixture(scope="module")
def quick_report(quick):
    return verify(quick)


def test_partition_window_examples():
    assert partition_window(0.0, 600.0, 300.0) == [(0.0, 300.0), (300.0, 600.0)]
    assert partition_window(0.0, 500.0, 300.0) == [(0.0, 300.0), (300.0, 500.0)]
    assert partition_window(42.0, 42.0, 300.0) == [(42.0, 42.0)]
    assert partition_window(7200.0, 7200.0 + 1e-10, 300.0) == [(7200.0, 7200.0 + 1e-10)]
    with pytest.raises(ValueError):
        partition_window(10.0, 5.0, 300.0)
    with pytest.raises(ValueError):
        partition_window(0.0, 10.0, 0.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        default_scenario(t1=8000.0, t2=7000.0)
    with pytest.raises(ValueError):
        default_scenario(t2=20000.0)      # beyond horizon
    with pytest.raises(ValueError):
        default_scenario(h=0.0)
    with pytest.raises(ValueError):
        default_scenario(variant="bogus")
    with pytest.raises(ValueError):
        default_scenario(init=Box(lo=np.zeros(3), hi=np.ones(3)))


def test_default_mission_is_safe_with_expected_pipes(quick_report):
    rep = quick_report
    assert rep.verdict == "safe"
    assert rep.violations == []
    modes = [seg.mode for seg in rep.segments]
    assert modes == [MODE_PROX_A, MODE_PROX_B, MODE_PASSIVE]
    prox_a, prox_b, passive = rep.segments
    assert prox_a.t_lo0 == 0.0 and prox_a.t_hi0 == 0.0
    # The close-range pipe restarts from the crossing aggregation, so its
    # step-0 time is a genuine interval that precedes the abort window.
    assert prox_a.times_lo()[-1] <= 7500.0
    assert 0.0 < prox_b.t_lo0 <= prox_b.t_hi0 < 7200.0
    assert passive.t_lo0 == 7200.0 and passive.t_hi0 == 7500.0
    assert passive.times_lo()[-1] <= 16200.0


def test_verify_rejects_nonlinear_variant():
    with pytest.raises(ValueError):
        verify(default_scenario(variant="nlin_prox"))


def test_initial_box_straddling_guard_is_rejected():
    c = np.array([-100.0, 0.0, 0.0, 0.0])
    hw = np.array([25.0, 25.0, 0.0, 0.0])
    sc = default_scenario(init=Box(lo=c - hw, hi=c + hw))
    with pytest.raises(ValueError):
        verify(sc)


def test_start_inside_close_range_mode():
    c = np.array([-50.0, 0.0, 0.0, 0.0])
    hw = np.array([2.0, 2.0, 0.0, 0.0])
    sc = default_scenario(init=Box(lo=c - hw, hi=c + hw),
                          t1=0.0, t2=60.0, horizon=600.0, h=10.0)
    rep = verify(sc)
    assert rep.segments[0].mode == MODE_PROX_B
    assert rep.verdict == "safe"


def test_point_window_is_safe(quick):
    sc = default_scenario(h=10.0, t1=7200.0, t2=7200.0)
    rep = verify(sc)
    assert rep.verdict == "safe"
    passive = rep.segments[-1]
    assert passive.t_lo0 == passive.t_hi0 == 7200.0


def test_window_narrower_than_time_eps_is_verified():
    sc = default_scenario(h=10.0, t1=7200.0, t2=7200.0 + 1e-10,
                          property_overrides={"separation_halfwidth_m": 50.0})
    assert verify(sc).verdict == "unsafe"
    rep = verify_windowed(sc, 300.0)
    assert rep.verdict == "unsafe"
    assert [seg.mode for seg in rep.segments].count(MODE_PASSIVE) == 1


def test_graze_restart_pipes():
    rep = verify(cli.scenario_from_dict(GRAZE))
    assert [(seg.mode, seg.n_steps) for seg in rep.segments] == [
        (MODE_PROX_B, 1801), (MODE_PROX_A, 119), (MODE_PROX_B, 1753), (MODE_PASSIVE, 401)]
    assert [(seg.t_lo0, seg.t_hi0) for seg in rep.segments] == [
        (0.0, 0.0), (48.0, 61.0), (48.0, 179.0), (1500.0, 1800.0)]


def test_clock_bound_mid_crossing_restart_pipes():
    rep = verify(cli.scenario_from_dict(CLOCK_BOUND))
    assert [(seg.mode, seg.n_steps) for seg in rep.segments] == [
        (MODE_PROX_B, 15), (MODE_PROX_A, 1), (MODE_PASSIVE, 201)]
    assert [(seg.t_lo0, seg.t_hi0) for seg in rep.segments] == [
        (0.0, 0.0), (14.0, 14.0), (0.0, 14.0)]


def test_restart_cap_is_inconclusive(tmp_path, monkeypatch):
    monkeypatch.setattr(verifier, "_MAX_SEGMENTS", 2)
    rep = verify(cli.scenario_from_dict(GRAZE))
    assert rep.verdict == "inconclusive"
    assert rep.reason == "mode switching did not settle; too many pipe restarts"
    path = tmp_path / "graze.json"
    path.write_text(json.dumps(GRAZE))
    assert cli.cli_main(["verify", str(path), "--out", str(tmp_path / "out")]) == 3


def test_windowed_single_window_identical_to_verify(quick, quick_report):
    rep_w = verify_windowed(quick, 300.0)
    assert rep_w.verdict == quick_report.verdict
    assert len(rep_w.segments) == len(quick_report.segments)
    for a, b in zip(rep_w.segments, quick_report.segments):
        assert a.mode == b.mode
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
        assert a.violations == b.violations


def test_windowed_subwindow_count_and_conjunction(quick):
    rep = verify_windowed(quick, 100.0)
    passives = [seg for seg in rep.segments if seg.mode == MODE_PASSIVE]
    assert len(passives) == 3      # [7200,7300],[7300,7400],[7400,7500]
    assert rep.verdict == "safe"
    starts = [seg.t_lo0 for seg in passives]
    assert starts == [7200.0, 7300.0, 7400.0]


def test_window_monotonicity(quick_report):
    # The full window is safe, so any subwindow must be safe as well.
    inner = default_scenario(h=10.0, t1=7300.0, t2=7400.0)
    assert quick_report.verdict == "safe"
    assert verify(inner).verdict == "safe"


def test_inflated_separation_flags_unsafe_and_falsify_confirms():
    sc = default_scenario(h=10.0, property_overrides={"separation_halfwidth_m": 50.0})
    rep = verify(sc)
    assert rep.verdict == "unsafe"
    assert [v.property for v in rep.violations] == ["separation"]
    assert rep.violations[0].mode == MODE_PASSIVE
    cx = falsify(sc, 30)
    assert cx is not None
    assert cx.violation[0] == "separation"
    # The witnessing state is genuinely inside the inflated collision box.
    state = cx.states[cx.violation[1]]
    assert abs(state[0]) <= 50.0 and abs(state[1]) <= 50.0


def test_falsify_clean_on_safe_scenario(quick):
    assert falsify(quick, 10) is None


def test_falsify_deterministic_given_seed():
    sc = default_scenario(h=10.0, property_overrides={"separation_halfwidth_m": 50.0})
    a = falsify(sc, 25, seed=123)
    b = falsify(sc, 25, seed=123)
    assert a is not None and b is not None
    assert np.array_equal(a.states, b.states)
    assert a.violation == b.violation
    c = falsify(sc, 25, seed=124)
    assert c is not None  # different seed still finds one, possibly elsewhere


def test_sample_points_corners_first():
    box = Box(lo=np.array([-925.0, -425.0, 0.0, 0.0]), hi=np.array([-875.0, -375.0, 0.0, 0.0]))
    pts = sample_initial_points(box, 7)
    assert len(pts) == 7
    # Degenerate velocity dims collapse the 16 corners to 4 distinct ones.
    corner_set = {tuple(p) for p in pts[:4]}
    assert corner_set == {(-925.0, -425.0, 0.0, 0.0), (-925.0, -375.0, 0.0, 0.0),
                          (-875.0, -425.0, 0.0, 0.0), (-875.0, -375.0, 0.0, 0.0)}
    for p in pts[4:]:
        assert np.all(p >= box.lo) and np.all(p <= box.hi)


def test_monte_carlo_containment_zero_violations(quick, quick_report):
    # One input per pipe structure: a single crossing, five passive pipes of a
    # windowed run, a graze restart, and a start inside the octagon cut by the
    # clock bound mid-crossing; plus a single crossing with thrust states,
    # which escape their boxes unless the crossing resets them.
    windowed = verify_windowed(quick, 60.0)
    assert [seg.mode for seg in windowed.segments].count(MODE_PASSIVE) == 5
    cases = [(quick, quick_report), (quick, windowed),
             (cli.scenario_from_dict(GRAZE), None), (cli.scenario_from_dict(CLOCK_BOUND), None),
             (replace(quick, variant="lin_prox_th_tracking"), None)]
    for sc, report in cases:
        res = monte_carlo_containment(sc, 100, report=report)
        assert res["violations"] == 0
        assert res["max_excess"] <= 1e-9


@settings(max_examples=20, derandomize=True, deadline=None)
@given(radius=st.floats(40.0, 85.0), bearing=st.floats(0.0, 2.0 * math.pi),
       speed=st.floats(1.0, 4.0), hw_x=st.floats(0.5, 3.0), hw_y=st.floats(0.5, 3.0),
       t2=st.sampled_from([14.0, 60.0]))
def test_containment_of_bounce_starts(radius, bearing, speed, hw_x, hw_y, t2):
    # Starts inside the octagon moving outward, which cross, graze or settle.
    c, s = math.cos(bearing), math.sin(bearing)
    sc = cli.scenario_from_dict({
        "init_center": [radius * c, radius * s, speed * c, speed * s],
        "init_halfwidth": [hw_x, hw_y, 0.0, 0.0],
        "t1_s": 0.0, "t2_s": t2, "horizon_s": 200.0, "step_s": 1.0,
        "bryson": BOUNCE_BRYSON,
    })
    report = verify(sc)
    assume(report.verdict != "inconclusive")
    assert monte_carlo_containment(sc, 30, report=report)["violations"] == 0


def test_sweep_ordering_and_grid_order_invariance(quick):
    angles = [180.0, 230.0]
    grid = [600.0, 1200.0]
    rows = sweep_passive_time(quick, angles, 950.0, t_grid=grid)
    assert [r[0] for r in rows] == angles
    t180, t230 = rows[0][2], rows[1][2]
    assert t180 >= t230
    rows_rev = sweep_passive_time(quick, angles, 950.0, t_grid=list(reversed(grid)))
    assert rows == rows_rev


def test_sweep_rejects_bad_inputs(quick):
    with pytest.raises(ValueError):
        sweep_passive_time(quick, [400.0], 950.0)
    with pytest.raises(ValueError):
        sweep_passive_time(quick, [180.0], -1.0)


def test_linear_and_nonlinear_runs_share_sample_times():
    # 103 s is not a whole number of 2 s steps: both stop at the last sample
    # inside the horizon.
    lin = default_scenario(t1=0.0, t2=50.0, horizon=103.0, h=2.0)
    x0 = lin.init.mid()[:4]
    times = simulate_scenario(lin, x0, None).times
    nl_times = simulate_scenario(replace(lin, variant="nlin_prox"), x0, None).times
    assert times[-1] == 102.0
    assert np.array_equal(times, nl_times)


def test_horizon_shorter_than_a_step_gives_one_sample():
    # Both simulators keep the initial sample when no whole step fits.
    for variant in ("lin_prox", "nlin_prox"):
        sc = default_scenario(variant=variant, t1=0.0, t2=0.0, horizon=0.5, h=1.0)
        traj = simulate_scenario(sc, sc.init.mid()[:4], 0)
        assert traj.times.tolist() == [0.0]
        assert traj.modes == (MODE_PASSIVE,)


def test_nonlinear_run_approaches_and_enters_close_range():
    # Closed-loop nonlinear run: separation shrinks monotonically once the
    # startup transient settles, and the close-range mode is reached well
    # before the default abort window opens.
    sc = default_scenario(variant="nlin_prox", t1=7000.0, t2=7100.0, horizon=7200.0)
    traj = simulate_scenario(sc, sc.init.mid()[:4], None)
    rho = np.hypot(traj.states[:, 0], traj.states[:, 1])
    settled = rho[300:]
    assert np.all(np.diff(settled) <= 1e-9)
    entry = traj.modes.index(MODE_PROX_B)
    assert entry < 7200
    assert rho[entry] < 100.0


def test_passive_hull_contains_every_collected_box(quick, quick_report):
    from rdvsafe.verifier import _collect_window_boxes
    rendezvous = [s for s in quick_report.segments if s.mode != MODE_PASSIVE]
    passive = quick_report.segments[-1]
    hull_lo, hull_hi = passive.lo[0], passive.hi[0]
    boxes = _collect_window_boxes(rendezvous, quick.t1, quick.t2)
    assert boxes
    for b in boxes:
        assert np.all(hull_lo <= b.lo + 1e-12) and np.all(hull_hi >= b.hi - 1e-12)


def test_intersample_bloat_option_runs():
    # The coarse first-order bloat is off by default; enabling it must still
    # produce a verdict (typically flagging the tight velocity bound).
    sc = default_scenario(h=10.0, property_overrides={"intersample_bloat": True})
    rep = verify(sc)
    assert rep.verdict in ("safe", "unsafe")
    base = verify(default_scenario(h=10.0))
    assert base.verdict == "safe"


# ---------------------------------------------------------------------------
# blocked propagation against a one-sample-at-a-time reference


def _stepwise_advance(ctx, seg, star):
    """Reference for ``verifier._advance``: the Φ recurrence one sample at a
    time, with each property's support or box test evaluated per step, and
    every step yielded as a block of one."""
    phi, chk = ctx.phis[seg.mode], ctx.checkers[seg.mode]
    abs_flow = np.abs(ctx.aut.modes[seg.mode].flow)
    where = "passive pipe" if seg.mode == MODE_PASSIVE else f"mode {seg.mode}"
    c, V = star.x0, star.V
    for k in range(seg.n_steps):
        if not (np.isfinite(c).all() and np.isfinite(V).all()):
            raise verifier.InconclusiveError(f"numerical overflow in {where} at step {k}")
        reach = np.abs(V).sum(axis=1)
        seg.lo[k], seg.hi[k] = c - reach, c + reach
        bloat = ctx.h * (abs_flow @ (np.abs(c) + reach)) if ctx.bloat else np.zeros_like(c)
        for a, b, strict, name in zip(chk.normals, chk.offsets, chk.strict, chk.names):
            support = a @ c + np.abs(a @ V).sum() + np.abs(a) @ bloat
            if support > b or (support == b and not strict):
                seg.violations.append((k, name))
        for p in chk.conj:
            d = list(p.box_dims)
            if (np.all(seg.lo[k][d] - bloat[d] <= p.unsafe_box.hi)
                    and np.all(seg.hi[k][d] + bloat[d] >= p.unsafe_box.lo)):
                seg.violations.append((k, p.name))
        yield k, c[None], V[None]
        c, V = phi @ c, phi @ V


def _stepwise(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(verifier, "_advance", _stepwise_advance)
        return run()


def _assert_same_report(got, ref):
    assert (got.verdict, got.reason) == (ref.verdict, ref.reason)
    assert ([(s.mode, s.n_steps, s.t_lo0, s.t_hi0) for s in got.segments]
            == [(s.mode, s.n_steps, s.t_lo0, s.t_hi0) for s in ref.segments])
    for a, b in zip(got.segments, ref.segments):
        assert a.violations == b.violations
        scale = np.maximum(1.0, np.maximum(np.abs(b.lo), np.abs(b.hi)).max(axis=0))
        assert np.all(np.abs(a.lo - b.lo) <= 1e-9 * scale)
        assert np.all(np.abs(a.hi - b.hi) <= 1e-9 * scale)
    assert ([(v.property, v.mode, v.step) for v in got.violations]
            == [(v.property, v.mode, v.step) for v in ref.violations])


def _patch_context(monkeypatch, edit):
    """Apply edit(ctx) to every verification context right after it is built."""
    init = verifier._VerifyContext.__init__

    def patched(self, sc):
        init(self, sc)
        edit(self)

    monkeypatch.setattr(verifier._VerifyContext, "__init__", patched)


@pytest.mark.parametrize("variant", ["lin_prox", "lin_prox_th_tracking", "lin_prox_th_explicit"])
@pytest.mark.parametrize("bloat", [False, True])
def test_blocked_propagation_matches_stepwise_reference(monkeypatch, variant, bloat):
    sc = default_scenario(h=10.0, variant=variant,
                          property_overrides={"intersample_bloat": bloat})
    for run in (lambda: verify(sc), lambda: verify_windowed(sc, 60.0)):
        _assert_same_report(run(), _stepwise(monkeypatch, run))


def test_blocked_propagation_at_block_edge_lengths(monkeypatch, quick, quick_report):
    # The close-range pipe runs from t_start to t2 = t_start + (n - 1) h and
    # the passive pipe from t1 = t2 to the horizon t2 + (n - 1) h: n samples each.
    h, t_start = quick.h, quick_report.segments[1].t_lo0
    lengths = set()
    for n in (1, verifier._BLOCK - 1, verifier._BLOCK, verifier._BLOCK + 1):
        t2 = t_start + (n - 1) * h
        sc = replace(quick, t1=t2, t2=t2, horizon=t2 + (n - 1) * h)
        rep = verify(sc)
        _assert_same_report(rep, _stepwise(monkeypatch, lambda: verify(sc)))
        lengths.update(seg.n_steps for seg in rep.segments)
    assert {1, verifier._BLOCK - 1, verifier._BLOCK, verifier._BLOCK + 1} <= lengths


def test_blocked_pipe_keeps_nothing_past_a_mid_block_crossing(monkeypatch, quick, quick_report):
    prox_a = quick_report.segments[0]
    crossing = prox_a.n_steps - 1
    assert 0 < crossing % verifier._BLOCK < verifier._BLOCK - 1
    # A prox_a property first met one step after the crossing, in the same
    # block: the blocked pipe computes that hit and must drop it.
    ctx = verifier._VerifyContext(quick)
    _, star = ctx.initial()
    a = np.array([1.0, 0.0, 0.0, 0.0])
    c, V, support = star.x0, star.V, []
    for _ in range(crossing + 2):
        support.append(a @ c + np.abs(a @ V).sum())
        c, V = ctx.phis[MODE_PROX_A] @ c, ctx.phis[MODE_PROX_A] @ V
    assert max(support[:-1]) < support[-1]
    late = SafetyProperty(name="late", modes=(MODE_PROX_A,), normal=a,
                          offset=0.5 * (max(support[:-1]) + support[-1]))

    def add_late(ctx):
        ctx.checkers[MODE_PROX_A] = verifier._ModeChecker(
            ctx.aut.properties + (late,), MODE_PROX_A, ctx.aut.dim)

    _patch_context(monkeypatch, add_late)
    rep = verify(quick)
    _assert_same_report(rep, _stepwise(monkeypatch, lambda: verify(quick)))
    assert rep.segments[0].n_steps == crossing + 1
    assert rep.segments[0].violations == []
    assert rep.verdict == "safe"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("mode, where", [(MODE_PASSIVE, "passive pipe"),
                                         (MODE_PROX_A, "mode prox_a")])
def test_overflow_is_inconclusive_at_its_step(monkeypatch, quick, mode, where):
    def blow_up(ctx):
        ctx.phis[mode] = 1e200 * np.eye(ctx.aut.dim)

    _patch_context(monkeypatch, blow_up)
    rep = verify(quick)
    assert rep.verdict == "inconclusive"
    assert rep.reason == f"numerical overflow in {where} at step 2"
    assert rep.segments == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflow_after_a_crossing_is_not_reached(monkeypatch, quick):
    # prox_a shrinks positions tenfold a step, so the set crosses into the
    # octagon at step 2, while the 1e-290 m/s velocity grows 1e10-fold a
    # step and overflows at step 60, in the same block.
    phi = np.diag([0.1, 0.1, 1e10, 1e10])
    lo, hi = quick.init.lo.copy(), quick.init.hi.copy()
    lo[2:] = hi[2:] = 1e-290
    sc = replace(quick, init=Box(lo=lo, hi=hi))
    speed = 1e-290
    for _ in range(59):
        speed *= 1e10
    assert math.isfinite(speed) and not math.isfinite(speed * 1e10)

    def shrink(ctx):
        ctx.phis[MODE_PROX_A] = phi

    _patch_context(monkeypatch, shrink)
    rep = verify(sc)
    assert rep.verdict != "inconclusive"
    assert (rep.segments[0].mode, rep.segments[0].n_steps) == (MODE_PROX_A, 3)
    _assert_same_report(rep, _stepwise(monkeypatch, lambda: verify(sc)))
