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
