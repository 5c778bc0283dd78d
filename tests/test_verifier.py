"""Verification loop tests on step-coarsened scenarios (h=10 keeps them fast;
the acceptance suite runs the full-resolution mission)."""

import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import rdvsafe
from rdvsafe import (
    Box,
    OrbitalParams,
    cli,
    verifier,
    default_scenario,
    falsify,
    monte_carlo_containment,
    nonlinear_field,
    partition_window,
    sweep_passive_time,
    verify,
    verify_windowed,
)
from rdvsafe.hybrid import PROPERTY_DEFAULTS, SafetyProperty, property_settings
from rdvsafe.lqr import bryson_maxima
from rdvsafe.numsim import _TIME_EPS, MODE_PASSIVE, MODE_PROX_A, MODE_PROX_B, steps_within
from rdvsafe.orbital import FieldError
from rdvsafe.verifier import Scenario, _halton, sample_initial_points, simulate_scenario

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
    # An unbounded width is one window, as verify uses it; an undefined or
    # unbounded end is an error, not an empty or an endless cover.  The NaN
    # cases come first: code that lets an infinite end through never returns.
    assert partition_window(0.0, 10.0, math.inf) == [(0.0, 10.0)]
    for t1, t2 in [(0.0, math.nan), (math.nan, 10.0), (0.0, math.inf), (-math.inf, 10.0)]:
        with pytest.raises(ValueError, match="must be finite"):
            partition_window(t1, t2, 1.0)
    # A width below the float spacing at t1 cannot advance the cover; code
    # that lets it through never returns either.
    with pytest.raises(ValueError, match="cannot advance"):
        partition_window(7200.0, 7500.0, 1e-13)
    # From 0 the same width advances, but would take 1e17 windows: refused
    # before any is built.  Code without the bound runs out of memory here.
    with pytest.raises(ValueError, match="window width 1e-13"):
        partition_window(0.0, 1e4, 1e-13)


def test_partition_window_refuses_too_many_windows(monkeypatch):
    monkeypatch.setattr(verifier, "_MAX_WINDOWS", 4)
    assert len(partition_window(0.0, 4.0, 1.0)) == 4
    with pytest.raises(ValueError, match="needs over 4 windows"):
        partition_window(0.0, 4.5, 1.0)


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
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        default_scenario(seed=-1)
    for overrides in [{"horizon": math.inf}, {"t2": math.inf, "horizon": math.inf},
                      {"t1": math.nan}, {"t2": math.nan}, {"horizon": math.nan},
                      {"h": math.inf}, {"h": math.nan}]:
        with pytest.raises(ValueError, match="must be finite"):
            default_scenario(**overrides)


def test_scenarios_and_boxes_compare_by_value():
    sc = default_scenario()
    assert sc == default_scenario() and not sc != default_scenario()
    # A new box of equal bounds, not the same object.
    twin = replace(sc, init=Box(lo=sc.init.lo.copy(), hi=sc.init.hi.copy()))
    assert twin.init is not sc.init and twin == sc and not twin != sc
    wider = replace(sc, init=Box(lo=sc.init.lo - [1.0, 0, 0, 0], hi=sc.init.hi))
    assert wider != sc and not wider == sc
    track = default_scenario(variant="lin_prox_th_tracking")
    six = replace(track, init=Box(lo=np.append(sc.init.lo, [0.0, 0.0]),
                                  hi=np.append(sc.init.hi, [0.0, 0.0])))
    assert six != track and not six == track
    assert six.init != track.init and not six.init == track.init
    assert sc.init != (sc.init.lo, sc.init.hi) and sc.init == Box(lo=[-925, -425, 0, 0],
                                                                  hi=[-875, -375, 0, 0])


@pytest.mark.parametrize("overrides,field", [
    ({"property_overrides": {"bogus": 1}}, "property_overrides/bogus"),
    ({"property_overrides": {"thrust_limit_n": True}}, "property_overrides/thrust_limit_n"),
    ({"bryson": {"max_input": [0.0, 1.0]}}, "bryson/max_input/0"),
    ({"bryson": {"prox_a": {"max_state": [1.0, 1.0, 1.0, math.nan]}}},
     "bryson/prox_a/max_state/3"),
], ids=["unknown_property", "bool_thrust_limit", "zero_max_input", "nan_max_state"])
def test_scenario_refuses_a_bad_mapping_entry_when_built(overrides, field):
    # Refused by the constructor, not at the first verify.
    with pytest.raises(FieldError) as err:
        Scenario(**overrides)
    assert err.value.field == field


def test_step_count_past_its_bound_is_refused_without_the_floor(monkeypatch):
    # The default mission takes 16,200 steps of 1 s; 16200 / 0.99999 floors to
    # 16,200 but is above it.
    monkeypatch.setattr(verifier, "_MAX_STEPS", 16200)
    assert default_scenario().h == 1.0
    with pytest.raises(FieldError, match="steps exceed the limit of 16200") as err:
        default_scenario(h=0.99999)
    assert err.value.field == "h"


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


@pytest.mark.parametrize("variant, dims", [("lin_prox", (4,)), ("nlin_prox", (4,)),
                                           ("lin_prox_th_tracking", (4, 6)),
                                           ("lin_prox_th_explicit", (4, 6))])
def test_initial_box_must_have_the_variant_dimension_or_4(variant, dims):
    for dim in (3, 4, 5, 6, 7):
        init = Box(lo=np.full(dim, -950.0), hi=np.full(dim, -900.0))
        if dim in dims:
            assert default_scenario(variant=variant, init=init).init.dim == dim
        else:
            with pytest.raises(ValueError, match=f"initial box dim {dim} incompatible"
                                                 f" with variant {variant}"):
                default_scenario(variant=variant, init=init)


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


@pytest.mark.parametrize("doc,pipes", [
    (GRAZE, [(MODE_PROX_B, 1801), (MODE_PROX_A, 119), (MODE_PROX_B, 1753), (MODE_PASSIVE, 401)]),
    (CLOCK_BOUND, [(MODE_PROX_B, 15), (MODE_PROX_A, 1), (MODE_PASSIVE, 201)]),
])
def test_settling_exemption_keeps_a_step_0_straddle(doc, pipes):
    """Guards the settling rule of ``_rendezvous_pipes``: a collection begun
    at step 0 restarts only on a full crossing, and a graze or the clock
    bound restarts a collection only when collect_k0 > 0.  Every restarted
    pipe here is born straddling the octagon; shedding that straddle bounces
    ghost sets between the modes until the restart cap makes the run
    inconclusive."""
    sc = cli.scenario_from_dict(doc)
    rep = verify(sc)
    assert [(seg.mode, seg.n_steps) for seg in rep.segments] == pipes
    model = verifier._model_of(sc)
    rows = np.vstack([model.guard2, -model.guard2])
    for seg in rep.segments[1:-1]:
        box = Box(lo=seg.lo[0, :2], hi=seg.hi[0, :2])
        assert verifier._classify(box.mid(), np.diag(box.halfwidth()), rows,
                                  model.aut.guard_offsets) == "straddle"
    assert monte_carlo_containment(rep, 100)["violations"] == 0


def test_restart_cap_is_inconclusive(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verifier, "_MAX_SEGMENTS", 2)
    rep = verify(cli.scenario_from_dict(GRAZE))
    assert rep.verdict == "inconclusive"
    assert rep.reason == "mode switching did not settle; too many pipe restarts"
    path = tmp_path / "graze.json"
    path.write_text(json.dumps(GRAZE))
    assert cli.cli_main(["verify", str(path), "--out", str(tmp_path / "out")]) == 3
    # The run has no pipes: its flowpipe file is the lone header, read as
    # zero pipes, so plot fails for that reason and not on the file's form.
    assert (tmp_path / "out" / "flowpipe.csv").read_text() == "step,time_s,mode,flags\n"
    assert cli.load_flowpipe_csv(str(tmp_path / "out" / "flowpipe.csv")) == []
    capsys.readouterr()
    report = str(tmp_path / "out" / "report.json")
    assert cli.cli_main(["plot", report, "--plane", "xy"]) == 2
    assert "nothing to plot: empty flowpipe" in capsys.readouterr().err


def test_windowed_single_window_identical_to_verify(quick, quick_report):
    rep_w = verify_windowed(quick, 300.0)
    assert rep_w.verdict == quick_report.verdict
    assert len(rep_w.segments) == len(quick_report.segments)
    for a, b in zip(rep_w.segments, quick_report.segments):
        assert a.mode == b.mode
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
        assert a.names == b.names and np.array_equal(a.hits, b.hits)


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
    a = falsify(replace(sc, seed=123), 25)
    b = falsify(replace(sc, seed=123), 25)
    assert a is not None and b is not None
    assert np.array_equal(a.states, b.states)
    assert a.violation == b.violation
    c = falsify(replace(sc, seed=124), 25)
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


@pytest.mark.parametrize("d", [4, 6])
def test_halton_points_are_scipys_bit_for_bit(d):
    from scipy.stats import qmc
    sampler = qmc.Halton(d=d, scramble=False)
    sampler.fast_forward(1)
    assert np.array_equal(_halton(d, 20_000), sampler.random(20_000))


@pytest.mark.parametrize("v_halfwidth, n_corners", [(1.0, 16), (0.0, 4)])
def test_sample_points_are_distinct_and_halton_after_the_corners(v_halfwidth, n_corners):
    # The unscrambled Halton sequence starts at the origin, the box's lo
    # corner, so the interior points start at its second point.  With no
    # velocity spread this is the default box.
    from scipy.stats import qmc
    init = default_scenario().init
    hw = np.array([0.0, 0.0, v_halfwidth, 2 * v_halfwidth])
    box = Box(lo=init.lo[:4] - hw, hi=init.hi[:4] + hw)
    pts = sample_initial_points(box, 40)
    assert len({tuple(p) for p in pts}) == 40
    n = 40 - n_corners
    halton = qmc.Halton(d=4, scramble=False).random(n + 1)[1:]
    assert np.array_equal(pts[n_corners:], box.lo + halton * (box.hi - box.lo))
    for count in (0, -3):
        with pytest.raises(ValueError, match="need at least one sample"):
            sample_initial_points(box, count)
    with pytest.raises(ValueError, match="exceed the limit of 1000000"):
        sample_initial_points(box, 1_000_001)


def test_monte_carlo_containment_zero_violations(quick, quick_report):
    # One input per pipe structure: a single crossing, five passive pipes of a
    # windowed run, a graze restart, and a start inside the octagon cut by the
    # clock bound mid-crossing; plus a single crossing with thrust states,
    # which escape their boxes unless the crossing resets them.
    windowed = verify_windowed(quick, 60.0)
    assert [seg.mode for seg in windowed.segments].count(MODE_PASSIVE) == 5
    reports = [quick_report, windowed, verify(cli.scenario_from_dict(GRAZE)),
               verify(cli.scenario_from_dict(CLOCK_BOUND)),
               verify(replace(quick, variant="lin_prox_th_tracking"))]
    for report in reports:
        res = monte_carlo_containment(report, 100)
        assert res["violations"] == 0
        assert res["max_excess"] <= 1e-9
    # No sample is no evidence of containment.
    with pytest.raises(ValueError, match="at least one sample"):
        monte_carlo_containment(quick_report, 0)


def _bounce_start(radius, bearing, speed, hw_x, hw_y, t2, properties=None):
    c, s = math.cos(bearing), math.sin(bearing)
    return cli.scenario_from_dict({
        "init_center": [radius * c, radius * s, speed * c, speed * s],
        "init_halfwidth": [hw_x, hw_y, 0.0, 0.0],
        "t1_s": 0.0, "t2_s": t2, "horizon_s": 200.0, "step_s": 1.0,
        "bryson": BOUNCE_BRYSON, "properties": properties or {},
    })


@settings(max_examples=20, derandomize=True, deadline=None)
@given(radius=st.floats(40.0, 85.0), bearing=st.floats(0.0, 2.0 * math.pi),
       speed=st.floats(1.0, 4.0), hw_x=st.floats(0.5, 3.0), hw_y=st.floats(0.5, 3.0),
       t2=st.sampled_from([14.0, 60.0]))
def test_containment_of_bounce_starts(radius, bearing, speed, hw_x, hw_y, t2):
    # Starts inside the octagon moving outward, which cross, graze or settle.
    sc = _bounce_start(radius, bearing, speed, hw_x, hw_y, t2)
    report = verify(sc)
    assume(report.verdict != "inconclusive")
    assert monte_carlo_containment(report, 30)["violations"] == 0


def test_sweep_rows_follow_the_input_angle_order(quick):
    angles = [230.0, 180.0]
    rows = sweep_passive_time(quick, angles, 950.0)
    assert [r[0] for r in rows] == angles
    t230, t180 = rows[0][2], rows[1][2]
    assert t180 >= t230


def test_sweep_worker_pool_matches_serial():
    # Slower far-range gains give one bearing a safe deadline and one none.
    sc = default_scenario(h=10.0, bryson={"prox_a": {"max_state": [1000.0, 1000.0, 0.1, 0.1]}})
    args = (sc, [180.0, 230.0], 950.0)
    rows = sweep_passive_time(*args, jobs=1)
    assert [t for _a, _r, t in rows] == [16200.0, -1.0]
    assert sweep_passive_time(*args, jobs=2) == rows


def test_sweep_rejects_bad_inputs(quick):
    with pytest.raises(ValueError):
        sweep_passive_time(quick, [400.0], 950.0)
    with pytest.raises(ValueError):
        sweep_passive_time(quick, [180.0], -1.0)
    with pytest.raises(ValueError, match="at least one job"):
        sweep_passive_time(quick, [180.0], 950.0, jobs=0)


def test_sweep_checks_window_width_before_any_angle_runs(monkeypatch, quick):
    def no_reach(*args, **kwargs):
        raise AssertionError("reach ran before the window width was checked")

    monkeypatch.setattr(verifier, "_rendezvous_pipes", no_reach)
    with pytest.raises(ValueError, match="window width 1e-13"):
        sweep_passive_time(replace(quick, window_width=1e-13), [180.0, 230.0], 950.0)


class _AngleRan(Exception):
    pass


def test_sweep_bounds_its_default_grid_before_any_angle_runs(monkeypatch, quick):
    def angle_ran(*args, **kwargs):
        raise _AngleRan

    monkeypatch.setattr(verifier, "_rendezvous_pipes", angle_ran)
    # 1e9 s holds ~1.7e6 deadlines 600 s apart (harmless if the grid were built),
    # and 1e6 steps of 1000 s, the most a scenario may take.
    with pytest.raises(ValueError, match="horizon 1000000000.0 s needs over 1000000 deadlines"):
        sweep_passive_time(replace(quick, horizon=1e9, h=1000.0), [180.0], 950.0)
    # The bound is on the grid's length: at it the angles run, past it none does.
    monkeypatch.setattr(verifier, "_MAX_SWEEP_TIMES", 2)
    with pytest.raises(_AngleRan):
        sweep_passive_time(replace(quick, t1=0.0, t2=600.0, horizon=1200.0), [180.0], 950.0)
    with pytest.raises(ValueError, match="horizon 1800.0 s needs over 2 deadlines"):
        sweep_passive_time(replace(quick, t1=0.0, t2=600.0, horizon=1800.0), [180.0], 950.0)


def test_sweep_rejects_nonlinear_variant_before_any_angle_runs(monkeypatch, quick):
    def no_reach(*args, **kwargs):
        raise AssertionError("reach ran on the nonlinear variant")

    monkeypatch.setattr(verifier, "_rendezvous_pipes", no_reach)
    with pytest.raises(ValueError, match="simulation-only"):
        sweep_passive_time(replace(quick, variant="nlin_prox"), [180.0, 230.0], 950.0)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    made: list[int] = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_sweep_pool_has_at_most_one_worker_per_angle(monkeypatch, quick):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    args = (quick, [180.0, 230.0], 950.0)
    rows = sweep_passive_time(*args, jobs=64)
    assert _RecordingPool.made == [2]
    assert rows == sweep_passive_time(*args, jobs=1)
    sweep_passive_time(quick, [180.0], 950.0, jobs=64)
    assert _RecordingPool.made == [2]


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
    hull = _collect_window_boxes(rendezvous, quick.t1, quick.t2)
    assert hull is not None
    assert np.all(passive.lo[0] <= hull.lo + 1e-12) and np.all(passive.hi[0] >= hull.hi - 1e-12)
    collected = 0
    for seg in rendezvous:
        k = np.arange(seg.n_steps)
        meets = ((seg.t_lo0 + seg.h * k <= quick.t2 + _TIME_EPS)
                 & (seg.t_hi0 + seg.h * k >= quick.t1 - _TIME_EPS))
        collected += int(meets.sum())
        assert np.all(hull.lo <= seg.lo[meets]) and np.all(hull.hi >= seg.hi[meets])
    assert collected


def test_intersample_bloat_option_runs():
    # The coarse first-order bloat is off by default; enabling it must still
    # produce a verdict (typically flagging the tight velocity bound).
    sc = default_scenario(h=10.0, property_overrides={"intersample_bloat": True})
    rep = verify(sc)
    assert rep.verdict in ("safe", "unsafe")
    base = verify(default_scenario(h=10.0))
    assert base.verdict == "safe"


def test_intersample_bloat_widens_the_boxes(quick, quick_report):
    # The widening reaches the boxes, not only the property checks: the first
    # prox_a pipe's boxes hold the unwidened ones row by row, and its guard
    # classes see the wider sets, so it crosses no earlier.
    rep = verify(replace(quick, property_overrides={"intersample_bloat": True}))
    base, wide = quick_report.segments[0], rep.segments[0]
    assert base.mode == wide.mode == MODE_PROX_A
    assert wide.n_steps >= base.n_steps
    lo, hi = wide.lo[:base.n_steps], wide.hi[:base.n_steps]
    assert np.all(lo <= base.lo) and np.all(hi >= base.hi)
    assert np.any(lo < base.lo) or np.any(hi > base.hi)


def test_containment_with_intersample_bloat(quick):
    # The mission, and two bounce starts that cross out of the octagon and
    # restart in prox_a from hulls of widened boxes.
    bloat = {"intersample_bloat": True}
    for sc in (replace(quick, property_overrides=bloat),
               _bounce_start(60.0, 0.5, 2.0, 1.0, 1.0, 60.0, bloat),
               _bounce_start(80.0, 2.0, 3.0, 2.0, 2.0, 60.0, bloat)):
        report = verify(sc)
        assert report.verdict != "inconclusive"
        assert [seg.mode for seg in report.segments][:2] in (
            [MODE_PROX_A, MODE_PROX_B], [MODE_PROX_B, MODE_PROX_A])
        assert monte_carlo_containment(report, 30)["violations"] == 0


# ---------------------------------------------------------------------------
# the restart rule against a one-step-at-a-time reference


def _stepwise_restarts(classes, mode):
    """Reference for the restart rule of ``verifier._rendezvous_pipes`` on one
    pipe: a per-step walk over the class strings with the flags ``settled``
    (the set was once in its own region) and ``crossed``.  Returns the
    restarts as (first row, stop row, last start step) and the last step kept."""
    own, crossed_cls = ("outside", "inside") if mode == MODE_PROX_A else ("inside", "outside")
    restarts, collect_k0, settled, crossed = [], None, False, False
    for k, cls in enumerate(classes):
        if cls == own:
            if settled and collect_k0 is not None:
                restarts.append((collect_k0, k, k))
            collect_k0, settled = None, True
        else:
            if collect_k0 is None:
                collect_k0 = k
            if cls == crossed_cls:
                crossed = True
                break
    if crossed or (collect_k0 is not None and settled):
        restarts.append((collect_k0, k + 1, k))
    return restarts, k


@st.composite
def _class_runs(draw):
    """A pipe mode, a class-code sequence of runs (0 inside, 1 outside, 2
    straddling; with a crossing allowed or not) and its block cuts."""
    mode = draw(st.sampled_from([MODE_PROX_A, MODE_PROX_B]))
    codes = [0, 1, 2] if draw(st.booleans()) else [int(mode == MODE_PROX_A), 2]
    runs = draw(st.lists(st.tuples(st.sampled_from(codes), st.integers(1, 6)),
                         min_size=1, max_size=12))
    seq = np.concatenate([np.full(n, c) for c, n in runs])
    cuts = draw(st.sets(st.integers(1, len(seq) - 1))) if len(seq) > 1 else set()
    if draw(st.booleans()):
        cuts |= set(np.cumsum([n for _, n in runs])[:-1].tolist())
    return mode, seq, sorted(cuts)


# The fixtures run once per test, not per example: the cache is cleared
# around the whole test.
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_class_runs())
def test_restart_rule_matches_stepwise_reference(fresh_models, quick, case):
    mode, codes, cuts = case
    model, n = verifier._model_of(quick), len(codes)
    h = model.h
    start = Box(lo=np.zeros(4), hi=np.zeros(4))
    restarted = []

    def advance(model, seg, box):
        # Row k holds k.  A restarted pipe stays in its own region.
        seg.lo[:] = seg.hi[:] = np.arange(seg.n_steps)[:, None]
        if box is not start:
            yield 0, np.full(seg.n_steps, int(seg.mode == MODE_PROX_A))
            return
        for a, b in zip([0, *cuts], [*cuts, n]):
            yield a, codes[a:b]

    def restart_box(model, dest, lo, hi):
        restarted.append(lo[:, 0].astype(int).tolist())
        return Box(lo=np.ones(4), hi=np.ones(4))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(verifier, "_advance", advance)
        m.setattr(verifier, "_restart_box", restart_box)
        pipes = verifier._rendezvous_pipes(model, (mode, start), t_end=(n - 1) * h)
    ref, last = _stepwise_restarts([("inside", "outside", "straddle")[c] for c in codes], mode)
    assert pipes[0].n_steps == last + 1
    assert len(pipes) == len(restarted) + 1
    assert ([(rows, (p.t_lo0, p.t_hi0)) for rows, p in zip(restarted, pipes[1:])]
            == [(list(range(a, stop)), (a * h, k * h)) for a, stop, k in ref])


# ---------------------------------------------------------------------------
# blocked propagation against a one-sample-at-a-time reference


def _stepwise_row(model, seg, k, c, V):
    """Row k of seg from the set c + V [-1, 1]^n, as the block kernel
    writes it: the box, and each property's rows tested on their supports.
    With the intersample bloat on, the box, every property row and every
    guard row are widened by the same per-step term h |A| (|c| + reach).
    Returns the guard class code (0 inside, 1 outside, 2 straddling) as a
    block of one in a prox mode, None in passive."""
    props = [p for p in model.aut.properties if seg.mode in p.modes]
    assert seg.names == tuple(p.name for p in props)
    abs_flow = np.abs(model.aut.flows[seg.mode])
    G, g = model.aut.guard_normals, model.aut.guard_offsets
    reach = np.abs(V).sum(axis=1)
    bloat = model.h * (abs_flow @ (np.abs(c) + reach)) if model.bloat else np.zeros_like(c)
    seg.lo[k], seg.hi[k] = c - reach - bloat, c + reach + bloat
    for j, p in enumerate(props):
        rows_hit = []
        for a, b in zip(p.normals, p.offsets):
            support = a @ c + np.abs(a @ V).sum() + np.abs(a) @ bloat
            rows_hit.append(support > b or (support == b and not p.strict))
        seg.hits[k, j] = all(rows_hit)
    if seg.mode == MODE_PASSIVE:
        return None
    spread = np.abs(G @ V).sum(axis=1) + np.abs(G) @ bloat
    return np.array([0 if np.all(G @ c + spread <= g) else
                     1 if np.any(G @ c - spread > g) else 2])


def _stepwise_block(model, mode, basis, k0, ends, pipes, work):
    """Reference for ``verifier._block``: each pipe's set at step k0 is the
    basis applied to its start box c0 +/- w0, c = basis c0 and V = basis
    diag(w0), stepped one sample at a time by the Φ recurrence, so its sets
    never pass through a block table.  Each pipe steps the block's
    n = min(_BLOCK, ends[0] - k0) rows up to its own end, the rows past it
    counted as kept.  Stepping stops at the first non-finite set in (pipe,
    step) order, with the rows and codes before it kept."""
    phi, kept, codes, error = model.phis[mode], 0, [], None
    n = min(verifier._BLOCK, ends[0] - k0)
    for start, end, *rows in zip(pipes[0], ends, *pipes[1:]):
        seg = verifier._empty_segment(model, mode, k0 + n, 0.0, 0.0, rows)
        c0, w0 = np.split(start[1], 2)
        c, V = basis @ c0, basis @ np.diag(w0)
        for k in range(k0, min(end, k0 + n)):
            if not (np.isfinite(c).all() and np.isfinite(V).all()):
                where = "passive pipe" if mode == MODE_PASSIVE else f"mode {mode}"
                error = verifier.InconclusiveError(f"numerical overflow in {where} at step {k}")
                break
            codes.append(_stepwise_row(model, seg, k, c, V))
            kept += 1
            c, V = phi @ c, phi @ V
        if error is not None:
            break
        kept += max(0, k0 + n - end)
    codes = None if mode == MODE_PASSIVE else np.concatenate([np.empty(0, int)] + codes)
    return kept, codes, error


def _stepwise(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(verifier, "_block", _stepwise_block)
        return run()


def _assert_same_report(got, ref):
    assert (got.verdict, got.reason) == (ref.verdict, ref.reason)
    assert ([(s.mode, s.n_steps, s.t_lo0, s.t_hi0) for s in got.segments]
            == [(s.mode, s.n_steps, s.t_lo0, s.t_hi0) for s in ref.segments])
    for a, b in zip(got.segments, ref.segments):
        assert a.names == b.names and np.array_equal(a.hits, b.hits)
        scale = np.maximum(1.0, np.maximum(np.abs(b.lo), np.abs(b.hi)).max(axis=0))
        assert np.all(np.abs(a.lo - b.lo) <= 1e-9 * scale)
        assert np.all(np.abs(a.hi - b.hi) <= 1e-9 * scale)
    assert ([(v.property, v.mode, v.step) for v in got.violations]
            == [(v.property, v.mode, v.step) for v in ref.violations])


@pytest.fixture
def fresh_models():
    """The model cache, cleared on entry and on exit, so that no model a test
    builds or edits reaches another test."""
    cached = verifier._model
    cached.cache_clear()
    yield cached
    cached.cache_clear()


@pytest.fixture
def edit_models(monkeypatch, fresh_models):
    """edit_models(edit) gives every verification context edit(model) of a
    freshly built model in place of the cached one; ``dataclasses.replace``
    on a model derives its tables afresh."""

    def install(edit):
        monkeypatch.setattr(verifier, "_model",
                            lambda *key: edit(fresh_models.__wrapped__(*key)))

    return install


@pytest.mark.parametrize("variant", ["lin_prox", "lin_prox_th_tracking", "lin_prox_th_explicit"])
@pytest.mark.parametrize("bloat", [False, True])
def test_blocked_propagation_matches_stepwise_reference(monkeypatch, variant, bloat):
    # A 40 m collision box makes the four-row separation property fire.
    for halfwidth in (None, 40.0):
        overrides = {"intersample_bloat": bloat}
        if halfwidth is not None:
            overrides["separation_halfwidth_m"] = halfwidth
        sc = default_scenario(h=10.0, variant=variant, property_overrides=overrides)
        for run in (lambda: verify(sc), lambda: verify_windowed(sc, 60.0)):
            rep = run()
            _assert_same_report(rep, _stepwise(monkeypatch, run))
            if halfwidth is not None:
                assert "separation" in {v.property for v in rep.violations}


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


def test_blocked_pipe_keeps_nothing_past_a_mid_block_crossing(monkeypatch, edit_models, quick,
                                                              quick_report):
    prox_a = quick_report.segments[0]
    crossing = prox_a.n_steps - 1
    assert 0 < crossing % verifier._BLOCK < verifier._BLOCK - 1
    # A prox_a property first met one step after the crossing, in the same
    # block: the blocked pipe computes that hit and must drop it.
    model = verifier._model_of(quick)
    _, box = verifier._initial(model, quick.init)
    a = np.array([1.0, 0.0, 0.0, 0.0])
    c, V, support = box.mid(), np.diag(box.halfwidth()), []
    for _ in range(crossing + 2):
        support.append(a @ c + np.abs(a @ V).sum())
        c, V = model.phis[MODE_PROX_A] @ c, model.phis[MODE_PROX_A] @ V
    assert max(support[:-1]) < support[-1]
    late = SafetyProperty(name="late", modes=(MODE_PROX_A,), normals=a[None],
                          offsets=np.array([0.5 * (max(support[:-1]) + support[-1])]), strict=False)

    edit_models(lambda model: replace(
        model, aut=replace(model.aut, properties=model.aut.properties + (late,))))
    rep = verify(quick)
    _assert_same_report(rep, _stepwise(monkeypatch, lambda: verify(quick)))
    assert rep.segments[0].n_steps == crossing + 1
    assert not rep.segments[0].hits.any()
    assert rep.verdict == "safe"


def _assert_boxes_match_power_oracle(rep):
    """Every box of rep against the brute-force oracle: a pipe's step k box is
    c_k +/- |Φ^k| w0, with Φ^k from ``np.linalg.matrix_power`` applied to the
    pipe's start box c0 +/- w0, within 1e-12 of each column's scale."""
    model = verifier._model_of(rep.scenario)
    longest = {seg.mode: seg.n_steps for seg in sorted(rep.segments, key=lambda s: s.n_steps)}
    powers = {mode: np.array([np.linalg.matrix_power(model.phis[mode], k) for k in range(n)])
              for mode, n in longest.items()}
    for seg in rep.segments:
        c0, w0 = 0.5 * (seg.lo[0] + seg.hi[0]), 0.5 * (seg.hi[0] - seg.lo[0])
        Pk = powers[seg.mode][:seg.n_steps]
        c, r = Pk @ c0, np.abs(Pk) @ w0
        scale = np.maximum(1.0, np.maximum(np.abs(seg.lo), np.abs(seg.hi)).max(axis=0))
        assert np.all(np.abs(seg.lo - (c - r)) <= 1e-12 * scale)
        assert np.all(np.abs(seg.hi - (c + r)) <= 1e-12 * scale)


def test_every_box_of_the_shipped_mission_matches_the_power_oracle():
    sc = cli.scenario_from_dict(json.loads(
        (Path(__file__).resolve().parents[1] / "scenarios" / "default.json").read_text()))
    for w in (math.inf, 60.0, 20.0, 5.0):
        rep = verify_windowed(sc, w)
        assert rep.verdict == "safe"
        _assert_boxes_match_power_oracle(rep)
        if w in (20.0, 5.0):
            assert monte_carlo_containment(rep, 100)["violations"] == 0
    rep = verify(cli.scenario_from_dict(GRAZE))
    assert [seg.mode for seg in rep.segments] == [MODE_PROX_B, MODE_PROX_A, MODE_PROX_B,
                                                  MODE_PASSIVE]
    _assert_boxes_match_power_oracle(rep)


def test_checker_reads_either_layout_as_a_per_row_test():
    """``_ModeChecker.check`` gives the same hits for C-ordered (m, rows)
    supports and for the transposed view of C-ordered (rows, m) ones, as
    the block kernel passes them, and both are a per-row brute force: each
    property is met when every one of its rows is, a strict row above its
    offset and another at it or above.  Supports sit at, and one ulp
    either side of, offsets that include +/-0 and inf."""
    rng = np.random.default_rng(23)
    offsets = [np.array([1.5]), np.array([0.0, -2.0, 7.25]), np.array([-0.0]),
               np.array([np.inf, 3.0]), np.array([1e300])]
    props = tuple(SafetyProperty(f"p{i}_{strict}", (MODE_PROX_B,), rng.normal(size=(len(b), 4)),
                                 b, strict)
                  for i, b in enumerate(offsets) for strict in (True, False))
    checker = verifier._ModeChecker(props, MODE_PROX_B, 4)
    m, b = 400, checker.offsets
    pick = rng.integers(0, 5, size=(m, len(b)))
    vals = np.select([pick == 0, pick == 1, pick == 2, pick == 3],
                     [b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf), np.full_like(b, np.inf)],
                     b + rng.normal(scale=3.0, size=(m, len(b))))
    want = np.array([[all(v[r] > p.offsets[i] if p.strict else v[r] >= p.offsets[i]
                          for i, r in enumerate(range(start, start + len(p.offsets))))
                      for p, start in zip(props, np.cumsum([0] + [len(p.offsets) for p in props]))]
                     for v in vals])
    for got in (checker.check(np.ascontiguousarray(vals)), checker.check(vals.T.copy().T)):
        assert got.shape == (m, len(props)) and got.tolist() == want.tolist()
    # Every property is met by some sets and missed by others, but a strict
    # row at offset inf, which nothing meets.
    met = dict(zip(checker.names, want.mean(axis=0)))
    assert met.pop("p3_True") == 0 and 0 < min(met.values()) and max(met.values()) < 1


# A star, guard and flow of small dyadic numbers: every support of it below
# is exact, whatever the order of the sums.
_TIE_C = np.array([3.0, -2.0, 1.5, 0.5])
_TIE_V = np.array([[1.0, 0.5, 0.0, 0.0], [0.0, -1.0, 0.25, 0.0],
                   [0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.25]])
_TIE_G = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                   [0.0, -1.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [-0.5, 0.5, 0.0, 0.0],
                   [-0.5, -0.5, 0.0, 0.0], [0.5, -0.5, 0.0, 0.0]])


@pytest.mark.parametrize("bloat", [False, True])
@pytest.mark.parametrize("tie, code", [("rho", 0), ("lower", 2), ("past", 1)])
def test_block_ties_match_stepwise_reference(quick, bloat, tie, code):
    """Supports that meet their offsets exactly.  A set with rho(g) = b on
    every guard row is inside (<=); -rho(-g) = b on one row leaves it
    straddling, and b one step below that makes it outside (>).  A strict
    property row is not met at its offset, a non-strict one is, on a box
    row, a guard row and a row off both.  The kernel's codes, boxes and hits
    equal the one-sample reference's, on one prox pipe and on two passive
    pipes in lockstep, with the bloat on and off."""
    base = verifier._model_of(quick)
    flow = np.full((4, 4), 0.125)
    w = base.h * flow @ (np.abs(_TIE_C) + np.abs(_TIE_V).sum(axis=1)) if bloat else 0.0 * _TIE_C

    def rho(l, sign=1.0):
        return l @ _TIE_C + sign * (np.abs(l @ _TIE_V).sum() + np.abs(l) @ w)

    b = np.array([rho(g) for g in _TIE_G])
    b[4] = rho(_TIE_G[4], -1.0) - (0.25 if tie == "past" else 0.0) if tie != "rho" else b[4]
    # Property rows on a box row, on a guard row and off both.
    named = {"box": [np.eye(4)[2]], "guard": [_TIE_G[7]], "off": [np.array([0.25, -0.5, 0.5, 0.0])]}
    named["all"] = [row for rows in named.values() for row in rows]
    props = [SafetyProperty(f"{name}_{strict}", (MODE_PROX_B, MODE_PASSIVE), np.array(rows),
                            np.array([rho(l) for l in rows]), strict)
             for name, rows in named.items() for strict in (True, False)]
    aut = replace(base.aut, guard_normals=_TIE_G, guard_offsets=b, properties=tuple(props),
                  flows={**base.aut.flows, MODE_PROX_B: flow, MODE_PASSIVE: flow})
    model = replace(base, aut=aut, settings={**base.settings, "intersample_bloat": bloat})
    # The star is the basis _TIE_V applied to the box c0 +/- 1, V c0 = _TIE_C.
    c0 = np.linalg.solve(_TIE_V, _TIE_C)
    assert np.array_equal(_TIE_V @ c0, _TIE_C)
    for mode, W in ((MODE_PROX_B, 1), (MODE_PASSIVE, 2)):
        runs = []
        for kernel in (verifier._block, _stepwise_block):
            rows = verifier._pipe_rows(model, mode, W, 1)
            segs = [verifier._empty_segment(model, mode, 1, 0.0, 0.0, [r[i] for r in rows])
                    for i in range(W)]
            _, codes, _ = kernel(model, mode, _TIE_V, 0, [1] * W,
                                 (np.array([np.hstack([[c0, c0], [-np.ones(4), np.ones(4)]])] * W),
                                  *rows),
                                 verifier._work(model, mode, W))
            runs.append((codes, segs))
        (codes, segs), (ref_codes, ref_segs) = runs
        for seg, ref in zip(segs, ref_segs):
            assert np.array_equal(seg.lo, ref.lo) and np.array_equal(seg.hi, ref.hi)
            assert seg.hits.tolist() == ref.hits.tolist() == [[False, True] * 4]
        if mode == MODE_PASSIVE:
            assert codes is None and ref_codes is None
        else:
            assert codes.tolist() == ref_codes.tolist() == [code]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("mode, where", [(MODE_PASSIVE, "passive pipe"),
                                         (MODE_PROX_A, "mode prox_a")])
def test_overflow_is_inconclusive_at_its_step(edit_models, quick, mode, where):
    edit_models(lambda model: replace(
        model, phis={**model.phis, mode: 1e200 * np.eye(model.aut.dim)}))
    rep = verify(quick)
    assert rep.verdict == "inconclusive"
    assert rep.reason == f"numerical overflow in {where} at step 2"
    assert rep.segments == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflow_after_a_crossing_is_not_reached(monkeypatch, edit_models, quick):
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

    edit_models(lambda model: replace(model, phis={**model.phis, MODE_PROX_A: phi}))
    rep = verify(sc)
    assert rep.verdict != "inconclusive"
    assert (rep.segments[0].mode, rep.segments[0].n_steps) == (MODE_PROX_A, 3)
    _assert_same_report(rep, _stepwise(monkeypatch, lambda: verify(sc)))


# ---------------------------------------------------------------------------
# lockstep passive pipes against one window at a time


def _window_at_a_time(model, segments, windows, horizon):
    """Reference for the windows of ``verifier._passive_segment``: one call
    per window, in window order, whose hull reads the rendezvous pipes and the
    pipes of the earlier windows, each run to its end before the next starts."""
    pipes = []
    for window in windows:
        pipes += verifier._passive_segment(model, segments + pipes, [window], horizon)
    return pipes


def _rendezvous_of(sc):
    model = verifier._model_of(sc)
    return model, verifier._rendezvous_pipes(model, verifier._initial(model, sc.init),
                                             t_end=sc.t2)


@pytest.mark.parametrize("variant", ["lin_prox", "lin_prox_th_tracking", "lin_prox_th_explicit"])
@pytest.mark.parametrize("bloat", [False, True])
def test_lockstep_passive_pipes_equal_window_at_a_time(variant, bloat):
    overrides = {"intersample_bloat": bloat}
    base = default_scenario(h=10.0, variant=variant, property_overrides=overrides)
    # The last split's pipes have 770, 768 and 766 steps, either side of the
    # 768-step block edge, so its last blocks step apart.
    cases = [(base, w) for w in (20.0, 30.0, 60.0, 300.0)]
    cases.append((replace(base, t1=8510.0, t2=8570.0), 20.0))
    for sc, w in cases:
        model, rendezvous = _rendezvous_of(sc)
        windows = partition_window(sc.t1, sc.t2, w)
        got = verifier._passive_segment(model, rendezvous, windows, sc.horizon)
        ref = _window_at_a_time(model, rendezvous, windows, sc.horizon)
        assert len(got) == len(ref) == len(windows)
        for a, b in zip(got, ref):
            assert (a.t_lo0, a.t_hi0, a.n_steps) == (b.t_lo0, b.t_hi0, b.n_steps)
            assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
            assert np.array_equal(a.hits, b.hits)
    assert {seg.n_steps for seg in got} == {770, 768, 766}


def test_windowed_start_hull_takes_in_earlier_passive_boxes(quick):
    # Window i's hull reads the passive boxes of windows 0..i-1 as well as the
    # rendezvous boxes, which widens the later windows' start boxes.
    rep = verify_windowed(quick, 100.0)
    rendezvous = [s for s in rep.segments if s.mode != MODE_PASSIVE]
    passive = [s for s in rep.segments if s.mode == MODE_PASSIVE]
    assert len(passive) == 3
    widths, alone = [], []
    for i, seg in enumerate(passive):
        segments = rendezvous + passive[:i]
        hull = verifier._collect_window_boxes(segments, seg.t_lo0, seg.t_hi0)
        assert np.allclose(seg.lo[0], hull.lo, rtol=0, atol=1e-9)
        assert np.allclose(seg.hi[0], hull.hi, rtol=0, atol=1e-9)
        widths.append(seg.hi[0, 0] - seg.lo[0, 0])
        own = verifier._collect_window_boxes(rendezvous, seg.t_lo0, seg.t_hi0)
        alone.append(own.halfwidth()[0] * 2)
    assert np.allclose(widths[0], alone[0])
    assert widths[2] > widths[1] > widths[0] > alone[1] > alone[2]


def _passive_grows(factor):
    return lambda model: replace(
        model, phis={**model.phis, MODE_PASSIVE: factor * np.eye(model.aut.dim)})


def _overflow_reason(run):
    with pytest.raises(verifier.InconclusiveError) as exc:
        run()
    return str(exc.value)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("factor", [2.0 ** 1.98, 4.0, 16.0],
                         ids=["earlier_block", "same_block", "first_block"])
def test_overflow_with_several_windows_names_the_first_window_that_overflows(edit_models,
                                                                               factor):
    # Passive sets grow factor-fold a step, and window 1's hull takes in
    # window 0's boxes up to step 12, so window 1's pipe overflows 12 steps
    # before window 0's: in the same block (4), in an earlier one (2^1.98),
    # or within window 0's first block, stepped before window 1 starts (16).
    edit_models(_passive_grows(factor))
    sc = default_scenario(h=10.0, t1=7200.0, t2=7320.0)
    windows = partition_window(sc.t1, sc.t2, 60.0)

    def reasons(sc):
        model, rendezvous = _rendezvous_of(sc)
        return (_overflow_reason(lambda: verifier._passive_segment(model, rendezvous, windows,
                                                                    sc.horizon)),
                _overflow_reason(lambda: _window_at_a_time(model, rendezvous, windows,
                                                           sc.horizon)))

    got, ref = reasons(sc)
    assert got == ref
    s0 = int(got.rsplit(" ", 1)[1])
    # With window 0's pipe cut to s0 steps it never overflows; window 1's does.
    got, ref = reasons(replace(sc, horizon=sc.t1 + (s0 - 1) * sc.h))
    assert got == ref
    s1 = int(got.rsplit(" ", 1)[1])
    assert s1 < s0 and (factor != 2.0 ** 1.98 or s1 // verifier._BLOCK < s0 // verifier._BLOCK)
    # With window 1's pipe cut to s1 steps, its overflow lies one step past its
    # end, in a block that window 0's longer pipe still steps: nothing raises.
    short = replace(sc, horizon=windows[1][0] + (s1 - 1) * sc.h)
    rep = verify_windowed(short, 60.0)
    assert rep.verdict != "inconclusive"
    assert [s.n_steps for s in rep.segments if s.mode == MODE_PASSIVE] == [s1 + 6, s1]
    model, rendezvous = _rendezvous_of(short)
    for a, b in zip(rep.segments[-2:],
                    _window_at_a_time(model, rendezvous, windows, short.horizon)):
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(t0=st.floats(-2e4, 2e4), h=st.sampled_from([0.3, 1.0, 3.7, 10.0]),
       n=st.integers(0, 2000), k=st.integers(-3, 2003), ulps=st.sampled_from([-1, 0, 1]))
@example(t0=7200.0, h=0.3, n=0, k=0, ulps=0)
@example(t0=7200.0, h=3.7, n=0, k=5, ulps=-1)
def test_count_below_is_searchsorted_on_the_step_times(t0, h, n, k, ulps):
    # t is the step time t0 + h k as the times array rounds it, or one ulp
    # either side; k may lie past either end of the n steps.
    t = t0 + h * k
    t = math.nextafter(t, ulps * math.inf) if ulps else t
    assert verifier._count_below(t0, h, n, t) == np.searchsorted(t0 + h * np.arange(n), t)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_block_ignores_an_overflow_past_a_short_pipes_end(quick):
    # Passive sets grow 16-fold a step.  Of two pipes stepped in one block,
    # the second starts at 2^400 and overflows past step 100; cut to 100
    # steps, inside the first pipe's 200, it keeps its rows and nothing raises.
    base = verifier._model_of(quick)
    model = replace(base, phis={**base.phis, MODE_PASSIVE: 16.0 * np.eye(4)})
    starts = [verifier._start(Box(lo=np.full(4, c), hi=np.full(4, 2.0 * c)))
              for c in (1.0, 2.0 ** 400)]

    def run(ends, which=slice(None)):
        rows = [r[which] for r in verifier._pipe_rows(model, MODE_PASSIVE, 2, 200)]
        kept, codes, error = verifier._block(model, MODE_PASSIVE, np.eye(4), 0, ends,
                                             (np.array(starts)[which], *rows),
                                             verifier._work(model, MODE_PASSIVE, 2))
        assert codes is None
        return kept, error, rows

    kept, error, _ = run([200, 200])
    step = int(str(error).rsplit(" ", 1)[1])
    assert 100 < step < 200 and kept == 200 + step
    kept, error, rows = run([200, 100])
    assert (kept, error) == (400, None)
    _, error, alone = run([100], slice(1, 2))
    assert error is None
    for both, one in zip(rows, alone):
        assert np.array_equal(both[1, :100], one[0, :100])


# ---------------------------------------------------------------------------
# block sample engine against a one-step-at-a-time reference


def _stepwise_run(sc, model, x0, abort):
    """Reference for ``verifier._simulate_with_ctx``: one step of the mode's
    map at a time (Φ, or RK4 for nlin_prox), with the switching rule and the
    reset applied at every sample.  Returns the states and the mode names."""
    abort = math.inf if abort is None else abort

    def rk4(mode, x):
        kf = None if mode == 2 else sc.params.m_c * model.aut.gains[mode].K

        def rhs(s):
            return nonlinear_field(sc.params, s, (0.0, 0.0) if kf is None else -(kf @ s))

        k1 = rhs(x)
        k2 = rhs(x + 0.5 * sc.h * k1)
        k3 = rhs(x + 0.5 * sc.h * k2)
        k4 = rhs(x + sc.h * k3)
        return x + (sc.h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def phi(mode, x):
        return model.phis[verifier._MODES[mode]] @ x

    step = rk4 if sc.variant == "nlin_prox" else phi
    mode, x = None, np.asarray(x0, dtype=float)
    states, modes = [], []
    for k in range(steps_within(sc.horizon, sc.h) + 1):
        if k:
            x = step(mode, x)
        if mode != 2:
            new = int(verifier._mode_index(model, k, x, abort))
            if new != mode:
                mode, x = new, verifier._reset(model, new, x)
        states.append(x)
        modes.append(verifier._MODES[mode])
    return np.array(states), tuple(modes)


def _mode_runs(modes):
    return [m for m, _ in groupby(modes)]


# (scenario, initial state, abort step, expected mode sequence)
_ENGINE_CASES = {
    "lin_prox": (default_scenario(), None, 7300, [MODE_PROX_A, MODE_PROX_B, MODE_PASSIVE]),
    "tracking": (default_scenario(variant="lin_prox_th_tracking"), None, 7300,
                 [MODE_PROX_A, MODE_PROX_B, MODE_PASSIVE]),
    # The box's upper corner leaves the octagon and comes back.
    "bounce": (cli.scenario_from_dict(GRAZE), "hi", 1700,
               [MODE_PROX_B, MODE_PROX_A, MODE_PROX_B, MODE_PASSIVE]),
}


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_sample_engine_matches_stepwise_reference(case):
    sc, corner, abort, expected = _ENGINE_CASES[case]
    x0 = (sc.init.hi if corner == "hi" else sc.init.mid())[:4]
    model = verifier._model_of(sc)
    ref_states, ref_modes = _stepwise_run(sc, model, x0, abort)
    traj = verifier._simulate_with_ctx(sc, model, x0, abort)
    assert _mode_runs(ref_modes) == expected
    assert traj.modes == ref_modes
    scale = np.maximum(1.0, np.abs(ref_states).max(axis=0))
    assert np.all(np.abs(traj.states - ref_states) <= 1e-9 * scale)


@functools.cache
def _nonlinear_default_run():
    """The default nlin_prox run from the box's center, aborting at step
    7300, stepped one sample at a time: (scenario, states, modes)."""
    sc = default_scenario(variant="nlin_prox", horizon=8000.0)
    return sc, *_stepwise_run(sc, verifier._model_of(sc), sc.init.mid()[:4], 7300)


def _assert_nonlinear_engine_bit_identical(sc, x0, abort):
    """The block engine's run equals the one-step reference bit for bit and
    goes prox_a, prox_b, passive; returns the reference modes."""
    model = verifier._model_of(sc)
    ref_states, ref_modes = _stepwise_run(sc, model, x0, abort)
    traj = verifier._simulate_with_ctx(sc, model, x0, abort)
    assert _mode_runs(ref_modes) == [MODE_PROX_A, MODE_PROX_B, MODE_PASSIVE]
    assert traj.modes == ref_modes
    assert np.array_equal(traj.states, ref_states)
    return ref_modes


def test_nonlinear_sample_engine_is_bit_identical():
    sc, _states, _modes = _nonlinear_default_run()
    _assert_nonlinear_engine_bit_identical(sc, sc.init.mid()[:4], 7300)


@pytest.mark.parametrize("abort_shift", [-1, 0, 1])
@pytest.mark.parametrize("switch_shift", [-1, 0, 1])
def test_nonlinear_sample_engine_is_bit_identical_at_block_edges(switch_shift, abort_shift):
    # Start on the default run where its prox_b switch lies one block ahead,
    # shifted by switch_shift: the field is autonomous, so the switch falls
    # on, one step before or one step after the engine's first block edge.
    # The engine restarts its blocks at a switch, and the abort falls on,
    # before or after the next edge.
    sc, states, modes = _nonlinear_default_run()
    block = verifier._BLOCK - 1
    switch = block + switch_shift
    abort = switch + block + abort_shift
    sc = replace(sc, t1=0.0, t2=float(abort), horizon=float(abort + 300))
    ref_modes = _assert_nonlinear_engine_bit_identical(
        sc, states[modes.index(MODE_PROX_B) - switch], abort)
    assert ref_modes.index(MODE_PROX_B) == switch
    assert ref_modes.index(MODE_PASSIVE) == abort


# ---------------------------------------------------------------------------
# the model cache: one read-only model per physics


def test_warm_cache_emits_the_bytes_of_a_fresh_process(tmp_path, fresh_models):
    doc = {"step_s": 10.0, "properties": {"separation_halfwidth_m": 50.0}}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    # Warm the cache on other physics, then on this physics from another start.
    verify(cli.scenario_from_dict({**doc, "variant": "lin_prox_th_tracking"}))
    verify_windowed(cli.scenario_from_dict({**doc, "init_center": [-950.0, -300.0, 0.0, 0.0]}),
                    60.0)
    built = fresh_models.cache_info().currsize
    assert cli.cli_main(["verify", str(path), "--out", str(tmp_path / "warm")]) == 1
    assert fresh_models.cache_info().currsize == built
    src = str(Path(rdvsafe.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rdvsafe.cli", "verify", str(path),
                           "--out", str(tmp_path / "fresh")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    for name in ("report.json", "flowpipe.csv"):
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def _cached_arrays(model):
    """Every array of a model, by name."""
    aut = model.aut
    arrays = {"guard_normals": aut.guard_normals, "guard_offsets": aut.guard_offsets,
              "guard2": model.guard2, "guard_rows": model.guard_rows}
    for i, gain in enumerate(aut.gains):
        arrays.update({f"gains[{i}].K": gain.K, f"gains[{i}].P": gain.P})
    for p in aut.properties:
        arrays.update({f"{p.name}.normals": p.normals, f"{p.name}.offsets": p.offsets})
    for m in verifier._MODES:
        (P, phi_block), checker = model.powers[m], model.checkers[m]
        arrays.update({f"flows[{m}]": aut.flows[m], f"phis[{m}]": model.phis[m],
                       f"P[{m}]": P, f"phi_block[{m}]": phi_block,
                       f"directions[{m}]": model.directions[m], f"{m}.normals": checker.normals,
                       f"{m}.offsets": checker.offsets, f"{m}.strict": checker.strict,
                       f"{m}.rows": checker.rows})
    return arrays


@pytest.mark.parametrize("variant", ["lin_prox", "lin_prox_th_tracking"])
def test_cached_model_cannot_be_written(variant):
    sc = default_scenario(h=10.0, variant=variant)
    model = verifier._model_of(sc)
    assert verify(sc).gains is model.aut.gains
    for name, array in _cached_arrays(model).items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    for table in (model.phis, model.powers, model.directions, model.checkers, model.aut.flows):
        with pytest.raises(TypeError):
            table[MODE_PROX_A] = None
    with pytest.raises(TypeError):
        model.settings["intersample_bloat"] = True
    with pytest.raises(FrozenInstanceError):
        model.bloat = True


def _other_value(default):
    return (not default) if isinstance(default, bool) else 1.25 * default


# One change per field of the model's key.
_KEY_CHANGES = {
    "params.mu": {"params": OrbitalParams(mu=3.986e14)},
    "params.r": {"params": OrbitalParams(r=42000e3)},
    "params.m_c": {"params": OrbitalParams(m_c=600.0)},
    "variant": {"variant": "lin_prox_th_tracking"},
    "h": {"h": 20.0},
    "bryson.prox_a": {"bryson": {"prox_a": {"max_state": [900.0, 1000.0, 0.4, 0.4]}}},
    "bryson.prox_b": {"bryson": {"prox_b": {"max_state": [100.0, 90.0, 0.025, 0.025]}}},
    "bryson.max_input": {"bryson": {"max_input": [0.02, 0.03]}},
    **{f"properties.{key}": {"property_overrides": {key: _other_value(default)}}
       for key, default in PROPERTY_DEFAULTS.items()},
}

# Changes outside the key, and the key's defaults spelled out.
_SHARED_CHANGES = {
    "init": {"init": Box(lo=np.array([-950.0, -300.0, 0.0, 0.0]),
                         hi=np.array([-940.0, -290.0, 0.0, 0.0]))},
    "t1/t2": {"t1": 3000.0, "t2": 3600.0},
    "horizon": {"horizon": 9000.0},
    "seed": {"seed": 7},
    "window_width": {"window_width": 60.0},
    "default bryson": {"bryson": {"prox_a": {"max_state": [1000, 1000, 0.4, 0.4]},
                                  "max_input": [0.02, 0.02]}},
    "default properties": {"property_overrides": dict(PROPERTY_DEFAULTS)},
}


@pytest.mark.parametrize("field", sorted(_KEY_CHANGES))
def test_each_key_field_gets_its_own_model(fresh_models, field):
    base, sc = default_scenario(h=10.0), replace(default_scenario(h=10.0), **_KEY_CHANGES[field])
    model = verifier._model_of(sc)
    assert model is not verifier._model_of(base)
    assert model is verifier._model_of(sc)


@pytest.mark.parametrize("field", sorted(_SHARED_CHANGES))
def test_scenarios_of_one_physics_share_a_model(fresh_models, field):
    base, sc = default_scenario(h=10.0), replace(default_scenario(h=10.0), **_SHARED_CHANGES[field])
    assert verifier._model_of(sc) is verifier._model_of(base)
    assert fresh_models.cache_info().currsize == 1


def test_scenario_keeps_the_values_its_rules_filled_in(fresh_models):
    overrides = {"velocity_limit_mps": 0.5, "intersample_bloat": True}
    sc = default_scenario(property_overrides=overrides, bryson=BOUNCE_BRYSON)
    assert sc.settings == property_settings(overrides)
    assert sc.maxima == bryson_maxima(BOUNCE_BRYSON)
    # dataclasses.replace derives them afresh.
    back = replace(sc, property_overrides=None, bryson=None)
    assert back.settings == property_settings(None)
    assert back.maxima == bryson_maxima(None)
    # They enter neither == nor repr.
    twin = replace(back)
    object.__setattr__(twin, "settings", {})
    object.__setattr__(twin, "maxima", ())
    assert twin == back
    assert "settings=" not in repr(sc) and "maxima=" not in repr(sc)
    # Equal physics, spelled differently, keys one model.
    twin = replace(sc, seed=3, property_overrides={
        **overrides, "thrust_limit_n": PROPERTY_DEFAULTS["thrust_limit_n"]})
    assert twin.settings == sc.settings and verifier._model_of(twin) is verifier._model_of(sc)


def _first_hits_by_column(segments):
    """Each property's earliest hit over segments, a column and a row at a
    time, as (property, mode, time, step, witness bytes), in time order."""
    best = {}
    for seg in segments:
        for j, name in enumerate(seg.names):
            for k in range(seg.n_steps):
                if seg.hits[k, j]:
                    t = seg.t_lo0 + k * seg.h
                    if name not in best or t < best[name][2]:
                        best[name] = (name, seg.mode, t, k, seg.lo[k].tobytes(),
                                      seg.hi[k].tobytes())
                    break
    return sorted(best.values(), key=lambda v: (v[2], v[0]))


def test_first_violations_match_a_column_by_column_scan():
    rng = np.random.default_rng(29)
    pool = ["los_range", "velocity_000", "thrust_x_max", "separation"]

    def pipe(n, names, hits):
        lo = rng.normal(size=(n, 4))
        return verifier.FlowpipeSegment(
            mode=str(rng.choice(verifier._MODES)), lo=lo, hi=lo + 1.0,
            t_lo0=float(rng.integers(0, 20)), t_hi0=20.0, h=float(rng.choice([0.5, 1.0, 3.0])),
            names=tuple(names), hits=hits)

    found = 0
    for trial in range(300):
        segments = []
        for _ in range(rng.integers(0, 4)):
            n, names = int(rng.integers(1, 40)), list(rng.permutation(pool)[:rng.integers(1, 5)])
            segments.append(pipe(n, names, rng.uniform(size=(n, len(names))) < rng.choice([0.02, 0.2])))
        row0 = np.zeros((5, 2), dtype=bool)
        row0[0, rng.integers(0, 2)] = True
        segments += [pipe(7, [], np.zeros((7, 0), dtype=bool)),            # no property columns
                     pipe(6, pool[:3], np.zeros((6, 3), dtype=bool)),      # no hits
                     pipe(5, rng.permutation(pool)[:2], row0)]             # a hit on row 0
        segments = [segments[i] for i in rng.permutation(len(segments))]
        got = [(v.property, v.mode, v.time_s, v.step, v.witness_lo.tobytes(),
                v.witness_hi.tobytes()) for v in verifier._first_violations(segments)]
        want = _first_hits_by_column(segments)
        assert got == want
        found += len(got)
    assert found > 600


# A prox_a pipe whose set first leaves its region at step 255, the last row
# of its first block, or at step 256, the first row of its second block after
# a block spent wholly in its own region; the prox_b pipe restarted from it
# starts collecting at that step.
_FIRST_STRADDLE = {
    255: (139.74, [(MODE_PROX_A, 0.0, 0.0, 278), (MODE_PROX_B, 255.0, 277.0, 646),
                   (MODE_PASSIVE, 900.0, 900.0, 101)]),
    256: (139.94, [(MODE_PROX_A, 0.0, 0.0, 279), (MODE_PROX_B, 256.0, 278.0, 645),
                   (MODE_PASSIVE, 900.0, 900.0, 101)]),
}


@pytest.mark.parametrize("step", sorted(_FIRST_STRADDLE))
def test_pipes_of_a_first_straddle_at_a_block_edge(step):
    radius, pipes = _FIRST_STRADDLE[step]
    sc = cli.scenario_from_dict({
        "init_center": [-radius, 0.0, 0.0, 0.0], "init_halfwidth": [2.0, 2.0, 0.0, 0.0],
        "t1_s": 900.0, "t2_s": 900.0, "horizon_s": 1000.0, "step_s": 1.0,
        "bryson": BOUNCE_BRYSON})
    report = verify(sc)
    assert [(s.mode, s.t_lo0, s.t_hi0, s.n_steps) for s in report.segments] == pipes
