"""Automaton construction and safety-set geometry tests."""

import numpy as np
import pytest

from rdvsafe import (
    Box,
    OrbitalParams,
    build_rendezvous_automaton,
    closed_loop_matrix,
    cwh_matrices,
    design_mode_gains,
    initial_thrust_box,
    default_scenario,
    los_halfspaces,
    octagon_halfspaces,
    separation_property,
    thrust_properties,
    velocity_polytope,
)
from rdvsafe.hybrid import (
    GUARD_RADIUS_M,
    MODE_PASSIVE,
    MODE_PROX_A,
    MODE_PROX_B,
    default_properties,
    property_settings,
)
from rdvsafe.verifier import simulate_scenario

GEO = OrbitalParams()
GAINS = design_mode_gains(GEO)


def _in_box(box, point, slack):
    """Whether point lies in box widened by slack on every side."""
    p = np.asarray(point, dtype=float)
    return bool(np.all(p >= box.lo - slack) and np.all(p <= box.hi + slack))


def _violated(normals, offsets, p):
    return np.nonzero(normals @ p > offsets)[0]


def _hit(prop, x):
    """Whether the state x lies in prop's unsafe set (every row reached)."""
    vals = prop.normals @ np.asarray(x, dtype=float)
    return bool(np.all(vals > prop.offsets if prop.strict else vals >= prop.offsets))


def test_octagon_vertex_on_axis_touches_two_edges():
    normals, offsets = octagon_halfspaces(100.0)
    vals = normals @ np.array([100.0, 0.0])
    on_edge = np.isclose(vals, offsets, rtol=1e-12)
    assert on_edge.sum() == 2
    assert np.all(vals <= offsets + 1e-9)


def test_octagon_origin_strictly_inside():
    normals, offsets = octagon_halfspaces(42.0)
    assert np.all(normals @ np.zeros(2) < offsets)


def test_octagon_point_beyond_edge_normal_violates_exactly_one():
    normals, offsets = octagon_halfspaces(100.0)
    d = 100.0 * np.cos(np.radians(22.5)) + 0.1
    p = d * np.array([np.cos(np.radians(22.5)), np.sin(np.radians(22.5))])
    assert list(_violated(normals, offsets, p)) == [0]


def test_octagon_complementarity():
    normals, offsets = octagon_halfspaces(100.0)
    rng = np.random.default_rng(13)
    for _ in range(500):
        p = rng.uniform(-250.0, 250.0, size=2)
        margins = normals @ p - offsets
        if np.any(np.abs(margins) < 1e-9):
            continue  # boundary
        inside = bool(np.all(margins < 0.0))
        outside = bool(np.any(margins > 0.0))
        assert inside != outside


def test_octagon_rejects_bad_radius():
    with pytest.raises(ValueError):
        octagon_halfspaces(0.0)


def test_los_region_membership():
    normals, offsets = los_halfspaces()
    def inside(p):
        return bool(np.all(normals @ p <= offsets + 1e-12))
    assert inside(np.array([-50.0, 0.0]))
    assert inside(np.array([-50.0, 28.0]))       # 28 < 50 tan30 = 28.87
    assert not inside(np.array([-50.0, 30.0]))
    assert inside(np.array([0.0, 0.0]))          # apex on the boundary, closed region
    assert not inside(np.array([-120.0, 0.0]))


def test_los_properties_fire_exactly_one():
    props = [p for p in default_properties("lin_prox", 4) if p.name.startswith("los")]
    assert len(props) == 3
    assert [p.name for p in props if _hit(p, [-50.0, 30.0, 0.0, 0.0])] == ["los_cone_upper"]
    assert [p.name for p in props if _hit(p, np.zeros(4))] == []


def test_velocity_polytope_membership():
    normals, offsets = velocity_polytope()
    assert offsets[0] == pytest.approx(0.05 * np.cos(np.radians(22.5)), rel=1e-12)
    assert len(_violated(normals, offsets, np.array([0.04, 0.0]))) == 0
    assert list(_violated(normals, offsets, np.array([0.05, 0.0]))) == [0]
    assert len(_violated(normals, offsets, np.zeros(2))) == 0


def test_thrust_properties_bounds_and_scope():
    props = thrust_properties()
    assert len(props) == 4
    assert all(set(p.modes) == {MODE_PROX_A, MODE_PROX_B} for p in props)
    def fired(u):
        return [p.name for p in props if _hit(p, [0.0, 0.0, 0.0, 0.0, *u])]
    assert fired([9.9, 0.0]) == []
    assert fired([10.0, 0.0]) == ["thrust_x_hi"]   # closed unsafe set
    assert fired([0.0, -10.5]) == ["thrust_y_lo"]
    assert [p.name for p in thrust_properties(12.0) if _hit(p, [0, 0, 0, 0, -11.0, 11.0])] == []


def test_separation_property_geometry():
    prop = separation_property(4)
    hw = 0.1 / np.sqrt(2.0)
    assert np.allclose(-prop.offsets, hw, rtol=1e-12)
    assert -prop.offsets[0] == pytest.approx(0.07071, abs=5e-6)
    assert prop.modes == (MODE_PASSIVE,) and prop.normals.shape == (4, 4)
    # A point meets the box when it reaches all four rows; one row is not enough.
    assert _hit(prop, [0.05, -0.05, 3.0, 3.0])
    assert _hit(prop, [hw, -hw, 0.0, 0.0])              # closed unsafe set
    assert not _hit(prop, [0.0, 0.08, 0.0, 0.0])
    assert not _hit(prop, [1.5, 1.5, 0.0, 0.0])
    assert separation_property(6, 2.0).normals.shape == (4, 6)
    assert _hit(separation_property(6, 2.0), [1.5, 1.5, 0.0, 0.0, 0.0, 0.0])


def test_property_inventory_counts():
    assert len(default_properties("lin_prox", 4)) == 12
    assert len(default_properties("nlin_prox", 4)) == 12
    assert len(default_properties("lin_prox_th_tracking", 6)) == 16
    assert len(default_properties("lin_prox_th_explicit", 6)) == 16


def test_unknown_property_setting_is_rejected():
    with pytest.raises(ValueError, match="bogus"):
        property_settings({"bogus": 1})
    with pytest.raises(ValueError, match="bogus"):
        default_properties("lin_prox", 4, {"bogus": 1})


def test_bool_setting_rejects_a_non_bool():
    with pytest.raises(ValueError, match="intersample_bloat"):
        property_settings({"intersample_bloat": "false"})
    with pytest.raises(ValueError, match="intersample_bloat"):
        property_settings({"intersample_bloat": 0})
    assert property_settings({"intersample_bloat": True})["intersample_bloat"] is True


def test_float_setting_rejects_a_bool_or_a_non_real():
    for bad in (True, "0.1", None, [0.1]):
        with pytest.raises(ValueError, match="velocity_limit_mps"):
            property_settings({"velocity_limit_mps": bad})
    # An int is a real number and becomes a float.
    limit = property_settings({"velocity_limit_mps": 2})["velocity_limit_mps"]
    assert type(limit) is float and limit == 2.0


@pytest.mark.parametrize("key,bad,good", [
    ("separation_halfwidth_m", -1e-9, 0.0),
    ("velocity_limit_mps", 0.0, 1e-9),
    ("thrust_limit_n", 0.0, 1e-9),
    ("los_half_angle_deg", 0.0, 1e-9),
    ("los_half_angle_deg", 90.0, 89.9),
])
def test_setting_out_of_range_is_rejected(key, bad, good):
    for val in (bad, float("nan")):
        with pytest.raises(ValueError, match=key):
            property_settings({key: val})
    assert property_settings({key: good})[key] == good


def test_unsafe_sets_exclude_nominal_target_state():
    # The origin with zero velocity violates nothing except the collision box,
    # which contains the target by construction.
    for variant, dim in (("lin_prox", 4), ("lin_prox_th_tracking", 6)):
        for p in default_properties(variant, dim):
            assert _hit(p, np.zeros(dim)) == (p.name == "separation"), p.name


def test_automaton_linear_variant_flows():
    aut = build_rendezvous_automaton(GEO, GAINS, "lin_prox")
    model = cwh_matrices(GEO)
    expect = closed_loop_matrix(model, GEO.m_c * GAINS[0].K)
    assert np.array_equal(aut.flows[MODE_PROX_A], expect)
    assert np.array_equal(aut.flows[MODE_PASSIVE], model.A)
    assert aut.dim == 4


def test_automaton_window_and_variant_validation():
    # The abort window is a scenario setting; the automaton carries no clock.
    with pytest.raises(ValueError):
        default_scenario(t1=500.0, t2=400.0)
    with pytest.raises(ValueError):
        build_rendezvous_automaton(GEO, GAINS, "warp_drive")


def test_thrust_variants_same_trajectories_different_matrices():
    aut_tr = build_rendezvous_automaton(GEO, GAINS, "lin_prox_th_tracking")
    aut_ex = build_rendezvous_automaton(GEO, GAINS, "lin_prox_th_explicit")
    A_tr = aut_tr.flows[MODE_PROX_A]
    A_ex = aut_ex.flows[MODE_PROX_A]
    assert not np.allclose(A_tr, A_ex)

    # Runs of both variants from the same state, which enter prox_a with the
    # consistent thrust state -m_c K x.
    x4 = np.array([-900.0, -400.0, 0.1, -0.05])

    def run(variant):
        sc = default_scenario(variant=variant, t1=1000.0, t2=1000.0, horizon=1000.0)
        traj = simulate_scenario(sc, x4, None)
        assert set(traj.modes) == {MODE_PROX_A}
        return traj.states

    assert np.allclose(run("lin_prox_th_tracking"), run("lin_prox_th_explicit"),
                       rtol=1e-6, atol=1e-6)


def test_passive_flow_ignores_thrust_states():
    aut = build_rendezvous_automaton(GEO, GAINS, "lin_prox_th_tracking")
    flow = aut.flows[MODE_PASSIVE]
    assert np.array_equal(flow[:, 4:], np.zeros((6, 2)))
    assert np.array_equal(flow[4:, :], np.zeros((2, 6)))


def test_initial_thrust_box_zero_gain():
    zero = type(GAINS[0])(K=np.zeros((2, 4)), P=np.zeros((4, 4)))
    box = initial_thrust_box(zero, GEO.m_c, Box(lo=-np.ones(4), hi=np.ones(4)))
    assert np.array_equal(box.lo, np.zeros(2)) and np.array_equal(box.hi, np.zeros(2))


def test_initial_thrust_box_hand_interval():
    # Gain whose force map is the identity on position.
    K = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]) / GEO.m_c
    gain = type(GAINS[0])(K=K, P=np.zeros((4, 4)))
    init = Box(lo=np.array([-925.0, -425.0, 0.0, 0.0]), hi=np.array([-875.0, -375.0, 0.0, 0.0]))
    box = initial_thrust_box(gain, GEO.m_c, init)
    assert np.allclose(box.mid(), [900.0, 400.0], rtol=1e-14)
    assert np.allclose(box.halfwidth(), [25.0, 25.0], rtol=1e-14)


def test_initial_thrust_box_contains_corner_commands():
    rng = np.random.default_rng(41)
    K = rng.normal(scale=1e-3, size=(2, 4))
    gain = type(GAINS[0])(K=K, P=np.zeros((4, 4)))
    lo = rng.normal(scale=100.0, size=4)
    init = Box(lo=lo, hi=lo + rng.uniform(1.0, 50.0, size=4))
    box = initial_thrust_box(gain, GEO.m_c, init)
    from itertools import product
    for corner in product(*zip(init.lo, init.hi)):
        u = -GEO.m_c * (K @ np.array(corner))
        assert _in_box(box, u, 1e-9)


def test_guard_octagon_radius_constant():
    aut = build_rendezvous_automaton(GEO, GAINS, "lin_prox")
    vertex = np.zeros(4)
    vertex[0] = GUARD_RADIUS_M
    vals = aut.guard_normals @ vertex
    assert np.isclose(vals.max(), aut.guard_offsets[0], rtol=1e-12)
