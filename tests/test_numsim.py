"""Propagation engine tests: matrix exponential, linear stepping, RK4."""

import functools

import numpy as np
import pytest

from rdvsafe import (
    OrbitalParams,
    Trajectory,
    cwh_matrices,
    design_mode_gains,
    matrix_exp,
    nonlinear_field,
    simulate_nonlinear,
)
from rdvsafe.verifier import (
    _mode_index,
    _simulate_with_ctx,
    _VerifyContext,
    default_scenario,
)

GEO = OrbitalParams()


@functools.cache
def _coast_context(h, steps):
    return _VerifyContext(default_scenario(t1=0.0, t2=0.0, horizon=steps * h, h=h))


def simulate_linear(h, x0, steps):
    """states[k] = Φ^k x0 for the CWH map Φ over h: a lin_prox run through the
    sample engine that aborts into the passive mode at step 0."""
    return _simulate_with_ctx(_coast_context(h, steps), x0, 0)


def test_matrix_exp_zero_and_diagonal():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-16)
    out = matrix_exp(np.diag([1.0, -2.0]))
    assert np.allclose(out, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)


def test_matrix_exp_nilpotent_terminates_exactly():
    out = matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], rtol=0, atol=1e-15)


def test_propagator_identity_and_scalar_decay():
    assert np.allclose(matrix_exp(np.zeros((2, 2)) * 5.0), np.eye(2), atol=1e-16)
    phi = matrix_exp(np.diag([-1.0]) * 1.0)
    assert phi[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-14)


def test_propagator_semigroup_property():
    A = cwh_matrices(GEO).A
    p1 = matrix_exp(A * 30.0)
    p2 = matrix_exp(A * 60.0)
    assert np.allclose(p2, p1 @ p1, rtol=1e-12, atol=1e-16)


def test_propagator_rejects_bad_step():
    # A zero step would repeat sample times, which a trajectory refuses.
    with pytest.raises(ValueError):
        simulate_linear(0.0, np.zeros(4), 3)
    with pytest.raises(ValueError):
        simulate_nonlinear(GEO, None, np.zeros(4), 0.0, 3)


def test_simulate_linear_zero_state():
    traj = simulate_linear(1.0, np.zeros(4), 50)
    assert np.all(traj.states == 0.0)
    assert traj.times[-1] == 50.0


def test_simulate_linear_superposition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x0 = rng.normal(scale=100.0, size=4)
        v = rng.normal(scale=10.0, size=4)
        a = simulate_linear(10.0, x0 + v, 40).states
        b = simulate_linear(10.0, x0, 40).states
        c = simulate_linear(10.0, v, 40).states
        assert np.allclose(a - b, c, rtol=1e-9, atol=1e-9)


def _rk4_passive_reference(params, x0, h, steps):
    x = np.asarray(x0, dtype=float)
    f = np.zeros(2)
    for _ in range(steps):
        k1 = nonlinear_field(params, x, f)
        k2 = nonlinear_field(params, x + 0.5 * h * k1, f)
        k3 = nonlinear_field(params, x + 0.5 * h * k2, f)
        k4 = nonlinear_field(params, x + h * k3, f)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_simulate_linear_matches_fine_rk4_over_one_orbit():
    # The exponential stepping is exact at samples; a 100x finer RK4 on the
    # linear field serves as the independent oracle.
    h = 60.0
    period = 2 * np.pi / GEO.n
    steps = int(period / h)
    x0 = np.array([-100.0, 0.0, 0.0, 0.0])
    end_exp = simulate_linear(h, x0, steps).states[-1]

    A = cwh_matrices(GEO).A
    x = x0.copy()
    fine = h / 100.0
    for _ in range(steps * 100):
        k1 = A @ x
        k2 = A @ (x + 0.5 * fine * k1)
        k3 = A @ (x + 0.5 * fine * k2)
        k4 = A @ (x + fine * k3)
        x = x + (fine / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.linalg.norm(end_exp[:2] - x[:2]) <= 1e-6


def test_cwh_drift_equilibrium_line():
    # A purely along-track offset with zero velocity is an equilibrium of the
    # uncontrolled relative dynamics.
    traj = simulate_linear(60.0, np.array([0.0, 750.0, 0.0, 0.0]), 200)
    assert np.allclose(traj.states, traj.states[0], rtol=0, atol=1e-9 * 750.0)


def test_rk4_fourth_order_convergence():
    x0 = np.array([-50000.0, 80000.0, 0.0, 0.0])
    T = 8000.0

    def endpoint(h):
        return simulate_nonlinear(GEO, None, x0, h, int(T / h)).states[-1]

    ref = endpoint(125.0)
    e1 = np.linalg.norm(endpoint(1000.0) - ref)
    e2 = np.linalg.norm(endpoint(500.0) - ref)
    assert e1 / e2 == pytest.approx(16.0, rel=0.3)


def test_simulate_nonlinear_origin_equilibrium():
    # Coasting, and under prox_a's feedback force.
    for force_gain in (None, GEO.m_c * design_mode_gains(GEO)[0].K):
        traj = simulate_nonlinear(GEO, force_gain, np.zeros(4), 1.0, 100)
        assert traj.times[-1] == 100.0
        assert np.all(np.abs(traj.states) <= 1e-9)


def test_rendezvous_mode_logic_switches():
    # The verifier's switching rule, as indices into (prox_a, prox_b, passive),
    # on one state at a time and on the same states as one batch.
    ctx = _VerifyContext(default_scenario())
    far = np.array([-900.0, -400.0, 0.0, 0.0])
    near = np.array([-50.0, 10.0, 0.0, 0.0])
    cases = [(0, far, 0), (1, near, 1), (2, far, 0), (50, near, 2), (60, far, 2)]
    for k, x, mode in cases:
        assert _mode_index(ctx, k, x, 50) == mode
    # The same cases as one batch at step 60: each abort step moves by 60 - k.
    batch = np.stack([x for _, x, _ in cases], axis=1)
    aborts = np.array([50 + 60 - k for k, _, _ in cases])
    assert list(_mode_index(ctx, 60, batch, aborts)) == [m for _, _, m in cases]


def test_trajectory_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 4)))
    traj = Trajectory(times=np.array([0.0, 1.0]), states=np.arange(8.0).reshape(2, 4),
                      modes=("prox_a", "prox_a"))
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time_s,x,y,vx,vy,mode"
    assert len(lines) == 3
    assert lines[1].endswith("prox_a")
