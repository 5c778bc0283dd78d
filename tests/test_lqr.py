"""Controller design tests: Bryson weights, CARE solve, per-mode gains."""

import warnings

import numpy as np
import pytest

from rdvsafe import OrbitalParams, bryson_weights, cwh_matrices, design_mode_gains, solve_care
from rdvsafe.lqr import (
    DEFAULT_MAX_INPUT,
    PROXA_MAX_STATE,
    PROXB_MAX_STATE,
    Weights,
    care_residual,
)


def test_bryson_far_mode_reference_values():
    w = bryson_weights((1000, 1000, 5, 5), (0.02, 0.02))
    assert np.allclose(np.diag(w.Q), [1e-6, 1e-6, 0.04, 0.04], rtol=1e-15)
    assert np.allclose(np.diag(w.R), [2500.0, 2500.0], rtol=1e-15)


def test_bryson_unit_and_decade():
    w = bryson_weights((1, 1, 1, 1), (1, 1))
    assert np.array_equal(w.Q, np.eye(4)) and np.array_equal(w.R, np.eye(2))
    w10 = bryson_weights((10, 1, 1, 1), (1, 1))
    assert w10.Q[0, 0] == pytest.approx(0.01, rel=1e-15)


@pytest.mark.parametrize("ms,mi", [((0, 1, 1, 1), (1, 1)), ((1, 1, 1, 1), (-2, 1)),
                                   ((float("nan"), 1, 1, 1), (1, 1))])
def test_bryson_rejects_nonpositive(ms, mi):
    with pytest.raises(ValueError, match="Bryson maxima must be strictly positive"):
        bryson_weights(ms, mi)


def test_weights_reject_offdiagonal():
    with pytest.raises(ValueError):
        Weights(Q=np.array([[1.0, 0.1], [0.1, 1.0]]), R=np.eye(2))


def test_care_scalar_analytic():
    w = Weights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    g = solve_care(np.array([[0.0]]), np.array([[1.0]]), w)
    assert g.P[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert g.K[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_care_double_integrator_analytic():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    w = Weights(Q=np.eye(2), R=np.array([[1.0]]))
    g = solve_care(A, B, w)
    assert np.allclose(g.K, [[1.0, np.sqrt(3.0)]], atol=1e-10)
    assert care_residual(A, B, w, g.P) <= 1e-10


def test_care_cwh_residual_and_stability():
    params = OrbitalParams()
    model = cwh_matrices(params)
    B_acc = params.m_c * model.B
    w = bryson_weights(PROXA_MAX_STATE, DEFAULT_MAX_INPUT)
    g = solve_care(model.A, B_acc, w)
    assert care_residual(model.A, B_acc, w, g.P) <= 1e-8 * np.linalg.norm(w.Q, "fro")
    assert np.max(np.linalg.eigvals(model.A - B_acc @ g.K).real) < 0.0


def test_care_rejects_unstabilizable_pair():
    # Unstable mode with no input authority.
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    B = np.array([[0.0], [1.0]])
    w = Weights(Q=np.eye(2), R=np.array([[1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            solve_care(A, B, w)


def test_care_on_a_one_metre_orbit_is_a_value_error_with_no_warning():
    # The mean motion is ~2e7 rad/s: no gain meets the residual tolerance.
    params = OrbitalParams(r=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="CARE residual"):
            design_mode_gains(params)


# The prox_a and prox_b Bryson max states of the bounce workload's scenarios.
_BOUNCE_MAXIMA = ((1000.0, 1000.0, 2.0, 2.0), (100.0, 100.0, 2.0, 2.0))


@pytest.mark.parametrize("maxima", [(PROXA_MAX_STATE, PROXB_MAX_STATE), _BOUNCE_MAXIMA],
                         ids=["default", "bounce"])
def test_care_gain_matches_scipy(maxima):
    from scipy.linalg import solve_continuous_are
    params = OrbitalParams()
    model = cwh_matrices(params)
    B_acc = params.m_c * model.B
    for max_state in maxima:
        w = bryson_weights(max_state, DEFAULT_MAX_INPUT)
        P = solve_continuous_are(model.A, B_acc, w.Q, w.R)
        want = np.linalg.solve(w.R, B_acc.T @ P)
        got = solve_care(model.A, B_acc, w).K
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_gain_consistency_and_certificate():
    params = OrbitalParams()
    k1, k2 = design_mode_gains(params)
    model = cwh_matrices(params)
    B_acc = params.m_c * model.B
    for g, ms in ((k1, PROXA_MAX_STATE), (k2, None)):
        assert np.allclose(g.P, g.P.T, atol=1e-10 * np.linalg.norm(g.P))
        assert np.min(np.linalg.eigvalsh(g.P)) >= -1e-10 * np.linalg.norm(g.P)
        assert np.max(np.linalg.eigvals(model.A - B_acc @ g.K).real) < 0.0
    w1 = bryson_weights(PROXA_MAX_STATE, DEFAULT_MAX_INPUT)
    K_expected = np.linalg.solve(w1.R, B_acc.T @ k1.P)
    assert np.allclose(k1.K, K_expected, rtol=1e-10, atol=1e-16)


def test_mode_gains_differ_and_rebuild_bit_identical():
    params = OrbitalParams()
    k1a, k2a = design_mode_gains(params)
    k1b, k2b = design_mode_gains(params)
    assert not np.array_equal(k1a.K, k2a.K)
    assert np.array_equal(k1a.K, k1b.K) and np.array_equal(k2a.K, k2b.K)
    assert np.array_equal(k1a.P, k1b.P) and np.array_equal(k2a.P, k2b.P)


def test_uniform_cost_scaling_leaves_gain_unchanged():
    params = OrbitalParams()
    model = cwh_matrices(params)
    B_acc = params.m_c * model.B
    w = bryson_weights(PROXA_MAX_STATE, DEFAULT_MAX_INPUT)
    scaled = Weights(Q=10.0 * w.Q, R=10.0 * w.R)
    g = solve_care(model.A, B_acc, w)
    g_scaled = solve_care(model.A, B_acc, scaled)
    assert np.linalg.norm(g.K - g_scaled.K) <= 1e-9 * np.linalg.norm(g.K)
