"""Dynamics model tests: mean motion, CWH matrices, nonlinear field, closed loop."""

import pickle
from decimal import Decimal, getcontext

import numpy as np
import pytest

from rdvsafe import (
    OrbitalParams,
    closed_loop_matrix,
    cwh_matrices,
    nonlinear_field,
)
from rdvsafe.orbital import FieldError

GEO = OrbitalParams()  # mu=3.698e14, r=4.2164e7, m_c=500


def test_mean_motion_geo_constants():
    # 7.0238e-5 is the 5-digit rounding; the decimal oracle pins the rest.
    assert GEO.n == pytest.approx(7.0238e-5, rel=1e-5)
    getcontext().prec = 50
    oracle = float((Decimal(GEO.mu) / Decimal(GEO.r) ** 3).sqrt())
    assert GEO.n == pytest.approx(oracle, rel=1e-12)


def test_mean_motion_unit_cases():
    assert OrbitalParams(mu=1.0, r=1.0, m_c=1.0).n == 1.0
    assert OrbitalParams(mu=4.0, r=1.0, m_c=1.0).n == 2.0


@pytest.mark.parametrize("bad", [
    dict(mu=-1.0), dict(mu=0.0), dict(r=0.0), dict(r=-5.0), dict(m_c=0.0),
    # The mean motion sqrt(mu / r^3) leaves the floats: r^3 overflows, r^3
    # rounds to 0.0, or mu / r^3 overflows.
    dict(r=1e200), dict(r=1e-200), dict(mu=1e300, r=1e-10),
])
def test_params_validation(bad):
    with pytest.raises(ValueError):
        OrbitalParams(**bad)


def test_field_error_reads_as_its_message_and_pickles():
    # A sweep worker's error reaches the parent process pickled.
    err = pickle.loads(pickle.dumps(FieldError("bryson/max_input/0", "must be positive")))
    assert isinstance(err, ValueError)
    assert (err.field, str(err)) == ("bryson/max_input/0", "must be positive")


def test_cwh_matrix_entries():
    model = cwh_matrices(GEO)
    n = GEO.n
    assert model.A[2, 0] == pytest.approx(1.4800e-8, rel=1e-3)
    assert model.A[2, 0] == pytest.approx(3 * n**2, rel=1e-14)
    assert model.A[2, 3] == pytest.approx(1.40476e-4, rel=1e-5)
    assert model.A[3, 2] == pytest.approx(-2 * n, rel=1e-14)
    assert model.A[0, 2] == 1.0 and model.A[1, 3] == 1.0
    assert model.B[2, 0] == pytest.approx(0.002) and model.B[3, 1] == pytest.approx(0.002)


def test_cwh_near_zero_rate_is_double_integrator():
    model = cwh_matrices(OrbitalParams(mu=1e-30, r=1e6, m_c=500.0))
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[1, 3] = 1.0
    assert np.allclose(model.A, expect, atol=1e-20)


def test_cwh_input_columns_orthogonal_single_entry():
    for m_c in (1.0, 500.0, 1234.5):
        model = cwh_matrices(OrbitalParams(m_c=m_c))
        B = model.B
        assert B[:, 0] @ B[:, 1] == 0.0
        for col in B.T:
            nz = np.nonzero(col)[0]
            assert len(nz) == 1
            assert col[nz[0]] == pytest.approx(1.0 / m_c, rel=1e-15)


def test_cwh_mass_only_affects_input_matrix():
    a_light = cwh_matrices(OrbitalParams(m_c=100.0))
    a_heavy = cwh_matrices(OrbitalParams(m_c=900.0))
    assert np.array_equal(a_light.A, a_heavy.A)
    assert not np.array_equal(a_light.B, a_heavy.B)


def test_nonlinear_field_equilibrium_at_origin():
    deriv = nonlinear_field(GEO, np.zeros(4), np.zeros(2))
    grav_scale = GEO.mu / GEO.r**2
    assert np.all(np.abs(deriv) <= 1e-9 * grav_scale)


def test_nonlinear_field_pure_thrust():
    accel = 0.37
    deriv = nonlinear_field(GEO, np.zeros(4), np.array([GEO.m_c * accel, 0.0]))
    assert deriv[2] == pytest.approx(accel, rel=1e-12)
    assert abs(deriv[3]) <= 1e-12 * accel


def _field_oracle_decimal(params, s):
    """Term-by-term evaluation of the relative-motion accelerations at 50 digits."""
    getcontext().prec = 50
    mu = Decimal(params.mu)
    r = Decimal(params.r)
    n = (mu / r**3).sqrt()
    x, y, vx, vy = (Decimal(v) for v in s)
    r_c = ((r + x) ** 2 + y**2).sqrt()
    ax = n**2 * x + 2 * n * vy + mu / r**2 - mu / r_c**3 * (r + x)
    ay = n**2 * y - 2 * n * vx - mu / r_c**3 * y
    return float(ax), float(ay)


def test_nonlinear_field_against_high_precision_oracle():
    s = np.array([-900.0, -400.0, 0.0, 0.0])
    deriv = nonlinear_field(GEO, s, np.zeros(2))
    ax, ay = _field_oracle_decimal(GEO, s)
    assert deriv[2] == pytest.approx(ax, rel=1e-12, abs=1e-18)
    assert deriv[3] == pytest.approx(ay, rel=1e-12, abs=1e-18)
    assert deriv[0] == 0.0 and deriv[1] == 0.0


def test_nonlinear_field_singularity():
    bad = np.array([-GEO.r, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        nonlinear_field(GEO, bad, np.zeros(2))


def test_linearization_residual_is_second_order():
    model = cwh_matrices(GEO)
    s = np.array([1.0, -0.8, 0.0, 0.0])
    def residual(scale):
        state = scale * s
        return np.linalg.norm(nonlinear_field(GEO, state, np.zeros(2)) - model.A @ state)
    r1, r2 = residual(1.0), residual(0.5)
    assert r1 / r2 == pytest.approx(4.0, rel=0.3)


def test_closed_loop_zero_gain_returns_a():
    model = cwh_matrices(GEO)
    assert np.array_equal(closed_loop_matrix(model, np.zeros((2, 4))), model.A)


def test_closed_loop_single_entry_matches_expansion():
    model = cwh_matrices(GEO)
    k11 = 7.5
    K = np.zeros((2, 4))
    K[0, 0] = k11
    acl = closed_loop_matrix(model, K)
    assert acl[2, 0] == pytest.approx(3 * GEO.n**2 - k11 / GEO.m_c, rel=1e-14)


def test_closed_loop_matches_loop_product_oracle():
    rng = np.random.default_rng(7)
    model = cwh_matrices(GEO)
    K = rng.normal(size=(2, 4))
    acl = closed_loop_matrix(model, K)
    expect = model.A.copy()
    for i in range(4):
        for j in range(4):
            for m in range(2):
                expect[i, j] -= model.B[i, m] * K[m, j]
    assert np.allclose(acl, expect, rtol=1e-14, atol=1e-20)


def test_closed_loop_dimension_mismatch():
    model = cwh_matrices(GEO)
    with pytest.raises(ValueError):
        closed_loop_matrix(model, np.zeros((2, 3)))
