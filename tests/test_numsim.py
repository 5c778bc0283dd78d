"""Propagation engine tests: matrix exponential, linear stepping, RK4."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdvsafe import (
    OrbitalParams,
    Trajectory,
    cli,
    cwh_matrices,
    design_mode_gains,
    matrix_exp,
    nonlinear_field,
    numsim,
    simulate_nonlinear,
)
from rdvsafe.hybrid import VARIANT_EXPLICIT, VARIANT_LIN, VARIANT_TRACKING, build_rendezvous_automaton
from rdvsafe import numsim
from rdvsafe.numsim import _CSV_BLOCK, _g17, _write_csv_rows
from rdvsafe.verifier import (
    _mode_index,
    _model_of,
    _simulate_with_ctx,
    default_scenario,
    simulate_scenario,
    verify,
)

GEO = OrbitalParams()


@functools.cache
def _coast_context(h, steps):
    sc = default_scenario(t1=0.0, t2=0.0, horizon=steps * h, h=h)
    return sc, _model_of(sc)


def simulate_linear(h, x0, steps):
    """states[k] = Φ^k x0 for the CWH map Φ over h: a lin_prox run through the
    sample engine that aborts into the passive mode at step 0."""
    return _simulate_with_ctx(*_coast_context(h, steps), x0, 0)


def test_matrix_exp_zero_and_diagonal():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-16)
    out = matrix_exp(np.diag([1.0, -2.0]))
    assert np.allclose(out, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)


def test_matrix_exp_nilpotent_terminates_exactly():
    out = matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], rtol=0, atol=1e-15)


# The prox_a and prox_b Bryson max states of the bounce workload's scenarios.
_BOUNCE_MAXIMA = ((1000.0, 1000.0, 2.0, 2.0), (100.0, 100.0, 2.0, 2.0))


@pytest.mark.parametrize("maxima", [(), _BOUNCE_MAXIMA], ids=["default", "bounce"])
@pytest.mark.parametrize("variant", [VARIANT_LIN, VARIANT_TRACKING, VARIANT_EXPLICIT])
def test_matrix_exp_matches_scipy_on_every_mode_flow(variant, maxima):
    # scipy's expm is the oracle.  The tracking prox_b flow, ||A||_2 ~ 320,
    # is halved 11 times at h = 30 s.
    from scipy.linalg import expm
    aut = build_rendezvous_automaton(GEO, design_mode_gains(GEO, *maxima), variant)
    for flow in aut.flows.values():
        for h in (1.0, 10.0, 30.0):
            want = expm(flow * h)
            assert np.linalg.norm(matrix_exp(flow * h) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("maxima", [(), _BOUNCE_MAXIMA], ids=["default", "bounce"])
@pytest.mark.parametrize("variant", [VARIANT_LIN, VARIANT_TRACKING, VARIANT_EXPLICIT])
def test_matrix_exp_keeps_its_halvings_on_every_mode_flow(monkeypatch, variant, maxima):
    # No mode flow is halved past the spare halvings, so every one-step map
    # is bit for bit that of the 1-norm scaling alone.
    aut = build_rendezvous_automaton(GEO, design_mode_gains(GEO, *maxima), variant)
    for flow in aut.flows.values():
        for h in (0.5, 1.0, 5.0, 10.0, 20.0, 30.0, 60.0):
            got = matrix_exp(flow * h)
            with monkeypatch.context() as m:
                m.setattr(numsim, "_SPARE_HALVINGS", math.inf)
                assert np.array_equal(got, matrix_exp(flow * h))


@pytest.mark.parametrize("c", [1e6, 1e30])
def test_matrix_exp_of_a_nilpotent_matrix_is_i_plus_m(c):
    # ||M||_1 = c asks for ~log2(c) halvings, but M^2 = 0: squaring the
    # Pade value's diagonal, 1 - 2^-53, that often left 0.99999999997 at
    # c = 1e6 and 0 at c = 1e30.  exp(M) = I + M, and exp(M - I) = (I + M) / e.
    N = np.array([[0.0, c], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(matrix_exp(N), np.eye(2) + N, rtol=2.0 ** -52, atol=0.0)
        assert np.allclose(matrix_exp(N - np.eye(2)), (np.eye(2) + N) / math.e, rtol=1e-12, atol=0.0)


def test_matrix_exp_halves_a_norm_past_the_float_range():
    # ||M||_1 = 9c is past the largest float and takes 1024 halvings.  M's
    # eigenvalues are -c and -9c, so exp(M) is zero in double precision.
    # (scipy's expm returns NaN here.)
    c = 8e307
    M = -c * (np.eye(8) + np.ones((8, 8)))
    assert math.isinf(9 * c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(matrix_exp(M), np.zeros((8, 8)))


def test_matrix_exp_overflow_and_non_finite_input_raise_with_no_warning():
    A = cwh_matrices(GEO).A
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (A * 1e300, np.diag([1e3, -1.0])):
            with pytest.raises(OverflowError, match="matrix exponential overflowed"):
                matrix_exp(M)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="matrix must be finite"):
                matrix_exp(np.diag([bad, 0.0]))


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


def _rk4_reference(params, force_gain, x0, h, steps):
    """RK4 in numpy arrays on the documented field, F = -force_gain x."""

    def rhs(x):
        f = np.zeros(2) if force_gain is None else -(force_gain @ x)
        return nonlinear_field(params, x, f)

    x = np.asarray(x0, dtype=float)
    states = [x]
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(x)
    return np.array(states)


_MODE_FORCE_GAINS = tuple(GEO.m_c * np.asarray(g.K) for g in design_mode_gains(GEO))


@settings(max_examples=40, deadline=None)
@given(pos=st.tuples(*[st.floats(-5000.0, 5000.0)] * 2),
       vel=st.tuples(*[st.floats(-5.0, 5.0)] * 2),
       h=st.sampled_from([0.5, 1.0, 5.0, 10.0]),
       mode=st.sampled_from([None, 0, 1]))
def test_simulate_nonlinear_matches_numpy_rk4_on_documented_field(pos, vel, h, mode):
    # The inline step against RK4 built on orbital.nonlinear_field.  Coasting
    # the arithmetic is the same, so the states are equal.  Under a gain the
    # force is a matrix product whose sum order depends on the numpy build,
    # so the states agree to 1 ulp of their scale.
    x0 = np.array([*pos, *vel])
    gain = None if mode is None else _MODE_FORCE_GAINS[mode]
    got = simulate_nonlinear(GEO, gain, x0, h, 4).states
    ref = _rk4_reference(GEO, gain, x0, h, 4)
    if gain is None:
        assert np.array_equal(got, ref)
    else:
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= np.spacing(scale))


@pytest.mark.parametrize("x0", [(-900.0, -400.0, 0.0, 0.0), (-50.0, 10.0, 0.1, -0.05)])
@pytest.mark.parametrize("mode", [None, 0, 1])
def test_simulate_nonlinear_matches_numpy_rk4_over_long_runs(mode, x0):
    # 600 steps at the default 1 s step, longer than the sample engine's
    # 255-step blocks, with the tolerances of the 4-step comparison above.
    gain = None if mode is None else _MODE_FORCE_GAINS[mode]
    got = simulate_nonlinear(GEO, gain, np.array(x0), 1.0, 600).states
    ref = _rk4_reference(GEO, gain, np.array(x0), 1.0, 600)
    assert got.shape == ref.shape == (601, 4)
    if gain is None:
        assert np.array_equal(got, ref)
    else:
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= np.spacing(scale))


@pytest.mark.parametrize("mode", [None, 0, 1])
def test_simulate_nonlinear_runs_chain_bit_for_bit(mode):
    # The sample engine cuts a run into blocks of at most 255 steps, each
    # started from the last state of the one before.
    gain = None if mode is None else _MODE_FORCE_GAINS[mode]
    x0 = np.array([-900.0, -400.0, 0.3, -0.2])
    whole = simulate_nonlinear(GEO, gain, x0, 1.0, 600).states
    head = simulate_nonlinear(GEO, gain, x0, 1.0, 255).states
    tail = simulate_nonlinear(GEO, gain, head[-1], 1.0, 345).states
    assert np.array_equal(whole, np.concatenate([head, tail[1:]]))


def test_simulate_nonlinear_start_at_earth_center_is_rejected():
    with pytest.raises(ValueError, match="r_c = 0"):
        simulate_nonlinear(GEO, None, np.array([-GEO.r, 0.0, 0.0, 0.0]), 1.0, 3)


def test_simulate_nonlinear_overflowing_gravity_is_rejected():
    # r_c^2 = 1e-300 is a float, but r_c^-3 = 1e450 is not.
    with pytest.raises(ValueError, match="r_c\\^-3 overflows"):
        simulate_nonlinear(GEO, None, np.array([-GEO.r, 1e-150, 0.0, 0.0]), 1.0, 3)


@pytest.mark.parametrize("h", [math.inf, math.nan, -1.0])
def test_simulate_nonlinear_rejects_bad_step(h):
    with pytest.raises(ValueError, match="step size h"):
        simulate_nonlinear(GEO, None, np.zeros(4), h, 3)


@pytest.mark.parametrize("n", [-1, -2])
def test_simulate_nonlinear_rejects_negative_step_count(n):
    with pytest.raises(ValueError, match="step count n"):
        simulate_nonlinear(GEO, None, np.zeros(4), 1.0, n)


@pytest.mark.parametrize("x0", [np.zeros(3), np.zeros(6), np.zeros((1, 4))])
def test_simulate_nonlinear_rejects_state_of_wrong_shape(x0):
    with pytest.raises(ValueError, match="initial state x0"):
        simulate_nonlinear(GEO, None, x0, 1.0, 3)


def test_simulate_nonlinear_rejects_gain_of_wrong_shape():
    # A (4, 2) gain has the eight entries of a (2, 4) one.
    with pytest.raises(ValueError, match="force_gain"):
        simulate_nonlinear(GEO, _MODE_FORCE_GAINS[0].T, np.zeros(4), 1.0, 3)


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
    model = _model_of(default_scenario())
    far = np.array([-900.0, -400.0, 0.0, 0.0])
    near = np.array([-50.0, 10.0, 0.0, 0.0])
    cases = [(0, far, 0), (1, near, 1), (2, far, 0), (50, near, 2), (60, far, 2)]
    for k, x, mode in cases:
        assert _mode_index(model, k, x, 50) == mode
    # The same cases as one batch at step 60: each abort step moves by 60 - k.
    batch = np.stack([x for _, x, _ in cases], axis=1)
    aborts = np.array([50 + 60 - k for k, _, _ in cases])
    assert list(_mode_index(model, 60, batch, aborts)) == [m for _, _, m in cases]


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


def _csv_per_value(traj, path):
    """Reference writer for ``Trajectory.to_csv``: each value by its own
    f-string, one line per sample."""
    dim = traj.states.shape[1]
    cols = ["time_s", "x", "y", "vx", "vy", "ux", "uy"][: 1 + dim]
    lines = [",".join(cols) + ",mode"]
    modes = traj.modes if traj.modes is not None else [""] * len(traj.times)
    for t, s, m in zip(traj.times, traj.states, modes):
        nums = ",".join(f"{v:.17g}" for v in (t, *s))
        lines.append(f"{nums},{m}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _odd_values_trajectory():
    """2 * _CSV_BLOCK + 1 samples without modes, whose states hold signed
    zeros, infinities, nan, subnormals and extremes among random doubles."""
    rng = np.random.default_rng(3)
    n = 2 * _CSV_BLOCK + 1
    states = rng.normal(scale=1e3, size=(n, 4)) * 10.0 ** rng.integers(-300, 290, size=(n, 4))
    odd = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.2345e-310,
           2.2250738585072014e-308, 1.7976931308623157e308, 0.1, 1.0 / 3.0]
    states.flat[rng.choice(states.size, size=200, replace=False)] = rng.choice(odd, size=200)
    return Trajectory(times=0.5 * np.arange(n), states=states)


def _switching_trajectory():
    """2 * _CSV_BLOCK + 3 six-dim samples whose mode switches inside the
    first block, at the second block's edge and for one row inside it, with
    cells on Python's path (1e-5, 1e17, -0.0) among them."""
    rng = np.random.default_rng(4)
    n, B = 2 * _CSV_BLOCK + 3, _CSV_BLOCK
    states = rng.normal(scale=500.0, size=(n, 6))
    states[::7, 1], states[1::7, 2], states[2::7, 4] = 1e-5, 1e17, -0.0
    modes = ["prox_a"] * 100 + ["prox_b"] * (B - 100) + ["passive"] * (n - B)
    modes[B + 9] = "prox_b"
    return Trajectory(times=10.0 * np.arange(n), states=states, modes=tuple(modes))


@pytest.mark.parametrize("case,dim", [("lin_prox", 4), ("nlin_prox", 4),
                                      ("lin_prox_th_tracking", 6), ("no_modes", 4),
                                      ("switching", 6)])
def test_trajectory_csv_matches_per_value_writer(tmp_path, case, dim):
    if case == "no_modes":
        traj = _odd_values_trajectory()
    elif case == "switching":
        traj = _switching_trajectory()
    else:
        # 1621 samples: one full block of rows and a partial one, 3 modes.
        sc = default_scenario(variant=case, h=10.0)
        traj = simulate_scenario(sc, sc.init.hi[:4], 730)
        assert len(set(traj.modes)) == 3
    assert traj.states.shape[1] == dim
    traj.to_csv(tmp_path / "got.csv")
    _csv_per_value(traj, tmp_path / "ref.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _g17_per_value(X, seps):
    """Reference for ``_g17``: each value by its own f-string, then its separator."""
    text = "".join(f"{x:.17g}{sep}" for row in X.tolist() for x, sep in zip(row, seps))
    return text.split("\n")[:-1]


def _g17_lines(X, seps):
    """``_g17``'s bytes decoded and split at each "\\n", as `_g17_per_value` gives them."""
    return _g17(X, seps.encode()).decode("ascii").split("\n")[:-1]


def _assert_g17_matches(values, width=7):
    """``_g17`` on the values laid out as rows of ``width`` cells, split after
    the first cell and at each row's end, against the reference."""
    v = np.asarray(values, dtype=float).ravel()
    X = np.concatenate([v, np.zeros(-len(v) % width)]).reshape(-1, width)
    seps = "\n" + "," * (width - 2) + "\n"
    got = _g17_lines(X, seps)
    want = _g17_per_value(X, seps)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:5]
    assert len(got) == len(want)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_g17_matches_per_value_format_in_every_decade(sign):
    # Exponents -7..18 span both of Python's notations and the kernel's
    # fixed-notation range 1e-4 <= |x| < 1e16 with a decade either side.
    rng = np.random.default_rng(21)
    mant = rng.uniform(1.0, 10.0, size=(26, 2000))
    _assert_g17_matches(sign * mant * 10.0 ** np.arange(-7, 19)[:, None])


def test_g17_matches_per_value_format_next_to_powers_of_ten():
    # Where floor(log10 |x|) may start one off, and where 17 digits round up
    # to the next power of ten.
    p = np.array([10.0 ** k for k in range(-8, 20)] + [float(10 ** k) for k in range(23)])
    down, up = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
    near = np.concatenate([p, down, up, np.nextafter(down, 0.0), np.nextafter(up, np.inf)])
    _assert_g17_matches(np.concatenate([near, -near]))


def test_g17_rounds_exact_ties_half_to_even():
    # x = 1e15 + k/8 puts the 18th significant digit on a 5 followed by zeros
    # for every other k; values with few mantissa bits are exact short
    # decimals, many of them ties at 17 digits.
    rng = np.random.default_rng(22)
    few_bits = np.ldexp(rng.integers(1, 2 ** 20, 50_000).astype(float),
                        rng.integers(-40, 54, 50_000))
    _assert_g17_matches(np.concatenate([1e15 + np.arange(-4000, 4000) / 8.0, few_bits]))


def test_g17_matches_per_value_format_on_integers_and_odd_values():
    ints = np.concatenate([np.arange(100_000.0), 2.0 ** 53 + np.arange(-50.0, 50.0),
                           1e16 - 2.0 * np.arange(50.0), 1e15 + np.arange(50.0)])
    odd = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -1.2345e-310,
           2.2250738585072014e-308, 1.7976931308623157e308, -1.7976931308623157e308,
           1e-4, 9.9999999999999991e-05, -1e-4, 0.1, 1.0 / 3.0, 1e16, -9999999999999998.0]
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(float)
    _assert_g17_matches(np.concatenate([ints, -ints, odd * 3, bits]))
    # One column, and rows with no split: the trajectory writer's layout.
    X = np.array(odd)[:, None]
    assert _g17_lines(X, "\n") == [f"{x:.17g}" for x in odd]
    assert _g17_lines(np.reshape(odd, (-1, 2)), ",\n") == _g17_per_value(np.reshape(odd, (-1, 2)), ",\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_g17_matches_per_value_format_property(values):
    _assert_g17_matches(values, width=5)


def test_no_canvas_byte_is_nul():
    # `_g17` deletes the NUL bytes of its masked canvas, so a NUL that should
    # print would vanish: no byte of the canvas tables may be one.
    assert 0 not in numsim._HEAD.view(np.uint8)
    assert 0 not in numsim._G4.view(np.uint8)


def test_no_separator_the_writers_pass_is_nul(tmp_path, monkeypatch):
    seen = []
    kernel = numsim._g17

    def recording(X, seps):
        seen.append(seps)
        return kernel(X, seps)

    monkeypatch.setattr(numsim, "_g17", recording)
    for variant in ("lin_prox", "lin_prox_th_explicit"):
        cli.emit_flowpipe(verify(default_scenario(variant=variant, h=30.0)), tmp_path / "f.csv")
    for dim in (4, 6):
        Trajectory(times=np.arange(3.0), states=np.ones((3, dim)),
                   modes=("prox_a",) * 3).to_csv(tmp_path / "t.csv")
    cli._emit_sweep_csv([(180.0, 950.0, 600.0)], tmp_path / "s.csv")
    assert {len(seps) for seps in seen} == {3, 5, 7, 10, 14}
    assert not [seps for seps in seen if 0 in seps]


def test_keep_mask_is_the_bool_table_of_printed_bytes_times_0xff():
    # The bool table of printed bytes, built by the rules `_KEEP` is built
    # from; the byte mask must be 0xFF exactly where it is True.
    E, S, B = numsim._E, numsim._S, numsim._B
    keep = np.zeros((22, 18, 2, 40), bool)
    keep[:20] = (((B >= 6) & (B % 2 == 0) & ((B - 6) // 2 < np.maximum(S, E + 1)))
                 | ((B >= 7) & (B % 2 == 1) & ((B - 6) // 2 == E) & (S - 1 > E))
                 | ((E < 0) & (B >= 1) & (B <= 1 - E)))[:, :, None]
    keep[20, :, :, 1] = keep[:21, :, 1, 0] = True
    keep[21, :, :, 0] = keep[21, :, :, 7] = keep[..., 39] = True
    assert numsim._KEEP.dtype == np.uint64 and numsim._KEEP.shape == (22 * 18 * 2, 5)
    got = numsim._KEEP.view(np.uint8).reshape(22, 18, 2, 40)
    assert np.array_equal(got, keep.astype(np.uint8) * np.uint8(0xFF))


@pytest.mark.parametrize("rows", [0, 2 * _CSV_BLOCK + 1])
def test_write_csv_rows_refuses_a_nul_separator_before_writing(tmp_path, rows):
    # Checked once per call, so a call with no block refuses it too, and a
    # call with many blocks writes none of them.
    path = tmp_path / "nul.csv"
    with open(path, "wb") as fh, pytest.raises(ValueError, match="NUL"):
        _write_csv_rows(fh, np.ones((rows, 3)), b",\0\n")
    assert path.read_bytes() == b""
