"""Numerical propagation engines.

Linear modes are stepped with the one-step matrix exponential, which is exact
at the sample instants, so repeated application reproduces the continuous
flow there.  The nonlinear closed loop is integrated with fixed-step RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .orbital import OrbitalParams, nonlinear_field

MODE_PROX_A = "prox_a"
MODE_PROX_B = "prox_b"
MODE_PASSIVE = "passive"

# Slack on time comparisons, so that a time landing on a sample up to rounding
# counts as reaching it.
_TIME_EPS = 1e-9


def steps_within(T: float, h: float) -> int:
    """Number of whole steps of size h that fit in a span of length T."""
    return int(math.floor(T / h + _TIME_EPS))


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory: times (k,), states (k, n), optional per-sample mode ids."""

    times: np.ndarray
    states: np.ndarray
    modes: tuple[str, ...] | None = None
    violation: tuple[str, int] | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if len(times) != len(states):
            raise ValueError("times and states must have equal length")
        if len(times) > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self.modes is not None and len(self.modes) != len(times):
            raise ValueError("modes must match times in length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def to_csv(self, path):
        dim = self.states.shape[1]
        cols = ["time_s", "x", "y", "vx", "vy", "ux", "uy"][: 1 + dim]
        lines = [",".join(cols) + ",mode"]
        modes = self.modes if self.modes is not None else [""] * len(self.times)
        for t, s, m in zip(self.times, self.states, modes):
            nums = ",".join(f"{v:.17g}" for v in (t, *s))
            lines.append(f"{nums},{m}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def matrix_exp(M) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with Pade approximants."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("matrix must be finite")
    out = linalg.expm(M)
    if not np.isfinite(out).all():
        raise OverflowError("matrix exponential overflowed")
    return out


def simulate_linear(phi, h: float, x0, steps: int) -> Trajectory:
    """Propagate x0 for the given number of steps of size h; states[k] = phi^k x0."""
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x0, dtype=float)
    if x.shape[0] != phi.shape[0]:
        raise ValueError(f"state dim {x.shape[0]} does not match one-step matrix {phi.shape}")
    out = np.empty((steps + 1, x.shape[0]))
    out[0] = x
    for k in range(steps):
        x = phi @ x
        out[k + 1] = x
    return Trajectory(times=h * np.arange(steps + 1), states=out)


def constant_mode_logic(mode: str):
    """Mode logic that never switches."""

    def logic(step, t, state, current):
        return mode

    return logic


def rendezvous_mode_logic(guard_normals, guard_offsets, passive_step: int | None = None):
    """Urgent switching on the guard octagon plus an optional timed abort.

    The chaser switches to the close-range mode as soon as its position
    satisfies every guard half-space, back when it strictly violates one, and
    to the passive coast at the given step index regardless of position.
    """
    N = np.asarray(guard_normals, dtype=float)
    b = np.asarray(guard_offsets, dtype=float)

    def logic(step, t, state, current):
        if current == MODE_PASSIVE:
            return current
        if passive_step is not None and step >= passive_step:
            return MODE_PASSIVE
        proj = N @ state[:2]
        if current == MODE_PROX_A and np.all(proj <= b):
            return MODE_PROX_B
        if current == MODE_PROX_B and np.any(proj > b):
            return MODE_PROX_A
        return current

    return logic


def simulate_nonlinear(params: OrbitalParams, gains, mode_logic, x0, h: float, T: float,
                       start_mode: str = MODE_PROX_A) -> Trajectory:
    """Fixed-step RK4 on the nonlinear relative dynamics under switched feedback.

    ``gains`` is the (prox_a, prox_b) gain pair; the commanded thrust is
    F = -m_c K x in the rendezvous modes and zero in the passive mode.  The
    mode is held constant across each step, so switches are located to within
    one step.
    """
    if not (h > 0.0):
        raise ValueError("step size must be positive")
    if T < h:
        raise ValueError("horizon must cover at least one step")
    k_a, k_b = gains
    force_gain = {
        MODE_PROX_A: params.m_c * np.asarray(k_a.K, dtype=float),
        MODE_PROX_B: params.m_c * np.asarray(k_b.K, dtype=float),
        MODE_PASSIVE: None,
    }

    def rhs(state, Kf):
        f = (0.0, 0.0) if Kf is None else -(Kf @ state)
        return nonlinear_field(params, state, f)

    steps = steps_within(T, h)
    x = np.asarray(x0, dtype=float)
    mode = start_mode
    states = np.empty((steps + 1, 4))
    modes = []
    states[0] = x
    mode = mode_logic(0, 0.0, x, mode)
    modes.append(mode)
    for k in range(steps):
        Kf = force_gain[mode]
        k1 = rhs(x, Kf)
        k2 = rhs(x + 0.5 * h * k1, Kf)
        k3 = rhs(x + 0.5 * h * k2, Kf)
        k4 = rhs(x + h * k3, Kf)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = x
        mode = mode_logic(k + 1, (k + 1) * h, x, mode)
        modes.append(mode)
    return Trajectory(times=h * np.arange(steps + 1), states=states, modes=tuple(modes))
