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


def simulate_switched(step, switch, x0, h: float, T: float) -> Trajectory:
    """Sample a switched system at steps of size h over [0, T].

    At each sample k, ``switch(k, x, mode)`` takes the state and the mode of
    the previous sample (None at k = 0) and returns the mode of this sample
    and the state after any reset; that state is recorded, and the next one
    is ``step(mode, x)``.
    """
    if not (h > 0.0):
        raise ValueError("step size must be positive")
    steps = steps_within(T, h)
    mode, x = switch(0, np.asarray(x0, dtype=float), None)
    states = np.empty((steps + 1, x.shape[0]))
    states[0] = x
    modes = [mode]
    for k in range(1, steps + 1):
        mode, x = switch(k, step(mode, x), mode)
        states[k] = x
        modes.append(mode)
    return Trajectory(times=h * np.arange(steps + 1), states=states, modes=tuple(modes))


def simulate_nonlinear(params: OrbitalParams, gains, switch, x0, h: float, T: float) -> Trajectory:
    """Fixed-step RK4 on the nonlinear relative dynamics under switched feedback.

    ``gains`` is the (prox_a, prox_b) gain pair; the commanded thrust is
    F = -m_c K x in the rendezvous modes and zero in the passive mode.
    ``switch`` is as in :func:`simulate_switched`.  The mode is held constant
    across each step, so switches are located to within one step.
    """
    k_a, k_b = gains
    force_gain = {
        MODE_PROX_A: params.m_c * np.asarray(k_a.K, dtype=float),
        MODE_PROX_B: params.m_c * np.asarray(k_b.K, dtype=float),
        MODE_PASSIVE: None,
    }

    def rhs(state, Kf):
        f = (0.0, 0.0) if Kf is None else -(Kf @ state)
        return nonlinear_field(params, state, f)

    def rk4(mode, x):
        Kf = force_gain[mode]
        k1 = rhs(x, Kf)
        k2 = rhs(x + 0.5 * h * k1, Kf)
        k3 = rhs(x + 0.5 * h * k2, Kf)
        k4 = rhs(x + h * k3, Kf)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return simulate_switched(rk4, switch, x0, h, T)
