"""Numerical propagation engines.

Linear modes are stepped with the one-step matrix exponential, which is exact
at the sample instants, so repeated application reproduces the continuous
flow there.  The nonlinear closed loop is integrated with fixed-step RK4 on
four Python floats: the state, the force and the field of
``orbital.nonlinear_field`` and the RK4 combination are written out inline,
each sum in a fixed order, so a step costs float arithmetic rather than numpy
small-array calls, and the states become one array at the end of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .orbital import OrbitalParams

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


def simulate_nonlinear(params: OrbitalParams, force_gain, x0, h: float, n: int) -> Trajectory:
    """n fixed steps of RK4 on the nonlinear relative dynamics from x0.

    The commanded thrust is F = -force_gain x, or zero when ``force_gain`` is
    None; a mode's force gain is m_c K.  The gain is held over the run, so a
    caller that switches modes starts a new run at each switch.

    The state is four Python floats x, y, vx, vy, and so is each stage's
    field value, with every operation in the order of
    ``orbital.nonlinear_field`` and the force's four products summed in a
    fixed order (see below).  Each component is combined in the order numpy
    uses in the array form, RK4 on 4-vectors over ``nonlinear_field``, so
    the states are that form's bit for bit wherever the force sums agree: a
    stage state is x + (0.5 h) k, and the update is
    x + (h / 6) (((k1 + 2 k2) + 2 k3) + k4).  A run that meets the Earth's
    center, or comes close enough that r_c^-3 overflows, raises ValueError.
    """
    h = float(h)
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step size h must be finite and positive, got {h}")
    if n < 0:
        raise ValueError(f"step count n must be non-negative, got {n}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (4,):
        raise ValueError(f"initial state x0 must have shape (4,), got {x0.shape}")
    coast = force_gain is None
    gx0 = gx1 = gx2 = gx3 = gy0 = gy1 = gy2 = gy3 = 0.0
    if not coast:
        G = np.asarray(force_gain, dtype=float)
        if G.shape != (2, 4):
            raise ValueError(f"force_gain must have shape (2, 4), got {G.shape}")
        gx0, gx1, gx2, gx3, gy0, gy1, gy2, gy3 = G.ravel().tolist()
    mu = params.mu
    r = params.r
    m_c = params.m_c
    nn = params.n * params.n
    n2 = 2.0 * params.n
    mu_r2 = mu / (r * r)
    c = 0.5 * h
    h6 = h / 6.0

    # q = mu r_c^-3, then the field's accelerations with the thrust
    # F = -(G @ s) / m_c, or 0.0 / m_c when coasting, as in the array form.
    # F sums its products as numpy's 2x4 matrix-vector product does on the
    # build this was checked on: (g0 x + g2 vx) + (g1 y + g3 vy).  The
    # sequential and the (g0 x + g1 y) + (g2 vx + g3 vy) orders differ from it
    # in the last bit on ~40% of random states.
    def field(x, y, vx, vy):
        rx = r + x
        q = mu * (rx * rx + y * y) ** -1.5
        return (
            vx,
            vy,
            nn * x + n2 * vy + mu_r2 - q * rx + (
                0.0 if coast else -((gx0 * x + gx2 * vx) + (gx1 * y + gx3 * vy))) / m_c,
            nn * y - n2 * vx - q * y + (
                0.0 if coast else -((gy0 * x + gy2 * vx) + (gy1 * y + gy3 * vy))) / m_c,
        )

    x, y, vx, vy = x0.tolist()
    out = [x, y, vx, vy]
    try:
        for _ in range(n):
            a0, a1, a2, a3 = field(x, y, vx, vy)
            b0, b1, b2, b3 = field(x + c * a0, y + c * a1, vx + c * a2, vy + c * a3)
            c0, c1, c2, c3 = field(x + c * b0, y + c * b1, vx + c * b2, vy + c * b3)
            d0, d1, d2, d3 = field(x + h * c0, y + h * c1, vx + h * c2, vy + h * c3)
            x = x + h6 * (((a0 + 2.0 * b0) + 2.0 * c0) + d0)
            y = y + h6 * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
            vx = vx + h6 * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
            vy = vy + h6 * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)
            out += (x, y, vx, vy)
    except ZeroDivisionError:
        # 0.0 ** -1.5, the field's only division by zero (m_c > 0).
        raise ValueError("chaser coincides with the Earth's center (r_c = 0)") from None
    except OverflowError:
        # r_c^2 ** -1.5 past the largest float: Python's float power raises
        # where the other float operations round to inf.
        raise ValueError("chaser passes too close to the Earth's center "
                         "(r_c^-3 overflows)") from None
    return Trajectory(times=h * np.arange(n + 1), states=np.array(out).reshape(n + 1, 4))
