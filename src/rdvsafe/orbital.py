"""Planar relative-motion dynamics of a chaser spacecraft about a circular-orbit target.

Everything is expressed in the rotating target-centered frame: x points
radially outward from Earth, y along-track, completing the orbital plane.
State vectors are ``[x, y, vx, vy]`` and forces ``[Fx, Fy]``, all in base SI
units (m, m/s, N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Gravitational parameter of the mission description (m^3/s^2).  The standard
# Earth value is 3.986e14; both are accepted, this one is the reproducibility
# default.  See README for the discrepancy note.
MU_DEFAULT = 3.698e14

# Geostationary orbit radius of the target (m).
R_ORBIT_DEFAULT = 42164e3

# Chaser wet mass (kg).
CHASER_MASS_DEFAULT = 500.0


class FieldError(ValueError):
    """A broken value rule; ``field`` names the attribute, or is "a/b" for entry b of a."""

    def __init__(self, field: str, message: str):
        super().__init__(field, message)
        self.field = field

    def __str__(self) -> str:
        return self.args[1]


@dataclass(frozen=True)
class OrbitalParams:
    """Orbital constants of the scenario.

    Attributes
    ----------
    mu : float
        Gravitational parameter, m^3/s^2.
    r : float
        Radius of the target's circular orbit, m.
    m_c : float
        Chaser mass, kg.
    n : float
        Mean motion of the target orbit, rad/s.  Derived, do not pass.
    """

    mu: float = MU_DEFAULT
    r: float = R_ORBIT_DEFAULT
    m_c: float = CHASER_MASS_DEFAULT
    n: float = field(init=False)

    def __post_init__(self):
        for name, what in (("mu", "gravitational parameter"), ("r", "orbit radius"),
                           ("m_c", "chaser mass")):
            if not getattr(self, name) > 0.0:
                raise FieldError(name, f"{what} must be positive, got {getattr(self, name)}")
        try:
            n = float(np.sqrt(self.mu / self.r**3))
        except (OverflowError, ZeroDivisionError):
            # r**3 past the largest float, or rounded to 0.0.
            n = math.nan
        if not 0.0 < n < math.inf:
            raise FieldError("r", f"mean motion sqrt(mu / r^3) must be finite and positive, "
                                  f"got mu = {self.mu}, r = {self.r}")
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class LinearModel:
    """State-space pair (A, B); 4-dim by default, 6-dim for thrust-tracking models."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(f"B rows must match A, got {B.shape} vs {A.shape}")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("model matrices must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def cwh_matrices(params: OrbitalParams) -> LinearModel:
    """Clohessy-Wiltshire-Hill model of in-plane relative motion.

    Returns the LTI pair for xdot = A x + B u with state [x, y, vx, vy] and
    input u = [Fx, Fy] in Newtons (B carries the 1/m_c scaling).
    """
    n = params.n
    A = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [3.0 * n**2, 0.0, 0.0, 2.0 * n],
        [0.0, 0.0, -2.0 * n, 0.0],
    ])
    B = np.array([
        [0.0, 0.0],
        [0.0, 0.0],
        [1.0 / params.m_c, 0.0],
        [0.0, 1.0 / params.m_c],
    ])
    return LinearModel(A, B)


def nonlinear_field(params: OrbitalParams, s, f) -> np.ndarray:
    """Two-body relative-motion vector field, without linearization.

    Parameters
    ----------
    s : array-like, shape (4,)
        Relative state [x, y, vx, vy].
    f : array-like, shape (2,)
        Thrust [Fx, Fy] in Newtons.

    Returns
    -------
    ndarray, shape (4,)
        Time derivative [vx, vy, ax, ay].
    """
    x = float(s[0])
    y = float(s[1])
    vx = float(s[2])
    vy = float(s[3])
    mu = params.mu
    r = params.r
    n = params.n
    rx = r + x
    r_c2 = rx * rx + y * y
    if r_c2 == 0.0:
        raise ValueError("chaser coincides with the Earth's center (r_c = 0)")
    inv_rc3 = r_c2 ** -1.5
    ax = n * n * x + 2.0 * n * vy + mu / (r * r) - mu * inv_rc3 * rx + float(f[0]) / params.m_c
    ay = n * n * y - 2.0 * n * vx - mu * inv_rc3 * y + float(f[1]) / params.m_c
    return np.array([vx, vy, ax, ay])


def closed_loop_matrix(model: LinearModel, K) -> np.ndarray:
    """State matrix of the feedback interconnection, A - B K.

    ``K`` must map state to the same input units ``model.B`` expects (Newtons
    for the plain CWH model); pass ``m_c * gain.K`` when the gain is in
    acceleration units.
    """
    K = np.asarray(getattr(K, "K", K), dtype=float)
    n, m = model.B.shape
    if K.shape != (m, n):
        raise ValueError(f"gain shape {K.shape} incompatible with B shape {model.B.shape}")
    return model.A - model.B @ K
