"""Hybrid automaton of the two-phase rendezvous mission, plus its safety sets.

Three modes: far-range approach (prox_a, separation 100..1000 m), close-range
approach (prox_b, separation below 100 m), and a passive thruster-off coast
entered nondeterministically in a clock window [t1, t2] to model failures.
The prox_a/prox_b switching guard is the 100 m octagon and is urgent; the
octagon under-approximates the separation circle so the linear guard never
fires later than the circular one along the axes.

Safety requirements are registered as linear unsafe sets per mode, each an
intersection of half-spaces: a line-of-sight cone and a velocity polytope in
prox_b, thrust limits in both rendezvous modes (thrust-tracking variants
only), and a collision box around the target in the passive mode.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lqr import GainMatrix
from .numsim import MODE_PASSIVE, MODE_PROX_A, MODE_PROX_B
from .orbital import FieldError, OrbitalParams, closed_loop_matrix, cwh_matrices
from .starset import Box

VARIANT_LIN = "lin_prox"
VARIANT_TRACKING = "lin_prox_th_tracking"
VARIANT_EXPLICIT = "lin_prox_th_explicit"
VARIANT_NONLINEAR = "nlin_prox"
VARIANTS = (VARIANT_LIN, VARIANT_TRACKING, VARIANT_EXPLICIT, VARIANT_NONLINEAR)
# State dimension per variant: position and velocity, plus the two thrust
# states in the thrust-tracking variants.
VARIANT_DIMS = {VARIANT_LIN: 4, VARIANT_TRACKING: 6, VARIANT_EXPLICIT: 6, VARIANT_NONLINEAR: 4}

GUARD_RADIUS_M = 100.0
LOS_BASE_X_M = -100.0
LOS_HALF_ANGLE_DEG = 30.0
VELOCITY_LIMIT_MPS = 0.05
THRUST_LIMIT_N = 10.0
SEPARATION_HALFWIDTH_M = 0.1 / math.sqrt(2.0)  # box of 0.1 m circumradius

# The scenario's ``properties`` settings and their defaults.  The verifier
# reads ``intersample_bloat``; the others bound the unsafe sets.
PROPERTY_DEFAULTS = {
    "separation_halfwidth_m": SEPARATION_HALFWIDTH_M,
    "velocity_limit_mps": VELOCITY_LIMIT_MPS,
    "thrust_limit_n": THRUST_LIMIT_N,
    "los_base_x_m": LOS_BASE_X_M,
    "los_half_angle_deg": LOS_HALF_ANGLE_DEG,
    "intersample_bloat": False,
}


@dataclass(frozen=True)
class SafetyProperty:
    """One registered unsafe set: the states x with normals @ x >= offsets in
    every row (> when ``strict``, i.e. the complement of a closed safe
    region).  A set meets it when its support in each row reaches that row's
    offset; a half-space is one row."""

    name: str
    modes: tuple[str, ...]
    normals: np.ndarray     # (rows, dim)
    offsets: np.ndarray     # (rows,)
    strict: bool


@dataclass(frozen=True)
class HybridAutomaton:
    """Per-mode flow matrices A (x' = A x), the guard octagon a.x <= b, which
    is also prox_b's invariant, and the registered properties.  The switching
    rule is coded once, in the verifier, for reach sets and simulated runs."""

    dim: int
    gains: tuple[GainMatrix, GainMatrix]
    flows: dict[str, np.ndarray]
    guard_normals: np.ndarray     # octagon half-spaces embedded at self.dim
    guard_offsets: np.ndarray
    properties: tuple[SafetyProperty, ...]


def octagon_halfspaces(radius: float):
    """Regular octagon inscribed in the circle of ``radius``, vertices on the axes.

    Returns (normals, offsets) with rows cos(22.5 + 45 k), sin(22.5 + 45 k)
    and offsets radius * cos(22.5 deg), k = 0..7, meaning a.x <= b inside.
    """
    if not (radius > 0.0):
        raise ValueError("octagon radius must be positive")
    ang = np.deg2rad(22.5 + 45.0 * np.arange(8))
    normals = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    offsets = np.full(8, radius * math.cos(math.radians(22.5)))
    return normals, offsets


def los_halfspaces(base_x: float = LOS_BASE_X_M, half_angle_deg: float = LOS_HALF_ANGLE_DEG):
    """Triangular line-of-sight region as (normals, offsets), a.x <= b safe.

    The cone opens about the -x axis with the given half angle; the base edge
    closes it at ``base_x``, the close-range mode boundary.
    """
    t = math.tan(math.radians(half_angle_deg))
    # Rows: x >= base_x, y <= -x tan, y >= x tan.
    return np.array([[-1.0, 0.0], [t, 1.0], [t, -1.0]]), np.array([-base_x, 0.0, 0.0])


def velocity_polytope(limit: float = VELOCITY_LIMIT_MPS):
    """Octagonal under-approximation of the speed disc |v| <= limit.

    Returns (normals, offsets) with edge normals on the axes and diagonals
    (k * 45 deg) and offsets limit * cos(22.5 deg); membership implies the
    true circular bound, so safe verdicts stay sound for it.
    """
    ang = np.deg2rad(45.0 * np.arange(8))
    normals = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    offsets = np.full(8, limit * math.cos(math.radians(22.5)))
    return normals, offsets


_AXES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])     # +x, -x, +y, -y


def _embed(rows2: np.ndarray, dims: tuple[int, int], dim: int) -> np.ndarray:
    """The plane rows ``rows2`` (k, 2) as rows of the dim-state, on ``dims``."""
    out = np.zeros((len(rows2), dim))
    out[:, dims] = rows2
    return out


def _halfspaces(names, modes, normals, offsets, strict: bool) -> list[SafetyProperty]:
    """One single-row property per name, the k-th being normals[k] . x >= offsets[k]."""
    return [SafetyProperty(name, modes, normals[k:k + 1], offsets[k:k + 1], strict)
            for k, name in enumerate(names)]


def thrust_properties(limit: float = THRUST_LIMIT_N) -> tuple[SafetyProperty, ...]:
    """Four unsafe half-spaces |u_x|, |u_y| >= limit (Newtons) on the thrust
    states 4 and 5 of the 6-dim variants."""
    return tuple(_halfspaces(("thrust_x_hi", "thrust_x_lo", "thrust_y_hi", "thrust_y_lo"),
                             (MODE_PROX_A, MODE_PROX_B), _embed(_AXES, (4, 5), 6),
                             np.full(4, limit), strict=False))


def separation_property(dim: int, halfwidth: float = SEPARATION_HALFWIDTH_M) -> SafetyProperty:
    """Collision box |x|, |y| <= halfwidth around the target, checked during
    the passive coast: the rows +-x, +-y at offset -halfwidth."""
    return SafetyProperty("separation", (MODE_PASSIVE,), _embed(_AXES, (0, 1), dim),
                          np.full(4, -halfwidth), strict=False)


def property_settings(overrides: dict | None = None) -> dict:
    """``PROPERTY_DEFAULTS`` with ``overrides`` applied.  A value must have its
    default's type: a bool for a bool default, a real number other than a bool
    for a float default (an int becomes a float).  It must also lie in its
    range: separation_halfwidth_m >= 0 (a negative half-width is an empty
    collision box, so passive safety would hold vacuously),
    velocity_limit_mps > 0, thrust_limit_n > 0 and 0 < los_half_angle_deg < 90.
    An unknown key, a value of another type or one out of range is a
    FieldError whose field is the key."""
    ov = overrides or {}
    unknown = sorted(set(ov) - set(PROPERTY_DEFAULTS))
    if unknown:
        raise FieldError(unknown[0], f"unknown property overrides: {unknown}")
    for key, val in ov.items():
        default = PROPERTY_DEFAULTS[key]
        if isinstance(val, bool) != isinstance(default, bool) or not isinstance(val, numbers.Real):
            raise FieldError(key, f"property {key!r} expects a {type(default).__name__},"
                                  f" got {val!r}")
    s = {key: type(val)(ov.get(key, val)) for key, val in PROPERTY_DEFAULTS.items()}
    for key, in_range, rule in (
        ("separation_halfwidth_m", s["separation_halfwidth_m"] >= 0.0, ">= 0"),
        ("velocity_limit_mps", s["velocity_limit_mps"] > 0.0, "> 0"),
        ("thrust_limit_n", s["thrust_limit_n"] > 0.0, "> 0"),
        ("los_half_angle_deg", 0.0 < s["los_half_angle_deg"] < 90.0, "in (0, 90)"),
    ):
        if not in_range:
            raise FieldError(key, f"property {key!r} must be {rule}, got {s[key]!r}")
    return s


def initial_thrust_box(K: GainMatrix, m_c: float, init: Box) -> Box:
    """Interval image of the commanded thrust F = -m_c K x over a 4-dim state box."""
    if init.dim != 4:
        raise ValueError("initial thrust box needs a 4-dim state box")
    Kf = m_c * np.asarray(K.K, dtype=float)
    center = -Kf @ init.mid()
    halfwidth = np.abs(Kf) @ init.halfwidth()
    return Box(lo=center - halfwidth, hi=center + halfwidth)


def build_rendezvous_automaton(
    params: OrbitalParams,
    gains: tuple[GainMatrix, GainMatrix],
    variant: str,
    property_overrides: dict | None = None,
) -> HybridAutomaton:
    """Assemble the mission automaton for one model variant.

    Variants: ``lin_prox`` is the 4-dim closed loop; ``lin_prox_th_tracking``
    adds thrust states u = -m_c K x that track the command without feeding
    back; ``lin_prox_th_explicit`` instead injects the thrust states into the
    position dynamics, which is trajectory-equivalent from consistent initial
    conditions but loses the state-thrust correlation for sets;
    ``nlin_prox`` keeps the linear flows as placeholders and is handled by
    simulation only.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")

    model = cwh_matrices(params)
    A4 = model.A
    k_a, k_b = gains
    kf_a = params.m_c * np.asarray(k_a.K, dtype=float)
    kf_b = params.m_c * np.asarray(k_b.K, dtype=float)
    acl_a = closed_loop_matrix(model, kf_a)
    acl_b = closed_loop_matrix(model, kf_b)

    dim = VARIANT_DIMS[variant]
    if dim == 4:
        flow_a, flow_b, flow_p = acl_a, acl_b, A4
    else:
        zeros = np.zeros((4, 2))
        if variant == VARIANT_TRACKING:
            flow_a = np.block([[acl_a, zeros], [-kf_a @ acl_a, np.zeros((2, 2))]])
            flow_b = np.block([[acl_b, zeros], [-kf_b @ acl_b, np.zeros((2, 2))]])
        else:
            Bf = model.B
            flow_a = np.block([[A4, Bf], [-kf_a @ A4, -kf_a @ Bf]])
            flow_b = np.block([[A4, Bf], [-kf_b @ A4, -kf_b @ Bf]])
        flow_p = np.block([[A4, zeros], [np.zeros((2, 6))]])

    s = property_settings(property_overrides)
    los_n, los_b = los_halfspaces(s["los_base_x_m"], s["los_half_angle_deg"])
    vel_n, vel_b = velocity_polytope(s["velocity_limit_mps"])
    props = _halfspaces(("los_range", "los_cone_upper", "los_cone_lower"), (MODE_PROX_B,),
                        _embed(los_n, (0, 1), dim), los_b, strict=True)
    props += _halfspaces([f"velocity_{45 * k:03d}" for k in range(8)], (MODE_PROX_B,),
                         _embed(vel_n, (2, 3), dim), vel_b, strict=True)
    if variant in (VARIANT_TRACKING, VARIANT_EXPLICIT):
        props += thrust_properties(s["thrust_limit_n"])
    props.append(separation_property(dim, s["separation_halfwidth_m"]))

    oct2_n, oct_b = octagon_halfspaces(GUARD_RADIUS_M)
    return HybridAutomaton(
        dim=dim,
        gains=gains,
        flows={MODE_PROX_A: flow_a, MODE_PROX_B: flow_b, MODE_PASSIVE: flow_p},
        guard_normals=_embed(oct2_n, (0, 1), dim),
        guard_offsets=oct_b,
        properties=tuple(props),
    )
