"""End-to-end reachability verification of the rendezvous mission.

The reach computation is discrete-time at the sample instants: within a mode
the star set is advanced by the exact one-step matrix exponential, so the
sets are exact images of the initial box there.  Over-approximation enters
only where sets are aggregated: when the urgent guard is crossed, the boxes
collected while the set straddles the octagon are hulled and restarted as a
fresh box in the destination mode, and the passive coast starts from the hull
of every rendezvous box whose time range meets the abort window.

Because aggregation mixes states that crossed at different instants, every
pipe carries the interval of absolute times its step 0 may correspond to
(``t_lo0``..``t_hi0``); step k then covers ``t_lo0 + k h``..``t_hi0 + k h``.
Window collection and clock bounds use these ranges, which is what makes the
safe verdicts sound against sampled trajectories that switch at their own
times.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np
from scipy.stats import qmc

from .hybrid import (
    VARIANT_LIN,
    VARIANT_NONLINEAR,
    VARIANTS,
    HybridAutomaton,
    SafetyProperty,
    build_rendezvous_automaton,
    initial_thrust_box,
)
from .lqr import (
    DEFAULT_MAX_INPUT,
    PROXA_MAX_STATE,
    PROXB_MAX_STATE,
    GainMatrix,
    design_mode_gains,
)
from .numsim import (
    _TIME_EPS,
    MODE_PASSIVE,
    MODE_PROX_A,
    MODE_PROX_B,
    Trajectory,
    matrix_exp,
    simulate_nonlinear,
    simulate_switched,
    steps_within,
)
from .orbital import OrbitalParams
from .starset import Box, StarSet, clip_box_to_halfspace, from_box, hull_boxes

DEFAULT_INIT_CENTER = (-900.0, -400.0, 0.0, 0.0)
DEFAULT_INIT_HALFWIDTH = (25.0, 25.0, 0.0, 0.0)
DEFAULT_T1_S = 7200.0
DEFAULT_T2_S = 7500.0
DEFAULT_HORIZON_S = 16200.0
DEFAULT_STEP_S = 1.0
DEFAULT_WINDOW_WIDTH_S = 300.0

_MAX_SEGMENTS = 64

# Samples per propagation block: a power of two, so that the Φ^i table fills
# by doubling.
_BLOCK = 256

_MODES = (MODE_PROX_A, MODE_PROX_B, MODE_PASSIVE)

_INSIDE = "inside"
_OUTSIDE = "outside"
_STRADDLE = "straddle"
_CLASSES = (_INSIDE, _OUTSIDE, _STRADDLE)


class InconclusiveError(RuntimeError):
    """Raised internally when the reach computation cannot produce a verdict."""


@dataclass(frozen=True)
class Scenario:
    """Full configuration of one verification run."""

    params: OrbitalParams = OrbitalParams()
    variant: str = VARIANT_LIN
    init: Box = field(default_factory=lambda: Box(
        lo=np.array(DEFAULT_INIT_CENTER) - np.array(DEFAULT_INIT_HALFWIDTH),
        hi=np.array(DEFAULT_INIT_CENTER) + np.array(DEFAULT_INIT_HALFWIDTH),
    ))
    t1: float = DEFAULT_T1_S
    t2: float = DEFAULT_T2_S
    horizon: float = DEFAULT_HORIZON_S
    h: float = DEFAULT_STEP_S
    window_width: float = DEFAULT_WINDOW_WIDTH_S
    bryson: dict | None = None
    property_overrides: dict | None = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (0.0 <= self.t1 <= self.t2 <= self.horizon):
            raise ValueError(
                f"need 0 <= t1 <= t2 <= horizon, got t1={self.t1}, t2={self.t2},"
                f" horizon={self.horizon}"
            )
        if not (self.h > 0.0):
            raise ValueError(f"step size must be positive, got {self.h}")
        if not (self.window_width > 0.0):
            raise ValueError(f"window width must be positive, got {self.window_width}")
        if self.init.dim not in (4, 6):
            raise ValueError(f"initial box must be 4- or 6-dimensional, got {self.init.dim}")

    @property
    def intersample_bloat(self) -> bool:
        return bool((self.property_overrides or {}).get("intersample_bloat", False))


@dataclass
class FlowpipeSegment:
    """One mode pipe: per-step reach boxes plus its step-0 time range."""

    mode: str
    lo: np.ndarray          # (steps, dim)
    hi: np.ndarray
    t_lo0: float
    t_hi0: float
    h: float
    violations: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return self.lo.shape[0]

    @property
    def dim(self) -> int:
        return self.lo.shape[1]

    def times_lo(self) -> np.ndarray:
        return self.t_lo0 + self.h * np.arange(self.n_steps)

    def times_hi(self) -> np.ndarray:
        return self.t_hi0 + self.h * np.arange(self.n_steps)

    def box(self, k: int) -> Box:
        return Box(lo=self.lo[k], hi=self.hi[k])


@dataclass
class Violation:
    property: str
    mode: str
    time_s: float
    step: int
    witness_lo: np.ndarray
    witness_hi: np.ndarray


@dataclass
class VerificationReport:
    verdict: str                      # "safe" | "unsafe" | "inconclusive"
    scenario: Scenario
    gains: tuple[GainMatrix, GainMatrix]
    segments: list[FlowpipeSegment]
    violations: list[Violation]
    reason: str | None = None
    max_thrust_n: float | None = None
    thrust_margin_n: float | None = None
    wall_time_s: float = 0.0

    @property
    def steps_total(self) -> int:
        return sum(seg.n_steps for seg in self.segments)


def default_scenario(**overrides) -> Scenario:
    return replace(Scenario(), **overrides) if overrides else Scenario()


# ---------------------------------------------------------------------------
# design and setup


def gains_for_scenario(sc: Scenario) -> tuple[GainMatrix, GainMatrix]:
    br = sc.bryson or {}
    return design_mode_gains(
        sc.params,
        prox_a_max_state=br.get("prox_a", {}).get("max_state", PROXA_MAX_STATE),
        prox_b_max_state=br.get("prox_b", {}).get("max_state", PROXB_MAX_STATE),
        max_input=br.get("max_input", DEFAULT_MAX_INPUT),
    )


def automaton_for_scenario(sc: Scenario) -> HybridAutomaton:
    gains = gains_for_scenario(sc)
    return build_rendezvous_automaton(sc.params, gains, sc.variant, sc.property_overrides)


class _ModeChecker:
    """Batched property evaluation for one mode."""

    def __init__(self, props: tuple[SafetyProperty, ...], mode: str, dim: int):
        half = [p for p in props if mode in p.modes and p.normal is not None]
        self.names = [p.name for p in half]
        self.normals = np.array([p.normal for p in half]).reshape(len(half), dim)
        self.offsets = np.array([p.offset for p in half], dtype=float)
        self.strict = np.array([p.strict for p in half], dtype=bool)
        self.conj = [p for p in props if mode in p.modes and p.unsafe_box is not None]
        self.order = self.names + [p.name for p in self.conj]

    def check(self, C, V, lo, hi, bloat=None) -> np.ndarray:
        """Hits of the sets c_k + V_k [-1, 1]^n, k < m, one column per name in
        ``order``, as an (m, len(order)) array.

        C is (m, dim), V (m, dim, dim) or None for points, lo/hi (m, dim) the
        sets' boxes and bloat (m, dim) an optional widening of each set.
        """
        vals = C @ self.normals.T
        if V is not None:
            vals = vals + np.abs(np.matmul(self.normals, V)).sum(axis=2)
        if bloat is not None:
            vals = vals + bloat @ np.abs(self.normals).T
        cols = [np.where(self.strict, vals > self.offsets, vals >= self.offsets)]
        for p in self.conj:
            d = list(p.box_dims)
            plo, phi = lo[:, d], hi[:, d]
            if bloat is not None:
                plo, phi = plo - bloat[:, d], phi + bloat[:, d]
            cols.append(np.all((plo <= p.unsafe_box.hi) & (phi >= p.unsafe_box.lo), axis=1))
        return np.column_stack(cols)


class _VerifyContext:
    def __init__(self, sc: Scenario):
        self.sc = sc
        self.aut = automaton_for_scenario(sc)
        self.h = sc.h
        self.checkers = {
            m: _ModeChecker(self.aut.properties, m, self.aut.dim)
            for m in (MODE_PROX_A, MODE_PROX_B, MODE_PASSIVE)
        }
        self.phis = {m: matrix_exp(mode.flow * sc.h) for m, mode in self.aut.modes.items()}
        self.bloat = sc.intersample_bloat
        self.guard2 = self.aut.guard_normals[:, :2]
        self._powers: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def powers(self, mode: str) -> tuple[np.ndarray, np.ndarray]:
        """The table P of mode's one-step map Φ, P[i] = Φ^i for i < _BLOCK,
        and Φ^_BLOCK; built on first use and shared by every pipe of mode."""
        if mode not in self._powers:
            phi = self.phis[mode]
            P = np.empty((_BLOCK,) + phi.shape)
            P[0] = np.eye(len(phi))
            n = 1
            while n < _BLOCK:
                P[n:2 * n] = P[:n] @ (P[n - 1] @ phi)
                n *= 2
            self._powers[mode] = (P, P[-1] @ phi)
        return self._powers[mode]

    def initial(self) -> tuple[str, StarSet]:
        """The mode whose region holds the initial box's position part, and the
        box as a star; a box straddling the guard is an error."""
        box = self.sc.init
        star = from_box(box)
        cls = _classify(star.x0[:2], np.diag(star.V.diagonal()[:2]), self.guard2,
                        self.aut.guard_offsets)
        if cls == _STRADDLE:
            raise ValueError("initial box straddles the guard octagon; split the scenario")
        mode = MODE_PROX_B if cls == _INSIDE else MODE_PROX_A
        if self.aut.dim == 6 and box.dim == 4:
            star = from_box(_with_thrust(self, mode, box))
        elif box.dim != self.aut.dim:
            raise ValueError(f"initial box dim {box.dim} incompatible with variant {self.sc.variant}")
        return mode, star


def _with_thrust(ctx: _VerifyContext, mode: str, box4: Box) -> Box:
    """The 4-dim state box extended by the interval image of mode's commanded thrust."""
    gain = ctx.aut.gains[0] if mode == MODE_PROX_A else ctx.aut.gains[1]
    tbox = initial_thrust_box(gain, ctx.sc.params.m_c, box4)
    return Box(lo=np.concatenate([box4.lo, tbox.lo]), hi=np.concatenate([box4.hi, tbox.hi]))


def _classes(C, V, normals, offsets) -> list[str]:
    """Class of each set c_k + V_k [-1, 1]^n against the polytope
    normals . x <= offsets: inside it, outside it, or straddling it."""
    spread = np.abs(np.matmul(normals, V)).sum(axis=2)
    proj = C @ normals.T
    code = np.where(np.all(proj + spread <= offsets, axis=1), 0,
                    np.where(np.any(proj - spread > offsets, axis=1), 1, 2))
    return [_CLASSES[i] for i in code.tolist()]


def _classify(x0, V, normals, offsets) -> str:
    """Class of the one set x0 + V [-1, 1]^n, as in :func:`_classes`."""
    return _classes(x0[None], V[None], normals, offsets)[0]


def _restart_box(ctx: _VerifyContext, dest: str, boxes: list[Box]) -> Box | None:
    hull = hull_boxes(boxes)
    for a, b in ctx.aut.modes[dest].invariant:
        hull = clip_box_to_halfspace(hull, a, b)
        if hull is None:
            return None
    if ctx.aut.dim == 6:
        # The commanded thrust re-derives from the destination gain the moment
        # the controller switches, so the thrust dims reset to its interval
        # image over the aggregated position/velocity box.
        hull = _with_thrust(ctx, dest, Box(lo=hull.lo[:4], hi=hull.hi[:4]))
    return hull


def _empty_segment(ctx: _VerifyContext, mode: str, n_steps: int,
                   t_lo0: float, t_hi0: float) -> FlowpipeSegment:
    return FlowpipeSegment(mode=mode, lo=np.empty((n_steps, ctx.aut.dim)),
                           hi=np.empty((n_steps, ctx.aut.dim)),
                           t_lo0=t_lo0, t_hi0=t_hi0, h=ctx.h)


def _advance(ctx: _VerifyContext, seg: FlowpipeSegment, star: StarSet):
    """Step the star through the flow of seg's mode, a block of samples at a time.

    A block holds up to ``_BLOCK`` steps from its head set M = [c | V]: the
    set at step k0 + i is P[i] @ M with ``ctx.powers``' table P, and the next
    head is Φ^_BLOCK @ M.  The block's boxes go into ``seg.lo``/``seg.hi`` and
    its property hits into ``seg.violations`` before ``(k0, C, V)`` is yielded,
    C (m, dim) and V (m, dim, dim) being the sets of steps k0..k0+m-1.  A
    caller that stops at a step inside the block drops the later rows and hits.
    A block ends before its first non-finite set, and resuming past it raises
    :class:`InconclusiveError` at that step.
    """
    P, phi_block = ctx.powers(seg.mode)
    checker = ctx.checkers[seg.mode]
    abs_flow_t = np.abs(ctx.aut.modes[seg.mode].flow).T
    where = "passive pipe" if seg.mode == MODE_PASSIVE else f"mode {seg.mode}"
    dim = ctx.aut.dim
    M = np.column_stack([star.x0, star.V])
    for k0 in range(0, seg.n_steps, _BLOCK):
        n = min(_BLOCK, seg.n_steps - k0)
        S = (P[:n].reshape(-1, dim) @ M).reshape(n, dim, dim + 1)
        finite = np.isfinite(S).all(axis=(1, 2))
        m = n if finite.all() else int(np.argmin(finite))
        C, V = S[:m, :, 0], S[:m, :, 1:]
        reach = np.abs(V).sum(axis=2)
        lo = seg.lo[k0:k0 + m] = C - reach
        hi = seg.hi[k0:k0 + m] = C + reach
        bloat = ctx.h * ((np.abs(C) + reach) @ abs_flow_t) if ctx.bloat else None
        hits = checker.check(C, V, lo, hi, bloat)
        seg.violations.extend((k0 + k, checker.order[j]) for k, j in np.argwhere(hits).tolist())
        yield k0, C, V
        if m < n:
            raise InconclusiveError(f"numerical overflow in {where} at step {k0 + m}")
        M = phi_block @ M


def _rendezvous_pipes(ctx: _VerifyContext, t_end: float) -> list[FlowpipeSegment]:
    """Run every rendezvous-mode pipe from the scenario's initial box up to
    covered time t_end (the clock bound)."""
    aut, h = ctx.aut, ctx.h
    segments: list[FlowpipeSegment] = []
    worklist: list[tuple[str, StarSet, float, float]] = [(*ctx.initial(), 0.0, 0.0)]
    guard_n, guard_b = aut.guard_normals, aut.guard_offsets

    while worklist:
        if len(segments) >= _MAX_SEGMENTS:
            raise InconclusiveError("mode switching did not settle; too many pipe restarts")
        mode, star, t_lo0, t_hi0 = worklist.pop(0)
        other = MODE_PROX_B if mode == MODE_PROX_A else MODE_PROX_A
        own_cls = _OUTSIDE if mode == MODE_PROX_A else _INSIDE
        crossed_cls = _INSIDE if mode == MODE_PROX_A else _OUTSIDE

        n_steps = steps_within(t_end - t_lo0, h) + 1
        if n_steps <= 0:
            continue
        seg = _empty_segment(ctx, mode, n_steps, t_lo0, t_hi0)
        collected: list[Box] = []
        collect_k0: int | None = None
        crossed = False
        # A pipe restarted from an aggregated hull is born straddling the
        # octagon because re-boxing the clipped hull pokes past the diagonal
        # edges.  Until such a pipe has once been classified fully inside its
        # own region it is "settling": the straddle is aggregation slack, the
        # content is covered by this pipe's own boxes, and shedding it back
        # would bounce ghost sets between the modes forever.  Full crossings
        # are still honored while settling, and any genuine later contact
        # happens from the settled state and is shed normally.
        settled = False

        for k0, C, V in _advance(ctx, seg, star):
            for k, cls in enumerate(_classes(C, V, guard_n, guard_b), k0):
                if cls == own_cls:
                    if settled and collected:
                        # Grazed the guard and retreated: restart what may have
                        # crossed, keep going in this mode.
                        box = _restart_box(ctx, other, collected)
                        if box is not None:
                            worklist.append((other, from_box(box),
                                             t_lo0 + collect_k0 * h, t_hi0 + k * h))
                    collected = []
                    collect_k0 = None
                    settled = True
                else:
                    if collect_k0 is None:
                        collect_k0 = k
                    collected.append(seg.box(k))
                    if cls == crossed_cls:
                        crossed = True
                        break
            if crossed:
                break

        seg.lo, seg.hi = seg.lo[:k + 1], seg.hi[:k + 1]
        seg.violations = [(j, name) for j, name in seg.violations if j <= k]
        segments.append(seg)
        if crossed or (collected and settled):
            # Either the set fully crossed, or a settled pipe hit the clock
            # bound mid-crossing; both restart from the aggregated hull.
            box = _restart_box(ctx, other, collected)
            if box is not None:
                worklist.append((other, from_box(box),
                                 t_lo0 + collect_k0 * h, t_hi0 + k * h))
    return segments


def _collect_window_boxes(segments: list[FlowpipeSegment], t1: float, t2: float) -> list[Box]:
    """Per pipe, the hull of its boxes whose time range meets [t1, t2]."""
    boxes: list[Box] = []
    for seg in segments:
        mask = (seg.times_hi() >= t1 - _TIME_EPS) & (seg.times_lo() <= t2 + _TIME_EPS)
        if mask.any():
            boxes.append(Box(lo=seg.lo[mask].min(axis=0), hi=seg.hi[mask].max(axis=0)))
    return boxes


def _passive_segment(ctx: _VerifyContext, segments: list[FlowpipeSegment],
                     t1: float, t2: float, horizon: float) -> FlowpipeSegment:
    boxes = _collect_window_boxes(segments, t1, t2)
    if not boxes:
        raise ValueError(f"abort window [{t1}, {t2}] covers no reachable sample")
    hull = hull_boxes(boxes)
    if ctx.aut.dim == 6:
        # Thrusters are off in the passive mode; the thrust states pin to zero.
        lo, hi = hull.lo.copy(), hull.hi.copy()
        lo[4:] = 0.0
        hi[4:] = 0.0
        hull = Box(lo=lo, hi=hi)
    seg = _empty_segment(ctx, MODE_PASSIVE, steps_within(horizon - t1, ctx.h) + 1, t1, t2)
    for _ in _advance(ctx, seg, from_box(hull)):
        pass
    return seg


def _first_violations(segments: list[FlowpipeSegment]) -> list[Violation]:
    best: dict[str, Violation] = {}
    for seg in segments:
        for k, name in seg.violations:
            t = seg.t_lo0 + k * seg.h
            if name not in best or t < best[name].time_s:
                best[name] = Violation(
                    property=name, mode=seg.mode, time_s=t, step=int(k),
                    witness_lo=seg.lo[k].copy(), witness_hi=seg.hi[k].copy(),
                )
    return sorted(best.values(), key=lambda v: (v.time_s, v.property))


def _thrust_stats(aut: HybridAutomaton, segments: list[FlowpipeSegment]):
    if aut.dim != 6:
        return None, None
    limit = None
    for p in aut.properties:
        if p.name == "thrust_x_hi":
            limit = float(p.offset)
    peak = 0.0
    for seg in segments:
        if seg.mode == MODE_PASSIVE:
            continue
        peak = max(peak, float(np.abs(seg.lo[:, 4:]).max()), float(np.abs(seg.hi[:, 4:]).max()))
    return peak, (None if limit is None else limit - peak)


def _assemble(sc, ctx, segments, t0, verdict=None, reason=None) -> VerificationReport:
    violations = _first_violations(segments)
    if verdict is None:
        verdict = "unsafe" if violations else "safe"
    peak, margin = _thrust_stats(ctx.aut, segments)
    return VerificationReport(
        verdict=verdict, scenario=sc, gains=ctx.aut.gains, segments=segments,
        violations=violations, reason=reason,
        max_thrust_n=peak, thrust_margin_n=margin,
        wall_time_s=time.perf_counter() - t0,
    )


def verify(sc: Scenario) -> VerificationReport:
    """Compute the mission flowpipe and decide every registered property.

    The rendezvous pipes run until the abort deadline t2 (the rendezvous-mode
    clock invariant), the passive pipe from t1 to the horizon.  A safe verdict
    means no unsafe set was reached anywhere; an unsafe verdict reports
    over-approximation witnesses, to be confirmed with :func:`falsify`.
    This is :func:`verify_windowed` with the single window [t1, t2].
    """
    return verify_windowed(sc, math.inf)


def partition_window(t1: float, t2: float, w: float) -> list[tuple[float, float]]:
    """Contiguous cover of [t1, t2] by windows of width at most w."""
    if not (w > 0.0):
        raise ValueError("window width must be positive")
    if t1 > t2:
        raise ValueError("window start exceeds end")
    if t2 - t1 <= _TIME_EPS:
        return [(t1, t2)]
    out = []
    a = t1
    while a < t2 - _TIME_EPS:
        b = min(a + w, t2)
        out.append((a, b))
        a = b
    return out


def verify_windowed(sc: Scenario, w: float | None = None) -> VerificationReport:
    """Verify with the abort window split into subwindows of width at most w.

    The rendezvous pipes are shared across subwindows; each subwindow gets its
    own passive pipe, started from the hull of every box whose time range meets
    the subwindow.  Those boxes come from the rendezvous pipes and from the
    passive pipes of the earlier subwindows.  The verdict is the conjunction,
    so a single subwindow reproduces :func:`verify` exactly.
    """
    t0 = time.perf_counter()
    if sc.variant == VARIANT_NONLINEAR:
        raise ValueError("the nonlinear variant is simulation-only; use falsify or simulate")
    w = sc.window_width if w is None else float(w)
    windows = partition_window(sc.t1, sc.t2, w)
    ctx = _VerifyContext(sc)
    try:
        segments = _rendezvous_pipes(ctx, t_end=sc.t2)
        for a, b in windows:
            segments.append(_passive_segment(ctx, segments, a, b, sc.horizon))
    except InconclusiveError as exc:
        return _assemble(sc, ctx, [], t0, verdict="inconclusive", reason=str(exc))
    return _assemble(sc, ctx, segments, t0)


# ---------------------------------------------------------------------------
# simulation, falsification, containment


def sample_initial_points(box: Box, count: int) -> np.ndarray:
    """Deterministic initial states: distinct box corners, then Halton points."""
    corners = list(dict.fromkeys(product(*zip(box.lo, box.hi))))
    pts = [np.array(c) for c in corners[:count]]
    if len(pts) < count:
        sampler = qmc.Halton(d=box.dim, scramble=False)
        extra = sampler.random(count - len(pts))
        pts.extend(box.lo + extra * (box.hi - box.lo))
    return np.array(pts)


def sample_abort_steps(sc: Scenario, count: int, rng: np.random.Generator) -> np.ndarray:
    """Abort step indices drawn uniformly from the samples inside [t1, t2]."""
    k1 = int(math.ceil(sc.t1 / sc.h - _TIME_EPS))
    k2 = steps_within(sc.t2, sc.h)
    if k1 > k2:
        raise ValueError(f"abort window [{sc.t1}, {sc.t2}] holds no sample of step {sc.h}")
    return rng.integers(k1, k2 + 1, size=count)


def _mode_index(ctx: _VerifyContext, k: int, X, abort):
    """The switching rule at step k, as an index into ``_MODES``.

    The mode is passive from the abort step on; before that it is prox_b when
    the position meets every guard half-space and prox_a otherwise.  As the
    guard is urgent both ways, the rule needs no memory of the previous mode.
    X and abort are one state (dim,) and step, or a batch (dim, N) of each.
    """
    inside = ((ctx.guard2 @ X[:2]).T <= ctx.aut.guard_offsets).all(axis=-1)
    return np.where(k >= abort, 2, inside)


def _reset(ctx: _VerifyContext, mode: str, X):
    """States X (4 or dim rows) on entering mode: the 6-dim variants' thrust
    rows become the commanded thrust, zero in passive and -m_c K x otherwise."""
    if ctx.aut.dim == 4:
        return X
    if mode == MODE_PASSIVE:
        u = np.zeros((2,) + X.shape[1:])
    else:
        gain = ctx.aut.gains[0] if mode == MODE_PROX_A else ctx.aut.gains[1]
        u = -ctx.sc.params.m_c * (gain.K @ X[:4])
    return np.concatenate([X[:4], u])


def simulate_scenario(sc: Scenario, x0_4: np.ndarray, passive_step: int | None) -> Trajectory:
    """One closed-loop run of the scenario's variant from a concrete state."""
    ctx = _VerifyContext(sc)
    return _simulate_with_ctx(ctx, x0_4, passive_step)


def _simulate_with_ctx(ctx: _VerifyContext, x0_4: np.ndarray, passive_step: int | None) -> Trajectory:
    sc = ctx.sc
    abort = math.inf if passive_step is None else passive_step

    def switch(k, x, prev):
        if prev == MODE_PASSIVE:    # absorbing, as k only grows past the abort step
            return prev, x
        mode = _MODES[_mode_index(ctx, k, x, abort)]
        return mode, (x if mode == prev else _reset(ctx, mode, x))

    if sc.variant == VARIANT_NONLINEAR:
        return simulate_nonlinear(sc.params, ctx.aut.gains, switch, x0_4, sc.h, sc.horizon)
    return simulate_switched(lambda mode, x: ctx.phis[mode] @ x, switch, x0_4, sc.h, sc.horizon)


def _pointwise_violation(ctx: _VerifyContext, traj: Trajectory) -> tuple[str, int] | None:
    """Earliest (property, step) at which the run meets an unsafe set of its mode."""
    modes = np.array(traj.modes)
    best = None
    for mode, checker in ctx.checkers.items():
        ks = np.flatnonzero(modes == mode)
        states = traj.states[ks]
        hits = checker.check(states, None, states, states)
        rows = np.flatnonzero(hits.any(axis=1))
        if rows.size and (best is None or ks[rows[0]] < best[1]):
            best = (checker.order[int(np.argmax(hits[rows[0]]))], int(ks[rows[0]]))
    return best


def falsify(sc: Scenario, samples: int, seed: int | None = None) -> Trajectory | None:
    """Search for a concrete counterexample trajectory by guided sampling.

    Initial states are the box corners followed by low-discrepancy interior
    points; abort times are drawn uniformly from the window's step grid.
    Returns the first violating trajectory, with its (property, step) attached
    as ``violation``, or None.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    ctx = _VerifyContext(sc)
    points = sample_initial_points(Box(lo=sc.init.lo[:4], hi=sc.init.hi[:4]), samples)
    rng = np.random.default_rng(sc.seed if seed is None else seed)
    psteps = sample_abort_steps(sc, samples, rng)
    for x0, pk in zip(points, psteps):
        traj = _simulate_with_ctx(ctx, x0, int(pk))
        hit = _pointwise_violation(ctx, traj)
        if hit is not None:
            return replace(traj, violation=hit)
    return None


def monte_carlo_containment(sc: Scenario, n_samples: int, seed: int | None = None,
                            report: VerificationReport | None = None) -> dict:
    """Check sampled closed-loop trajectories against the reach boxes.

    The samples follow the verifier's switching rule, each with its own abort
    step, and are stepped as one batch.  A sample that entered mode m at step
    e must at step k lie in box k - e of some mode-m pipe whose step-0 time
    range [t_lo0, t_hi0] holds e h; a sample with no such box counts as an
    escape.  This accepts any pipe structure: restarts, grazes and windowed
    passive pipes.  Returns counts and the worst excess.
    """
    if report is None:
        report = verify(sc)
    if report.verdict == "inconclusive":
        raise ValueError("cannot check containment of an inconclusive run")
    ctx = _VerifyContext(sc)
    rng = np.random.default_rng(sc.seed if seed is None else seed)
    pts = sample_initial_points(Box(lo=sc.init.lo[:4], hi=sc.init.hi[:4]), n_samples)
    psteps = sample_abort_steps(sc, n_samples, rng)

    X = np.zeros((ctx.aut.dim, n_samples))
    X[:4] = pts.T
    mode = np.full(n_samples, -1)
    entry = np.zeros(n_samples, dtype=int)
    total_steps = steps_within(sc.horizon, sc.h)
    violations = 0
    max_excess = 0.0
    for k in range(total_steps + 1):
        if k:
            for m, name in enumerate(_MODES):
                sel = mode == m
                if sel.any():
                    X[:, sel] = ctx.phis[name] @ X[:, sel]
        new = _mode_index(ctx, k, X, psteps)
        changed = new != mode
        if changed.any():
            for m, name in enumerate(_MODES):
                sel = changed & (new == m)
                X[:, sel] = _reset(ctx, name, X[:, sel])
            mode = new
            entry[changed] = k
            t_entry = entry * sc.h
            # Samples each pipe may hold: its mode, entered within its start range.
            held = [np.flatnonzero((mode == _MODES.index(seg.mode))
                                   & (t_entry >= seg.t_lo0 - _TIME_EPS)
                                   & (t_entry <= seg.t_hi0 + _TIME_EPS))
                    for seg in report.segments]
        best = np.full(n_samples, np.inf)
        for seg, idx in zip(report.segments, held):
            idx = idx[k - entry[idx] < seg.n_steps]
            if not idx.size:
                continue
            lo, hi = seg.lo[k - entry[idx]], seg.hi[k - entry[idx]]
            slack = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
            pts_now = X[:, idx].T
            excess = np.maximum(lo - slack - pts_now, pts_now - hi - slack).max(axis=1)
            best[idx] = np.minimum(best[idx], excess)
        violations += int(np.sum(best > 0.0))
        max_excess = float(np.max(best, initial=max_excess, where=np.isfinite(best)))
    return {"samples": int(n_samples), "checked_steps": total_steps + 1,
            "violations": int(violations), "max_excess": float(max_excess)}


# ---------------------------------------------------------------------------
# robustness sweep


def _sweep_one(args) -> tuple[float, float, float]:
    sc, angle_deg, radius, w, t_grid = args
    th = math.radians(angle_deg)
    hw = sc.init.halfwidth()[:4]
    center = np.array([radius * math.cos(th), radius * math.sin(th), 0.0, 0.0])
    sc_a = replace(sc, init=Box(lo=center - hw, hi=center + hw),
                   t1=0.0, t2=float(sc.horizon))
    ctx = _VerifyContext(sc_a)
    try:
        segments = _rendezvous_pipes(ctx, t_end=sc_a.horizon)
    except InconclusiveError:
        return (angle_deg, radius, -1.0)
    flag_times = [seg.t_lo0 + k * seg.h for seg in segments for k, _ in seg.violations]
    first_flag = min(flag_times) if flag_times else None

    window_safe: dict[tuple[float, float], bool] = {}

    def is_window_safe(a: float, b: float) -> bool:
        key = (a, b)
        if key not in window_safe:
            try:
                pseg = _passive_segment(ctx, segments, a, b, sc_a.horizon)
                window_safe[key] = not pseg.violations
            except InconclusiveError:
                window_safe[key] = False
        return window_safe[key]

    best = -1.0
    for T in t_grid:
        if T > sc.horizon + _TIME_EPS:
            break
        if first_flag is not None and first_flag <= T + _TIME_EPS:
            break
        ok = all(is_window_safe(a, b) for (a, b) in partition_window(0.0, float(T), w))
        if not ok:
            break
        best = float(T)
    return (angle_deg, radius, best)


def sweep_passive_time(sc: Scenario, angles_deg, radius: float, w: float | None = None,
                       t_grid=None, jobs: int = 1) -> list[tuple[float, float, float]]:
    """Largest safe abort deadline per initial bearing.

    For each angle the initial box is re-centered at radius * (cos, sin) with
    the base half-widths and zero velocity, and the largest T in the grid with
    ``verify_windowed`` safe on the abort window [0, T] is recorded; -1 means
    no tested T was safe.  Rows come back in the input angle order.
    """
    angles = [float(a) for a in angles_deg]
    for a in angles:
        if not (0.0 <= a < 360.0):
            raise ValueError(f"angles must lie in [0, 360), got {a}")
    if not (radius > 0.0):
        raise ValueError("sweep radius must be positive")
    w = sc.window_width if w is None else float(w)
    if t_grid is None:
        t_grid = np.arange(600.0, sc.horizon + _TIME_EPS, 600.0)
    t_grid = sorted(float(t) for t in t_grid)
    tasks = [(sc, a, float(radius), w, t_grid) for a in angles]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_one, tasks))
    return [_sweep_one(t) for t in tasks]
