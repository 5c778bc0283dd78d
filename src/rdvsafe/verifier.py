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

import functools
import math
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import groupby, product
from types import MappingProxyType

import numpy as np

from .hybrid import (
    VARIANT_LIN,
    VARIANT_DIMS,
    VARIANT_NONLINEAR,
    VARIANTS,
    HybridAutomaton,
    SafetyProperty,
    build_rendezvous_automaton,
    initial_thrust_box,
    property_settings,
)
from .lqr import GainMatrix, bryson_maxima, design_mode_gains
from .numsim import (
    _TIME_EPS,
    MODE_PASSIVE,
    MODE_PROX_A,
    MODE_PROX_B,
    Trajectory,
    matrix_exp,
    simulate_nonlinear,
    steps_within,
)
from .orbital import OrbitalParams
from .starset import Box, clip_box_to_halfspace, hull_boxes, supports

DEFAULT_INIT_CENTER = (-900.0, -400.0, 0.0, 0.0)
DEFAULT_INIT_HALFWIDTH = (25.0, 25.0, 0.0, 0.0)
DEFAULT_T1_S = 7200.0
DEFAULT_T2_S = 7500.0
DEFAULT_HORIZON_S = 16200.0
DEFAULT_STEP_S = 1.0
DEFAULT_WINDOW_WIDTH_S = 300.0

_MAX_SEGMENTS = 64
_MAX_WINDOWS = 1_000_000
_SWEEP_T_STEP = 600.0           # spacing of the default sweep deadline grid
_MAX_SWEEP_TIMES = 1_000_000    # default grid entries, counted before it is built

# Samples per propagation block: a power of two, so that the Φ^i table fills
# by doubling.
_BLOCK = 256

_MODES = (MODE_PROX_A, MODE_PROX_B, MODE_PASSIVE)

# Models kept per process, one per physics key: a mission cycles three
# variants, falsify two.
_MODEL_CACHE_SIZE = 8


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
        if not all(math.isfinite(t) for t in (self.t1, self.t2, self.horizon, self.h)):
            raise ValueError(
                f"times must be finite, got t1={self.t1}, t2={self.t2},"
                f" horizon={self.horizon}, h={self.h}"
            )
        if not (0.0 <= self.t1 <= self.t2 <= self.horizon):
            raise ValueError(
                f"need 0 <= t1 <= t2 <= horizon, got t1={self.t1}, t2={self.t2},"
                f" horizon={self.horizon}"
            )
        if not (self.h > 0.0):
            raise ValueError(f"step size must be positive, got {self.h}")
        if not (self.window_width > 0.0):
            raise ValueError(f"window width must be positive, got {self.window_width}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        dims = sorted({4, VARIANT_DIMS[self.variant]})
        if self.init.dim not in dims:
            raise ValueError(f"initial box dim {self.init.dim} incompatible with variant"
                             f" {self.variant}, which takes {' or '.join(map(str, dims))}")


@dataclass
class FlowpipeSegment:
    """One mode pipe: per-step reach boxes and property hits, plus its step-0 time range."""

    mode: str
    lo: np.ndarray          # (steps, dim)
    hi: np.ndarray
    t_lo0: float
    t_hi0: float
    h: float
    names: tuple[str, ...]
    hits: np.ndarray        # (steps, len(names)) bool: which of names box k meets

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


class _ModeChecker:
    """Batched property evaluation for one mode: the properties' rows stacked,
    and per property in ``rows`` its row indices, padded with its last row."""

    def __init__(self, props: tuple[SafetyProperty, ...], mode: str, dim: int):
        mine = [p for p in props if mode in p.modes]
        counts = np.array([len(p.offsets) for p in mine], dtype=int)
        ends = np.cumsum(counts)
        self.names = tuple(p.name for p in mine)
        self.normals = np.concatenate([p.normals for p in mine] or [np.empty((0, dim))])
        self.offsets = np.concatenate([p.offsets for p in mine] or [np.empty(0)])
        self.strict = np.repeat(np.array([p.strict for p in mine], dtype=bool), counts)
        width = max((len(p.offsets) for p in mine), default=1)
        self.rows = np.minimum((ends - counts)[:, None] + np.arange(width), ends[:, None] - 1)

    def check(self, vals) -> np.ndarray:
        """The (m, len(names)) hits of m sets from their supports vals in ``normals``."""
        hits = np.where(self.strict, vals > self.offsets, vals >= self.offsets)
        return hits[:, self.rows].all(axis=2)


def _power_table(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table P of the one-step map Φ, P[i] = Φ^i for i < _BLOCK, filled by
    doubling, and Φ^_BLOCK."""
    P = np.empty((_BLOCK,) + phi.shape)
    P[0] = np.eye(len(phi))
    n = 1
    while n < _BLOCK:
        P[n:2 * n] = P[:n] @ (P[n - 1] @ phi)
        n *= 2
    return P, P[-1] @ phi


def _direction_table(aut: HybridAutomaton, checker: _ModeChecker,
                     mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows L of the supports that one block of mode needs, and the
    column of L for each row of mode's checker: [I; -I] for the box, [G; -G]
    for the guard normals G (prox modes only), then the checker's rows not
    among these.  The collision box and the thrust limits are unit rows, so
    they read box columns."""
    eye, G = np.eye(aut.dim), aut.guard_normals
    base = np.vstack([eye, -eye] + ([] if mode == MODE_PASSIVE else [G, -G]))
    rows = checker.normals
    L = np.vstack([base, rows[~(rows[:, None] == base).all(axis=2).any(axis=1)]])
    # Each checker row reads the first row of L equal to it.
    return L, (L[:, None] == rows).all(axis=2).argmax(axis=0)


def _read_only(obj) -> None:
    """Mark every array reachable from obj, through mappings, tuples and
    object attributes, read-only."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, Mapping):
        _read_only(tuple(obj.values()))
    elif isinstance(obj, tuple):
        for item in obj:
            _read_only(item)
    elif hasattr(obj, "__dict__"):
        _read_only(tuple(vars(obj).values()))


@dataclass(frozen=True)
class _Model:
    """What a run reads that depends only on its physics: the orbital
    parameters, the automaton, the step h, the filled-in property settings
    and Φ per mode, and derived from them, per mode, the power table
    (P, Φ^_BLOCK), the direction table (L, cols) and the checker, and per
    mode index the nonlinear engine's force gain m_c K (None in passive).

    One model serves every run of its physics in the process (see
    :func:`_model`), so every array in it is read-only and every table a
    read-only mapping.  ``dataclasses.replace`` derives the tables afresh."""

    params: OrbitalParams
    aut: HybridAutomaton
    h: float
    settings: Mapping[str, float | bool]
    phis: Mapping[str, np.ndarray]
    bloat: bool = field(init=False)
    guard2: np.ndarray = field(init=False)
    checkers: Mapping[str, _ModeChecker] = field(init=False)
    powers: Mapping[str, tuple[np.ndarray, np.ndarray]] = field(init=False)
    directions: Mapping[str, tuple[np.ndarray, np.ndarray]] = field(init=False)
    force_gains: tuple[np.ndarray | None, ...] = field(init=False)

    def __post_init__(self):
        aut = replace(self.aut, flows=MappingProxyType(dict(self.aut.flows)))
        checkers = {m: _ModeChecker(aut.properties, m, aut.dim) for m in _MODES}
        tables = dict(
            aut=aut,
            settings=MappingProxyType(dict(self.settings)),
            phis=MappingProxyType(dict(self.phis)),
            bloat=self.settings["intersample_bloat"],
            guard2=aut.guard_normals[:, :2],
            checkers=MappingProxyType(checkers),
            powers=MappingProxyType({m: _power_table(phi) for m, phi in self.phis.items()}),
            directions=MappingProxyType(
                {m: _direction_table(aut, checkers[m], m) for m in _MODES}),
            force_gains=tuple(self.params.m_c * np.asarray(g.K) for g in aut.gains) + (None,),
        )
        for name, value in tables.items():
            object.__setattr__(self, name, value)
        _read_only(self)


@functools.lru_cache(maxsize=_MODEL_CACHE_SIZE)
def _model(params: OrbitalParams, variant: str, h: float, bryson: tuple,
           settings: tuple) -> _Model:
    """The model of one physics key (see :func:`_model_of`), built on its
    first use in the process and shared by every later run with that key."""
    gains, settings = design_mode_gains(params, *bryson), dict(settings)
    aut = build_rendezvous_automaton(params, gains, variant, settings)
    try:
        phis = {m: matrix_exp(flow * h) for m, flow in aut.flows.items()}
    except OverflowError:
        raise ValueError(f"step {h} s is too long: the one-step map exp(A h) overflows") from None
    return _Model(params=params, aut=aut, h=h, settings=settings, phis=phis)


def _model_of(sc: Scenario) -> _Model:
    """The shared model of sc's physics, keyed by (params, variant, h, the
    three Bryson vectors, the filled-in property settings), all hashable."""
    bryson = tuple(tuple(float(v) for v in vec) for vec in bryson_maxima(sc.bryson))
    settings = tuple(property_settings(sc.property_overrides).items())
    return _model(sc.params, sc.variant, float(sc.h), bryson, settings)


def _initial(model: _Model, box: Box) -> tuple[str, Box]:
    """The mode whose region holds the box's position part, and the box in
    that mode's state space; a box straddling the guard is an error."""
    cls = _classify(box.mid()[:2], np.diag(box.halfwidth()[:2]),
                    np.vstack([model.guard2, -model.guard2]), model.aut.guard_offsets)
    if cls == "straddle":
        raise ValueError("initial box straddles the guard octagon; split the scenario")
    mode = MODE_PROX_B if cls == "inside" else MODE_PROX_A
    # Scenario admits a 4-dim box or one of the variant's own dimension.
    return mode, box if box.dim == model.aut.dim else _enter(model, mode, box)


def _enter(model: _Model, mode: str, box: Box) -> Box:
    """The box on entering mode: its position/velocity dims, then in the 6-dim
    variants the commanded thrust, zero in passive and otherwise the interval
    image of -m_c K x over those dims."""
    if model.aut.dim == 4:
        return box
    box4 = Box(lo=box.lo[:4], hi=box.hi[:4])
    thrust = (Box(lo=np.zeros(2), hi=np.zeros(2)) if mode == MODE_PASSIVE else
              initial_thrust_box(model.aut.gains[_MODES.index(mode)], model.params.m_c, box4))
    return Box(lo=np.concatenate([box4.lo, thrust.lo]), hi=np.concatenate([box4.hi, thrust.hi]))


def _classes(vals, offsets) -> np.ndarray:
    """Class code of each set against the polytope G x <= offsets, from its
    supports vals = [rho(G) | rho(-G)]: 0 inside it (every rho(g) <= b),
    1 outside it (some -rho(-g) > b), 2 straddling it."""
    g = len(offsets)
    return np.where(np.all(vals[:, :g] <= offsets, axis=1), 0,
                    np.where(np.any(-vals[:, g:] > offsets, axis=1), 1, 2))


def _classify(c, V, rows, offsets) -> str:
    """Class of the one set c + V [-1, 1]^n, as in :func:`_classes`, rows
    being [G; -G]."""
    code = _classes(supports(c[None], V[None], rows), offsets)[0]
    return ("inside", "outside", "straddle")[code]


def _restart_box(model: _Model, dest: str, lo, hi) -> Box | None:
    """The hull of the boxes lo[i]..hi[i] as a start box of mode dest, clipped
    to the guard octagon (prox_b's invariant) when dest is prox_b."""
    hull = Box(lo=lo.min(axis=0), hi=hi.max(axis=0))
    if dest == MODE_PROX_B:
        for a, b in zip(model.aut.guard_normals, model.aut.guard_offsets):
            hull = clip_box_to_halfspace(hull, a, b)
            if hull is None:
                return None
    # The commanded thrust re-derives from the destination gain at the switch.
    return _enter(model, dest, hull)


def _empty_segment(model: _Model, mode: str, n_steps: int,
                   t_lo0: float, t_hi0: float) -> FlowpipeSegment:
    names = model.checkers[mode].names
    return FlowpipeSegment(mode=mode, lo=np.empty((n_steps, model.aut.dim)),
                           hi=np.empty((n_steps, model.aut.dim)), t_lo0=t_lo0, t_hi0=t_hi0,
                           h=model.h, names=names, hits=np.zeros((n_steps, len(names)), dtype=bool))


def _work(model: _Model, mode: str, W: int) -> tuple[np.ndarray, ...]:
    """Scratch arrays for :func:`_block` on up to W pipes of mode, for a
    caller to allocate once: fresh arrays for every block cost thousands of
    page faults per run."""
    dim, rows, m = model.aut.dim, len(model.directions[mode][0]), W * _BLOCK
    return np.empty((m, dim, dim + 1)), np.empty((2, m, dim)), np.empty((m, rows))


def _block(model: _Model, segs: list[FlowpipeSegment], heads: np.ndarray, k0: int,
           work: tuple) -> tuple[np.ndarray, np.ndarray | None, Exception | None]:
    """One block of the pipes segs, all of one mode: n = min(_BLOCK, length -
    k0) steps from step k0, n the same for every pipe, stepped all at once.

    heads stacks the pipes' block-head stars [c | V] as (W, dim, dim + 1).
    One stacked product with the rows P[:n] of ``model.powers``' table gives
    the W n sets, in (pipe, step) order, cut before the first non-finite
    one.  Their supports in the rows of ``model.directions`` are: for [I; -I],
    c + reach and reach - c, reach = |V| 1 summed by hand in the order of
    :func:`supports`; for the rest (guard rows, property rows off the box),
    one :func:`supports` call.  The opt-in intersample bloat widens them all.
    The boxes and property hits go into each pipe's rows from k0.

    Returns the next heads Φ^_BLOCK [c | V] of the pipes stepped whole, the
    :func:`_classes` guard codes of the sets kept (None in passive), and the
    :class:`InconclusiveError` at the step cut, or None.
    """
    mode = segs[0].mode
    (P, phi_block), (L, cols) = model.powers[mode], model.directions[mode]
    dim, W, rows = model.aut.dim, len(segs), len(L)
    n = min(_BLOCK, segs[0].n_steps - k0)
    sets, reach_tmp, supp = work
    m, error = W * n, None
    S = sets[:m]
    np.matmul(P[:n].reshape(-1, dim), heads, out=S.reshape(W, n * dim, dim + 1))
    if not np.isfinite(S).all():
        m = int(np.argmin(np.isfinite(S).all(axis=(1, 2))))
        where = "passive pipe" if mode == MODE_PASSIVE else f"mode {mode}"
        error = InconclusiveError(f"numerical overflow in {where} at step {k0 + m % n}")
        S = S[:m]
    c, vals = S[:, :, 0], supp[:m]
    reach, tmp = reach_tmp[:, :m]
    # reach = |V| 1, summed over the generators in order as supports sums
    # them; these strided columns coalesce into one loop each.
    np.abs(S[:, :, 1], out=reach)
    for g in range(2, dim + 1):
        reach += np.abs(S[:, :, g], out=tmp)
    np.add(c, reach, out=vals[:, :dim])
    np.subtract(reach, c, out=vals[:, dim:2 * dim])
    if rows > 2 * dim:
        vals[:, 2 * dim:] = supports(c, S[:, :, 1:], L[2 * dim:])
    if model.bloat:
        # w = h |A| (|c| + reach), with |c| + reach = max(hi, -lo) exactly,
        # widens each row l's support by |l| w; the heads stay unwidened.
        w = model.h * (np.maximum(vals[:, :dim], vals[:, dim:2 * dim])
                       @ np.abs(model.aut.flows[mode]).T)
        vals += w @ np.abs(L).T
    hits = model.checkers[mode].check(vals[:, cols])
    # 0 - x, not -x: a zero lower bound stays +0, as c - reach gives it.
    lo = np.subtract(0.0, vals[:, dim:2 * dim], out=reach)
    for seg, i in zip(segs, range(0, m, n)):
        j = k0 + min(n, m - i)
        seg.lo[k0:j], seg.hi[k0:j], seg.hits[k0:j] = lo[i:i + n], vals[i:i + n, :dim], hits[i:i + n]
    codes = None if mode == MODE_PASSIVE else _classes(
        vals[:, 2 * dim:2 * (dim + len(model.aut.guard_offsets))], model.aut.guard_offsets)
    return np.matmul(phi_block, heads[:m // n]), codes, error


def _advance(model: _Model, seg: FlowpipeSegment, box: Box):
    """Step the box's star through the flow of seg's prox mode, one
    :func:`_block` at a time, yielding ``(k0, codes)`` per block, codes being
    the guard codes of steps k0..k0+m-1.  A caller that stops at a step
    inside the block drops the later rows.  Resuming past a block cut before
    a non-finite set raises the :class:`InconclusiveError` at that step.
    """
    heads = np.column_stack([box.mid(), np.diag(box.halfwidth())])[None]
    work = _work(model, seg.mode, 1)
    for k0 in range(0, seg.n_steps, _BLOCK):
        heads, codes, error = _block(model, [seg], heads, k0, work)
        yield k0, codes
        if error is not None:
            raise error


def _rendezvous_pipes(model: _Model, start: tuple[str, Box],
                      t_end: float) -> list[FlowpipeSegment]:
    """Run every rendezvous-mode pipe from start, a (mode, box) pair at time 0
    as :func:`_initial` gives it, up to covered time t_end (the clock bound)."""
    h = model.h
    segments: list[FlowpipeSegment] = []
    worklist: list[tuple[str, Box, float, float]] = [(*start, 0.0, 0.0)]

    while worklist:
        if len(segments) >= _MAX_SEGMENTS:
            raise InconclusiveError("mode switching did not settle; too many pipe restarts")
        mode, box, t_lo0, t_hi0 = worklist.pop(0)
        other = MODE_PROX_B if mode == MODE_PROX_A else MODE_PROX_A
        own_code = int(mode == MODE_PROX_A)     # _classes: 0 inside, 1 outside

        n_steps = steps_within(t_end - t_lo0, h) + 1
        if n_steps <= 0:
            continue
        seg = _empty_segment(model, mode, n_steps, t_lo0, t_hi0)
        # First of the rows collected since the set left its own region; None
        # while it is in it.  A collection restarts in the other mode when the
        # set crosses, grazes (comes back) or meets the clock bound; one begun
        # at step 0 only when it crosses.  A pipe restarted from an aggregated
        # hull is born straddling the octagon because re-boxing the clipped
        # hull pokes past the diagonal edges: that straddle is aggregation
        # slack, its content is covered by this pipe's own boxes, and shedding
        # it back would bounce ghost sets between the modes forever.  So grazes
        # and clock bounds restart only when collect_k0 > 0.
        collect_k0: int | None = None
        k = n_steps - 1

        def restart(stop: int, k: int):
            """Restart the hull of rows collect_k0..stop-1 in the other mode,
            from the start times t_lo0 + collect_k0 h .. t_hi0 + k h."""
            start = _restart_box(model, other, seg.lo[collect_k0:stop], seg.hi[collect_k0:stop])
            if start is not None:
                worklist.append((other, start, t_lo0 + collect_k0 * h, t_hi0 + k * h))

        for k0, codes in _advance(model, seg, box):
            crossed = np.flatnonzero(codes == 1 - own_code)
            own = codes[:crossed[0] + 1 if crossed.size else None] == own_code
            # Only the steps where the set enters or leaves its own region.
            was_own = np.append(collect_k0 is None, own[:-1])
            for i in np.flatnonzero(own != was_own).tolist():
                if own[i] and collect_k0 > 0:
                    # Grazed the guard and retreated: restart what may have
                    # crossed, keep going in this mode.
                    restart(k0 + i, k0 + i)
                collect_k0 = None if own[i] else k0 + i
            if crossed.size:
                k = k0 + int(crossed[0])
                break

        seg.lo, seg.hi, seg.hits = seg.lo[:k + 1], seg.hi[:k + 1], seg.hits[:k + 1]
        segments.append(seg)
        if crossed.size or (collect_k0 or 0) > 0:
            # The set fully crossed, or the clock bound stops the pipe
            # mid-collection; both restart from the aggregated hull.
            restart(k + 1, k)
    return segments


def _timed(seg: FlowpipeSegment) -> tuple[FlowpipeSegment, np.ndarray, np.ndarray]:
    """seg with its steps' start and end times, both nondecreasing."""
    return seg, seg.times_lo(), seg.times_hi()


def _collect_window_boxes(timed, t1: float, t2: float) -> list[Box]:
    """Per pipe of timed, :func:`_timed` triples, the hull of its boxes whose
    time range meets [t1, t2].  As both time arrays are sorted, those boxes
    are the rows from the first that ends by t1 to the last that starts by t2."""
    boxes: list[Box] = []
    for seg, times_lo, times_hi in timed:
        rows = slice(np.searchsorted(times_hi, t1 - _TIME_EPS),
                     np.searchsorted(times_lo, t2 + _TIME_EPS, side="right"))
        if rows.start < rows.stop:
            boxes.append(Box(lo=seg.lo[rows].min(axis=0), hi=seg.hi[rows].max(axis=0)))
    return boxes


def _passive_segment(model: _Model, segments: list[FlowpipeSegment],
                     windows: list[tuple[float, float]], horizon: float) -> list[FlowpipeSegment]:
    """The passive pipe of each abort window (a, b), in window order, from a
    to the horizon with step-0 times a..b.

    Window i's pipe starts from the hull of every box whose time range meets
    the window: the boxes of segments and of the pipes of windows 0..i-1.
    An earlier pipe's boxes that a later window meets lie in its steps that
    start by the last window's end, so each pipe but the last steps alone,
    in window order, through the blocks that hold those steps.  Then every
    pipe steps its remaining blocks in lockstep with the others, one
    :func:`_block` call per block and block length.  The pipes and their
    rows are those of stepping one window at a time, bit for bit, and so is
    an error: the first window whose hull fails or whose pipe overflows
    raises, once every earlier pipe has run to its end.
    """
    t_end, W = windows[-1][1], len(windows)
    work = _work(model, MODE_PASSIVE, W)
    timed = [_timed(seg) for seg in segments]
    pipes: list[FlowpipeSegment] = []
    heads, done = [], []        # per pipe: its next block head, and the steps stepped
    failed: Exception | None = None
    for i, (a, b) in enumerate(windows):
        try:
            boxes = _collect_window_boxes(timed, a, b)
            if not boxes:
                raise ValueError(f"abort window [{a}, {b}] covers no reachable sample")
            box = _enter(model, MODE_PASSIVE, hull_boxes(boxes))
            seg = _empty_segment(model, MODE_PASSIVE, steps_within(horizon - a, model.h) + 1,
                                 a, b)
            head, k0 = np.column_stack([box.mid(), np.diag(box.halfwidth())])[None], 0
            if i < W - 1:
                # The rows that a later window's hull reads: those that start
                # by t_end.  Their times alone give every later window's rows.
                times_lo, times_hi = seg.times_lo(), seg.times_hi()
                need = np.searchsorted(times_lo, t_end + _TIME_EPS, side="right")
                timed.append((seg, times_lo[:need].copy(), times_hi[:need].copy()))
            else:
                need = 0
            while k0 < need:
                head, _, error = _block(model, [seg], head, k0, work)
                if error is not None:
                    raise error
                k0 += _BLOCK
        except (ValueError, InconclusiveError) as exc:
            failed = exc
            break
        pipes.append(seg)
        heads.append(head[0])
        done.append(k0)
    heads = np.array(heads)
    stop = len(pipes)           # pipes from stop on are dropped: an earlier one failed
    for k0 in range(0, max((seg.n_steps for seg in pipes), default=0), _BLOCK):
        live = [j for j in range(stop) if done[j] <= k0 < pipes[j].n_steps]
        # n_steps falls with the window's start, so each block length is a run.
        for _, run in groupby(live, key=lambda j: min(_BLOCK, pipes[j].n_steps - k0)):
            group = list(run)
            nxt, _, error = _block(model, [pipes[j] for j in group], heads[group], k0, work)
            heads[group[:len(nxt)]] = nxt
            if error is not None:
                # The later runs hold only later windows.
                stop, failed = group[len(nxt)], error
                break
    if failed is not None:
        raise failed
    return pipes


def _first_violations(segments: list[FlowpipeSegment]) -> list[Violation]:
    best: dict[str, Violation] = {}
    for seg in segments:
        for j in np.flatnonzero(seg.hits.any(axis=0)).tolist():
            name, k = seg.names[j], int(seg.hits[:, j].argmax())
            t = seg.t_lo0 + k * seg.h
            if name not in best or t < best[name].time_s:
                best[name] = Violation(
                    property=name, mode=seg.mode, time_s=t, step=k,
                    witness_lo=seg.lo[k].copy(), witness_hi=seg.hi[k].copy(),
                )
    return sorted(best.values(), key=lambda v: (v.time_s, v.property))


def _thrust_stats(model: _Model, segments: list[FlowpipeSegment]):
    if model.aut.dim != 6:
        return None, None
    peak = 0.0
    for seg in segments:
        if seg.mode == MODE_PASSIVE:
            continue
        peak = max(peak, float(np.abs(seg.lo[:, 4:]).max()), float(np.abs(seg.hi[:, 4:]).max()))
    return peak, model.settings["thrust_limit_n"] - peak


def _assemble(sc, model, segments, t0, verdict=None, reason=None) -> VerificationReport:
    violations = _first_violations(segments)
    if verdict is None:
        verdict = "unsafe" if violations else "safe"
    peak, margin = _thrust_stats(model, segments)
    return VerificationReport(
        verdict=verdict, scenario=sc, gains=model.aut.gains, segments=segments,
        violations=violations, reason=reason,
        max_thrust_n=peak, thrust_margin_n=margin,
        wall_time_s=time.perf_counter() - t0,
    )


def _require_reach_variant(sc: Scenario) -> None:
    if sc.variant == VARIANT_NONLINEAR:
        raise ValueError("the nonlinear variant is simulation-only; use falsify or simulate")


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
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ValueError(f"window ends must be finite, got [{t1}, {t2}]")
    if not (w > 0.0):
        raise ValueError("window width must be positive")
    if t1 > t2:
        raise ValueError("window start exceeds end")
    if t2 - t1 <= _TIME_EPS:
        return [(t1, t2)]
    if t1 + w <= t1:
        raise ValueError(f"window width {w} cannot advance past {t1}")
    # ceil((t2 - t1) / w) windows, compared without the ceil, which overflows.
    if (t2 - t1) / w > _MAX_WINDOWS:
        raise ValueError(f"window width {w} needs over {_MAX_WINDOWS} windows for [{t1}, {t2}]")
    out = []
    a = t1
    while a < t2 - _TIME_EPS:
        b = min(a + w, t2)
        if b <= a:
            raise ValueError(f"window width {w} cannot advance past {a}")
        out.append((a, b))
        a = b
    return out


def verify_windowed(sc: Scenario, w: float) -> VerificationReport:
    """Verify with the abort window split into subwindows of width at most w.

    The rendezvous pipes are shared across subwindows; each subwindow gets its
    own passive pipe, started from the hull of every box whose time range meets
    the subwindow.  Those boxes come from the rendezvous pipes and from the
    passive pipes of the earlier subwindows.  One :func:`_passive_segment`
    call builds every subwindow's pipe, stepping them in lockstep through
    the one block kernel :func:`_block`.  The verdict is the conjunction, so
    a single subwindow reproduces :func:`verify` exactly.
    """
    t0 = time.perf_counter()
    _require_reach_variant(sc)
    windows = partition_window(sc.t1, sc.t2, float(w))
    model = _model_of(sc)
    try:
        segments = _rendezvous_pipes(model, _initial(model, sc.init), t_end=sc.t2)
        segments += _passive_segment(model, segments, windows, sc.horizon)
    except InconclusiveError as exc:
        return _assemble(sc, model, [], t0, verdict="inconclusive", reason=str(exc))
    return _assemble(sc, model, segments, t0)


# ---------------------------------------------------------------------------
# simulation, falsification, containment


def sample_initial_points(box: Box, count: int) -> np.ndarray:
    """Deterministic initial states: distinct box corners, then Halton points.

    The Halton points start at the sequence's second point, as its first is
    the cube's origin, i.e. the box's ``lo`` corner.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    corners = list(dict.fromkeys(product(*zip(box.lo, box.hi))))
    pts = [np.array(c) for c in corners[:count]]
    if len(pts) < count:
        # Imported here: scipy.stats more than doubles the package's import time.
        from scipy.stats import qmc
        sampler = qmc.Halton(d=box.dim, scramble=False)
        sampler.fast_forward(1)
        extra = sampler.random(count - len(pts))
        pts.extend(box.lo + extra * (box.hi - box.lo))
    return np.array(pts)


def sample_runs(sc: Scenario, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Initial 4-states and abort steps of count sampled runs: the initial box's
    corners and then Halton points, and abort steps drawn uniformly from the
    samples inside [t1, t2] with the scenario's seed."""
    k1 = int(math.ceil(sc.t1 / sc.h - _TIME_EPS))
    k2 = steps_within(sc.t2, sc.h)
    if k1 > k2:
        raise ValueError(f"abort window [{sc.t1}, {sc.t2}] holds no sample of step {sc.h}")
    points = sample_initial_points(Box(lo=sc.init.lo[:4], hi=sc.init.hi[:4]), count)
    rng = np.random.default_rng(sc.seed)
    return points, rng.integers(k1, k2 + 1, size=count)


def _mode_index(model: _Model, k, X, abort):
    """The switching rule at step k, as an index into ``_MODES``.

    The mode is passive from the abort step on; before that it is prox_b when
    the position meets every guard half-space and prox_a otherwise.  As the
    guard is urgent both ways, the rule needs no memory of the previous mode.
    k, X and abort are one step, state (dim,) and abort step, or arrays that
    broadcast over a batch, X being (dim, N).
    """
    inside = ((model.guard2 @ X[:2]).T <= model.aut.guard_offsets).all(axis=-1)
    return np.where(k >= abort, 2, inside)


def _reset(model: _Model, mode: int, x):
    """The state x (4 or dim entries) on entering ``_MODES[mode]``: the 6-dim
    variants' thrust entries become the commanded thrust, zero in passive and
    -m_c K x otherwise."""
    if model.aut.dim == 4:
        return x
    u = np.zeros(2) if mode == 2 else -model.params.m_c * (model.aut.gains[mode].K @ x[:4])
    return np.concatenate([x[:4], u])


def simulate_scenario(sc: Scenario, x0_4: np.ndarray, passive_step: int | None) -> Trajectory:
    """One closed-loop run of the scenario's variant from a concrete state."""
    return _simulate_with_ctx(sc, _model_of(sc), x0_4, passive_step)


def _simulate_with_ctx(sc: Scenario, model: _Model, x0_4: np.ndarray,
                       passive_step: int | None) -> Trajectory:
    """The run of sc, whose model is ``_model_of(sc)``, from x0_4 under the
    switching rule, aborting at passive_step (None: never), sampled at every
    step up to the horizon.

    The run advances its mode by blocks of n < ``_BLOCK`` steps: a linear
    flow as one product of the rows P[1..n] of ``model.powers``' table with the
    state, nlin_prox by RK4 under the mode's force gain from
    ``model.force_gains``.  The switching rule is applied to the whole block,
    which is cut at its first mode change; the state there is reset and
    stepping goes on in the new mode.  A rendezvous block stops at the abort
    step, and passive is absorbing.
    """
    abort = math.inf if passive_step is None else passive_step
    n_steps = steps_within(sc.horizon, sc.h)
    mode = int(_mode_index(model, 0, x0_4, abort))
    states = np.empty((n_steps + 1, model.aut.dim))
    states[0] = _reset(model, mode, np.asarray(x0_4, dtype=float))
    switches = [(0, mode)]          # (step, mode entered there)
    nonlinear = sc.variant == VARIANT_NONLINEAR
    k = 0
    while k < n_steps:
        n = min(_BLOCK - 1, n_steps - k, math.inf if mode == 2 else abort - k)
        if nonlinear:
            block = simulate_nonlinear(sc.params, model.force_gains[mode], states[k], sc.h,
                                       n).states[1:]
        else:
            P = model.powers[_MODES[mode]][0]
            block = (P[1:n + 1].reshape(-1, len(P[0])) @ states[k]).reshape(n, -1)
        new = mode
        if mode != 2:
            idx = _mode_index(model, np.arange(k + 1, k + n + 1), block.T, abort)
            changed = np.flatnonzero(idx != mode)
            if changed.size:
                n = int(changed[0]) + 1
                new = int(idx[n - 1])
        states[k + 1:k + n + 1] = block[:n]
        k += n
        if new != mode:
            mode = new
            states[k] = _reset(model, mode, states[k])
            switches.append((k, mode))
    stops = [k for k, _ in switches[1:]] + [n_steps + 1]
    modes = sum(((_MODES[m],) * (stop - k) for (k, m), stop in zip(switches, stops)), ())
    return Trajectory(times=sc.h * np.arange(n_steps + 1), states=states, modes=modes)


def _mode_runs(traj: Trajectory):
    """(mode, first step, end step) of each run of equal modes, in time order."""
    start = 0
    for mode, run in groupby(traj.modes):
        stop = start + len(list(run))
        yield mode, start, stop
        start = stop


def _pointwise_violation(model: _Model, traj: Trajectory) -> tuple[str, int] | None:
    """Earliest (property, step) at which the run meets an unsafe set of its mode."""
    for mode, start, stop in _mode_runs(traj):
        checker = model.checkers[mode]
        states = traj.states[start:stop]
        hits = np.argwhere(checker.check(supports(states, None, checker.normals)))
        if len(hits):
            return checker.names[hits[0, 1]], start + int(hits[0, 0])
    return None


def falsify(sc: Scenario, samples: int) -> Trajectory | None:
    """Search for a concrete counterexample trajectory by guided sampling.

    Initial states are the box corners followed by low-discrepancy interior
    points; abort times are drawn uniformly from the window's step grid.
    Returns the first violating trajectory, with its (property, step) attached
    as ``violation``, or None.
    """
    model = _model_of(sc)
    for x0, abort in zip(*sample_runs(sc, samples)):
        traj = _simulate_with_ctx(sc, model, x0, int(abort))
        hit = _pointwise_violation(model, traj)
        if hit is not None:
            return replace(traj, violation=hit)
    return None


def monte_carlo_containment(report: VerificationReport, n_samples: int) -> dict:
    """Check sampled closed-loop trajectories of the report's scenario against
    its reach boxes.

    The samples are the runs of :func:`falsify`, each with its own abort step.
    A run that entered mode m at step e must at step k lie in box k - e of
    some mode-m pipe whose step-0 time range [t_lo0, t_hi0] holds e h; a step
    with no such box counts as an escape.  This accepts any pipe structure:
    restarts, grazes and windowed passive pipes.  Returns counts and the worst
    excess.
    """
    sc = report.scenario
    runs = sample_runs(sc, n_samples)
    if report.verdict == "inconclusive":
        raise ValueError("cannot check containment of an inconclusive run")
    model = _model_of(sc)
    # Each pipe's boxes with their slack: (pipe, lo - slack, hi, slack).
    pipes = []
    for seg in report.segments:
        slack = 1e-9 * np.maximum(1.0, np.maximum(np.abs(seg.lo), np.abs(seg.hi)))
        pipes.append((seg, seg.lo - slack, seg.hi, slack))
    violations = 0
    max_excess = 0.0
    for x0, abort in zip(*runs):
        traj = _simulate_with_ctx(sc, model, x0, int(abort))
        for mode, entry, stop in _mode_runs(traj):
            best = np.full(stop - entry, np.inf)
            for seg, lo, hi, slack in pipes:
                if seg.mode == mode and (seg.t_lo0 - _TIME_EPS <= entry * sc.h
                                         <= seg.t_hi0 + _TIME_EPS):
                    m = min(stop - entry, seg.n_steps)
                    x = traj.states[entry:entry + m]
                    excess = np.maximum(lo[:m] - x, x - hi[:m] - slack[:m]).max(axis=1)
                    best[:m] = np.minimum(best[:m], excess)
            violations += int(np.sum(best > 0.0))
            max_excess = float(np.max(best, initial=max_excess, where=np.isfinite(best)))
    return {"samples": int(n_samples), "checked_steps": steps_within(sc.horizon, sc.h) + 1,
            "violations": violations, "max_excess": max_excess}


# ---------------------------------------------------------------------------
# robustness sweep


def _sweep_one(args) -> tuple[float, float, float]:
    sc, angle_deg, radius, t_grid = args
    th = math.radians(angle_deg)
    hw = sc.init.halfwidth()[:4]
    center = np.array([radius * math.cos(th), radius * math.sin(th), 0.0, 0.0])
    sc_a = replace(sc, init=Box(lo=center - hw, hi=center + hw),
                   t1=0.0, t2=float(sc.horizon))
    model = _model_of(sc_a)
    try:
        segments = _rendezvous_pipes(model, _initial(model, sc_a.init), t_end=sc_a.horizon)
    except InconclusiveError:
        return (angle_deg, radius, -1.0)
    first_flag = min((v.time_s for v in _first_violations(segments)), default=None)

    window_safe: dict[tuple[float, float], bool] = {}

    def is_window_safe(a: float, b: float) -> bool:
        key = (a, b)
        if key not in window_safe:
            try:
                pseg, = _passive_segment(model, segments, [(a, b)], sc_a.horizon)
                window_safe[key] = not pseg.hits.any()
            except InconclusiveError:
                window_safe[key] = False
        return window_safe[key]

    best = -1.0
    for T in t_grid:
        if T > sc.horizon + _TIME_EPS:
            break
        if first_flag is not None and first_flag <= T + _TIME_EPS:
            break
        windows = partition_window(0.0, float(T), sc.window_width)
        ok = all(is_window_safe(a, b) for (a, b) in windows)
        if not ok:
            break
        best = float(T)
    return (angle_deg, radius, best)


def sweep_passive_time(sc: Scenario, angles_deg, radius: float, t_grid=None,
                       jobs: int = 1) -> list[tuple[float, float, float]]:
    """Largest safe abort deadline per initial bearing.

    For each angle the initial box is re-centered at radius * (cos, sin) with
    the base half-widths and zero velocity, and the largest T in the grid with
    ``verify_windowed`` safe on the abort window [0, T], split at the
    scenario's window width, is recorded; -1 means no tested T was safe.
    Rows come back in the input angle order.  With jobs > 1 the angles run
    in a pool of at most one worker per angle.  The default grid is every
    multiple of 600 s up to the horizon, refused past ``_MAX_SWEEP_TIMES``
    entries.  The grid's length, the width on [0, T] for the largest grid T
    within the horizon, and the variant for reach are checked before any
    angle runs.
    """
    _require_reach_variant(sc)
    angles = [float(a) for a in angles_deg]
    for a in angles:
        if not (0.0 <= a < 360.0):
            raise ValueError(f"angles must lie in [0, 360), got {a}")
    if not (radius > 0.0):
        raise ValueError("sweep radius must be positive")
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    if t_grid is None:
        if sc.horizon / _SWEEP_T_STEP > _MAX_SWEEP_TIMES:
            raise ValueError(f"horizon {sc.horizon} s needs over {_MAX_SWEEP_TIMES} deadlines "
                             f"on the sweep's {_SWEEP_T_STEP:g} s grid")
        t_grid = np.arange(_SWEEP_T_STEP, sc.horizon + _TIME_EPS, _SWEEP_T_STEP)
    t_grid = sorted(float(t) for t in t_grid)
    reachable = [T for T in t_grid if T <= sc.horizon + _TIME_EPS]
    if reachable:
        partition_window(0.0, reachable[-1], sc.window_width)
    tasks = [(sc, a, float(radius), t_grid) for a in angles]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_one, tasks))
    return [_sweep_one(t) for t in tasks]
