"""End-to-end reachability verification of the rendezvous mission.

The reach computation is discrete-time at the sample instants: within a mode
every pipe starts from a box c +/- w, and its set at step k is the exact
image Φ^k c + Φ^k diag(w) [-1, 1]^n, Φ the one-step matrix exponential.  A
block of steps reads one table of the rows of Φ^k that every pipe stepped
in that block shares (:func:`_block`).  Over-approximation enters only
where sets are aggregated: when the urgent guard is crossed, the boxes
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
from .orbital import FieldError, OrbitalParams
from .starset import Box, clip_box_to_halfspaces, supports

DEFAULT_INIT_CENTER = (-900.0, -400.0, 0.0, 0.0)
DEFAULT_INIT_HALFWIDTH = (25.0, 25.0, 0.0, 0.0)
DEFAULT_T1_S = 7200.0
DEFAULT_T2_S = 7500.0
DEFAULT_HORIZON_S = 16200.0
DEFAULT_STEP_S = 1.0
DEFAULT_WINDOW_WIDTH_S = 300.0

_MAX_SEGMENTS = 64
_MAX_WINDOWS = 1_000_000
_MAX_STEPS = 1_000_000          # steps horizon / h, compared without the floor
_SWEEP_T_STEP = 600.0           # spacing of the default sweep deadline grid
_MAX_SWEEP_TIMES = 1_000_000    # default grid entries, counted before it is built
_MAX_SAMPLES = 1_000_000        # sampled runs, counted before their arrays are built

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
    """Full configuration of one verification run.  A value that breaks a rule,
    its own or property_settings' or bryson_maxima's, is a FieldError naming it.

    The filled-in values those two rules give are kept, as ``settings`` (the
    property_settings dict) and ``maxima`` (bryson_maxima's three vectors),
    outside ``__init__``, ``==`` and ``repr``: ``dataclasses.replace``
    derives them afresh, and :func:`_model_of` keys its model by them."""

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
    settings: dict = field(init=False, compare=False, repr=False)
    maxima: tuple[tuple[float, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise FieldError("variant", f"unknown variant {self.variant!r};"
                                        f" expected one of {list(VARIANTS)}")
        for name in ("t1", "t2", "horizon", "h"):
            if not math.isfinite(getattr(self, name)):
                raise FieldError(name, f"times must be finite, got {name}={getattr(self, name)}")
        for name, ok, rule in (
            ("t1", 0.0 <= self.t1 <= self.t2, f"need 0 <= t1 <= t2 = {self.t2}"),
            ("t2", self.t2 <= self.horizon, f"abort window must end by the horizon {self.horizon}"),
            ("h", self.h > 0.0, "step size must be positive"),
            ("window_width", self.window_width > 0.0, "window width must be positive"),
            ("seed", self.seed >= 0, "seed must be nonnegative"),
        ):
            if not ok:
                raise FieldError(name, f"{rule}, got {name}={getattr(self, name)}")
        if self.horizon / self.h > _MAX_STEPS:
            raise FieldError("h", f"horizon / h = {self.horizon / self.h:g} steps exceed the"
                                  f" limit of {_MAX_STEPS}")
        dims = sorted({4, VARIANT_DIMS[self.variant]})
        if self.init.dim not in dims:
            raise FieldError("init", f"initial box dim {self.init.dim} incompatible with variant"
                                     f" {self.variant}, which takes {' or '.join(map(str, dims))}")
        for name, kept, rules in (("property_overrides", "settings", property_settings),
                                  ("bryson", "maxima", bryson_maxima)):
            try:
                object.__setattr__(self, kept, rules(getattr(self, name)))
            except FieldError as exc:
                raise FieldError(f"{name}/{exc.field}", str(exc)) from exc


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
    and per property in ``rows`` its row indices, padded with its last row.
    A support meets a row when >= its floor: b, or nextafter(b, inf) (NaN for
    b = inf) on a strict row (> b)."""

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
        above = np.where(self.offsets == np.inf, np.nan, np.nextafter(self.offsets, np.inf))
        self.floors = np.where(self.strict, above, self.offsets)[:, None]

    def check(self, vals) -> np.ndarray:
        """The (..., m, len(names)) hits of m sets from their (..., m, rows) supports vals."""
        met = np.swapaxes(vals, -1, -2) >= self.floors
        return np.swapaxes(np.logical_and.reduce(met[..., self.rows, :], axis=-2), -1, -2)


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


def _direction_table(aut: HybridAutomaton, checker: _ModeChecker, mode: str,
                     P: np.ndarray) -> np.ndarray:
    """The table :func:`_block` builds mode's blocks from, as columns: the rows
    of Φ^i = P[i], i < _BLOCK, in (i, row) order, then those of X Φ^i in
    (row, i) order, X the rows a block needs besides the box's: mode's
    checker rows, then the guard normals (prox modes only)."""
    G = aut.guard_normals[:0 if mode == MODE_PASSIVE else None]
    X = np.vstack([checker.normals, G])
    return np.hstack([P.reshape(-1, aut.dim).T, (X @ P).swapaxes(0, 1).reshape(-1, aut.dim).T])


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
    and Φ per mode, and derived from them the guard normals' position
    columns G₂ and the rows [G₂; -G₂] that classify a box, per mode the
    power table (P, Φ^_BLOCK), the block table of :func:`_direction_table`
    and the checker, and per mode index the nonlinear engine's force gain
    m_c K (None in passive).

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
    guard_rows: np.ndarray = field(init=False)
    checkers: Mapping[str, _ModeChecker] = field(init=False)
    powers: Mapping[str, tuple[np.ndarray, np.ndarray]] = field(init=False)
    directions: Mapping[str, np.ndarray] = field(init=False)
    force_gains: tuple[np.ndarray | None, ...] = field(init=False)

    def __post_init__(self):
        aut = replace(self.aut, flows=MappingProxyType(dict(self.aut.flows)))
        checkers = {m: _ModeChecker(aut.properties, m, aut.dim) for m in _MODES}
        powers = {m: _power_table(phi) for m, phi in self.phis.items()}
        tables = dict(
            aut=aut,
            settings=MappingProxyType(dict(self.settings)),
            phis=MappingProxyType(dict(self.phis)),
            bloat=self.settings["intersample_bloat"],
            guard2=aut.guard_normals[:, :2],
            guard_rows=np.vstack([aut.guard_normals[:, :2], -aut.guard_normals[:, :2]]),
            checkers=MappingProxyType(checkers),
            powers=MappingProxyType(powers),
            directions=MappingProxyType(
                {m: _direction_table(aut, checkers[m], m, powers[m][0]) for m in _MODES}),
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
    three Bryson vectors, the filled-in property settings), all hashable:
    the values sc kept when it checked them, so no rule runs again."""
    return _model(sc.params, sc.variant, float(sc.h), sc.maxima, tuple(sc.settings.items()))


def _initial(model: _Model, box: Box) -> tuple[str, Box]:
    """The mode whose region holds the box's position part, and the box in
    that mode's state space; a box straddling the guard is an error."""
    cls = _classify(box.mid()[:2], np.diag(box.halfwidth()[:2]), model.guard_rows,
                    model.aut.guard_offsets)
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
    """Class code of each of m sets against the polytope G x <= offsets, from
    vals = [rho(G), -rho(-G)], each (..., g, m): 0 inside it (every rho(g)
    <= b), 1 outside it (some -rho(-g) > b), 2 straddling it."""
    above = np.logical_or.reduce(vals > offsets[:, None], axis=-2)
    return np.where(above[0], 2 - above[1], 0)


def _classify(c, V, rows, offsets) -> str:
    """Class of the one set c + V [-1, 1]^n, as in :func:`_classes`, rows
    being [G; -G]."""
    vals = supports(c[None], V[None], rows).reshape(2, -1, 1)
    vals[1] *= -1.0
    return ("inside", "outside", "straddle")[_classes(vals, offsets)[0]]


def _restart_box(model: _Model, dest: str, lo, hi) -> Box | None:
    """The hull of the boxes lo[i]..hi[i] as a start box of mode dest, clipped
    to the guard octagon (prox_b's invariant) when dest is prox_b."""
    hull = Box(lo=lo.min(axis=0), hi=hi.max(axis=0))
    if dest == MODE_PROX_B:
        hull = clip_box_to_halfspaces(hull, model.aut.guard_normals, model.aut.guard_offsets)
    # The commanded thrust re-derives from the destination gain at the switch.
    return None if hull is None else _enter(model, dest, hull)


def _pipe_rows(model: _Model, mode: str, *shape: int) -> tuple[np.ndarray, ...]:
    """Row storage lo, hi and hits of pipes of mode, of shape (..., steps, .)."""
    dim, props = model.aut.dim, len(model.checkers[mode].names)
    return (np.empty((*shape, dim)), np.empty((*shape, dim)),
            np.zeros((*shape, props), dtype=bool))


def _empty_segment(model: _Model, mode: str, n_steps: int, t_lo0: float, t_hi0: float,
                   rows: tuple[np.ndarray, ...] | None = None) -> FlowpipeSegment:
    """A pipe of n_steps steps whose rows view rows, fresh when None."""
    lo, hi, hits = (a[:n_steps] for a in rows or _pipe_rows(model, mode, n_steps))
    return FlowpipeSegment(mode=mode, lo=lo, hi=hi, t_lo0=t_lo0, t_hi0=t_hi0, h=model.h,
                           names=model.checkers[mode].names, hits=hits)


def _start(box: Box) -> np.ndarray:
    """The start S = [[c, -w], [c, w]] of a pipe from the box c +/- w."""
    c, w, S = box.mid(), box.halfwidth(), np.empty((2, 2 * box.dim))
    S[:, :box.dim], S[0, box.dim:], S[1, box.dim:] = c, -w, w
    return S


def _work(model: _Model, mode: str, W: int) -> tuple[np.ndarray, ...]:
    """Scratch arrays for :func:`_block` on up to W pipes of mode, for a
    caller to allocate once: fresh arrays per block cost many page faults."""
    dim, cols = model.aut.dim, model.directions[mode].shape[1]
    return np.empty((2 * dim, cols)), np.empty((W, 2, cols))


def _block(model: _Model, mode: str, basis: np.ndarray, k0: int, ends: list[int],
           pipes: tuple[np.ndarray, ...], work: tuple) -> tuple[int, np.ndarray | None,
                                                                Exception | None]:
    """Steps k0 .. k0 + n - 1 of the W pipes of mode in pipes, all at once,
    from the shared basis Φ^k0, where n = min(_BLOCK, ends[0] - k0) and
    ends, nonincreasing, holds each pipe's number of steps.

    pipes holds, pipe first, the starts S of :func:`_start`, (W, 2, 2 dim),
    and the row storage lo, hi and hits of :func:`_pipe_rows`, with room for
    rows k0 .. k0 + n - 1 of every pipe.  A pipe from the box c +/- w is at
    step k the set Φ^k c + Φ^k diag(w) [-1, 1]^dim, whose support in a row
    l is l Φ^k c + |l Φ^k| w.  So the block builds
    from ``model.directions``' table one table T of the rows Φ^(k0 + i) and
    X Φ^(k0 + i), i < _BLOCK, that every pipe shares, and per pipe one
    product S [T; |T|] of one shape whatever W or n is, so that a pipe's bits
    do not depend on the pipes stepped with it: lo and hi of its boxes, which
    go into the row storage from row k0, then -rho(-X) and rho(X), which
    give the hits and, on the guard rows G, the guard codes.  The opt-in
    intersample bloat widens them all.  A mode with no checker rows (prox_a
    in lin_prox) takes no check: its hits stay the zeros of :func:`_pipe_rows`.

    Returns the number of sets kept, W n but for a cut before the first
    non-finite one in (pipe, step) order, the :func:`_classes` guard codes
    of the sets kept (None in passive), and the :class:`InconclusiveError`
    at the step cut, or None.  A pipe's rows past its end count as finite;
    they and the rows past the cut hold no meaning.
    """
    table, (starts, lo, hi, hits) = model.directions[mode], pipes
    W, dim, checker = len(starts), model.aut.dim, model.checkers[mode]
    n = min(_BLOCK, ends[0] - k0)
    nb, m, error = _BLOCK * dim, W * n, None     # nb: the box's columns of the table
    x, xc = table.shape[1] // _BLOCK - dim, len(checker.offsets)  # X: xc checker rows, then G
    TT, sup = work[0], work[1][:W]
    np.matmul(basis.T, table, out=TT[:dim])
    np.abs(TT[:dim], out=TT[dim:])
    np.matmul(starts, TT, out=sup)
    box = sup[:, :, :n * dim].reshape(W, 2, n, dim)
    # -rho(-X) and rho(X), a row of X at a time: (2, W, x, n).
    sx = sup[:, :, nb:].reshape(W, 2, x, _BLOCK)[..., :n].swapaxes(0, 1)
    if model.bloat:
        # w = h |A| (|c| + reach), with |c| + reach = max(hi, -lo), widens
        # each row l's support by |l| w.
        w = model.h * (np.maximum(box[:, 1], -box[:, 0]) @ np.abs(model.aut.flows[mode]).T)
        box += np.stack([-w, w], axis=1)
        bw = np.abs(table[:, nb::_BLOCK]).T @ w.transpose(0, 2, 1)
        sx += [-bw, bw]
    # Columns past step n - 1 are no set's: only a set's own supports cut it.
    if not np.isfinite(sup).all():
        finite = ((np.isfinite(box).all(axis=(1, 3)) & np.isfinite(sx).all(axis=(0, 2)))
                  | (k0 + np.arange(n) >= np.array(ends)[:, None]))
        if not finite.all():
            m = int(np.argmin(finite))
            where = "passive pipe" if mode == MODE_PASSIVE else f"mode {mode}"
            error = InconclusiveError(f"numerical overflow in {where} at step {k0 + m % n}")
    lo[:, k0:k0 + n], hi[:, k0:k0 + n] = box[:, 0], box[:, 1]
    if xc:
        hits[:, k0:k0 + n] = checker.check(sx[1, :, :xc].swapaxes(1, 2))
    codes = _classes(sx[::-1, :, xc:], model.aut.guard_offsets).ravel()[:m] if x > xc else None
    return m, codes, error


def _advance(model: _Model, seg: FlowpipeSegment, box: Box):
    """Step the box through seg's prox mode one :func:`_block` at a time,
    yielding ``(k0, codes)``, the guard codes of steps k0 on (a caller stopping
    inside a block drops its later rows); resuming past a cut block raises its error."""
    pipes = (_start(box)[None], seg.lo[None], seg.hi[None], seg.hits[None])
    work, basis = _work(model, seg.mode, 1), np.eye(model.aut.dim)
    for k0 in range(0, seg.n_steps, _BLOCK):
        _, codes, error = _block(model, seg.mode, basis, k0, [seg.n_steps], pipes, work)
        yield k0, codes
        if error is not None:
            raise error
        basis = model.powers[seg.mode][1] @ basis


def _rendezvous_pipes(model: _Model, start: tuple[str, Box],
                      t_end: float) -> list[FlowpipeSegment]:
    """Run every rendezvous-mode pipe from start, a (mode, box) pair at time 0
    as :func:`_initial` gives it, up to covered time t_end (the clock bound).

    A pipe's guard codes are scanned block by block for the steps where the
    set enters or leaves its own region.  A block whose codes all read its
    own region while no collection is open changes nothing, and is skipped
    unscanned."""
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
        k, crossed = n_steps - 1, False

        def restart(stop: int, k: int):
            """Restart the hull of rows collect_k0..stop-1 in the other mode,
            from the start times t_lo0 + collect_k0 h .. t_hi0 + k h."""
            start = _restart_box(model, other, seg.lo[collect_k0:stop], seg.hi[collect_k0:stop])
            if start is not None:
                worklist.append((other, start, t_lo0 + collect_k0 * h, t_hi0 + k * h))

        for k0, codes in _advance(model, seg, box):
            if collect_k0 is None and (codes == own_code).all():
                continue        # a quiet block: the set stays in its own region
            across = np.flatnonzero(codes == 1 - own_code)
            own = codes[:across[0] + 1 if across.size else None] == own_code
            # Only the steps where the set enters or leaves its own region.
            was_own = np.append(collect_k0 is None, own[:-1])
            for i in np.flatnonzero(own != was_own).tolist():
                if own[i] and collect_k0 > 0:
                    # Grazed the guard and retreated: restart what may have
                    # crossed, keep going in this mode.
                    restart(k0 + i, k0 + i)
                collect_k0 = None if own[i] else k0 + i
            if across.size:
                k, crossed = k0 + int(across[0]), True
                break

        seg.lo, seg.hi, seg.hits = seg.lo[:k + 1], seg.hi[:k + 1], seg.hits[:k + 1]
        segments.append(seg)
        if crossed or (collect_k0 or 0) > 0:
            # The set fully crossed, or the clock bound stops the pipe
            # mid-collection; both restart from the aggregated hull.
            restart(k + 1, k)
    return segments


def _count_below(t0: float, h: float, n: int, t: float) -> int:
    """How many of the n step times t0 + h k, k < n, lie below t: the place
    ``np.searchsorted(t0 + h * np.arange(n), t)`` gives t, found without
    building the times."""
    k = min(max(math.ceil((t - t0) / h), 0), n)
    while k > 0 and t0 + h * (k - 1) >= t:
        k -= 1
    while k < n and t0 + h * k < t:
        k += 1
    return k


def _collect_window_boxes(segments: list[FlowpipeSegment], t1: float, t2: float) -> Box | None:
    """The hull of every box of segments whose time range meets [t1, t2], or
    None if there is none: per pipe, the rows from the first that ends by t1
    to the last that starts by t2, as both step times rise with the step."""
    los, his = [], []
    last = math.nextafter(t2 + _TIME_EPS, math.inf)     # below it: at or before t2 + eps
    for seg in segments:
        rows = slice(_count_below(seg.t_hi0, seg.h, seg.n_steps, t1 - _TIME_EPS),
                     _count_below(seg.t_lo0, seg.h, seg.n_steps, last))
        if rows.start < rows.stop:
            los.append(seg.lo[rows].min(axis=0))
            his.append(seg.hi[rows].max(axis=0))
    return Box(lo=np.min(los, axis=0), hi=np.max(his, axis=0)) if los else None


def _passive_segment(model: _Model, segments: list[FlowpipeSegment],
                     windows: list[tuple[float, float]], horizon: float) -> list[FlowpipeSegment]:
    """The passive pipe of each abort window (a, b), in window order, from a
    to the horizon with step-0 times a..b.

    Window i's pipe starts from the hull of every box whose time range meets
    the window: the boxes of segments and of the pipes of windows 0..i-1.
    Those of an earlier pipe lie in its rows that start by the last window's
    end t_end, and window 0's pipe has the most such rows.  So the schedule
    is fixed: each window's pipe in turn steps alone through the blocks that
    hold window 0's count of those rows, then every pipe still running steps
    the later blocks together, one :func:`_block` call on the one basis
    Φ^k0 per block, writing one row storage that the pipes' rows view.
    The pipes and their rows are those of stepping one window at a time, bit
    for bit, and so is an error: the first window whose hull fails or whose
    pipe overflows raises, once every earlier pipe has run to its end.
    """
    t_end, W, dim, h = windows[-1][1], len(windows), model.aut.dim, model.h
    ends = [steps_within(horizon - a, h) + 1 for a, _ in windows]    # nonincreasing
    pipes = (np.empty((W, 2, 2 * dim)), *_pipe_rows(model, MODE_PASSIVE, W, ends[0]))
    work, bases = _work(model, MODE_PASSIVE, W), [np.eye(dim)]
    while len(bases) * _BLOCK < ends[0]:
        bases.append(model.powers[MODE_PASSIVE][1] @ bases[-1])   # Φ^k0, block k0
    # Window 0's rows that start by t_end: each pipe steps their blocks alone.
    alone = _count_below(windows[0][0], h, ends[0], math.nextafter(t_end + _TIME_EPS, math.inf))
    out: list[FlowpipeSegment] = []
    failed: Exception | None = None
    for i, (a, b) in enumerate(windows):
        try:
            hull = _collect_window_boxes(segments + out, a, b)
            if hull is None:
                raise ValueError(f"abort window [{a}, {b}] covers no reachable sample")
            pipes[0][i] = _start(_enter(model, MODE_PASSIVE, hull))
            for k0 in range(0, min(alone, ends[i]), _BLOCK):
                _, _, error = _block(model, MODE_PASSIVE, bases[k0 // _BLOCK], k0, ends[i:i + 1],
                                     [p[i:i + 1] for p in pipes], work)
                if error is not None:
                    raise error
        except (ValueError, InconclusiveError) as exc:
            failed = exc
            break
        out.append(_empty_segment(model, MODE_PASSIVE, ends[i], a, b, [r[i] for r in pipes[1:]]))
    live = len(out)             # the pipes still running, a prefix as ends falls
    for k0 in range(-(-alone // _BLOCK) * _BLOCK, ends[0], _BLOCK):
        live = sum(end > k0 for end in ends[:live])
        if not live:
            break
        m, _, error = _block(model, MODE_PASSIVE, bases[k0 // _BLOCK], k0, ends[:live],
                             tuple(p[:live] for p in pipes), work)
        if error is not None:
            # Pipes from the one that overflowed on are dropped.
            live, failed = m // min(_BLOCK, ends[0] - k0), error
    if failed is not None:
        raise failed
    return out


def _first_violations(segments: list[FlowpipeSegment]) -> list[Violation]:
    """Each property's earliest hit over segments, in time order: per pipe,
    its first row meeting each of its properties, from one argmax."""
    best: dict[str, Violation] = {}
    for seg in segments:
        for j, k in enumerate(seg.hits.argmax(axis=0).tolist()):
            if not seg.hits[k, j]:
                continue
            name, t = seg.names[j], seg.t_lo0 + k * seg.h
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
    call builds every subwindow's pipe through the one block kernel
    :func:`_block`: each alone over the rows a later hull reads, then all
    together, one call per block.  The verdict is the conjunction, so a
    single subwindow reproduces :func:`verify` exactly.
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
    the cube's origin, i.e. the box's ``lo`` corner.  A count over
    ``_MAX_SAMPLES`` is refused before any array is built.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    if count > _MAX_SAMPLES:
        raise ValueError(f"{count} samples exceed the limit of {_MAX_SAMPLES}")
    corners = list(dict.fromkeys(product(*zip(box.lo, box.hi))))
    pts = [np.array(c) for c in corners[:count]]
    if len(pts) < count:
        pts.extend(box.lo + _halton(box.dim, count - len(pts)) * (box.hi - box.lo))
    return np.array(pts)


def _halton(d: int, count: int) -> np.ndarray:
    """Points 1 .. count of the unscrambled Halton sequence in d dimensions,
    point 0 being the origin: in dimension j the radical inverse of the index
    in the j-th prime, its digits added from the lowest as scipy's
    ``qmc.Halton(d, scramble=False)`` adds them, so the points are its bit for
    bit."""
    bases: list[int] = []
    p = 2
    while len(bases) < d:
        if all(p % b for b in bases):
            bases.append(p)
        p += 1
    out = np.zeros((count, d))
    for j, base in enumerate(bases):
        q = np.arange(1, count + 1)
        b2r = 1.0 / base
        while q.any():
            q, r = np.divmod(q, base)
            out[:, j] += r * b2r
            b2r /= base
    return out


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

    @functools.cache
    def is_window_safe(a: float, b: float) -> bool:
        try:
            pseg, = _passive_segment(model, segments, [(a, b)], sc_a.horizon)
        except InconclusiveError:
            return False
        return not pseg.hits.any()

    best = -1.0
    for T in t_grid:
        if first_flag is not None and first_flag <= T + _TIME_EPS:
            break
        if not all(is_window_safe(a, b) for a, b in partition_window(0.0, T, sc.window_width)):
            break
        best = T
    return (angle_deg, radius, best)


def sweep_passive_time(sc: Scenario, angles_deg, radius: float,
                       jobs: int = 1) -> list[tuple[float, float, float]]:
    """Largest safe abort deadline per initial bearing.

    For each angle the initial box is re-centered at radius * (cos, sin) with
    the base half-widths and zero velocity, and the largest T on the grid of
    every multiple of 600 s up to the horizon with ``verify_windowed`` safe
    on the abort window [0, T], split at the scenario's window width, is
    recorded; -1 means no tested T was safe.  Rows come back in the input
    angle order.  With jobs > 1 the angles run in a pool of at most one
    worker per angle.  The grid's length, refused past ``_MAX_SWEEP_TIMES``
    entries, the width on [0, T] for the largest grid T, and the variant for
    reach are checked before any angle runs.
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
    if sc.horizon / _SWEEP_T_STEP > _MAX_SWEEP_TIMES:
        raise ValueError(f"horizon {sc.horizon} s needs over {_MAX_SWEEP_TIMES} deadlines "
                         f"on the sweep's {_SWEEP_T_STEP:g} s grid")
    t_grid = np.arange(_SWEEP_T_STEP, sc.horizon + _TIME_EPS, _SWEEP_T_STEP).tolist()
    if t_grid:
        partition_window(0.0, t_grid[-1], sc.window_width)
    tasks = [(sc, a, float(radius), t_grid) for a in angles]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here, so that importing the package loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_one, tasks))
    return [_sweep_one(t) for t in tasks]
