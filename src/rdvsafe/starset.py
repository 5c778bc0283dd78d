"""Generalized star sets and axis-aligned boxes.

A star ``<c, V>`` with center c and n generator columns V represents the set
{ c + V a : a in [-1, 1]^n }.  Linear maps act exactly on this representation
(map the center and the generators), which is what makes simulation-driven
reach computation exact for linear modes; boxes only enter when sets are
aggregated or exported.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned hyperrectangle [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError(f"bounds must be equal-length vectors, got {lo.shape}, {hi.shape}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def halfwidth(self) -> np.ndarray:
        return 0.5 * (self.hi - self.lo)

    def contains(self, point, slack: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lo - slack) and np.all(p <= self.hi + slack))

    def intersects(self, other: "Box") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(self.hi >= other.lo))


@dataclass(frozen=True)
class StarSet:
    """Star set with center ``x0`` and generator matrix ``V`` (columns v_1..v_n)."""

    x0: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if x0.ndim != 1 or V.shape != (x0.shape[0], x0.shape[0]):
            raise ValueError(f"need n generators for an n-dim center, got {V.shape} vs {x0.shape}")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "V", V)

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    def corners(self) -> np.ndarray:
        """All 2^n extreme points x0 + V a, a in {-1, 1}^n.  Exponential; tests only."""
        alphas = np.array(list(product((-1.0, 1.0), repeat=self.dim)))
        return self.x0 + alphas @ self.V.T


def from_box(b: Box) -> StarSet:
    """Star with the exact same semantics as the box: midpoint center, axis generators."""
    return StarSet(x0=b.mid(), V=np.diag(b.halfwidth()))


def propagate(s: StarSet, phi) -> StarSet:
    """Exact image of the star under the linear one-step map ``phi``.

    Equivalent to simulating the center and center+generator points and
    differencing, by superposition.
    """
    phi = np.asarray(phi, dtype=float)
    return StarSet(x0=phi @ s.x0, V=phi @ s.V)


def bounding_box(s: StarSet) -> Box:
    """Tightest axis-aligned box: x0_d +/- sum_j |v_j,d| per coordinate d."""
    reach = np.abs(s.V).sum(axis=1)
    return Box(lo=s.x0 - reach, hi=s.x0 + reach)


def support(s: StarSet, direction) -> float:
    """Exact maximum of a.x over the star: a.x0 + sum_i |a.v_i|."""
    a = np.asarray(direction, dtype=float)
    return float(a @ s.x0 + np.abs(a @ s.V).sum())


def violates_halfspace(s: StarSet, a, b: float) -> bool:
    """True iff the star meets the closed half-space a.x >= b (touching counts)."""
    return support(s, a) >= b


def hull_boxes(boxes) -> Box:
    """Smallest box containing every input box."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("cannot hull an empty list of boxes")
    lo = np.min([b.lo for b in boxes], axis=0)
    hi = np.max([b.hi for b in boxes], axis=0)
    return Box(lo=lo, hi=hi)


def clip_box_to_halfspace(box: Box, a, b: float) -> Box | None:
    """Tightest box around ``box`` intersected with { x : a.x <= b }.

    Returns None when the intersection is empty.  One interval-arithmetic
    tightening pass per coordinate.
    """
    a = np.asarray(a, dtype=float)
    lo = box.lo.copy()
    hi = box.hi.copy()
    # Minimum of a.x over the box, split per coordinate contribution.
    mins = np.where(a >= 0.0, a * lo, a * hi)
    total_min = mins.sum()
    if total_min > b:
        return None
    for d in np.nonzero(a)[0]:
        budget = b - (total_min - mins[d])
        if a[d] > 0.0:
            hi[d] = min(hi[d], budget / a[d])
        else:
            lo[d] = max(lo[d], budget / a[d])
    return Box(lo=lo, hi=hi)
