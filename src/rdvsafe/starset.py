"""Generalized star sets and axis-aligned boxes.

A star ``<c, V>`` with center c and n generator columns V represents the set
{ c + V a : a in [-1, 1]^n }.  Linear maps act exactly on this representation
(map the center and the generators), which is what makes simulation-driven
reach computation exact for linear modes; boxes only enter when sets are
aggregated or exported.  Stars are plain arrays, a batch of centers C and
generators V, and :func:`supports` gives their support functions.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def supports(C, V, L) -> np.ndarray:
    """Support of each star c_k + V_k [-1, 1]^n in each direction l (a row of
    L), l.c_k + ||l V_k||_1, as an (m, rows) array.

    C is (m, d) and V (m, d, n), or None for the points C.  The generator
    term is one 2-D product whose columns run generator-major, so the sum
    over generators adds contiguous rows of length m, in generator order:
    ~65 us for 256 sets in 4 dims and 35 rows, against ~240 us for a stacked
    ``np.matmul(L, V)``.  The one block kernel ``verifier._block`` sums the
    rows of +/-I by hand in that order and calls this for its other rows.
    """
    vals = C @ L.T
    if V is None:
        return vals
    m, d, n = V.shape
    spread = (L @ V.transpose(1, 2, 0).reshape(d, n * m)).reshape(len(L), n, m)
    return vals + np.abs(spread).sum(axis=1).T


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
