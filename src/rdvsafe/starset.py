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

_EPS = float(np.finfo(float).eps)


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
    over generators adds contiguous rows of length m, in generator order.
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


def clip_box_to_halfspaces(box: Box, A, b) -> Box | None:
    """Tightest box around ``box`` intersected with { x : a.x <= b_i } for
    each row a of A in turn, or None once one is empty: one interval-arithmetic
    tightening pass per row and coordinate, on the bounds, and one Box at the end.

    Where the box meets a half-space in a face, rounding may put the box's
    least a.x past b_i or a tightened bound an ulp past the opposite bound:
    the box counts as empty only beyond the rounding of a.x, and a bound
    stops at the opposite bound, so the face is kept, not dropped or inverted.

    The pass runs on Python floats, as the boxes it serves are small.  Its
    sums add left to right from +0.0, as numpy's ``sum`` adds fewer than
    eight terms, so the bounds are those of the same pass on arrays."""
    lo, hi = box.lo.tolist(), box.hi.tolist()
    for a, b_i in zip(np.asarray(A, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()):
        # Minimum of a.x over the box, split per coordinate contribution.
        mins = [a_d * (l_d if a_d >= 0.0 else h_d) for a_d, l_d, h_d in zip(a, lo, hi)]
        total_min = abs_sum = 0.0
        for m_d in mins:
            total_min += m_d
            abs_sum += abs(m_d)
        # Empty only past the rounding of the n-term sum, at most n eps sum|mins|.
        if total_min > b_i and total_min - b_i > len(mins) * _EPS * abs_sum:
            return None
        for d, a_d in enumerate(a):
            budget = b_i - (total_min - mins[d])
            if a_d > 0.0:
                hi[d] = max(min(hi[d], budget / a_d), lo[d])
            elif a_d < 0.0:
                lo[d] = min(max(lo[d], budget / a_d), hi[d])
    return Box(lo=lo, hi=hi)
