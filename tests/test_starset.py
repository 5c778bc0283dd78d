"""Star set and box algebra tests, mostly against the corner-enumeration oracle.

A star c + V [-1, 1]^n is held as the arrays (c, V); the verifier builds it
from a box as [mid | diag(halfwidth)], moves it by phi @ [c | V], and reads
every support from :func:`supports`.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rdvsafe import Box, hull_boxes, supports
from rdvsafe.hybrid import octagon_halfspaces
from rdvsafe.starset import clip_box_to_halfspaces

WORKED_C = np.array([1.0, 2.0])
WORKED_V = np.array([[1.0, 1.0], [0.0, 1.0]])


def _star(box):
    """The verifier's star of a box: midpoint center, axis generators."""
    return box.mid(), np.diag(box.halfwidth())


def _propagate(c, V, phi):
    """The verifier's one-step image: one product with the stacked [c | V]."""
    M = phi @ np.column_stack([c, V])
    return M[:, 0], M[:, 1:]


def _support(c, V, a):
    return float(supports(c[None], V[None], np.asarray(a, dtype=float)[None])[0, 0])


def _bounding_box(c, V):
    """The star's box through the rows [I; -I]."""
    d = len(c)
    vals = supports(c[None], V[None], np.vstack([np.eye(d), -np.eye(d)]))[0]
    return Box(lo=-vals[d:], hi=vals[:d])


def _corners(c, V):
    """All 2^n extreme points c + V a, a in {-1, 1}^n.  Exponential; tests only."""
    return c + np.array(list(product((-1.0, 1.0), repeat=V.shape[1]))) @ V.T


def _in_box(box, point, slack):
    """Whether point lies in box widened by slack on every side."""
    p = np.asarray(point, dtype=float)
    return bool(np.all(p >= box.lo - slack) and np.all(p <= box.hi + slack))


def test_box_validation():
    with pytest.raises(ValueError):
        Box(lo=np.array([1.0]), hi=np.array([0.0]))
    with pytest.raises(ValueError):
        Box(lo=np.array([0.0, np.inf]), hi=np.array([1.0, 2.0]))


def test_from_box_unit_cube():
    c, V = _star(Box(lo=-np.ones(3), hi=np.ones(3)))
    assert np.array_equal(c, np.zeros(3))
    assert np.array_equal(V, np.eye(3))


def test_from_box_degenerate_dimension():
    c, V = _star(Box(lo=np.array([0.0, 2.0]), hi=np.array([1.0, 2.0])))
    assert np.array_equal(V[:, 1], np.zeros(2))
    assert _support(c, V, [0.0, 1.0]) == 2.0 and _support(c, V, [0.0, -1.0]) == -2.0


def test_from_box_roundtrip_exact():
    # Dyadic endpoints make the midpoint/half-width arithmetic exact.
    for lo, hi in [((-1.0, -1.0), (1.0, 1.0)),
                   ((-3.5, 0.25), (1.5, 0.75)),
                   ((0.0, 0.0), (0.0, 4.0))]:
        b = Box(lo=np.array(lo), hi=np.array(hi))
        back = _bounding_box(*_star(b))
        assert np.array_equal(back.lo, b.lo) and np.array_equal(back.hi, b.hi)


def test_propagate_identity_and_diagonal():
    c, V = _star(Box(lo=-np.ones(2), hi=np.ones(2)))
    same_c, same_V = _propagate(c, V, np.eye(2))
    assert np.array_equal(same_c, c) and np.array_equal(same_V, V)
    _, scaled_V = _propagate(c, V, np.diag([2.0, 1.0]))
    assert np.array_equal(scaled_V, np.diag([2.0, 1.0]))


def test_propagate_rotation_against_corner_oracle():
    c, V = _star(Box(lo=-np.ones(2), hi=np.ones(2)))
    co, si = np.cos(np.pi / 2), np.sin(np.pi / 2)
    rot = np.array([[co, -si], [si, co]])
    box = _bounding_box(*_propagate(c, V, rot))
    corners = (rot @ _corners(c, V).T).T
    for corner in corners:
        assert _in_box(box, corner, 1e-12)
    # The rotated square's corners touch the new bounding box.
    assert box.hi[0] == pytest.approx(np.abs(corners[:, 0]).max(), rel=1e-12)


def test_bounding_box_worked_example():
    box = _bounding_box(WORKED_C, WORKED_V)
    assert np.allclose(box.lo, [-1.0, 1.0], rtol=0, atol=0)
    assert np.allclose(box.hi, [3.0, 3.0], rtol=0, atol=0)
    corners = _corners(WORKED_C, WORKED_V)
    assert corners[:, 0].min() == -1.0 and corners[:, 0].max() == 3.0
    assert corners[:, 1].min() == 1.0 and corners[:, 1].max() == 3.0


def test_bounding_box_contains_all_corners():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c, V = rng.normal(size=4), rng.normal(size=(4, 4))
        box = _bounding_box(c, V)
        for corner in _corners(c, V):
            assert _in_box(box, corner, 1e-9)


def test_support_unit_box_axis():
    c, V = _star(Box(lo=-np.ones(2), hi=np.ones(2)))
    assert _support(c, V, [1.0, 0.0]) == 1.0


def test_support_worked_example():
    val = _support(WORKED_C, WORKED_V, [1.0, 1.0])
    assert val == pytest.approx(6.0, abs=1e-12)
    assert (_corners(WORKED_C, WORKED_V) @ np.array([1.0, 1.0])).max() == pytest.approx(
        6.0, abs=1e-12)


def test_support_symmetry_identity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        c, V = rng.normal(size=3), rng.normal(size=(3, 3))
        a = rng.normal(size=3)
        min_val = -_support(c, V, -a)
        assert min_val == pytest.approx((_corners(c, V) @ a).min(), rel=1e-9, abs=1e-9)


def test_support_matches_corner_oracle_randomized():
    rng = np.random.default_rng(17)
    for _ in range(100):
        c, V = rng.normal(scale=5.0, size=4), rng.normal(size=(4, 4))
        a = rng.normal(size=4)
        oracle = (_corners(c, V) @ a).max()
        assert _support(c, V, a) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_propagation_adjoint_identity():
    rng = np.random.default_rng(23)
    for _ in range(25):
        c, V = rng.normal(size=4), rng.normal(size=(4, 4))
        phi = rng.normal(size=(4, 4))
        a = rng.normal(size=4)
        assert _support(*_propagate(c, V, phi), a) == pytest.approx(
            _support(c, V, phi.T @ a), rel=1e-9, abs=1e-9)


def test_violates_halfspace_touching_counts():
    # A star meets the closed half-space a.x >= b iff its support reaches b.
    c, V = _star(Box(lo=-np.ones(2), hi=np.ones(2)))
    e1 = [1.0, 0.0]
    assert not _support(c, V, e1) >= 2.0
    assert _support(c, V, e1) >= 1.0


def test_violates_halfspace_matches_corner_oracle():
    rng = np.random.default_rng(29)
    for _ in range(100):
        c, V = rng.normal(size=3), rng.normal(size=(3, 3))
        a = rng.normal(size=3)
        b = rng.normal(scale=3.0)
        oracle_max = (_corners(c, V) @ a).max()
        if abs(oracle_max - b) < 1e-9 * max(1.0, abs(b)):
            continue  # skip numerically ambiguous boundary draws
        assert (_support(c, V, a) >= b) == (oracle_max >= b)


def test_supports_box_rows_are_exact():
    # The verifier's boxes are the rows [I; -I] of one supports call; they
    # must equal c + |V| 1 and -(c - |V| 1) bit for bit, which is what keeps
    # the emitted flowpipe bytes of c -/+ reach.
    rng = np.random.default_rng(41)
    for m, d in ((256, 4), (100, 6), (1, 2)):
        C = rng.normal(scale=1e3, size=(m, d))
        V = rng.normal(size=(m, d, d)) * rng.uniform(0.0, 50.0, size=(m, 1, d))
        vals = supports(C, V, np.vstack([np.eye(d), -np.eye(d)]))
        reach = np.abs(V).sum(axis=2)
        assert np.array_equal(vals[:, :d], C + reach)
        assert np.array_equal(vals[:, d:], -(C - reach))


def test_supports_of_points_is_the_product():
    rng = np.random.default_rng(43)
    C, L = rng.normal(size=(50, 4)), rng.normal(size=(7, 4))
    assert np.array_equal(supports(C, None, L), C @ L.T)


def test_supports_batch_matches_corner_oracle():
    # m > 1 stars of n != d generators in many mixed-sign directions at once:
    # each (star, row) entry is that star's own maximum over its corners.
    rng = np.random.default_rng(47)
    m, d, n = 9, 4, 3
    C = rng.normal(scale=5.0, size=(m, d))
    V = rng.normal(size=(m, d, n))
    L = rng.normal(size=(11, d))
    vals = supports(C, V, L)
    assert vals.shape == (m, len(L))
    for k in range(m):
        oracle = (_corners(C[k], V[k]) @ L.T).max(axis=0)
        assert np.allclose(vals[k], oracle, rtol=1e-12, atol=1e-12)


def test_hull_boxes():
    b1 = Box(lo=np.array([0.0]), hi=np.array([1.0]))
    b2 = Box(lo=np.array([2.0]), hi=np.array([3.0]))
    assert hull_boxes([b1]).lo[0] == 0.0 and hull_boxes([b1]).hi[0] == 1.0
    merged = hull_boxes([b1, b2])
    assert merged.lo[0] == 0.0 and merged.hi[0] == 3.0
    rng = np.random.default_rng(31)
    boxes = []
    for _ in range(10):
        lo = rng.normal(size=3)
        boxes.append(Box(lo=lo, hi=lo + rng.uniform(size=3)))
    hull = hull_boxes(boxes)
    for b in boxes:
        assert np.all(hull.lo <= b.lo) and np.all(hull.hi >= b.hi)
    with pytest.raises(ValueError):
        hull_boxes([])


def test_clip_box_to_halfspace():
    unit = Box(lo=-np.ones(2), hi=np.ones(2))
    clipped = clip_box_to_halfspaces(unit, np.array([[1.0, 0.0]]), [0.5])
    assert clipped.hi[0] == 0.5 and clipped.lo[0] == -1.0
    assert clipped.hi[1] == 1.0
    # Diagonal constraint through the box tightens nothing per axis beyond
    # the interval bound but keeps containment of the true intersection.
    diag = clip_box_to_halfspaces(unit, np.array([[1.0, 1.0]]), [0.0])
    assert np.all(diag.lo == unit.lo) and np.all(diag.hi == unit.hi)
    assert clip_box_to_halfspaces(unit, np.array([[1.0, 0.0]]), [-2.0]) is None


def test_clip_by_many_rows_is_one_row_clips_in_turn():
    """A clip by the rows of A is the one-row clips in row order, bit for
    bit, and empty as soon as one of them is: on the guard octagon, as a
    restart clips its hull, and on random rows with zero entries."""
    rng = np.random.default_rng(11)
    octagon, radius = octagon_halfspaces(100.0)
    empty = two_rows = 0
    for trial in range(400):
        if trial % 2:
            A, b = octagon, radius
        else:
            A = rng.normal(size=(5, 3)) * (rng.uniform(size=(5, 3)) < 0.7)
            b = rng.normal(scale=20.0, size=5)
        center = rng.normal(scale=70.0, size=A.shape[1])
        box = Box(lo=center - rng.uniform(0.0, 40.0, size=A.shape[1]),
                  hi=center + rng.uniform(0.0, 40.0, size=A.shape[1]))
        got, want, tightened = clip_box_to_halfspaces(box, A, b), box, 0
        for a, b_i in zip(A, b):
            prev, want = want, clip_box_to_halfspaces(want, a[None], [b_i])
            if want is None:
                break
            tightened += not (np.array_equal(want.lo, prev.lo) and np.array_equal(want.hi, prev.hi))
        if want is None:
            assert got is None
            empty += 1
        else:
            assert got.lo.tobytes() == want.lo.tobytes() and got.hi.tobytes() == want.hi.tobytes()
            two_rows += tightened >= 2
    # Both outcomes occur, and some boxes are tightened by two rows or more.
    assert empty > 50 and two_rows > 10


def _clip_on_arrays(box, A, b):
    """clip_box_to_halfspaces as it ran on numpy arrays, whose sums its
    float pass must reproduce: the oracle of the test below."""
    lo, hi = box.lo.copy(), box.hi.copy()
    for a, b_i in zip(np.asarray(A, dtype=float), b):
        mins = np.where(a >= 0.0, a * lo, a * hi)
        total_min = mins.sum()
        slack = len(mins) * np.finfo(float).eps * np.abs(mins).sum()
        if total_min > b_i and total_min - b_i > slack:
            return None
        for d in np.nonzero(a)[0]:
            budget = b_i - (total_min - mins[d])
            if a[d] > 0.0:
                hi[d] = max(min(hi[d], budget / a[d]), lo[d])
            else:
                lo[d] = min(max(lo[d], budget / a[d]), hi[d])
    return Box(lo=lo, hi=hi)


def test_clip_matches_its_array_version_bit_for_bit():
    """On seeded boxes of 2, 4 and 6 coordinates, against dense rows, rows
    with zero entries and the guard octagon in the position columns, with
    offsets that clip, touch a face or a corner, cut a one-ulp sliver or
    empty the box, the float pass gives the array version's bits."""
    rng = np.random.default_rng(30)
    octagon, radius = octagon_halfspaces(100.0)
    kinds = {"clipped": 0, "touch": 0, "sliver": 0, "empty": 0}
    for trial in range(3000):
        dim = (2, 4, 6)[trial % 3]
        center = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=dim)
        hw = rng.uniform(0.0, 40.0, size=dim) * (rng.uniform(size=dim) < 0.9)
        lo, hi = center - hw, center + hw
        sliver = trial % 7 == 0
        if sliver:
            hi = np.nextafter(lo, np.inf)
        lo[rng.uniform(size=dim) < 0.1] = rng.choice([0.0, -0.0])
        box = Box(lo=lo, hi=np.maximum(lo, hi))
        touch = trial % 5 == 1 and trial % 4 != 0
        if trial % 4 == 0:
            A, b = np.zeros((8, dim)), radius.copy()
            A[:, :2] = octagon
        else:
            A = rng.normal(size=(8, dim)) * (rng.uniform(size=(8, dim)) < (1.0, 0.6)[trial % 2])
            lows = np.where(A >= 0.0, A * box.lo, A * box.hi).sum(axis=1)
            highs = np.where(A >= 0.0, A * box.hi, A * box.lo).sum(axis=1)
            b = lows + rng.uniform(-0.2, 1.2, size=8) * (highs - lows)
            if touch:
                # A face or corner touch: an offset at the box's least a.x.
                j = rng.integers(0, 8)
                b[j] = lows[j]
        got, want = clip_box_to_halfspaces(box, A, b), _clip_on_arrays(box, A, b)
        if want is None:
            assert got is None
            kinds["empty"] += 1
        else:
            assert got.lo.tobytes() == want.lo.tobytes() and got.hi.tobytes() == want.hi.tobytes()
            kinds["clipped"] += not (np.array_equal(want.lo, box.lo)
                                     and np.array_equal(want.hi, box.hi))
            kinds["sliver"] += sliver
            kinds["touch"] += touch
    assert min(kinds.values()) > 20, kinds


def test_clip_keeps_the_faces_rounding_would_drop_or_invert():
    """Points and 1e-12-wide boxes on the guard octagon's edges, moved by
    0 or 1e-14 per axis, meet the half-spaces in a point or a sliver: no clip
    raises, and every corner of a box that satisfies all half-spaces
    exactly, in rationals, lies in the clipped box."""
    A, b = octagon_halfspaces(100.0)
    rows = list(zip(A.tolist(), b.tolist(), [[Fraction(v) for v in a] for a in A.tolist()],
                    [Fraction(v) for v in b.tolist()]))

    def exact_slack(x):
        """The least b_i - a.x, exact where the float sum is within 1e-9 of 0."""
        least = math.inf
        for a, b_i, a_q, b_q in rows:
            gap = b_i - (a[0] * x[0] + a[1] * x[1])
            if abs(gap) < 1e-9:
                gap = b_q - (a_q[0] * Fraction(x[0]) + a_q[1] * Fraction(x[1]))
            least = min(least, gap)
        return least

    rng = np.random.default_rng(5)
    n = 10_000
    ang = np.radians(45.0 * np.arange(9))
    verts = 100.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    k, t = rng.integers(0, 8, n), rng.uniform(size=(n, 1))
    centers = verts[k] + t * (verts[k + 1] - verts[k]) + rng.choice([-1e-14, 0.0, 1e-14], (n, 2))
    halfwidths = rng.choice([0.0, 1e-12], (n, 2))
    dropped = on_edge = 0
    for c, hw in zip(centers, halfwidths):
        box = Box(lo=c - hw, hi=c + hw)
        got = clip_box_to_halfspaces(box, A, b)
        dropped += got is None
        for corner in set(product(*zip(box.lo.tolist(), box.hi.tolist()))):
            gap = exact_slack(corner)
            if gap >= 0:
                on_edge += gap < 1e-9
                assert got is not None, (box, corner)
                assert np.all(got.lo <= corner) and np.all(corner <= got.hi), (box, corner, got)
    # Corners exactly on or inside an edge abound, and boxes wholly outside are still dropped.
    assert on_edge > 1000 and dropped > 0
