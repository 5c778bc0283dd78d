"""Numerical propagation engines.

Linear modes are stepped with the one-step matrix exponential, which is exact
at the sample instants, so repeated application reproduces the continuous
flow there.  The nonlinear closed loop is integrated with fixed-step RK4 on
four Python floats: the step loop's body holds all four stages, each with the
force and the field of ``orbital.nonlinear_field`` written out, and the RK4
combination, each sum in a fixed order.  So a step costs float arithmetic,
with no function call per stage and no numpy small-array call, and the states
become one array at the end of the run.  The CSV writers write their rows
with `_write_csv_rows`: `_g17`, a numpy kernel, writes the bytes of
``f"{x:.17g}"`` a block at once: it ANDs a byte canvas with a byte mask and
deletes the zeroed bytes with one ``bytes.translate``.  The row's text goes in
at placeholder bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .orbital import OrbitalParams

MODE_PROX_A = "prox_a"
MODE_PROX_B = "prox_b"
MODE_PASSIVE = "passive"

# Slack on time comparisons, so that a time landing on a sample up to rounding
# counts as reaching it.
_TIME_EPS = 1e-9

_CSV_BLOCK = 256        # CSV rows per `_g17` call, which keeps its arrays near 100 KB
_MODE = b"\x01"         # separators that `_write_csv_rows` replaces by a row's text
_END = b"\x02"


def steps_within(T: float, h: float) -> int:
    """Number of whole steps of size h that fit in a span of length T."""
    return int(math.floor(T / h + _TIME_EPS))


# `_g17` cuts each cell from a 40-byte canvas: a sign, "0.000", and the 17
# digits, each followed by a slot byte, "." or, after the last, the separator.
# `_G4[v]` holds the bytes "d.d.d.d." of v < 10^4, `_HEAD[d]` those up to the
# leading digit d, and `_SIG[j, v]` the place (1-16) of v's last nonzero digit
# as digit group j after the leading digit (0 if v = 0).  `_KEEP` masks the
# bytes that print, 0xFF, at ((row * 18 + significant digits) * 2 + sign);
# rows 0-19 are the exponents -4..15, row 20 a zero, row 21 a Python cell,
# marked "-.".  The canvas ANDed with its mask row is zero exactly where a
# byte does not print, since no kept byte (a canvas byte or a separator) is
# NUL, so one ``translate`` deleting b"\0" leaves the text.
_P10 = np.array([float(10 ** k) for k in range(22)])      # exact doubles
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1)   # of 0..9999, leading first
_G4 = np.stack((ord("0") + _DIGITS.T, np.full((10_000, 4), ord("."), np.uint8)), -1)
_G4 = _G4.reshape(-1, 8).view(np.uint64).ravel()
_HEAD = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)
_TZ = np.cumprod(_DIGITS[::-1] == 0, axis=0, dtype=np.int8).sum(axis=0, dtype=np.int8)
_SIG = np.where(np.arange(10_000) > 0, np.arange(4, 17, 4, dtype=np.int8)[:, None] - _TZ, 0)
_E, _S, _B = np.ogrid[-4:16, :18, :40]     # (_B - 6) // 2: the digit a byte is or follows
_KEEP = np.zeros((22, 18, 2, 40), bool)
_KEEP[:20] = (((_B >= 6) & (_B % 2 == 0) & ((_B - 6) // 2 < np.maximum(_S, _E + 1)))  # digits
              | ((_B >= 7) & (_B % 2 == 1) & ((_B - 6) // 2 == _E) & (_S - 1 > _E))   # point
              | ((_E < 0) & (_B >= 1) & (_B <= 1 - _E)))[:, :, None]                  # "0.0.."
_KEEP[20, :, :, 1] = _KEEP[:21, :, 1, 0] = True                    # a zero; the sign
_KEEP[21, :, :, 0] = _KEEP[21, :, :, 7] = _KEEP[..., 39] = True     # "-."; separator
_KEEP = (_KEEP.reshape(-1, 40) * np.uint8(0xFF)).view(np.uint64)


def _g17(X, seps: bytes) -> bytes:
    """The float rows X as text: cell (i, j) is ``f"{X[i, j]:.17g}"`` followed
    by the one byte ``seps[j]``.

    Where 1e-4 <= |x| < 1e16, the digits N = round-half-even(|x| 10^(16 - E)),
    with E = floor(log10 |x|) moved by one until 10^16 <= N < 10^17, are
    exact: 10^(16 - E) is an exact double, Dekker's two-product splits the
    product into hi + lo, and hi >= 2^53 is an integer."""
    a = np.abs(X)
    fixed = (a >= 1e-4) & (a < 1e16)        # False on nan
    a = np.where(fixed, a, 1.0)
    ah = a * 134217729.0 - (a * 134217729.0 - a)
    e = np.floor(np.log10(a)).astype(np.int64)
    for _ in range(2):      # a second pass only where E started one off
        p = _P10[16 - e]
        ph = p * 134217729.0 - (p * 134217729.0 - p)
        hi = a * p
        lo = (a - ah) * (p - ph) - (((hi - ah * ph) - (a - ah) * ph) - ah * (p - ph))
        n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        off = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)
        if not off.any():
            break
        e += off
    d0, r = np.divmod(n, 10 ** 16)
    g12, g34 = np.divmod(r, 10 ** 8)
    (g1, g2), (g3, g4) = np.divmod(g12, 10 ** 4), np.divmod(g34, 10 ** 4)
    s = 1 + np.maximum(np.maximum(_SIG[0][g1], _SIG[1][g2]), np.maximum(_SIG[2][g3], _SIG[3][g4]))
    row = np.where(fixed, e + 4, np.where(X == 0.0, 20, 21))
    chars = np.stack([_HEAD[d0], _G4[g1], _G4[g2], _G4[g3], _G4[g4]], -1).view(np.uint8)
    chars[..., 39] = np.frombuffer(seps, np.uint8)
    chars &= np.take(_KEEP, (row * 18 + s) * 2 + np.signbit(X), axis=0).view(np.uint8)
    text = chars.tobytes().translate(None, b"\0")
    rest = [f"{x:.17g}".encode() for x in X[row == 21].tolist()]
    if rest:
        text = b"".join(chain.from_iterable(zip(text.split(b"-."), rest + [b""])))
    return text


def _write_csv_rows(fh, X, seps: bytes, mode: bytes = b"", ends=(b"\n",), which=None) -> None:
    """Write the float rows X to the binary file fh by blocks of `_CSV_BLOCK`
    rows, each cell as `_g17` writes it.  In ``seps`` the byte `_MODE` stands
    for ``mode`` and the byte `_END` for row i's ``ends[which[i]]``, or
    ``ends[0]`` when ``ends`` has one entry: one ``replace`` a block, and a
    split at `_END` only in a block whose rows have different ends.  A NUL
    separator is refused: `_g17` deletes the NUL bytes of its canvas."""
    if b"\0" in seps:
        raise ValueError("a CSV separator must not be a NUL byte")
    for a in range(0, len(X), _CSV_BLOCK):
        text = _g17(X[a:a + _CSV_BLOCK], seps).replace(_MODE, mode)
        w = which[a:a + _CSV_BLOCK] if len(ends) > 1 else None
        if w is None or w.min() == w.max():
            fh.write(text.replace(_END, ends[0 if w is None else w[0]]))
        else:
            rows = text.split(_END)
            fh.write(b"".join(chain.from_iterable(zip(rows, map(ends.__getitem__, w.tolist())))))


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
        """Write time_s, the state columns and mode, one row per sample, with
        `_write_csv_rows`: the mode ends each row as its `_END` separator."""
        dim = self.states.shape[1]
        cols = ["time_s", "x", "y", "vx", "vy", "ux", "uy"][: 1 + dim]
        modes = self.modes if self.modes is not None else ("",) * len(self.times)
        found, which = np.unique(modes, return_inverse=True)
        ends = [b",%s\n" % m.encode() for m in found.tolist()]
        with open(path, "wb") as fh:
            fh.write(",".join(cols).encode() + b",mode\n")
            _write_csv_rows(fh, np.column_stack((self.times, self.states)),
                            b"," * dim + _END, ends=ends, which=which)


# The [13/13] Pade coefficients b_0..b_13 and theta_13 of Higham (2005), Table 2.3.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
_SPARE_HALVINGS = 16    # the mode flows take at most 12 spare up to h = 1e5 s


def matrix_exp(M) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade
    approximant: N. J. Higham, "The scaling and squaring method for the matrix
    exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005, Alg. 2.3
    at degree 13.  M is halved s times, s the least with ||M||_1 / 2^s <=
    theta_13, by ``np.ldexp``, which is exact and holds for s past 1023, but
    at most ``_SPARE_HALVINGS`` past those eta = max(||M^k||_1^(1/k), k = 8,
    10) asks for (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31(3),
    2009): each squaring costs a bit, and exp([[0, 1e30], [0, 0]]) read 0.
    Non-finite input is a ValueError, a non-finite result an OverflowError."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("matrix must be finite")
    n = M.shape[0]
    with np.errstate(all="ignore"):
        # The 1-norm of M / 2^e, with 2^e > n so that no column sum overflows.
        e = n.bit_length()
        norm = float(np.abs(np.ldexp(M, -e)).sum(axis=0).max())
        s = max(0, math.ceil(math.log2(norm / _THETA13)) + e) if norm > 0.0 else 0
        while True:
            A = np.ldexp(M, -s)
            A2 = A @ A
            A4 = A2 @ A2
            A6 = A4 @ A2
            # eta of A = M / 2^s, 2^-s that of M.
            eta = max(np.abs(A4 @ A4).sum(axis=0).max() ** 0.125,
                      np.abs(A4 @ A6).sum(axis=0).max() ** 0.1)
            fewer = max(0, s + math.ceil(math.log2(eta / _THETA13))) if eta > 0.0 else 0
            if s - fewer <= _SPARE_HALVINGS:
                break
            s = fewer
        b = _PADE13
        eye = np.eye(n)
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
        out = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            out = out @ out
    if not np.isfinite(out).all():
        raise OverflowError("matrix exponential overflowed")
    return out


def simulate_nonlinear(params: OrbitalParams, force_gain, x0, h: float, n: int) -> Trajectory:
    """n fixed steps of RK4 on the nonlinear relative dynamics from x0.

    The commanded thrust is F = -force_gain x, or zero when ``force_gain`` is
    None; a mode's force gain is m_c K.  The gain is held over the run, so a
    caller that switches modes starts a new run at each switch.

    The state is four Python floats x, y, vx, vy.  The loop body computes
    each of the four stages in turn: the stage state, then its field, whose
    first two entries are the stage state's velocities and whose
    accelerations follow ``orbital.nonlinear_field`` operation by operation,
    with the force's four products summed in a fixed order (see below).  Each
    component is combined in the order numpy uses in the array form, RK4 on
    4-vectors over ``nonlinear_field``, so the states are that form's bit for
    bit wherever the force sums agree: the second and third stage states are
    x + (0.5 h) k, the fourth x + h k, and the update is
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

    # Each stage's field is written out inline: a stage state's velocities
    # are its first two field entries, and its accelerations are the field's
    # with q = mu r_c^-3 and the thrust F = -(G @ s) / m_c, or 0.0 / m_c when
    # coasting, as in the array form (adding it turns a -0.0 into +0.0).  F
    # sums its products as numpy's 2x4 matrix-vector product does on the
    # build this was checked on: (g0 x + g2 vx) + (g1 y + g3 vy).  The
    # sequential and the (g0 x + g1 y) + (g2 vx + g3 vy) orders differ from it
    # in the last bit on ~40% of random states.
    f0 = 0.0 / m_c
    x, y, vx, vy = x0.tolist()
    out = [x, y, vx, vy]
    try:
        for _ in range(n):
            rx = r + x
            q = mu * (rx * rx + y * y) ** -1.5
            a2 = nn * x + n2 * vy + mu_r2 - q * rx + (
                f0 if coast else -((gx0 * x + gx2 * vx) + (gx1 * y + gx3 * vy)) / m_c)
            a3 = nn * y - n2 * vx - q * y + (
                f0 if coast else -((gy0 * x + gy2 * vx) + (gy1 * y + gy3 * vy)) / m_c)
            bx = x + c * vx
            by = y + c * vy
            bvx = vx + c * a2
            bvy = vy + c * a3
            rx = r + bx
            q = mu * (rx * rx + by * by) ** -1.5
            b2 = nn * bx + n2 * bvy + mu_r2 - q * rx + (
                f0 if coast else -((gx0 * bx + gx2 * bvx) + (gx1 * by + gx3 * bvy)) / m_c)
            b3 = nn * by - n2 * bvx - q * by + (
                f0 if coast else -((gy0 * bx + gy2 * bvx) + (gy1 * by + gy3 * bvy)) / m_c)
            cx = x + c * bvx
            cy = y + c * bvy
            cvx = vx + c * b2
            cvy = vy + c * b3
            rx = r + cx
            q = mu * (rx * rx + cy * cy) ** -1.5
            c2 = nn * cx + n2 * cvy + mu_r2 - q * rx + (
                f0 if coast else -((gx0 * cx + gx2 * cvx) + (gx1 * cy + gx3 * cvy)) / m_c)
            c3 = nn * cy - n2 * cvx - q * cy + (
                f0 if coast else -((gy0 * cx + gy2 * cvx) + (gy1 * cy + gy3 * cvy)) / m_c)
            dx = x + h * cvx
            dy = y + h * cvy
            dvx = vx + h * c2
            dvy = vy + h * c3
            rx = r + dx
            q = mu * (rx * rx + dy * dy) ** -1.5
            d2 = nn * dx + n2 * dvy + mu_r2 - q * rx + (
                f0 if coast else -((gx0 * dx + gx2 * dvx) + (gx1 * dy + gx3 * dvy)) / m_c)
            d3 = nn * dy - n2 * dvx - q * dy + (
                f0 if coast else -((gy0 * dx + gy2 * dvx) + (gy1 * dy + gy3 * dvy)) / m_c)
            x = x + h6 * (((vx + 2.0 * bvx) + 2.0 * cvx) + dvx)
            y = y + h6 * (((vy + 2.0 * bvy) + 2.0 * cvy) + dvy)
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
    return Trajectory(times=h * np.arange(n + 1),
                      states=np.fromiter(out, float, len(out)).reshape(n + 1, 4))
