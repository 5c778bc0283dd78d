"""LQR design for the two rendezvous modes.

Gains are computed in acceleration units: the control law is u = -K x with u
in m/s^2, so the commanded thrust in Newtons is F = -m_c K x.  Weights follow
Bryson's rule from per-mode maximum desired state and input magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orbital import FieldError, OrbitalParams, cwh_matrices

# Default Bryson maxima: positions from the mode separation ranges, inputs
# from the 10 N thrust limit on a 500 kg craft.  Velocity maxima are tuned so
# the ProxA approach hands over to ProxB below the 5 cm/s limit while still
# reaching the handover radius within two hours, and so the ProxB descent
# stays slow enough for the post-abort drift to clear the target.
PROXA_MAX_STATE = (1000.0, 1000.0, 0.4, 0.4)
PROXB_MAX_STATE = (100.0, 100.0, 0.025, 0.025)
DEFAULT_MAX_INPUT = (0.02, 0.02)

_CARE_TOL_FACTOR = 1e-8
_NEWTON_MAX_ITER = 20


@dataclass(frozen=True)
class Weights:
    """Diagonal quadratic cost pair (Q, R), both positive definite."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        R = np.asarray(self.R, dtype=float)
        for name, M in (("Q", Q), ("R", R)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.any(M != np.diag(np.diag(M))):
                raise ValueError(f"{name} must be diagonal")
            if np.any(np.diag(M) <= 0.0):
                raise ValueError(f"{name} diagonal must be strictly positive")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class GainMatrix:
    """Feedback gain K (acceleration units) with its Riccati certificate P."""

    K: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float))
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))


def bryson_weights(max_state, max_input) -> Weights:
    """Weights with Q_ii = 1/max_state_i^2 and R_ii = 1/max_input_i^2."""
    ms = np.asarray(max_state, dtype=float)
    mi = np.asarray(max_input, dtype=float)
    if not (np.all(ms > 0.0) and np.all(mi > 0.0)):      # NaN too
        raise ValueError("Bryson maxima must be strictly positive")
    return Weights(Q=np.diag(1.0 / ms**2), R=np.diag(1.0 / mi**2))


def bryson_maxima(bryson: dict | None = None) -> tuple:
    """The three Bryson vectors of a scenario's ``bryson`` settings, defaults
    filled in, as tuples of floats: (prox_a max state, prox_b max state, max
    input).  A maximum that is not strictly positive is a FieldError naming
    it: ``max_input/0``."""
    br = bryson or {}
    maxima = {"prox_a/max_state": br.get("prox_a", {}).get("max_state", PROXA_MAX_STATE),
              "prox_b/max_state": br.get("prox_b", {}).get("max_state", PROXB_MAX_STATE),
              "max_input": br.get("max_input", DEFAULT_MAX_INPUT)}
    bad = [f"{name}/{i}" for name, vec in maxima.items() for i, v in enumerate(vec) if not v > 0.0]
    if bad:
        raise FieldError(bad[0], "Bryson maxima must be strictly positive")
    return tuple(tuple(map(float, vec)) for vec in maxima.values())


def care_residual(A, B, weights: Weights, P) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q."""
    RinvBt = np.linalg.solve(weights.R, B.T)
    res = A.T @ P + P @ A - P @ B @ RinvBt @ P + weights.Q
    return float(np.linalg.norm(res, "fro"))


def solve_care(A, B, weights: Weights) -> GainMatrix:
    """Solve the continuous algebraic Riccati equation for (A, B, Q, R).

    The first P spans the stable invariant subspace of the Hamiltonian,
    taken from its eigenvectors: P = Z21 Z11^-1 for the n eigenvectors of
    eigenvalues in the open left half-plane (J. E. Potter, "Matrix quadratic
    solutions", SIAM J. Appl. Math. 14(3), 1966).  While the residual exceeds
    1e-8 * ||Q||_F, Newton-Kleinman steps refine it (D. L. Kleinman, "On an
    iterative technique for Riccati equation computations", IEEE TAC 13(1),
    1968): each solves the Lyapunov equation Acl' P + P Acl = -(Q + K' R K)
    of the current gain as one linear system in the n^2 entries of P.
    Returns the gain K = R^-1 B' P together with its certificate P.

    Raises
    ------
    ValueError
        If the problem is not solvable (e.g. a non-stabilizable pair), if
        refinement fails to meet the residual tolerance, or if the certificate
        P is not positive semidefinite.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    RinvBt = np.linalg.solve(weights.R, B.T)
    H = np.block([
        [A, -B @ RinvBt],
        [-weights.Q, -A.T],
    ])
    eye = np.eye(n)
    with np.errstate(all="ignore"):
        lam, Z = np.linalg.eig(H)
        stable = lam.real < 0.0
        if np.count_nonzero(stable) != n:
            raise ValueError("Hamiltonian has no n-dimensional stable subspace; pair not stabilizable")
        Z = Z[:, stable]
        try:
            P = np.linalg.solve(Z[:n].T, Z[n:].T).T.real
        except np.linalg.LinAlgError as exc:
            raise ValueError("stable subspace is not a Riccati graph; pair not stabilizable") from exc
        P = 0.5 * (P + P.T)

        tol = _CARE_TOL_FACTOR * float(np.linalg.norm(weights.Q, "fro"))
        for _ in range(_NEWTON_MAX_ITER):
            if care_residual(A, B, weights, P) <= tol:
                break
            # Newton-Kleinman step.  A singular one ends the refinement; a
            # near-singular one is left to the residual and the checks below.
            K = RinvBt @ P
            Acl = A - B @ K
            lyap = np.kron(Acl.T, eye) + np.kron(eye, Acl.T)
            try:
                P_new = np.linalg.solve(lyap, -(weights.Q + K.T @ weights.R @ K).ravel())
            except np.linalg.LinAlgError:
                break
            P_new = P_new.reshape(n, n)
            P = 0.5 * (P_new + P_new.T)
        residual = care_residual(A, B, weights, P)
    if not residual <= tol:     # NaN too
        raise ValueError(f"CARE residual {residual:.3e} above tolerance {tol:.3e}")

    K = RinvBt @ P
    eigs = np.linalg.eigvals(A - B @ K)
    if np.max(eigs.real) >= 0.0:
        raise ValueError("closed loop is not Hurwitz; CARE solution rejected")
    if np.min(np.linalg.eigvalsh(P)) < -1e-10 * max(1.0, np.linalg.norm(P)):
        raise ValueError("Riccati certificate is not positive semidefinite")
    return GainMatrix(K=K, P=P)


def design_mode_gains(
    params: OrbitalParams,
    prox_a_max_state=PROXA_MAX_STATE,
    prox_b_max_state=PROXB_MAX_STATE,
    max_input=DEFAULT_MAX_INPUT,
) -> tuple[GainMatrix, GainMatrix]:
    """Design the two per-mode gains from Bryson maxima.

    The design uses the acceleration-input form of the CWH model (B columns
    are unit vectors), so both returned gains are in acceleration units.
    """
    model = cwh_matrices(params)
    B_acc = params.m_c * model.B
    k1 = solve_care(model.A, B_acc, bryson_weights(prox_a_max_state, max_input))
    k2 = solve_care(model.A, B_acc, bryson_weights(prox_b_max_state, max_input))
    return k1, k2
