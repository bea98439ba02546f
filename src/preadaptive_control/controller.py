"""Baseline LQR gain, adaptive control law, adaptation law, matrix-equation solvers.

Control input:  u = -K x - theta_hat^T x + k0 r
Adaptation law: theta_hat' = gamma * x * (e_v^T P B),  e_v = x - x_r
with P the SPD solution of Ar^T P + P Ar = -I.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import is_hurwitz
from .errors import ConfigError, SolverError

_LYAP_RESIDUAL_TOL = 1e-9
_CARE_RESIDUAL_TOL = 1e-8


def solve_lyapunov_rhs(Ar, Qrhs):
    """Solve Ar^T P + P Ar = -Qrhs via the vectorized n^2 x n^2 linear system."""
    Ar = np.atleast_2d(np.asarray(Ar, dtype=float))
    Qrhs = np.atleast_2d(np.asarray(Qrhs, dtype=float))
    n = Ar.shape[0]
    if not is_hurwitz(Ar):
        raise SolverError("Lyapunov equation has no SPD solution: Ar is not Hurwitz")
    # vec(Ar^T P) = (I (x) Ar^T) vec(P); vec(P Ar) = (Ar^T (x) I) vec(P)
    M = np.kron(np.eye(n), Ar.T) + np.kron(Ar.T, np.eye(n))
    vecP = np.linalg.solve(M, -Qrhs.reshape(-1, order="F"))
    P = vecP.reshape((n, n), order="F")
    return 0.5 * (P + P.T)


def solve_lyapunov(Ar):
    """SPD P with Ar^T P + P Ar = -I."""
    Ar = np.atleast_2d(np.asarray(Ar, dtype=float))
    n = Ar.shape[0]
    P = solve_lyapunov_rhs(Ar, np.eye(n))
    resid = np.max(np.abs(Ar.T @ P + P @ Ar + np.eye(n)))
    if resid >= _LYAP_RESIDUAL_TOL:
        raise SolverError(f"Lyapunov residual {resid:g} too large")
    if np.any(np.linalg.eigvalsh(P) <= 0.0):
        raise SolverError("Lyapunov solution is not positive definite")
    return P


def _stabilizing_bootstrap(A, B):
    """Bass-style initial stabilizing gain via an eigenvalue-shifted Lyapunov solve."""
    n = A.shape[0]
    # beta must exceed every |Re(eig(A))| so A + beta*I is anti-stable
    beta = float(np.max(np.abs(np.linalg.eigvals(A).real))) + 1.0
    # (A + beta I) X + X (A + beta I)^T = 2 B B^T, then K0 = B^T X^{-1};
    # equivalently the standard-form solve with the transposed shifted matrix.
    X = solve_lyapunov_rhs(-(A + beta * np.eye(n)).T, 2.0 * np.outer(B, B))
    try:
        K0 = np.linalg.solve(X.T, B).reshape(1, -1)
    except np.linalg.LinAlgError as exc:
        raise SolverError("stabilizing bootstrap failed (singular Gramian)") from exc
    if not is_hurwitz(A - np.outer(B, K0)):
        raise SolverError("stabilizing bootstrap did not produce a Hurwitz loop")
    return K0


def lqr_gain(A, B, Q, R, max_iter=100, tol=1e-12):
    """LQR gain K = R^-1 B^T P* via Kleinman-Newton iteration on the CARE.

    Returns the 1 x n gain for the single-input pair (A, B) with state cost Q
    and scalar input cost R > 0.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(-1)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = float(R)
    n = A.shape[0]
    if R <= 0.0:
        raise ConfigError("R must be positive")
    if np.any(np.linalg.eigvalsh(0.5 * (Q + Q.T)) < -1e-12):
        raise ConfigError("Q must be positive semidefinite")

    K = _stabilizing_bootstrap(A, B)
    P_prev = None
    for _ in range(max_iter):
        Acl = A - np.outer(B, K)
        P = solve_lyapunov_rhs(Acl, Q + K.T @ K * R)
        K = (B @ P / R).reshape(1, -1)
        if P_prev is not None and np.max(np.abs(P - P_prev)) < tol:
            break
        P_prev = P
    else:
        raise SolverError("Kleinman-Newton iteration did not converge")

    resid = np.max(np.abs(A.T @ P + P @ A - np.outer(P @ B, B @ P) / R + Q))
    if resid >= _CARE_RESIDUAL_TOL:
        raise SolverError(f"CARE residual {resid:g} too large")
    if not is_hurwitz(A - np.outer(B, K)):
        raise SolverError("LQR closed loop is not Hurwitz")
    return K


@dataclass(frozen=True)
class ControllerConfig:
    """Fixed controller data: gain K, feedforward k0, adaptation rate, Lyapunov P."""

    K: np.ndarray       # 1 x n
    k0: float
    gamma: float
    P: np.ndarray       # n x n SPD

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float).reshape(1, -1)
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if np.max(np.abs(P - P.T)) >= 1e-12:
            raise ConfigError("P must be symmetric")
        if np.any(np.linalg.eigvalsh(P) <= 0.0):
            raise ConfigError("P must be positive definite")
        if self.gamma <= 0.0:
            raise ConfigError("gamma must be positive")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "P", P)

    @property
    def n(self):
        return self.K.shape[1]


def control_input(cfg, x, theta_hat, r):
    """u = -K x - theta_hat.x + k0 r  (baseline plus adaptive terms).

    The run's step sums the same terms as ``k0 r - sum_j (K_j + theta_hat_j)
    x_j``, left to right; this vector form agrees with it to a few ulp.
    """
    x = np.asarray(x, dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    if x.shape != (cfg.n,) or theta_hat.shape != (cfg.n,):
        raise ValueError("dimension mismatch with controller config")
    return float(-(cfg.K[0] @ x) - theta_hat @ x + cfg.k0 * r)


def adaptation_derivative(cfg, x, e_v, B):
    """theta_hat' = gamma * x * (e_v^T P B)."""
    x = np.asarray(x, dtype=float)
    e_v = np.asarray(e_v, dtype=float)
    B = np.asarray(B, dtype=float).reshape(-1)
    if x.shape != (cfg.n,) or e_v.shape != (cfg.n,) or B.shape != (cfg.n,):
        raise ValueError("dimension mismatch with controller config")
    s = float(e_v @ cfg.P @ B)
    return cfg.gamma * x * s
