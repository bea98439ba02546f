"""Online gradient learner for the preadaptation network.

Over each disturbance phase the coupled sensitivity blocks

    S_e  = d e_v / d theta_I      (n x n)
    S_th = d theta_hat / d theta_I (n x n)

evolve by S' = Pi(t) S with S = [S_e; S_th], while the cost E = integral |e|
and its gradient dE/dtheta_I = integral sign(e) * S_e[i, :] accumulate.  At
the recovery event the gradient is backpropagated through the network and the
weights are updated from their onset-time snapshot.
"""

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import LearnerError
from .preadapt import PreadaptNet


class GradientMode(str, Enum):
    """Exact mode uses the true parameter mismatch inside Pi (simulation-only
    privilege); approximated mode sets it to zero so the gradient is computable
    online."""

    EXACT = "exact"
    APPROX = "approx"


def pi_matrix(e_v, x_r, dtheta, Ar, B, P, gamma):
    """2n x 2n coefficient matrix of the sensitivity ODE.

    Blocks: [[Ar + B dtheta^T, -B (e_v + x_r)^T],
             [gamma (e_v^T P B) I + gamma (e_v + x_r) B^T P, 0]].
    """
    e_v = np.asarray(e_v, dtype=float)
    x_r = np.asarray(x_r, dtype=float)
    dtheta = np.asarray(dtheta, dtype=float)
    B = np.asarray(B, dtype=float).reshape(-1)
    n = B.shape[0]
    s = e_v + x_r
    pb = P @ B
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = Ar + np.outer(B, dtheta)
    out[:n, n:] = -np.outer(B, s)
    out[n:, :n] = gamma * float(e_v @ pb) * np.eye(n) + gamma * np.outer(s, pb)
    return out


def pi_hat(e_v, x_r, Ar, B, P, gamma):
    """Online-computable approximation: Pi with the unknown mismatch set to 0."""
    n = np.asarray(B).reshape(-1).shape[0]
    return pi_matrix(e_v, x_r, np.zeros(n), Ar, B, P, gamma)


def sensitivity_derivative(S_e, S_th, pi):
    """Time derivative of the stacked sensitivity blocks: Pi @ [S_e; S_th]."""
    S = np.vstack([S_e, S_th])
    if not np.all(np.isfinite(S)):
        raise LearnerError("non-finite sensitivity state")
    dS = pi @ S
    n = S_e.shape[0]
    return dS[:n], dS[n:]


@dataclass
class PhaseSnapshot:
    """Everything captured at the onset step that the phase-end update needs."""

    t_u: float
    input2: np.ndarray
    sigma_h: np.ndarray
    W: np.ndarray
    V: np.ndarray
    x: np.ndarray
    x_r: np.ndarray
    theta_I: np.ndarray
    step: int


@dataclass
class SensitivityState:
    """Accumulators for one adaptation phase; inactive between phases."""

    n: int
    dE_dthI: np.ndarray = None
    E_acc: float = 0.0
    active: bool = False
    snapshot: PhaseSnapshot = None

    def activate(self, snapshot):
        self.dE_dthI = np.zeros(self.n)
        self.E_acc = 0.0
        self.active = True
        self.snapshot = snapshot

    def deactivate(self):
        self.active = False
        self.snapshot = None


def gradient_code(row, dt):
    """Lines of one left-rectangle step of dE/dtheta_I, written once as code
    text: ``dE{c} += sign(e) * row[c] * dt`` for each source expression in
    ``row`` (the output's row of S_e), over the locals ``e`` and ``dE0,
    dE1, ...``; sign(0) counts as 0.  ``dt`` is a source expression.

    accumulate_cost and simengine's sensitivity loop both compile them.
    Adding ``-1.0 * s * dt`` is subtracting ``s * dt``: a sign flip is exact.
    """
    if not row:
        return []
    return (["if e > 0.0:"] + [f"    dE{c} += {s} * {dt}" for c, s in enumerate(row)]
            + ["elif e != 0.0:"] + [f"    dE{c} -= {s} * {dt}" for c, s in enumerate(row)])


@functools.lru_cache(maxsize=8)
def _gradient_step(n):
    """``gradient_code`` over a row of ``n`` floats, compiled as ``step(e,
    dt, dE0, ..., s0, ...)``; returns the new gradient as a list."""
    dE, row = [f"dE{c}" for c in range(n)], [f"s{c}" for c in range(n)]
    lines = gradient_code(row, "dt") + [f"return [{', '.join(dE)}]"]
    namespace = {}
    exec(f"def step({', '.join(['e', 'dt'] + dE + row)}):\n"
         + "".join(f"    {line}\n" for line in lines), namespace)
    return namespace["step"]


def accumulate_cost(sens, e, S_e_row_i, dt):
    """Left-rectangle accumulation of E and dE/dtheta_I; sign(0) counts as 0.

    ``S_e_row_i`` is any sequence of floats (empty accumulates E alone); the
    gradient step is ``gradient_code``'s, which a run's loop runs inline.
    """
    if not sens.active:
        raise LearnerError("accumulate_cost on inactive sensitivity state")
    sens.E_acc += abs(e) * dt
    row = [float(s) for s in S_e_row_i]
    grad = sens.dE_dthI
    grad[:len(row)] = _gradient_step(len(row))(e, dt, *grad[:len(row)].tolist(), *row)
    return sens


def grad_weights(dE_dthI, net, input2, sigma_h):
    """Backpropagate dE/dtheta_I through the two-layer network.

    Gradients are shaped like their weight matrices: dE_dW is h x n,
    dE_dV is 2 x h.
    """
    g = np.asarray(dE_dthI, dtype=float).reshape(-1)
    sigma_h = np.asarray(sigma_h, dtype=float)
    input2 = np.asarray(input2, dtype=float)
    dE_dW = np.outer(sigma_h, g)
    sprime = sigma_h * (1.0 - sigma_h)
    dE_dV = np.outer(input2, sprime * (net.W @ g))
    return dE_dW, dE_dV


def update_weights(net, dE_dW, dE_dV, gamma_pa, snapshot_W=None, snapshot_V=None):
    """Gradient step from the onset-time weights; rejects non-finite results."""
    W0 = net.W if snapshot_W is None else snapshot_W
    V0 = net.V if snapshot_V is None else snapshot_V
    W = W0 - gamma_pa * dE_dW
    V = V0 - gamma_pa * dE_dV
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(V))):
        raise LearnerError("weight update produced non-finite values")
    return PreadaptNet(W=W, V=V)


def close_phase(sens, net, gamma_pa, t_d, clip_norm=None):
    """Finish a phase at the recovery event: backprop, update, deactivate.

    Returns (updated net, phase_report dict).  If the update would produce
    non-finite weights it is skipped and the report says so.
    """
    if not sens.active:
        raise LearnerError("recovery event without an active phase")
    snap = sens.snapshot
    grad = sens.dE_dthI
    if clip_norm is not None:
        norm = float(np.linalg.norm(grad))
        if norm > clip_norm:
            grad = grad * (clip_norm / norm)
    dE_dW, dE_dV = grad_weights(grad, net, snap.input2, snap.sigma_h)
    report = {
        "t_u": snap.t_u,
        "t_d": t_d,
        "E_acc": sens.E_acc,
        "grad_W_norm": float(np.linalg.norm(dE_dW)),
        "grad_V_norm": float(np.linalg.norm(dE_dV)),
        "updated": True,
    }
    try:
        new_net = update_weights(net, dE_dW, dE_dV, gamma_pa, snap.W, snap.V)
    except LearnerError:
        report["updated"] = False
        new_net = net
    sens.deactivate()
    return new_net, report
