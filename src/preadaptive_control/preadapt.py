"""Two-layer sigmoid network computing the reinitialization value for theta_hat.

The network maps the two features [e, |edot_hat|] through a hidden layer of
width h to an n-vector; when an onset event fires, the current estimate is
replaced by that output.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _logistic(v):
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:   # where C's exp returns inf, and 1.0 / inf is 0.0
        return 0.0


def sigmoid(x):
    """Element-wise logistic 1 / (1 + exp(-x)); saturates, never overflows.

    Same shape as ``x`` with float64 entries; a 0-d input gives a numpy
    scalar, and NaN stays NaN.  Each entry is ``1.0 / (1.0 + math.exp(-v))``,
    bit for bit scipy's ``expit``: both round the same two double operations
    around the C library's ``exp``, which ``math.exp`` calls.  ``numpy.exp``
    is numpy's own ``exp``, so the array form ``1 / (1 + np.exp(-x))``
    differs in the last bit for about 2% of inputs.  Below v = -709.78,
    ``exp(-v)`` overflows: C's ``exp`` returns inf and ``expit`` gives 0.0,
    where ``math.exp`` raises, so that case maps to 0.0 too (the true value
    is below 6e-309).  The Python loop is cheap at the network's hidden width.
    """
    a = np.asarray(x, dtype=float)
    out = np.array([_logistic(v) for v in a.ravel().tolist()], dtype=float)
    out = out.reshape(a.shape)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class PreadaptNet:
    """Weights of the reinitialization network.

    W: hidden-to-output, h x n.  V: input-to-hidden, 2 x h.
    Output is W.T @ sigmoid(V.T @ [e, |edot_hat|]).
    """

    W: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        V = np.atleast_2d(np.asarray(self.V, dtype=float))
        if V.shape[0] != 2:
            raise ConfigError("input dimension is fixed at 2 (features [e, |edot|])")
        if V.shape[1] != W.shape[0]:
            raise ConfigError("hidden widths of V and W disagree")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(V))):
            raise ConfigError("network weights must be finite")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "V", V)

    @property
    def hidden(self):
        return self.W.shape[0]

    @property
    def n(self):
        return self.W.shape[1]

    @classmethod
    def random(cls, n, hidden, seed, scale=0.5):
        """Seeded i.i.d. uniform [-scale, scale] initialization."""
        rng = np.random.default_rng(seed)
        W = rng.uniform(-scale, scale, size=(hidden, n))
        V = rng.uniform(-scale, scale, size=(2, hidden))
        return cls(W=W, V=V)

    def to_dict(self):
        """Flat row-major serialization for the run-summary file."""
        return {
            "hidden": int(self.hidden),
            "n": int(self.n),
            "W": [float(v) for v in self.W.reshape(-1)],
            "V": [float(v) for v in self.V.reshape(-1)],
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of :meth:`to_dict`; a ConfigError names the bad entry."""
        try:
            if set(d) != {"hidden", "n", "W", "V"}:
                raise KeyError
            h, n = d["hidden"], d["n"]
            # a bool is no int here, and reshape infers a size of -1
            if not (type(h) is int and type(n) is int and min(h, n) >= 1):
                raise TypeError
            W = np.asarray(d["W"], dtype=float).reshape(h, n)
            V = np.asarray(d["V"], dtype=float).reshape(2, h)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                "weights must be a mapping of integers hidden, n >= 1 and lists "
                f"W of hidden * n and V of 2 * hidden numbers, got {d!r:.200}"
            ) from exc
        return cls(W=W, V=V)


def theta_init(net, e, edot_hat):
    """Forward pass; the rate feature enters as an absolute value.

    Returns (theta_I, sigma_h, input2) so the learner can snapshot the
    activations that produced the reinitialization.
    """
    input2 = np.array([e, abs(edot_hat)], dtype=float)
    sigma_h = sigmoid(net.V.T @ input2)
    return net.W.T @ sigma_h, sigma_h, input2


def apply_preadaptation(att, e_u, theta_hat, theta_I):
    """theta_hat <- theta_I exactly when Att = 1 and E_u = 1."""
    if att and e_u:
        return np.array(theta_I, dtype=float)
    return theta_hat
