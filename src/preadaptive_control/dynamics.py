"""Plant and reference-model dynamics, parameter schedules, RK4 integration.

The plant is linear with a matched linear uncertainty:

    x' = A x + B (theta^T x + u) + B1r r,   y = x[i]

and the reference model is the ideal closed loop

    xr' = Ar xr + (B1r + B2r) r,   Ar = A - B K,  B2r = k0 B.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, require_finite

#: Any state component beyond this magnitude aborts the run.
DIVERGENCE_LIMIT = 1e6


def controllability_matrix(A, B):
    """[B, AB, A^2 B, ...] as an n x n matrix for single-input B."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(B, dtype=float).reshape(-1)
    n = A.shape[0]
    cols = [b]
    for _ in range(n - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


@dataclass(frozen=True)
class PlantConfig:
    """Known plant matrices; theta enters through the input channel B."""

    A: np.ndarray
    B: np.ndarray       # n-vector (single input column)
    B1r: np.ndarray     # n-vector
    output_index: int   # 1-based index of the measured output component

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float).reshape(-1)
        B1r = np.asarray(self.B1r, dtype=float).reshape(-1)
        n = A.shape[0]
        if A.shape != (n, n) or B.shape != (n,) or B1r.shape != (n,):
            raise ConfigError("plant matrix dimensions are inconsistent")
        for name, value in (("A", A), ("B", B), ("B1r", B1r)):
            require_finite(name, value)
        if not (1 <= self.output_index <= n):
            raise ConfigError(f"output_index must be in [1, {n}]")
        if np.linalg.matrix_rank(controllability_matrix(A, B)) < n:
            raise ConfigError("(A, B) is not controllable")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "B1r", B1r)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def iy(self):
        """0-based output index."""
        return self.output_index - 1


def is_hurwitz(M):
    return bool(np.all(np.linalg.eigvals(M).real < 0.0))


@dataclass(frozen=True)
class ReferenceConfig:
    """Reference model xr' = Ar xr + (B1r + B2r) r."""

    Ar: np.ndarray
    B1r: np.ndarray
    B2r: np.ndarray

    def __post_init__(self):
        Ar = np.atleast_2d(np.asarray(self.Ar, dtype=float))
        B1r = np.asarray(self.B1r, dtype=float).reshape(-1)
        B2r = np.asarray(self.B2r, dtype=float).reshape(-1)
        if not is_hurwitz(Ar):
            raise ConfigError("reference matrix Ar is not Hurwitz")
        object.__setattr__(self, "Ar", Ar)
        object.__setattr__(self, "B1r", B1r)
        object.__setattr__(self, "B2r", B2r)


@dataclass(frozen=True)
class ThetaSchedule:
    """Right-continuous piecewise-constant true parameter vector.

    ``pieces`` is a list of (t_start, theta); the first piece must start at
    t = 0 and start times must be strictly increasing.  ``bounds``, when
    given, is a (lo, hi) component-wise box every theta must lie in.
    """

    pieces: tuple
    horizon: float
    bounds: tuple | None = None

    def __post_init__(self):
        pieces = tuple(
            (float(t), np.asarray(th, dtype=float).reshape(-1)) for t, th in self.pieces
        )
        if not pieces:
            raise ConfigError("schedule needs at least one piece")
        require_finite("horizon", self.horizon)
        for t, th in pieces:
            require_finite("schedule piece time", t)
            require_finite(f"theta at t={t}", th)
        if pieces[0][0] != 0.0:
            raise ConfigError("first schedule piece must start at t = 0")
        starts = [t for t, _ in pieces]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError("schedule start times must be strictly increasing")
        n = pieces[0][1].shape[0]
        if any(th.shape != (n,) for _, th in pieces):
            raise ConfigError("all schedule pieces must have the same dimension")
        if self.bounds is not None:
            lo = np.asarray(self.bounds[0], dtype=float).reshape(-1)
            hi = np.asarray(self.bounds[1], dtype=float).reshape(-1)
            if lo.shape != (n,) or hi.shape != (n,):
                raise ConfigError(f"bounds: {lo.size} and {hi.size} entries, not {n}")
            for t, th in pieces:
                if np.any(th < lo) or np.any(th > hi):
                    raise ConfigError(f"theta at t={t} leaves the declared box")
            object.__setattr__(self, "bounds", (lo, hi))
        object.__setattr__(self, "pieces", pieces)

    @property
    def n(self):
        return self.pieces[0][1].shape[0]

    @property
    def jump_times(self):
        """Start times of every piece after the first."""
        return tuple(t for t, _ in self.pieces[1:])


def theta_at(schedule, t):
    """Value of the last piece with t_start <= t (right-continuous)."""
    if t < 0.0 or t > schedule.horizon:
        raise ValueError(f"t={t} outside [0, {schedule.horizon}]")
    theta = schedule.pieces[0][1]
    for t_start, th in schedule.pieces:
        if t_start <= t:
            theta = th
        else:
            break
    return theta


def plant_derivative(cfg, x, u, theta, r):
    """x' = A x + B (theta.x + u) + B1r r."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if x.shape != (cfg.n,) or theta.shape != (cfg.n,):
        raise ValueError("dimension mismatch with plant config")
    return cfg.A @ x + cfg.B * (theta @ x + u) + cfg.B1r * r


def reference_derivative(cfg, x_r, r):
    """xr' = Ar xr + (B1r + B2r) r."""
    x_r = np.asarray(x_r, dtype=float)
    if x_r.shape != (cfg.Ar.shape[0],):
        raise ValueError("dimension mismatch with reference config")
    return cfg.Ar @ x_r + (cfg.B1r + cfg.B2r) * r


def rk4_step(derivative_fn, state, t, dt):
    """One classical 4th-order Runge-Kutta step of the full coupled state."""
    k1 = derivative_fn(t, state)
    k2 = derivative_fn(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = derivative_fn(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = derivative_fn(t + dt, state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        bad = int(np.argmax(~np.isfinite(out)))
        raise DivergenceError(f"non-finite state at t={t + dt}", t=t + dt, component=bad)
    return out


def check_bounded(state, t, bounded=None):
    """Divergence guard: abort loudly instead of propagating NaNs or huge values.

    Every component of ``state`` (any sequence of floats) must be finite, and
    the first ``bounded`` components (all by default) must stay within
    DIVERGENCE_LIMIT.  The error gives the time ``t`` and the first
    non-finite component, or else the largest bounded one.
    """
    if all(abs(v) <= DIVERGENCE_LIMIT for v in state):  # False on NaN
        return
    for i, v in enumerate(state):
        if not math.isfinite(v):
            raise DivergenceError(f"non-finite state component {i} at t={t}",
                                  t=t, component=i)
    mags = [abs(v) for v in state[:bounded]]
    big = max(mags, default=0.0)
    if big > DIVERGENCE_LIMIT:
        bad = mags.index(big)
        raise DivergenceError(
            f"state component {bad} exceeded {DIVERGENCE_LIMIT:g} at t={t}",
            t=t,
            component=bad,
        )
