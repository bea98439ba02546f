"""Disturbance-onset / recovery event detection from the output error.

An onset event fires when |e| crosses the threshold c_e from below while the
error-rate estimate is fast (|edot_hat| > c_ed); a recovery event fires when
|e| crosses back down while the rate is slow.  Events strictly alternate:
onset, recovery, onset, ...
"""

import math
from dataclasses import dataclass, field

from .errors import ConfigError, require_finite


@dataclass(frozen=True)
class AttentionConfig:
    c_e: float = 0.005          # error magnitude threshold
    c_ed: float = 0.02          # error-rate threshold
    tau_f: float = 0.05         # dirty-derivative time constant [s]
    estimator: str = "tracking"  # "tracking" | "dirty"
    omega_n: float = 12.0       # tracking-differentiator natural frequency [rad/s]
    zeta: float = 0.2           # tracking-differentiator damping ratio

    def __post_init__(self):
        for name in ("c_e", "c_ed", "tau_f", "omega_n", "zeta"):
            require_finite(name, getattr(self, name))
        if self.c_e <= 0.0 or self.c_ed <= 0.0 or self.tau_f <= 0.0:
            raise ConfigError("attention thresholds and tau_f must be positive")
        if self.estimator not in ("tracking", "dirty"):
            raise ConfigError(f"unknown velocity estimator '{self.estimator}'")
        if self.omega_n <= 0.0 or self.zeta <= 0.0:
            raise ConfigError("omega_n and zeta must be positive")


@dataclass
class AttentionState:
    """Mutable per-run detector state; updated once per integration step."""

    e_prev: float = 0.0
    edot_hat: float = 0.0
    e_track: float = 0.0        # position state of the tracking differentiator
    in_disturbance: bool = False
    events: list = field(default_factory=list)  # (t, "E_u"|"E_d")


def _dirty_estimator(tau_f):
    """Dirty-derivative update: low-pass-filtered finite difference of e.

    Stores the new estimate in the state; ``e_prev`` is left untouched so the
    crossing test in :func:`detect_events` can still see it.
    """
    def estimate(state, e, dt):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        raw = (e - state.e_prev) / dt
        alpha = dt / tau_f
        state.edot_hat += alpha * (raw - state.edot_hat)
        return state.edot_hat
    return estimate


def _tracking_estimator(omega_n, zeta):
    """Second-order tracking-differentiator update.

    Continuous form: z1' = z2 + 2*zeta*omega_n*(e - z1), z2' = omega_n^2*(e - z1);
    the rate output z2 has transfer omega_n^2 s / (s^2 + 2 zeta omega_n s +
    omega_n^2) from e.  Light damping gives the transient gain above unity
    needed to read fast onsets at the threshold crossing.
    """
    gain_1, gain_2 = _tracking_gains(omega_n, zeta)

    def estimate(state, e, dt):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        err = e - state.e_track
        state.e_track += dt * (state.edot_hat + gain_1 * err)
        state.edot_hat += dt * (gain_2 * err)
        return state.edot_hat
    return estimate


def _tracking_gains(omega_n, zeta):
    return 2.0 * zeta * omega_n, omega_n * omega_n


def require_stable_estimator(cfg, dt):
    """ConfigError naming the field unless the configured estimator's update
    at step ``dt`` is stable; an unstable one fills the rate estimate, and
    the trace, with inf and NaN while the run goes on.

    The dirty derivative scales its estimate by 1 - dt / tau_f per sample;
    the tracking differentiator maps (z1, z2) by [[1 - dt g1, dt],
    [-dt g2, 1]], whose eigenvalues are h +- sqrt(h^2 - det) with h half its
    trace: their largest magnitude must be finite and below 1.
    """
    if cfg.estimator == "dirty":
        if dt / cfg.tau_f >= 2.0:
            raise ConfigError(f"tau_f {cfg.tau_f} makes the dirty-derivative "
                              f"estimator unstable at dt {dt}: dt / tau_f must be "
                              f"below 2")
        return
    gain_1, gain_2 = _tracking_gains(cfg.omega_n, cfg.zeta)
    h = 1.0 - 0.5 * dt * gain_1
    det = 1.0 - dt * gain_1 + dt * dt * gain_2
    disc = h * h - det
    if not (math.isfinite(det) and math.isfinite(disc)):
        radius = math.inf
    else:   # a complex pair has |lambda|^2 = det
        radius = math.sqrt(det) if disc < 0.0 else abs(h) + math.sqrt(disc)
    if not radius < 1.0:
        raise ConfigError(f"omega_n {cfg.omega_n} and zeta {cfg.zeta} make the "
                          f"tracking estimator unstable at dt {dt}: its update has "
                          f"spectral radius {radius:.6g}, not below 1")


def velocity_estimator(cfg):
    """The configured estimator as ``f(state, e, dt)``, one update per sample.

    A run selects it once, so the per-sample update neither dispatches on
    ``cfg.estimator`` nor reads the settings again.
    """
    if cfg.estimator == "dirty":
        return _dirty_estimator(cfg.tau_f)
    return _tracking_estimator(cfg.omega_n, cfg.zeta)


def update_velocity(cfg, state, e, dt):
    """Run the configured velocity estimator for one sample."""
    return velocity_estimator(cfg)(state, e, dt)


def detect_events(cfg, state, e, edot_hat, t):
    """Evaluate the crossing predicates at the current sample.

    Returns (E_u, E_d, Att) as 0/1 flags and advances the detector state
    (phase flag, event list, previous sample).
    """
    prev_margin = abs(state.e_prev) - cfg.c_e
    margin = abs(e) - cfg.c_e

    e_u = 0
    e_d = 0
    if not state.in_disturbance:
        if prev_margin < 0.0 and margin >= 0.0 and abs(edot_hat) > cfg.c_ed:
            e_u = 1
            state.in_disturbance = True
            state.events.append((t, "E_u"))
    else:
        if prev_margin > 0.0 and margin <= 0.0 and abs(edot_hat) < cfg.c_ed:
            e_d = 1
            state.in_disturbance = False
            state.events.append((t, "E_d"))

    state.e_prev = e
    return e_u, e_d, (e_u | e_d)
