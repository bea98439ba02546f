"""Disturbance-onset / recovery event detection from the output error.

An onset event fires when |e| crosses the threshold c_e from below while the
error-rate estimate is fast (|edot_hat| > c_ed); a recovery event fires when
|e| crosses back down while the rate is slow.  Events strictly alternate:
onset, recovery, onset, ...
"""

import functools
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


# --------------------------------------------------------------------------
# the estimator update and the crossing test, written once as code text
#
# The lines work on locals: the new sample e, the rate estimate edot, the
# tracking differentiator's position e_track, the sample before e_prev, the
# phase flag in_dist and the event list events.  velocity_estimator and
# detect_events compile them into functions over an AttentionState, and
# simengine compiles them into the run's loop, which keeps these locals
# between events.  An event is a flip of in_dist: EVENT_FLAGS reads the
# (E_u, E_d, Att) flags off it, given the flag before the test, in_dist0.

def _literal(v):
    return f"({float(v)!r})"  # repr round-trips every float exactly


def estimator_code(cfg, dt):
    """Lines of one update of ``cfg``'s rate estimator at step ``dt``, a
    source expression; they update ``edot`` (and ``e_track``) from ``e``.

    The dirty derivative low-pass filters the finite difference of e with
    time constant tau_f; it reads ``e_prev``, which the crossing test sets
    to e after it.  The tracking differentiator integrates z1' = z2 +
    2*zeta*omega_n*(e - z1), z2' = omega_n^2*(e - z1) by one Euler step:
    the rate output z2 has transfer omega_n^2 s / (s^2 + 2 zeta omega_n s +
    omega_n^2) from e, and light damping gives the transient gain above unity
    needed to read fast onsets at the threshold crossing.
    """
    if cfg.estimator == "dirty":
        return [f"edot += ({dt} / {_literal(cfg.tau_f)}) * ((e - e_prev) / {dt} - edot)"]
    gain_1, gain_2 = _tracking_gains(cfg.omega_n, cfg.zeta)
    return ["err = e - e_track",
            f"e_track += {dt} * (edot + {_literal(gain_1)} * err)",
            f"edot += {dt} * ({_literal(gain_2)} * err)"]


def detector_code(cfg, t):
    """Lines of the crossing test of sample ``e`` at time ``t``, a source
    expression: an onset while no phase is open, a recovery while one is;
    each flips ``in_dist`` and appends its event.  ``e_prev`` becomes e.

    The current sample is tested first, as it rules out a crossing on most
    rows.  ``|e| >= c_e`` is ``|e| - c_e >= 0.0``: the difference of two
    non-negative doubles is zero only when they are equal, and does not
    overflow.
    """
    c_e, c_ed = _literal(cfg.c_e), _literal(cfg.c_ed)
    return [
        "if in_dist:",
        f"    if abs(e) <= {c_e} and abs(e_prev) > {c_e} and abs(edot) < {c_ed}:",
        "        in_dist = False",
        f"        events.append(({t}, 'E_d'))",
        f"elif abs(e) >= {c_e} and abs(e_prev) < {c_e} and abs(edot) > {c_ed}:",
        "    in_dist = True",
        f"    events.append(({t}, 'E_u'))",
        "e_prev = e",
    ]


EVENT_FLAGS = "(0, 0, 0) if in_dist is in_dist0 else (1, 0, 1) if in_dist else (0, 1, 1)"


def _function(name, params, lines):
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {}
    exec(source, namespace)
    return namespace[name]


@functools.lru_cache(maxsize=32)
def velocity_estimator(cfg):
    """The configured estimator as ``f(state, e, dt)``, one update per sample,
    compiled from ``estimator_code``; it stores the new estimate in the state
    and returns it.  Compiled once per configuration, so the per-sample update
    neither dispatches on ``cfg.estimator`` nor reads the settings again.
    """
    return _function("estimate", "state, e, dt", [
        "if dt <= 0.0:",
        "    raise ValueError('dt must be positive')",
        "e_prev, edot, e_track = state.e_prev, state.edot_hat, state.e_track",
        *estimator_code(cfg, "dt"),
        "state.edot_hat, state.e_track = edot, e_track",
        "return edot",
    ])


@functools.lru_cache(maxsize=32)
def _event_detector(cfg):
    return _function("detect", "state, e, edot, t", [
        "e_prev, in_dist, events = state.e_prev, state.in_disturbance, state.events",
        "in_dist0 = in_dist",
        *detector_code(cfg, "t"),
        "state.e_prev, state.in_disturbance = e_prev, in_dist",
        f"return {EVENT_FLAGS}",
    ])


def update_velocity(cfg, state, e, dt):
    """Run the configured velocity estimator for one sample."""
    return velocity_estimator(cfg)(state, e, dt)


def detect_events(cfg, state, e, edot_hat, t):
    """Evaluate the crossing predicates at the current sample.

    Returns (E_u, E_d, Att) as 0/1 flags and advances the detector state
    (phase flag, event list, previous sample); compiled from
    ``detector_code`` once per configuration.
    """
    return _event_detector(cfg)(state, e, edot_hat, t)
