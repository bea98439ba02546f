import numpy as np
import pytest

from preadaptive_control import AttentionConfig, AttentionState, detect_events
from preadaptive_control.attention import velocity_estimator
from preadaptive_control.errors import ConfigError

CFG = AttentionConfig(c_e=0.005, c_ed=0.02)
DIRTY = velocity_estimator(AttentionConfig(c_e=0.005, c_ed=0.02, estimator="dirty",
                                           tau_f=0.05))
TRACKING = velocity_estimator(AttentionConfig(c_e=0.005, c_ed=0.02, omega_n=12.0,
                                              zeta=0.2))


# --------------------------------------------------------------------------
# velocity estimators

def test_dirty_derivative_constant_input_decays_to_zero():
    state = AttentionState(e_prev=0.3, edot_hat=1.0)
    for _ in range(2000):
        DIRTY(state, 0.3, 1e-3)
        state.e_prev = 0.3
    assert abs(state.edot_hat) < 1e-10


def test_dirty_derivative_tracks_ramp_slope():
    state = AttentionState()
    dt = 1e-3
    for k in range(1, 1001):  # e = t, slope 1, well past tau_f
        e = k * dt
        DIRTY(state, e, dt)
        state.e_prev = e
    assert state.edot_hat == pytest.approx(1.0, rel=0.01)


def test_dirty_derivative_first_call_zero():
    state = AttentionState()
    assert DIRTY(state, 0.0, 1e-3) == 0.0


def test_dirty_derivative_rejects_bad_dt():
    with pytest.raises(ValueError):
        DIRTY(AttentionState(), 0.0, 0.0)


def test_tracking_estimator_settles_on_ramp_slope():
    state = AttentionState()
    dt = 1e-3
    for k in range(1, 5001):
        TRACKING(state, k * dt, dt)
    assert state.edot_hat == pytest.approx(1.0, rel=0.01)


def test_tracking_estimator_constant_input_decays():
    state = AttentionState(e_track=0.0, edot_hat=0.5)
    for _ in range(20000):
        TRACKING(state, 0.2, 1e-3)
    assert abs(state.edot_hat) < 1e-6
    assert state.e_track == pytest.approx(0.2, abs=1e-6)


def test_attention_config_validation():
    with pytest.raises(ConfigError):
        AttentionConfig(c_e=0.0, c_ed=0.02)
    with pytest.raises(ConfigError):
        AttentionConfig(c_e=0.005, c_ed=0.02, estimator="kalman")
    with pytest.raises(ConfigError):
        AttentionConfig(c_e=0.005, c_ed=0.02, zeta=-0.1)


# --------------------------------------------------------------------------
# event detection

def test_upward_crossing_with_fast_rate_fires_eu():
    state = AttentionState(e_prev=0.004)
    e_u, e_d, att = detect_events(CFG, state, 0.006, 0.05, 1.0)
    assert (e_u, e_d, att) == (1, 0, 1)
    assert state.in_disturbance
    assert state.events == [(1.0, "E_u")]


def test_downward_crossing_with_slow_rate_fires_ed():
    state = AttentionState(e_prev=0.006, in_disturbance=True)
    e_u, e_d, att = detect_events(CFG, state, 0.004, 0.001, 2.0)
    assert (e_u, e_d, att) == (0, 1, 1)
    assert not state.in_disturbance


def test_no_crossing_no_event():
    state = AttentionState(e_prev=0.004)
    assert detect_events(CFG, state, 0.004, 0.5, 1.0) == (0, 0, 0)


def test_upward_crossing_with_slow_rate_suppressed():
    state = AttentionState(e_prev=0.004)
    assert detect_events(CFG, state, 0.006, 0.01, 1.0) == (0, 0, 0)
    assert not state.in_disturbance


def test_downward_crossing_with_fast_rate_suppressed():
    state = AttentionState(e_prev=0.006, in_disturbance=True)
    assert detect_events(CFG, state, 0.004, 0.05, 1.0) == (0, 0, 0)
    assert state.in_disturbance


def test_eu_suppressed_while_phase_open():
    state = AttentionState(e_prev=0.004, in_disturbance=True)
    assert detect_events(CFG, state, 0.006, 0.05, 1.0) == (0, 0, 0)


def test_negative_error_crossing_uses_magnitude():
    state = AttentionState(e_prev=-0.004)
    e_u, _, _ = detect_events(CFG, state, -0.006, -0.05, 1.0)
    assert e_u == 1


def test_events_alternate_on_synthetic_trace():
    # square-ish error pulses: each excursion above c_e produces one E_u/E_d pair
    state = AttentionState()
    dt = 1e-3
    t = np.arange(0.0, 12.0, dt)
    e = 0.01 * ((np.sin(2.0 * np.pi * t / 4.0) > 0.5).astype(float))
    cfg = AttentionConfig(c_e=0.005, c_ed=0.02, estimator="dirty", tau_f=0.05)
    from preadaptive_control.attention import update_velocity

    for tk, ek in zip(t, e):
        edot = update_velocity(cfg, state, ek, dt)
        detect_events(cfg, state, ek, edot, tk)
    kinds = [kind for _, kind in state.events]
    assert kinds[0] == "E_u"
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_raising_threshold_never_advances_eu():
    # replay one recorded error excursion under two thresholds
    dt = 1e-3
    t = np.arange(0.0, 2.0, dt)
    e = 0.012 * np.sin(2.0 * np.pi * t / 2.0) ** 2

    def first_eu(c_e):
        cfg = AttentionConfig(c_e=c_e, c_ed=0.02, estimator="dirty")
        state = AttentionState()
        from preadaptive_control.attention import update_velocity

        for tk, ek in zip(t, e):
            edot = update_velocity(cfg, state, ek, dt)
            e_u, _, _ = detect_events(cfg, state, ek, edot, tk)
            if e_u:
                return tk
        return None

    low = first_eu(0.005)
    high = first_eu(0.008)
    assert low is not None and high is not None and high > low


def test_scenario1_rac_event_timing(rac1_result):
    # one E_u within 0.5 s of each jump, one E_d strictly before the next jump
    events = rac1_result.events
    jumps = [5.0, 20.0, 45.0]
    eus = [t for t, kind in events if kind == "E_u"]
    eds = [t for t, kind in events if kind == "E_d"]
    assert len(eus) == 3 and len(eds) == 3
    for tj, tu, td, nxt in zip(jumps, eus, eds, [20.0, 45.0, 60.0]):
        assert tj < tu <= tj + 0.5
        assert tu < td < nxt
