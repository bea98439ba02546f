import hashlib
from dataclasses import replace

import numpy as np
import pytest

from preadaptive_control import (
    AttentionConfig,
    ConfigError,
    DivergenceError,
    GradientMode,
    PlantConfig,
    PreadaptSettings,
    RunConfig,
    ThetaSchedule,
    adaptation_derivative,
    control_input,
    compare_results,
    default_config,
    grad_check,
    phases_by_jump,
    pi_matrix,
    plant_derivative,
    reference_derivative,
    run,
    scenario_schedule,
    simengine,
)
from preadaptive_control.dynamics import rk4_step
from preadaptive_control.simengine import (
    _Stepper,
    _replay_window,
    _segment_source,
    build_controller,
)

from conftest import left_to_right_u


@pytest.fixture(scope="module")
def learner1_result():
    pre = PreadaptSettings(enabled=True, learner_enabled=True, seed=1)
    return run(default_config(1, preadapt=pre))


@pytest.fixture(scope="module")
def exact18_result():
    """Two phases in exact mode: the second starts from weights the exact
    gradient updated."""
    sched = ThetaSchedule(pieces=[(0.0, 0.1 * np.ones(3)), (5.0, np.ones(3)),
                                  (12.0, 4.0 * np.ones(3))], horizon=18.0)
    pre = PreadaptSettings(enabled=True, learner_enabled=True, seed=1,
                           gradient_mode=GradientMode.EXACT)
    return run(default_config(1, preadapt=pre, schedule=sched))


def _trace_digest(res):
    """sha256 of every trace array but u, which _u_digest pins apart, so a
    change that moves u alone shows as such."""
    h = hashlib.sha256()
    for key in ("t", "x", "x_r", "e", "edot_hat", "theta", "theta_hat", "Eu", "Ed"):
        a = res.trace[key]
        h.update(f"{key} {a.dtype.str} {a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# configuration

def test_config_rejects_horizon_not_multiple_of_dt():
    with pytest.raises(ConfigError):
        default_config(1, dt=7e-4)


def test_config_rejects_horizon_off_the_dt_grid_at_many_steps():
    # 140 / 3e-4 = 466666.67 steps: a tolerance scaled by the step count
    # accepted it, and the last step then fell past the horizon
    with pytest.raises(ConfigError):
        default_config(2, dt=3e-4)


def test_config_rejects_jump_time_off_the_dt_grid():
    sched = ThetaSchedule(pieces=[(0.0, 0.1 * np.ones(3)), (5.0005, np.ones(3))],
                          horizon=10.0)
    with pytest.raises(ConfigError, match="5.0005"):
        default_config(1, schedule=sched)


@pytest.mark.parametrize("dt", [1e-320, 1e9])
def test_config_rejects_dt_without_a_whole_step(dt):
    # 60 / 1e-320 overflows to inf, which round() cannot convert; 60 / 1e9
    # rounds to a run of no step
    with pytest.raises(ConfigError, match="whole number of steps"):
        default_config(1, dt=dt)


def test_config_accepts_grid_aligned_dt():
    assert default_config(2, dt=5e-4).num_steps == 280000
    assert default_config(3, dt=2e-3).num_steps == 70000


def test_config_rejects_learner_without_preadapt():
    with pytest.raises(ConfigError):
        default_config(1, preadapt=PreadaptSettings(enabled=False, learner_enabled=True))


def test_config_rejects_schedule_dimension_mismatch():
    with pytest.raises(ConfigError):
        default_config(1, schedule=scenario_schedule(1, n=2))


def test_scenario_schedules():
    assert scenario_schedule(1).horizon == 60.0
    assert scenario_schedule(2).horizon == 140.0
    assert scenario_schedule(3).jump_times == (5.0, 20.0, 35.0, 50.0, 65.0, 80.0,
                                               95.0, 110.0, 125.0)
    with pytest.raises(ConfigError):
        scenario_schedule(4)


# --------------------------------------------------------------------------
# closed-loop behavior

def test_perfect_knowledge_tracks_reference():
    sched = ThetaSchedule(pieces=[(0.0, 0.1 * np.ones(3))], horizon=20.0)
    cfg = default_config(1, schedule=sched, theta_hat0=0.1 * np.ones(3))
    res = run(cfg)
    e_v = res.trace["x"] - res.trace["x_r"]
    assert np.max(np.abs(e_v[-1])) < 1e-6


def test_rac_golden_trace_regression(rac1_result):
    # frozen values from the reference simulation; guards the normative
    # step order (sample theta -> velocity -> events -> control -> RK4)
    tr = rac1_result.trace
    assert tr["e"][5500] == pytest.approx(0.006840383565532918, abs=1e-15)
    assert tr["e"][20500] == pytest.approx(0.0059681300092902095, abs=1e-15)
    assert tr["e"][45500] == pytest.approx(0.010549074958400836, abs=1e-15)
    assert tr["e"][60000] == pytest.approx(-0.0018772471455625744, abs=1e-15)
    assert tr["theta_hat"][60000][0] == pytest.approx(1.3451853423843805, abs=1e-12)


# scenario-1 learner, approx mode, seed 1: (step, e, theta_hat) at the first
# step after each onset, mid-phase and at the recovery event
_LEARNER1_GOLDEN = [
    (5402, 0.00502489996050183,
     (0.39463568665295307, 0.08476892352409922, -0.1911245622151117)),
    (5836, 0.007281987246446395,
     (0.40979216180559896, 0.0782250548345524, -0.19410420827041344)),
    (6272, 0.0049984772632848395,
     (0.41797136450616756, 0.07464854150061877, -0.19522137012991284)),
    (20382, 0.005032099010033764,
     (0.5176228959160134, 0.031544798510984774, -0.214266867851202)),
    (21719, 0.012594731570008372,
     (0.5783537763837939, 0.0040097589840087985, -0.2256299799623782)),
    (23058, 0.004998768815360086,
     (0.6278102463944105, -0.019429820790129587, -0.23246507552004397)),
    (45271, 0.0050371042488276535,
     (1.4091510228967574, -0.38147886817320303, -0.3643230973943858)),
    (45933, 0.007125836882631936,
     (1.4278495039699308, -0.38948732763644767, -0.3676779329102647)),
    (46596, 0.004998350826916825,
     (1.440243518960611, -0.39485819958122925, -0.36937508768676663)),
]


def _assert_golden(res, rows, W, V, E_acc):
    tr = res.trace
    for k, e, theta_hat in rows:
        assert tr["e"][k] == pytest.approx(e, abs=1e-15)
        for got, want in zip(tr["theta_hat"][k], theta_hat):
            assert got == pytest.approx(want, abs=1e-15)
    assert np.allclose(res.net.W, W, rtol=0.0, atol=1e-15)
    assert np.allclose(res.net.V, V, rtol=0.0, atol=1e-15)
    got_E = [rep["E_acc"] for rep in res.phase_reports]
    assert got_E == pytest.approx(E_acc, abs=1e-15)


def test_learner_golden_sensitivity_path(learner1_result):
    # frozen values from the reference simulation; the weights and E_acc pin
    # the approx-mode sensitivity step, the cost accumulation and the update
    _assert_golden(
        learner1_result, _LEARNER1_GOLDEN,
        W=[[0.9000299632581208, 0.04871739632309369, -0.5066737885645978],
           [1.3436167634645133, -0.5929618376918364, -0.22865300079929443],
           [1.216772485915941, -0.49293714721872933, -0.10138606680815099]],
        V=[[-0.4721398302922242, 0.2553337611257462, 0.039543865497008016],
           [-0.16820047251326906, 0.2980707680828281, -0.1892602997390872]],
        E_acc=[0.005710197675233243, 0.027162341603565388, 0.008794749607076697],
    )


def _u_digest(res):
    """sha256 of u, the control each step applied."""
    return hashlib.sha256(np.ascontiguousarray(res.trace["u"]).tobytes()).hexdigest()


def test_learner_trace_is_pinned_bit_for_bit(learner1_result):
    # recorded from the reference simulation: unlike the 1e-15 goldens, this
    # fails when any sum of the step is reordered
    assert _trace_digest(learner1_result) == (
        "9c705a8433fa4640e30ddf9e46bdec3c223e4591613381ff24c94fb88b01582a")
    assert _u_digest(learner1_result) == (
        "9d46808c7ea7b8542d842bba060f558ac4de7a6baa879bd2eeebd8c99aab72c0")


def test_rac_trace_is_pinned_bit_for_bit(rac1_result):
    # the plain-step path alone: no phase ever carries sensitivities
    assert _trace_digest(rac1_result) == (
        "6694c3e87677368ac0a9858435e3d1d5fc3e0d48d29a101eeca8f69afbbd443d")
    assert _u_digest(rac1_result) == (
        "338586bca776b0ba09ca5d5a71e278a5a366fd9b1c7aa5029b98c7938b9b3190")


def test_exact_mode_trace_is_pinned_bit_for_bit(exact18_result):
    # the exact-sensitivity step, whose Pi carries the true mismatch
    assert _trace_digest(exact18_result) == (
        "bfe750f13f83d25e73e8b2375d008f7f26f2c796fbba405da63c834368fcd64e")
    assert _u_digest(exact18_result) == (
        "ec4bcdc4b107f9f81a624546f94cee75d8304a70754e6cf97280482de081f71b")


def test_trace_u_matches_control_input_per_row(learner1_result):
    # every row's u, the horizon row's included, is the one its step
    # applied, summed left to right, and within a few ulp of the vector
    # form's dot products; the 2-state loop has k0 r = 0.05, so the sum has
    # a head there
    for res in (learner1_result, run(_two_state_config())):
        tr = res.trace
        assert tr["u"].tolist() == left_to_right_u(res)
        ctrl, _ = build_controller(res.config)
        r = res.config.r
        u = [control_input(ctrl, x, th, r) for x, th in zip(tr["x"], tr["theta_hat"])]
        scale = (abs(ctrl.k0 * r) + np.abs(tr["x"]) @ np.abs(ctrl.K[0])
                 + np.sum(np.abs(tr["x"] * tr["theta_hat"]), axis=1))
        assert np.all(np.abs(tr["u"] - u) <= 4 * np.spacing(scale))


def test_exact_mode_golden_sensitivity_path(exact18_result):
    res = exact18_result
    assert [(p.step_u, p.step_d) for p in res.phases] == [(5401, 6272), (12228, 15637)]
    _assert_golden(
        res, [
            (12229, 0.005058007116859775,
             (0.491094096460053, 0.04262452043018744, -0.20891821610009528)),
            (13932, 0.023833305110629893,
             (0.6441367000262149, -0.0375699075892076, -0.2457831079992581)),
            (15637, 0.0049939262157959186,
             (0.7574654014618213, -0.10333680428053808, -0.2615408267456447)),
        ],
        W=[[0.2750194549627438, 0.3108271479932813, -0.4037130986744506],
           [0.7145030872732101, -0.3292402286464005, -0.12502814501192408],
           [0.5911147276905447, -0.23054967919997893, 0.0016819323662028984]],
        V=[[-0.4725075985991957, 0.25392740213335485, 0.03842767604686703],
           [-0.17073535898585682, 0.29143383482012036, -0.1947333634902636]],
        E_acc=[0.005710197675233243, 0.061612298005487995],
    )


def test_rac_phase_metrics(rac1_result):
    phases = rac1_result.phases
    assert [p.jump_ref for p in phases] == [5.0, 20.0, 45.0]
    assert all(p.recovered for p in phases)
    # peak |e| within each phase occurs before its recovery event
    tr = rac1_result.trace
    for p in phases:
        seg = np.abs(tr["e"][p.step_u:p.step_d + 1])
        assert np.max(seg) == pytest.approx(p.peak_abs_e, abs=1e-15)


def test_phase_peak_stops_at_recovery():
    # scenario 2, seed 6: |e| rises again between the t=20 phase's recovery
    # (max |e| 0.0059 up to it) and the next onset, to 0.00729; the peak of a
    # phase is taken from its onset to its recovery only
    pre = PreadaptSettings(enabled=True, learner_enabled=True, seed=6)
    res = run(default_config(2, preadapt=pre))
    mag = np.abs(res.trace["e"])
    assert any(p.jump_ref == 20.0 for p in res.phases)
    for p in res.phases:
        stop = p.step_d + 1 if p.recovered else len(mag)
        assert p.peak_abs_e == np.max(mag[p.step_u:stop])


def test_run_determinism():
    pre = PreadaptSettings(enabled=True, learner_enabled=True, seed=3)
    a = run(default_config(1, preadapt=pre))
    b = run(default_config(1, preadapt=pre))
    for key in a.trace:
        assert np.array_equal(a.trace[key], b.trace[key])
    assert np.array_equal(a.net.W, b.net.W)


def test_reference_trajectory_independent_of_variant(rac1_result, learner1_result):
    assert np.array_equal(rac1_result.trace["x_r"], learner1_result.trace["x_r"])


def test_a_shorter_horizon_runs_the_head_of_the_longer_run(learner1_result):
    # the same learner config cut at 40 s: its trace, events, phases and
    # reports are the first 40 s of the 60-s run's
    pre = learner1_result.config.preadapt
    sched = learner1_result.config.schedule
    short = run(default_config(1, preadapt=pre, schedule=ThetaSchedule(
        pieces=sched.pieces[:3], horizon=40.0)))
    for key, column in short.trace.items():
        assert np.array_equal(column, learner1_result.trace[key][:40001])
    assert short.events == [ev for ev in learner1_result.events if ev[0] <= 40.0]
    closed = [p for p in short.phases if p.recovered]
    assert len(closed) == len(short.phases) == 2
    assert repr(short.phases) == repr(learner1_result.phases[:2])
    assert repr(short.phase_reports) == repr(learner1_result.phase_reports[:2])


def test_divergence_truncates_trace_and_reports():
    res = run(default_config(1, theta_hat0=-1e4 * np.ones(3)))
    assert res.status == "diverged"
    assert res.error_step is not None
    assert len(res.trace["t"]) == res.error_step + 1
    assert np.all(np.isfinite(res.trace["x"]))


def test_divergence_inside_a_phase_keeps_its_metrics():
    # a huge reinit at the t=5.401 onset diverges two steps later: the open
    # phase keeps the peak and cost of every row up to the failing step
    sched = ThetaSchedule(pieces=[(0.0, 0.1 * np.ones(3)), (5.0, np.ones(3))], horizon=12.0)
    pre = PreadaptSettings(enabled=True, learner_enabled=True, seed=1, init_scale=1e5)
    res = run(default_config(1, preadapt=pre, schedule=sched))
    assert (res.status, res.error_step, len(res.trace["t"])) == ("diverged", 5402, 5403)
    (phase,) = res.phases
    assert (phase.step_u, phase.recovered) == (5401, False)
    mag = np.abs(res.trace["e"])
    dt = res.config.dt
    assert phase.peak_abs_e == max(mag[5401], mag[5402])
    assert phase.E_phase == 0.0 + mag[5401] * dt + mag[5402] * dt
    assert res.phase_reports == [{
        "t_u": 5.401, "t_d": None, "E_acc": phase.E_phase, "grad_W_norm": None,
        "grad_V_norm": None, "updated": False, "mode": "approx"}]


# --------------------------------------------------------------------------
# divergence guard of the RK4 step

@pytest.fixture(scope="module")
def stepper():
    cfg = default_config(1)
    return _Stepper(cfg, *build_controller(cfg))


def _two_state_config():
    # a 2-state loop, so the compiled code is checked away from n = 3
    plant = PlantConfig(A=[[0.0, 1.0], [-2.0, -3.0]], B=[0.0, 1.0], B1r=[1.0, 0.0],
                        output_index=1)
    return RunConfig(plant=plant,
                     schedule=ThetaSchedule(pieces=[(0.0, [0.3, -0.2])], horizon=1.0),
                     attention=AttentionConfig(c_e=0.005, c_ed=0.02),
                     preadapt=PreadaptSettings(), Q=np.eye(2), k0=0.5, r=0.1)


@pytest.mark.parametrize("exact", [False, True])
def test_compiled_derivative_matches_array_forms(exact):
    cfg = _two_state_config()
    plant = cfg.plant
    ctrl, ref = build_controller(cfg)
    rng = np.random.default_rng(5)
    x, x_r, th, theta = rng.standard_normal((4, 2))
    S = rng.standard_normal((4, 2))  # [S_e; S_th]
    dtheta = theta - th if exact else np.zeros(2)
    want = np.concatenate([
        plant_derivative(plant, x, control_input(ctrl, x, th, cfg.r), theta, cfg.r),
        reference_derivative(ref, x_r, cfg.r),
        adaptation_derivative(ctrl, x, x - x_r, plant.B),
        (pi_matrix(x - x_r, x_r, dtheta, ref.Ar, plant.B, ctrl.P, cfg.gamma) @ S).ravel(),
    ])
    f = _Stepper(cfg, ctrl, ref).derivative(True, exact)
    got = f(np.concatenate([x, x_r, th, S.ravel()]).tolist(), theta.tolist())
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("with_sens, exact", [(False, False), (True, False), (True, True)])
def test_compiled_step_is_rk4_of_compiled_derivative(n, with_sens, exact):
    # the inlined stages must do rk4_step's operations in rk4_step's order
    cfg = _two_state_config() if n == 2 else default_config(1)
    st = _Stepper(cfg, *build_controller(cfg))
    f = st.derivative(with_sens, exact)
    rng = np.random.default_rng(11)
    size = 3 * n + (2 * n * n if with_sens else 0)
    for _ in range(200):
        y = rng.standard_normal(size) * rng.choice([1e-3, 1.0, 30.0], size)
        theta = rng.standard_normal(n).tolist()
        want = rk4_step(lambda t, v: np.array(f(v.tolist(), theta)), y, 0.0, cfg.dt)
        got = st.step(y.tolist(), theta, with_sens, exact, k=0)
        assert np.array_equal(got, want)


def test_equal_steppers_share_their_compiled_loops(monkeypatch):
    # a fresh stepper with the same numbers takes the loop compiled for the
    # first and builds no source text, C or Python; r = 0.0123456789 is no
    # other test's
    built = []

    def recording(real_source):
        def source(st, *flags):
            built.append(flags)
            return real_source(st, *flags)
        return source

    monkeypatch.setitem(simengine._SOURCES, "segment", recording(_segment_source))
    monkeypatch.setattr(simengine, "_segment_c_source",
                        recording(simengine._segment_c_source))
    cfg = default_config(1, r=0.0123456789)
    first, second = (_Stepper(cfg, *build_controller(cfg)) for _ in range(2))
    assert first == second and first is not second
    assert first.segment(True, False, False) is second.segment(True, False, False)
    assert built == [(True, False, False)]
    # the numbers are told apart by their reprs, so -0.0 is not 0.0
    zero, minus_zero = (_Stepper(c, *build_controller(c))
                        for c in (default_config(1, r=0.0), default_config(1, r=-0.0)))
    assert zero != minus_zero


@pytest.mark.parametrize("with_sens, exact", [(False, False), (True, False), (True, True)])
def test_compiled_step_has_no_trivial_products(stepper, with_sens, exact):
    # the B-747 loop's zero and unit literals leave no product or sum head
    src = _segment_source(stepper, with_sens, exact)
    for trivial in ("(0.0) *", "(1.0) *", "(-1.0) *", "= 0.0 +", "(0.0) -"):
        assert trivial not in src


@pytest.mark.parametrize("index, value", [(0, np.nan), (4, np.nan), (4, np.inf)])
def test_step_rejects_nonfinite_state(stepper, index, value):
    y = [0.0] * 9
    y[index] = value
    with pytest.raises(DivergenceError) as exc:
        stepper.step(y, np.ones(3), False, False, k=1000)
    # a non-finite x_r or theta_hat reaches x within the step: the first
    # non-finite component of the new state is reported, at the step's end
    assert str(exc.value) == "non-finite state component 0 at t=1.001"
    assert exc.value.component == 0
    assert exc.value.t == 1.001


def test_step_rejects_state_beyond_limit(stepper):
    y = [0.0] * 9
    y[3] = 2e6
    with pytest.raises(DivergenceError) as exc:
        stepper.step(y, np.ones(3), False, False, k=1000)
    assert str(exc.value) == "state component 3 exceeded 1e+06 at t=1.001"
    assert exc.value.component == 3
    assert exc.value.t == 1.001


def test_step_bounds_states_but_not_sensitivities(stepper):
    y = [0.0] * 9 + [0.0] * 9 + np.eye(3).reshape(-1).tolist()
    y[9] = 2e7  # S_e[0, 0]
    out = stepper.step(y, np.ones(3), True, True, k=1000)
    assert abs(out[9]) > 1e6
    y[13] = np.nan  # S_e[1, 1] reaches S_e[0, 1] within the step
    with pytest.raises(DivergenceError) as exc:
        stepper.step(y, np.ones(3), True, False, k=1000)
    assert str(exc.value) == "non-finite state component 10 at t=1.001"
    assert exc.value.component == 10
    assert exc.value.t == 1.001


@pytest.fixture(scope="module")
def resting_stepper():
    """r = 0: a state with x = x_r = 0 stays put, whatever theta_hat holds."""
    cfg = default_config(1, r=0.0)
    return _Stepper(cfg, *build_controller(cfg))


@pytest.mark.parametrize("theta_hat", [[1e6, 0.0, 0.0], [1e6, -1e6, 1e6]])
def test_step_runs_on_with_states_at_the_limit(resting_stepper, theta_hat):
    # one component at the limit meets the squared pre-check with equality;
    # three fail it and pass the exact check it sends them to
    y = [0.0] * 6 + theta_hat
    assert resting_stepper.step(y, np.ones(3), False, False, k=1000) == y
    y[6] = float(np.nextafter(1e6, np.inf))
    with pytest.raises(DivergenceError, match="^state component 6 exceeded"):
        resting_stepper.step(y, np.ones(3), False, False, k=1000)


def test_step_runs_on_with_huge_finite_sensitivity(resting_stepper):
    # 1e200 squared overflows the pre-check; the exact check only asks a
    # sensitivity to be finite
    y = [0.0] * 9 + [0.0] * 9 + np.eye(3).reshape(-1).tolist()
    y[9] = 1e200    # S_e[0, 0]
    out = resting_stepper.step(y, np.ones(3), True, True, k=1000)
    assert out[:9] == [0.0] * 9
    assert 1e199 < abs(out[9]) < np.inf


def test_learner_updates_weights_each_closed_phase(learner1_result):
    closed = [rep for rep in learner1_result.phase_reports if rep["t_d"] is not None]
    assert len(closed) >= 3
    assert all(rep["updated"] for rep in closed)


def test_phase_cost_matches_learner_accumulator(learner1_result):
    # the learner's report takes the phase's cost, and the grad-check replay
    # of the unperturbed window, with or without sensitivities, adds the
    # same |e| * dt terms in the same order
    cfg = learner1_result.config
    stepper = _Stepper(cfg, *build_controller(cfg))
    by_tu = {p.t_u: p for p in learner1_result.phases}
    for rep in learner1_result.phase_reports:
        if rep["t_d"] is None:
            continue
        phase = by_tu[rep["t_u"]]
        assert phase.E_phase == rep["E_acc"]
        snap = phase.snapshot
        for mode in (None, *GradientMode):
            E, _ = _replay_window(cfg, stepper, snap, phase.step_d - phase.step_u,
                                  snap.theta_I, mode)
            assert E == phase.E_phase


def test_learning_reduces_t45_phase_cost(rac1_result, learner1_result):
    rac45 = [p for p in rac1_result.phases if p.jump_ref == 45.0][0]
    pre45 = [p for p in learner1_result.phases if p.jump_ref == 45.0][-1]
    assert pre45.E_phase < rac45.E_phase


def test_reinit_jumps_only_at_eu_steps(learner1_result):
    tr = learner1_result.trace
    dth = np.linalg.norm(np.diff(tr["theta_hat"], axis=0), axis=1)
    eu_steps = set(np.flatnonzero(tr["Eu"]).tolist())
    smooth = max(dth[k] for k in range(len(dth)) if (k + 1) not in eu_steps)
    jumpy = min(dth[k - 1] for k in eu_steps)
    assert smooth < jumpy  # reinit steps are cleanly separated from RK4 drift
    big = {int(k) + 1 for k in np.flatnonzero(dth > smooth)}
    assert big == eu_steps


# --------------------------------------------------------------------------
# comparison

def test_compare_run_with_itself(rac1_result):
    rows = compare_results(rac1_result, rac1_result)
    assert len(rows) == 3
    assert all(r["reduction"] == 0.0 for r in rows)


def test_compare_rejects_mismatched_schedules(rac1_result, rac2_result):
    with pytest.raises(ConfigError):
        compare_results(rac1_result, rac2_result)


def test_compare_reports_t45_reduction(rac1_result, learner1_result):
    rows = compare_results(rac1_result, learner1_result)
    row = [r for r in rows if r["jump_t"] == 45.0][0]
    assert row["peak_a"] == pytest.approx(0.018740845213220267, abs=1e-12)
    assert row["reduction"] > 0.0


def test_compare_refuses_a_diverged_run(rac1_result):
    # huge initial weights reinitialize theta_hat far off at the t=5 onset;
    # the run diverges with the t=5 phase still open
    pre = PreadaptSettings(enabled=True, learner_enabled=True, seed=1, init_scale=1e5)
    res = run(default_config(1, preadapt=pre))
    assert (res.status, res.error_step) == ("diverged", 5402)
    for a, b in ((rac1_result, res), (res, rac1_result)):
        with pytest.raises(DivergenceError, match="diverged"):
            compare_results(a, b)


def test_jump_with_two_phases_is_answered_by_the_larger_peak(rac2_result):
    # scenario 2, learner seed 6 opens two phases after the t=70 jump: a short
    # one at t_u=70.336 (peak 0.0072) and the main response at t_u=71.351
    # (peak 0.0178); the jump is judged on the main response
    pre = PreadaptSettings(enabled=True, learner_enabled=True, seed=6)
    res = run(default_config(2, preadapt=pre))
    at70 = [p for p in res.phases if p.jump_ref == 70.0]
    assert [p.t_u for p in at70] == [70.336, 71.351]
    assert phases_by_jump(res)[70.0] is at70[1]
    row = [r for r in compare_results(rac2_result, res) if r["jump_t"] == 70.0][0]
    assert (row["t_u_b"], row["peak_b"], row["E_b"]) == (
        at70[1].t_u, at70[1].peak_abs_e, at70[1].E_phase)
    assert row["reduction"] == 1.0 - at70[1].peak_abs_e / row["peak_a"]
    assert row["reduction"] == pytest.approx(0.343, abs=1e-3)


# --------------------------------------------------------------------------
# gradient checking harness

def test_grad_check_rejects_degenerate_delta():
    pre = PreadaptSettings(enabled=True, learner_enabled=True, seed=1)
    with pytest.raises(ValueError):
        grad_check(default_config(1, preadapt=pre), 0, 0.0)


def test_grad_check_requires_preadapt():
    with pytest.raises(ConfigError):
        grad_check(default_config(1), 0, 1e-5)


def test_grad_check_missing_phase(learner1_result):
    with pytest.raises(ValueError):
        grad_check(learner1_result.config, 99, 1e-5, result=learner1_result)


def test_grad_check_exact_and_approx_differ(learner1_result):
    report = grad_check(learner1_result.config, 1, 1e-5, result=learner1_result)
    exact = report["modes"]["exact"]["grad"]
    approx = report["modes"]["approx"]["grad"]
    assert not np.allclose(exact, approx, rtol=1e-3)  # Pi-hat bias is visible


def test_grad_check_report_is_pinned(learner1_result):
    # frozen values: any change to the replay's or the sensitivities'
    # arithmetic moves them
    report = grad_check(learner1_result.config, 1, 1e-5, result=learner1_result)
    assert report["fd"].tolist() == [
        -0.058827247763522376, 0.0272802277937606, 0.009784995185467549]
    assert report["modes"]["exact"]["grad"].tolist() == [
        -0.05882724778661809, 0.027280227778362007, 0.009784995190617561]
    assert report["modes"]["approx"]["grad"].tolist() == [
        -0.11896170722276975, 0.05508669544445263, 0.020035012120788624]
    # approx has twice the scale and nearly the direction
    assert report["modes"]["exact"]["cos_to_fd"] == 1.0
    assert report["modes"]["approx"]["cos_to_fd"] == 0.9999980759545661


@pytest.mark.parametrize("name", ["learner1_result", "exact18_result"])
def test_grad_check_takes_the_runs_own_gradient(name, request, monkeypatch):
    # given its own run, grad-check replays the other mode and the 2n bumped
    # windows; given the same run under another config object, all 2n + 2
    res = request.getfixturevalue(name)
    cfg = res.config
    own = cfg.preadapt.gradient_mode
    real_replay = simengine._replay_window
    modes = []

    def replay(cfg, stepper, snapshot, steps, theta_I, sens_mode=None):
        modes.append(sens_mode)
        return real_replay(cfg, stepper, snapshot, steps, theta_I, sens_mode)

    monkeypatch.setattr(simengine, "_replay_window", replay)
    reused = repr(grad_check(cfg, 1, 1e-5, result=res))
    assert modes == [m for m in GradientMode if m is not own] + [None] * 6
    modes.clear()
    copied = replace(res, config=replace(cfg))
    assert repr(grad_check(cfg, 1, 1e-5, result=copied)) == reused
    assert modes == [GradientMode.EXACT, GradientMode.APPROX] + [None] * 6
