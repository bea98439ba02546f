"""Property tests of the run loop's event bookkeeping on random schedules
and random plants.

The compiled run loop returns to Python at events, schedule pieces and
256-row trace chunks; jumps are drawn both anywhere on the dt grid and on
chunk boundaries, so these edges meet in every combination.
"""

import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from preadaptive_control import (
    AttentionConfig,
    AttentionState,
    ConfigError,
    DivergenceError,
    GradientMode,
    PlantConfig,
    PreadaptSettings,
    RunConfig,
    SolverError,
    ThetaSchedule,
    cli,
    default_config,
    detect_events,
    run,
    theta_at,
)
from preadaptive_control.attention import velocity_estimator
from preadaptive_control.simengine import _Stepper, build_controller

from conftest import SHIPPED_ROWS, bits, both_loops, left_to_right_u, native_rows

CHUNK = 256
DT = 1e-3


@pytest.fixture(scope="module", autouse=True)
def _native_by_rows():
    # each drawn run is short and its plant's loop its own, as in a sweep
    # over configs: the loops keep to Python until they would repay a build.
    # test_learner_runs_equal_under_both_loops_on_random_plants runs the
    # native loop on drawn plants
    with pytest.MonkeyPatch.context() as mp:
        native_rows(mp, *SHIPPED_ROWS)
        yield


@st.composite
def schedules(draw):
    """B-747 theta schedules with every jump and the horizon on the dt grid.

    The first jump comes after the start-up transient and each next one
    2.5-4.5 s later, so most phases close before the next jump; a jump or
    the horizon may be moved onto a chunk boundary.
    """
    def on_grid(k):
        return k + (-k % CHUNK if draw(st.booleans()) else 0)

    jumps = [on_grid(draw(st.integers(4000, 5000)))]
    for _ in range(draw(st.integers(0, 2))):
        jumps.append(on_grid(jumps[-1] + draw(st.integers(2500, 4500))))
    steps = on_grid(jumps[-1] + draw(st.integers(1500, 4000)))
    # theta = c * ones with the bundled scenarios' levels, whose jumps fire
    # events, and a random part on each component
    pieces = [(0.0, [0.1] * 3)]
    for k in jumps:
        c = draw(st.sampled_from([1.0, 2.0, 4.0]))
        pieces.append((k * DT, [c + draw(st.floats(-0.1, 0.1)) for _ in range(3)]))
    return ThetaSchedule(pieces=pieces, horizon=steps * DT)


preadapt_settings = st.builds(
    PreadaptSettings,
    enabled=st.just(True),
    learner_enabled=st.booleans(),
    gradient_mode=st.sampled_from(list(GradientMode)),
    seed=st.integers(0, 9),
)


def _rows_from(trace, kind):
    return np.flatnonzero(trace[kind]).tolist()


@settings(max_examples=20, deadline=None)
@given(schedule=schedules(), pre=preadapt_settings)
def test_event_bookkeeping_on_random_schedules(schedule, pre):
    cfg = default_config(1, schedule=schedule, preadapt=pre)
    res = run(cfg)
    tr = res.trace
    rows = len(tr["t"])

    # events strictly alternate, starting with an onset
    kinds = [kind for _, kind in res.events]
    assert kinds == ["E_u", "E_d"] * (len(kinds) // 2) + ["E_u"] * (len(kinds) % 2)

    # the trace flags are the events, row for row
    flagged = sorted([(k, "E_u") for k in _rows_from(tr, "Eu")]
                     + [(k, "E_d") for k in _rows_from(tr, "Ed")])
    assert res.events == [(k * cfg.dt, kind) for k, kind in flagged]

    # each phase opens at an E_u row and closes at the next E_d row; its peak
    # |e| runs to its recovery row and its cost sums |e| dt up to it
    assert [p.step_u for p in res.phases] == _rows_from(tr, "Eu")
    assert [p.step_d for p in res.phases if p.recovered] == _rows_from(tr, "Ed")
    mag = np.abs(tr["e"]).tolist()
    last = rows - 1 if res.status == "ok" else rows   # the horizon row has no cost
    for p in res.phases:
        assert p.t_u == tr["t"][p.step_u]
        assert p.recovered == (p.step_d is not None)
        assert p.peak_abs_e == max(mag[p.step_u:rows if p.step_d is None else p.step_d + 1])
        E = 0.0
        for v in mag[p.step_u:last if p.step_d is None else p.step_d]:
            E += v * cfg.dt
        assert p.E_phase == E

    # theta of every row is the schedule's at the row's time
    assert all(np.array_equal(tr["theta"][k], theta_at(schedule, tr["t"][k]))
               for k in range(rows))

    # x, x_r and theta_hat of every row are the RK4 step of the row before,
    # except theta_hat at an onset, which preadaptation reinitializes
    stepper = _Stepper(cfg, *build_controller(cfg))
    state = np.hstack([tr["x"], tr["x_r"], tr["theta_hat"]])
    onsets = set(_rows_from(tr, "Eu"))
    for k in range(1, rows):
        want = stepper.step(state[k - 1].tolist(), tr["theta"][k - 1], False, False,
                            k - 1)
        got = state[k].tolist()
        if k in onsets:
            assert got[:2 * cfg.plant.n] == want[:2 * cfg.plant.n]
        else:
            assert got == want

    # u of every row, the horizon row's included, is the control its step
    # applied, summed left to right
    assert tr["u"].tolist() == left_to_right_u(res)

    # the reference model does not see preadaptation
    rac = run(default_config(1, schedule=schedule))
    both = min(rows, len(rac.trace["t"]))
    assert np.array_equal(tr["x_r"][:both], rac.trace["x_r"][:both])

    # the same config gives the same run
    again = run(cfg)
    for key in tr:
        assert np.array_equal(tr[key], again.trace[key])
    assert _phase_rows(again) == _phase_rows(res)
    assert repr(again.phase_reports) == repr(res.phase_reports)


def _phase_rows(res):
    return [(p.step_u, p.step_d, p.t_u, p.t_d, p.peak_abs_e, p.E_phase, p.jump_ref)
            for p in res.phases]


# --------------------------------------------------------------------------
# the run against a row loop over the step and the attention functions

#: plant entries: the literals the generator strength-reduces, and others
entries = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))


@st.composite
def rac_configs(draw):
    """RAC runs of controllable 2-4-state plants, with grid schedules, drawn
    thresholds and either estimator, starting at rest or at the reference's
    rest point."""
    n = draw(st.integers(2, 4))
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    B = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    B1r = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    try:
        plant = PlantConfig(A=A, B=B, B1r=B1r, output_index=draw(st.integers(1, n)))
    except ConfigError:     # not controllable
        assume(False)
    theta = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    steps = draw(st.integers(2000, 6000))
    jumps = sorted(set(draw(st.lists(st.integers(1, steps - 1), max_size=3))))
    pieces = [(0.0, draw(st.one_of(st.just([0.0] * n), theta)))]
    pieces += [(k * DT, draw(theta)) for k in jumps]
    if draw(st.booleans()):
        attention = AttentionConfig(estimator="dirty", tau_f=draw(st.floats(0.01, 0.2)))
    else:
        attention = AttentionConfig(omega_n=draw(st.floats(2.0, 30.0)),
                                    zeta=draw(st.floats(0.1, 1.0)))
    try:
        cfg = RunConfig(plant=plant,
                        schedule=ThetaSchedule(pieces=pieces, horizon=steps * DT),
                        attention=attention, preadapt=PreadaptSettings(),
                        gamma=draw(st.floats(10.0, 200.0)), dt=DT)
        ctrl, ref = build_controller(cfg)
    except (ConfigError, SolverError):
        assume(False)
    if draw(st.booleans()):
        # the reference's rest point, iterated towards a fixed point of its
        # RK4 step, so that the run's reference may settle from its first rows
        xr = np.linalg.solve(ref.Ar, -(ref.B1r + ref.B2r) * cfg.r).tolist()
        stepper = _Stepper(cfg, ctrl, ref)
        for _ in range(200):
            xr = stepper.step(xr + xr + [0.0] * n, [0.0] * n)[n:2 * n]
        cfg = replace(cfg, x0=np.array(xr))
    # thresholds drawn as fractions of the run's largest |e| and rate
    # estimate, which the thresholds do not move in a RAC run, so that
    # errors cross them both ways
    trace = run(cfg).trace
    e_max, edot_max = np.max(np.abs(trace["e"])), np.max(np.abs(trace["edot_hat"]))
    assume(np.isfinite(e_max) and e_max > 0.0 and edot_max > 0.0)
    return replace(cfg, attention=replace(
        attention, c_e=e_max * draw(st.floats(0.05, 0.8)),
        c_ed=edot_max * draw(st.floats(0.01, 0.8))))


def _row_loop(cfg):
    """Trace columns, events, phases and error of ``cfg``'s RAC run, one row
    at a time through _Stepper.step and the compiled estimator and detector."""
    stepper = _Stepper(cfg, *build_controller(cfg))
    control = stepper.control()
    estimate = velocity_estimator(cfg.attention)
    n, iy, dt, N = cfg.plant.n, cfg.plant.iy, cfg.dt, cfg.num_steps
    att = AttentionState()
    y = cfg.x0.tolist() + cfg.x0.tolist() + cfg.theta_hat0.tolist()
    att.e_prev = att.e_track = y[iy] - y[n + iy]
    cols = {key: [] for key in ("x", "x_r", "theta_hat", "e", "edot_hat", "theta", "u",
                                "Eu", "Ed")}
    error = None
    for k in range(N + 1):
        e = y[iy] - y[n + iy]
        edot = estimate(att, e, dt)
        e_u, e_d, _ = detect_events(cfg.attention, att, e, edot, k * dt)
        theta = theta_at(cfg.schedule, k * dt)
        for key, value in (("x", y[:n]), ("x_r", y[n:2 * n]), ("theta_hat", y[2 * n:]),
                           ("e", e), ("edot_hat", edot), ("theta", theta),
                           ("u", control(y)), ("Eu", e_u), ("Ed", e_d)):
            cols[key].append(value)
        if k == N:
            break
        try:
            y = stepper.step(y, theta, False, False, k)
        except DivergenceError as exc:
            error = str(exc)
            break
    # a phase's peak |e| runs from its onset row to its recovery row, or to
    # the last row; its cost sums |e| dt over the rows a step started from
    rows = len(cols["e"])
    last_step = rows if error else rows - 1
    phases = []
    onsets = [k for k in range(rows) if cols["Eu"][k]]
    for k_u in onsets:
        k_d = next((k for k in range(k_u, rows) if cols["Ed"][k]), None)
        E = 0.0
        for k in range(k_u, last_step if k_d is None else k_d):
            E += abs(cols["e"][k]) * dt
        t_u = k_u * dt
        phases.append((k_u, k_d, t_u, None if k_d is None else k_d * dt,
                       max(map(abs, cols["e"][k_u:rows if k_d is None else k_d + 1])),
                       E, k_d is not None,
                       max((tj for tj in cfg.schedule.jump_times if tj <= t_u),
                           default=None)))
    return cols, att.events, phases, error


@settings(max_examples=25, deadline=None)
@given(cfg=rac_configs())
def test_rac_run_equals_a_row_loop_on_random_plants(cfg):
    res = run(cfg)
    target(float(len(res.events)))   # steer the search towards closed phases
    cols, events, phases, error = _row_loop(cfg)
    for key, col in cols.items():
        assert np.array_equal(res.trace[key], np.array(col, dtype=res.trace[key].dtype))
    assert np.array_equal(res.trace["t"], np.arange(len(cols["e"])) * cfg.dt)
    assert res.events == events
    assert res.error == error
    assert res.status == ("diverged" if error else "ok")
    assert [(p.step_u, p.step_d, p.t_u, p.t_d, p.peak_abs_e, p.E_phase, p.recovered,
             p.jump_ref) for p in res.phases] == phases

    kinds = [kind for _, kind in res.events]
    assert kinds == ["E_u", "E_d"] * (len(kinds) // 2) + ["E_u"] * (len(kinds) % 2)

    again = run(cfg)
    for key in res.trace:
        assert np.array_equal(res.trace[key], again.trace[key])
    assert again.events == res.events
    assert _phase_rows(again) == _phase_rows(res)


# --------------------------------------------------------------------------
# learner runs and divergences on random plants, under both loops

@st.composite
def learner_configs(draw):
    """rac_configs' runs with the learner on, in either gradient mode; a
    huge reinit scale or start estimate makes some of them diverge."""
    cfg = draw(rac_configs())
    pre = PreadaptSettings(enabled=True, learner_enabled=True,
                           gradient_mode=draw(st.sampled_from(list(GradientMode))),
                           seed=draw(st.integers(0, 9)),
                           init_scale=draw(st.sampled_from([0.5, 1e5])))
    theta_hat0 = draw(st.sampled_from([0.0, -1e4])) * np.ones(cfg.plant.n)
    return replace(cfg, preadapt=pre, theta_hat0=theta_hat0)


@settings(max_examples=10, deadline=None)
@given(cfg=learner_configs())
def test_learner_runs_equal_under_both_loops_on_random_plants(cfg):
    fast, slow = both_loops(lambda: run(cfg))
    target(float(len(fast.phase_reports)), label="phases")
    target(float(fast.status == "diverged"), label="diverged")
    assert bits(fast) == bits(slow)
    if fast.status == "ok":
        return
    # a divergence truncates the trace after the failed step's first row,
    # whose values are finite, and preadapt-ctl run exits 3 with that trace
    rows = fast.error_step + 1
    assert all(len(column) == rows for column in fast.trace.values())
    assert all(np.isfinite(column).all() for column in fast.trace.values())
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(cli, "load_scenario", lambda path, overrides=None: cfg), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(["run", "drawn.yaml", "--out", out]) == cli.EXIT_DIVERGED
        with open(Path(out) / "trace.csv") as f:
            assert sum(1 for _ in f) == 1 + rows
    assert err.getvalue() == f"error: divergence at step {rows - 1}: {fast.error}\n"
