"""Property tests of the run loop's event bookkeeping on random schedules.

The compiled run loop returns to Python at events, schedule pieces and
256-row trace chunks; jumps are drawn both anywhere on the dt grid and on
chunk boundaries, so these edges meet in every combination.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from preadaptive_control import (
    GradientMode,
    PreadaptSettings,
    ThetaSchedule,
    default_config,
    run,
    theta_at,
)
from preadaptive_control.simengine import _Stepper, build_controller

from conftest import left_to_right_u

CHUNK = 256
DT = 1e-3


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
