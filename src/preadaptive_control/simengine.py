"""Full closed-loop simulation: wiring, scenario library, comparison metrics.

Per integration step the loop (in this order): samples the true parameter,
updates the output-error velocity estimate, runs event detection, applies the
preadaptation reinitialization on an onset event, closes the learner phase on
a recovery event, accumulates cost/sensitivity, computes the control input,
and finally advances the whole coupled state (plant, reference, estimate,
sensitivity blocks) with one RK4 step.
"""

import functools
import math
import numbers
import os
import pickle
import signal
import struct
import traceback
from dataclasses import dataclass, replace

import numpy as np

from .attention import (  # update_velocity: the per-layer tracer wraps it here
    EVENT_FLAGS,
    AttentionConfig,
    AttentionState,
    _literal,
    detect_events,
    detector_code,
    estimator_code,
    require_stable_estimator,
    update_velocity,
    velocity_estimator,
)
# control_input: the per-layer tracer wraps it here
from .controller import ControllerConfig, control_input, lqr_gain, solve_lyapunov
from .dynamics import (
    DIVERGENCE_LIMIT,
    PlantConfig,
    ReferenceConfig,
    ThetaSchedule,
    check_bounded,
    theta_at,
)
from . import native
from .errors import ConfigError, DivergenceError, require_finite
from .learner import (  # accumulate_cost: the per-layer tracer wraps it here
    GradientMode,
    PhaseSnapshot,
    SensitivityState,
    accumulate_cost,
    close_phase,
    gradient_code,
)
from .preadapt import PreadaptNet, apply_preadaptation, theta_init


# --------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class PreadaptSettings:
    enabled: bool = False
    learner_enabled: bool = False
    gradient_mode: GradientMode = GradientMode.APPROX
    gamma_pa: float = 10.0
    hidden: int | None = None       # None: the preloaded net's width, else 3
    seed: int = 0
    init_scale: float = 0.5
    clip_norm: float | None = None
    net: PreadaptNet | None = None  # preloaded weights override the seed init

    def __post_init__(self):
        if self.net is not None and self.hidden not in (None, self.net.hidden):
            raise ConfigError(f"preadapt.weights has {self.net.hidden} hidden units, "
                              f"hidden says {self.hidden}")
        if self.hidden is None:
            object.__setattr__(self, "hidden", self.net.hidden if self.net else 3)
        require_finite("gamma_pa", self.gamma_pa)
        require_finite("init_scale", self.init_scale)
        if self.clip_norm is not None:
            require_finite("clip_norm", self.clip_norm)
        # a step or a clip bound of 0 or less turns the update into ascent
        for name in ("gamma_pa", "clip_norm"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        # not int(value): a bool is an int to Python, and int(2.7) is 2
        for name, low in (("hidden", 1), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    plant: PlantConfig
    schedule: ThetaSchedule
    attention: AttentionConfig
    preadapt: PreadaptSettings
    Q: np.ndarray = None            # None: the identity; x0, theta_hat0: zeros
    R: float = 1.0
    gamma: float = 10.0
    k0: float = 0.0
    r: float = 0.1
    dt: float = 1e-3
    x0: np.ndarray = None
    theta_hat0: np.ndarray = None

    def __post_init__(self):
        n = self.plant.n
        if self.schedule.n != n:
            raise ConfigError("schedule dimension does not match the plant")
        if self.preadapt.net is not None and self.preadapt.net.n != n:
            raise ConfigError(f"preadapt.weights: n = {self.preadapt.net.n}, not {n}")
        for name, default in (("Q", np.eye(n)), ("x0", np.zeros(n)),
                              ("theta_hat0", np.zeros(n))):
            value = getattr(self, name)
            value = default if value is None else np.asarray(value, dtype=float)
            if value.shape != default.shape:
                raise ConfigError(f"{name}: shape {value.shape}, not {default.shape}")
            object.__setattr__(self, name, value)
        for name in ("dt", "r", "R", "gamma", "k0", "Q", "x0", "theta_hat0"):
            require_finite(name, getattr(self, name))
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        # a subnormal dt overflows the step count, and one past the horizon
        # rounds it to no step at all
        steps = self.schedule.horizon / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ConfigError(
                f"dt {self.dt} does not give a whole number of steps over the "
                f"horizon {self.schedule.horizon}"
            )
        # the run samples t = k*dt: the horizon and every jump must be grid
        # points, to a tolerance in steps that does not grow with the horizon
        for name, when in [("horizon", self.schedule.horizon)] + [
            ("jump time", tj) for tj in self.schedule.jump_times
        ]:
            steps = when / self.dt
            if abs(steps - round(steps)) > 1e-6:
                raise ConfigError(
                    f"{name} {when} is not a multiple of dt {self.dt}"
                )
        require_stable_estimator(self.attention, self.dt)
        if self.preadapt.learner_enabled and not self.preadapt.enabled:
            raise ConfigError("learner requires preadaptation to be enabled")

    @property
    def num_steps(self):
        return int(round(self.schedule.horizon / self.dt))


def build_controller(cfg):
    """Offline solves: LQR gain, reference model, Lyapunov matrix."""
    plant = cfg.plant
    K = lqr_gain(plant.A, plant.B, cfg.Q, cfg.R)
    Ar = plant.A - np.outer(plant.B, K[0])
    P = solve_lyapunov(Ar)
    ctrl = ControllerConfig(K=K, k0=cfg.k0, gamma=cfg.gamma, P=P)
    ref = ReferenceConfig(Ar=Ar, B1r=plant.B1r, B2r=cfg.k0 * plant.B)
    return ctrl, ref


# --------------------------------------------------------------------------
# B-747 longitudinal model and scenario library

def build_b747():
    """Longitudinal B-747 model: state [e_I, alpha, q], output alpha."""
    A = np.array([
        [0.0, 1.0, 0.0],
        [0.0, -0.32, 0.86],
        [0.0, -0.93, -0.43],
    ])
    B = np.array([0.0, -0.02, -1.16])
    B1r = np.array([-1.0, 0.0, 0.0])
    return PlantConfig(A=A, B=B, B1r=B1r, output_index=2)


_SCENARIO_STEPS = {
    1: ([(0.0, 0.1), (5.0, 1.0), (20.0, 2.0), (45.0, 4.0)], 60.0),
    2: (
        [(0.0, 0.1), (5.0, 1.0), (20.0, 2.0), (45.0, 1.0), (70.0, 0.1),
         (95.0, 2.0), (120.0, 4.0)],
        140.0,
    ),
    3: (
        [(0.0, 0.1), (5.0, 1.0), (20.0, 5.0), (35.0, 10.0), (50.0, 5.0),
         (65.0, 1.0), (80.0, 5.0), (95.0, 10.0), (110.0, 5.0), (125.0, 1.0)],
        140.0,
    ),
}


def scenario_schedule(number, n=3):
    """Piecewise-constant theta schedule for scenarios 1-3 (theta = c * ones)."""
    if number not in _SCENARIO_STEPS:
        raise ConfigError(f"unknown scenario number {number}")
    steps, horizon = _SCENARIO_STEPS[number]
    pieces = [(t, c * np.ones(n)) for t, c in steps]
    bounds = (-10.0 * np.ones(n), 10.0 * np.ones(n))
    return ThetaSchedule(pieces=pieces, horizon=horizon, bounds=bounds)


def default_config(scenario=1, preadapt=None, **overrides):
    """B-747 run configuration with the flight-control hyperparameters."""
    plant = build_b747()
    cfg = RunConfig(
        plant=plant,
        schedule=scenario_schedule(scenario),
        attention=AttentionConfig(),
        preadapt=preadapt if preadapt is not None else PreadaptSettings(),
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# --------------------------------------------------------------------------
# inner step (plant + reference + estimate + optional sensitivity)
#
# The state is a Python list of floats: indexing a numpy array boxes a new
# float64 per element, which used to be most of a step.  The RK4 step is
# compiled per closed loop as straight-line code, because at n = 3 a Python
# loop over the n terms of a sum costs more than the sum itself, and building
# and zipping lists between the four stages costs as much again.  Each sum is
# written out left to right, in the order of the per-element loops it
# replaced, with the closed loop's matrices as float literals.
#
# The generator strength-reduces what the literals make trivial: a term with
# a 0.0 coefficient and a 0.0 sum head are left out, a +-1.0 coefficient
# becomes + v or - v, and thx + u and gamma * x_i are computed once per
# stage.  Every remaining operation keeps its order.  Multiplying by +-1.0,
# and a - b against a + (-1.0) * b, are exact.  Adding the dropped +-0.0
# changes a finite sum only when the sum is itself a zero, and then only its
# sign; the states start at +0.0 (unless an initial value is -0.0) and are
# updated by addition, so the traces are bit-identical to those of the
# earlier array implementation.  With a non-finite operand, 0.0 * inf is
# NaN where the reduced sum may be inf or finite; the step's result is then
# non-finite either way and the guard stops the run, though it may name
# another component.
#
# The run segment is also written as C from the same lines (native.py turns
# each Python statement into C with Python's grouping and the same literals)
# and compiled with IEEE semantics and no fused multiply-add, so it takes
# the same bits.  The Python loop runs until the C one would repay its
# build (``_Loop``), and for good where no C compiler answers.


def _sum(head, terms):
    """Source of ``head op1 c1 * v1 op2 c2 * v2 ...``, summed left to right.

    ``head`` is a float (a literal), a source expression or None; each term
    is ``(op, c, v)`` with ``op`` "+" or "-", ``c`` a float literal or a
    source expression, and ``v`` a source expression.  A literal 0.0 head
    or coefficient drops out and a +-1.0 coefficient leaves ``v`` alone with
    ``op`` flipped for -1.0.
    """
    parts = []
    if isinstance(head, str):
        parts.append(("+", head))
    elif head is not None and head != 0.0:
        parts.append(("+", _literal(head)))
    for op, c, v in terms:
        if isinstance(c, str):
            parts.append((op, f"{c} * {v}"))
        elif c in (1.0, -1.0):
            parts.append((op if c > 0.0 else "+-"[op == "+"], v))
        elif c != 0.0:
            parts.append((op, f"{_literal(c)} * {v}"))
    if not parts:
        return "0.0"
    (op, first), rest = parts[0], parts[1:]
    return ("-" if op == "-" else "") + first + "".join(
        f" {op} {term}" for op, term in rest)


def _state_names(n, with_sens, sfx):
    """Locals holding y = x, x_r, theta_hat and, with sensitivities, S."""
    R = range(n)
    names = [f"x{j}" for j in R] + [f"xr{j}" for j in R] + [f"th{j}" for j in R]
    if with_sens:
        names += [f"S{j}_{k}" for j in range(2 * n) for k in R]
    return [name + sfx for name in names]


def _control_code(st, sfx):
    """Expression of the control ``u = k0 r - sum_j (K_j + theta_hat_j) x_j``,
    summed left to right, over the locals of ``_state_names`` suffixed ``sfx``."""
    names = _state_names(st.n, False, sfx)
    x, th = names[:st.n], names[2 * st.n:]
    gain = [_sum(st.K[j], [("+", 1.0, th[j])]) for j in range(st.n)]
    return _sum(st.k0 * st.r, [("-", g if g == th[j] else f"({g})", x[j])
                               for j, g in enumerate(gain)])


def _derivative_code(st, with_sens, exact_sens, sfx):
    """Statements and expressions of d/dt y for ``st``'s loop.

    Returns (body, dy): ``body`` assigns the intermediates, the control
    ``u`` among them, and ``dy`` holds one expression per component of y,
    over the locals of ``_state_names`` and the true parameter ``t0, t1,
    ...``.  Every local carries the suffix ``sfx``, so the four RK4 stages
    can share one function.
    """
    n = st.n
    R = range(n)
    c = _literal
    names = _state_names(n, with_sens, sfx)
    x, xr, th = names[:n], names[n:2 * n], names[2 * n:3 * n]
    S = [names[3 * n + j * n:3 * n + (j + 1) * n] for j in range(2 * n)]
    u, w, s, gs = (f"{v}{sfx}" for v in ("u", "w", "s", "gs"))
    thx = _sum(None, [("+", f"t{j}", x[j]) for j in R])
    body = [
        f"{u} = {_control_code(st, sfx)}",
        f"{w} = ({thx}) + {u}",
        f"{s} = " + _sum(None, [("+", st.PB[j], f"({x[j]} - {xr[j]})") for j in R]),
    ]
    dy = [_sum(st.B1r[i] * st.r, [("+", st.B[i], w)]
               + [("+", st.A[i][j], x[j]) for j in R]) for i in R]
    dy += [_sum(st.Bsum[i] * st.r, [("+", st.Ar[i][j], xr[j]) for j in R]) for i in R]
    gx = [f"{c(st.gamma)} * {x[i]}" for i in R]
    if with_sens:  # gamma * x_i is used n + 1 times
        body += [f"gx{i}{sfx} = {gx[i]}" for i in R]
        gx = [f"gx{i}{sfx}" for i in R]
    dy += [f"{gx[i]} * {s}" for i in R]
    if not with_sens:
        return body, dy
    # note e_v + x_r = x; a coefficient is a float literal or the name of a
    # local, and None where it is a literal zero
    a = [list(row) for row in st.Ar]
    bx = [[None] * n for _ in R]
    g = [[None] * n for _ in R]
    for i in R:
        for j in R:
            if exact_sens and st.B[i] != 0.0:
                a[i][j] = f"a{i}_{j}{sfx}"
                body.append(f"{a[i][j]} = " + _sum(
                    st.Ar[i][j], [("+", st.B[i], f"(t{j} - {th[j]})")]))
            if st.B[i] != 0.0:
                bx[i][j] = f"bx{i}_{j}{sfx}"
                body.append(f"{bx[i][j]} = " + _sum(None, [("+", st.B[i], x[j])]))
            if st.PB[j] != 0.0:
                g[i][j] = f"g{i}_{j}{sfx}"
                body.append(f"{g[i][j]} = {gx[i]} * {c(st.PB[j])}")
    body.append(f"{gs} = {c(st.gamma)} * {s}")
    dy += [_sum(None, [("+", a[i][j], S[j][k]) for j in R]
                + [("-", bx[i][j], S[n + j][k]) for j in R if bx[i][j]])
           for i in R for k in R]
    dy += [_sum(f"{gs} * {S[i][k]}", [("+", g[i][j], S[j][k]) for j in R if g[i][j]])
           for i in R for k in R]
    return body, dy


def _unpack(names, source):
    return ", ".join(names) + ", = " + source


def _coupled_derivative_source(st, with_sens, exact_sens):
    """Source of ``f(y, theta)``: d/dt of the coupled state for ``st``'s loop.

    ``y`` holds x, x_r, theta_hat and, with sensitivities, S = [S_e; S_th]
    (2n x n, row-major); ``theta`` is the true parameter.  Both are lists of
    floats, and ``f`` returns one.
    """
    body, dy = _derivative_code(st, with_sens, exact_sens, "")
    lines = [_unpack(_state_names(st.n, with_sens, ""), "y"),
             _unpack([f"t{j}" for j in range(st.n)], "theta")] + body
    return ("def f(y, theta):\n" + "".join(f"    {line}\n" for line in lines)
            + "    return [" + ",\n            ".join(dy) + "]\n")


def _rk4_code(st, with_sens, exact_sens):
    """Statements and expressions of one classical RK4 step of the coupled state.

    Returns (lines, out): ``lines`` evaluate ``_derivative_code``'s
    expressions four times over the state locals suffixed ``_1`` and ``t0,
    t1, ...``, stage s's locals suffixed ``_s`` and its slopes named
    ``ks_i``; ``out`` holds one expression per component of the new state.
    The step is ``(dt/6) * (((k1 + 2 k2) + 2 k3) + k4)``, the stage states
    ``y + (dt/2) k1``, ``y + (dt/2) k2`` and ``y + dt k3``, with ``dt/2``,
    ``dt`` and ``dt/6`` written in as literals.
    """
    y = _state_names(st.n, with_sens, "_1")
    lines = []
    for stage, h in ((1, None), (2, 0.5 * st.dt), (3, 0.5 * st.dt), (4, st.dt)):
        sfx = f"_{stage}"
        if h is not None:
            lines += [f"{v} = {y[i]} + {_literal(h)} * k{stage - 1}_{i}"
                      for i, v in enumerate(_state_names(st.n, with_sens, sfx))]
        body, dy = _derivative_code(st, with_sens, exact_sens, sfx)
        lines += body + [f"k{stage}_{i} = {expr}" for i, expr in enumerate(dy)]
    c = _literal(st.dt / 6.0)
    out = [f"{v} + {c} * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})"
           for i, v in enumerate(y)]
    return lines, out


def _reference_targets(n):
    """The locals ``_rk4_code``'s lines assign for x_r alone: its stage
    states and its slopes, which depend on nothing but x_r."""
    R = range(n)
    return ({f"xr{j}_{stage}" for j in R for stage in (2, 3, 4)}
            | {f"k{stage}_{n + j}" for j in R for stage in (1, 2, 3, 4)})


def _target(line):
    return line.split(" = ", 1)[0]


def _reference_rest_source(st):
    """Source of ``rest(xr)``: x_r's RK4 step alone, from ``_rk4_code``'s
    lines for x_r.  Returns the new x_r and x_r's stage-2..4 values."""
    n = st.n
    lines, out = _rk4_code(st, False, False)
    targets = _reference_targets(n)
    xr = _state_names(n, False, "_1")[n:2 * n]
    stages = [f"xr{j}_{stage}" for stage in (2, 3, 4) for j in range(n)]
    body = ([_unpack(xr, "xr")] + [line for line in lines if _target(line) in targets]
            + [f"return [{', '.join(out[n:2 * n])}], [{', '.join(stages)}]"])
    return "def rest(xr):\n" + "".join(f"    {line}\n" for line in body)


def _loop_parts(st, with_sens, exact_sens, settled):
    """The code text of one row of ``run``'s loop, for both backends.

    Returns (y, lines, moving, book): the state locals; ``_rk4_code``'s
    lines; (local, expression) of each state component the step moves; and
    the row's bookkeeping before the step, a phase's peak |e| and cost (while
    ``tracking``) and with sensitivities the learner's ``gradient_code``
    step.  ``settled`` leaves out x_r's stage states, slopes and update.
    """
    n, iy = st.n, st.iy
    lines, out = _rk4_code(st, with_sens, exact_sens)
    y = _state_names(n, with_sens, "_1")
    moving = list(zip(y, out))
    if settled:
        targets = _reference_targets(n)
        lines = [line for line in lines if _target(line) not in targets]
        moving = moving[:n] + moving[2 * n:]
    dt = _literal(st.dt)
    book = ["a = abs(e)", "if a > peak:", "    peak = a", f"E += a * {dt}"]
    if with_sens:  # a phase is always open while the learner runs
        book += gradient_code(y[3 * n + iy * n:3 * n + (iy + 1) * n], dt)
    else:
        book = ["if tracking:"] + [f"    {line}" for line in book]
    return y, lines, moving, book


def _settled_stages(n):
    return [f"xr{j}_{stage}" for stage in (2, 3, 4) for j in range(n)]


def _segment_source(st, with_sens, exact_sens, live=True, settled=False):
    """Source of ``segment(...)``: ``run``'s loop over the steps between two
    returns to Python, with ``_rk4_code``'s step inlined.

    It enters at row k, whose events ``run`` has handled, and for each row
    does the row's bookkeeping (a phase's peak |e| and cost, and with
    sensitivities the learner's ``gradient_code`` step), the RK4 step, the
    guard, then e of row k + 1.  It returns at row ``stop``, when row k
    reaches ``next_start``'s schedule piece, or on divergence, with
    ``(error, k, e, edot, flags, peak, E, y)``; after a divergence, k is the
    row the failed step started from and ``y`` the state that step made.
    The gradient is kept in locals and written back to ``sens.dE_dthI`` on
    every return.

    ``live``: the run's loop.  It buffers each trace row before the state
    moves, then updates the rate estimate and runs the crossing test of row
    k + 1 from attention's code text, and returns on an event too.  It keeps
    the detector state in locals and writes it back to ``att`` on every
    return.  Otherwise the loop is frozen, for a replay or ``_Stepper.step``:
    no trace row, no rate estimate (``edot`` stays) and no event.

    ``settled``: x_r is a bit-exact fixed point of its RK4 step, so its four
    stage values are constants; stages 2-4 come in ``xr_stages``, in
    ``_reference_rest_source``'s order.  The loop leaves out x_r's stage
    states, slopes and update, and its squares in the guard, which the same
    values passed on an earlier row.

    ``_segment_c_source`` is the same loop in C, from the same code text.
    """
    n, iy = st.n, st.iy
    y, lines, moving, book = _loop_parts(st, with_sens, exact_sens, settled)
    dt = _literal(st.dt)
    state = "[" + ", ".join(y) + "]"
    head = [_unpack(y, "y"), _unpack([f"t{j}" for j in range(n)], "theta")]
    if settled:
        head.append(_unpack(_settled_stages(n), "xr_stages"))
    save = []
    if with_sens:
        dE = [f"dE{c}" for c in range(n)]
        head.append(_unpack(dE, "sens.dE_dthI.tolist()"))
        save.append(f"sens.dE_dthI[:] = [{', '.join(dE)}]")
    flags = "(0, 0, 0)"
    if live:
        head += ["e_prev, e_track, in_dist, events = "
                 "att.e_prev, att.e_track, att.in_disturbance, att.events",
                 "in_dist0 = in_dist"]
        flags = EVENT_FLAGS
        save.append("att.e_prev, att.edot_hat, att.e_track, att.in_disturbance = "
                    "e_prev, edot, e_track, in_dist")
        # the trace row takes the control stage 1 applied
        lines = lines + [f"rows += ({', '.join(y[:3 * n])}, e, edot, u_1)"]
    # each new component depends only on its own old one and the slopes, so
    # the state is updated in place
    loop = (book + lines + [f"{v} = {expr}" for v, expr in moving] + [
        # squares: no call per component; an overflow only sends the row to
        # the exact check
        f"if not {' + '.join(f'{v} * {v}' for v, _ in moving)} <= "
        f"{_literal(DIVERGENCE_LIMIT ** 2)}:",
        "    try:",
        f"        check_bounded({state}, k * {dt} + {dt}, {3 * n})",
        "    except DivergenceError as exc:",
        *(f"        {line}" for line in save),
        f"        return exc, k, e, edot, None, peak, E, {state}",
        "k += 1",
        f"e = x{iy}_1 - xr{iy}_1",
    ])
    ends = f"k == stop or next_start <= k * {dt}"
    if live:
        loop += estimator_code(st.attention, dt) + detector_code(st.attention, f"k * {dt}")
        # an event flips in_dist, and in_dist0 is its value at entry
        ends = "in_dist is not in_dist0 or " + ends
    loop += [f"if {ends}:", *(f"    {line}" for line in save),
             f"    return None, k, e, edot, ({flags}), peak, E, {state}"]
    return ("def segment(y, theta, k, stop, next_start, e, edot, peak, E, tracking,"
            " rows, att, sens, xr_stages, check_bounded):\n"
            + "".join(f"    {line}\n" for line in head + ["while True:"])
            + "".join(f"        {line}\n" for line in loop))


def _segment_c_source(st, with_sens, exact_sens, live, settled):
    """C of ``_segment_source``'s loop: ``int segment(y, theta, k, stop,
    next_start, f, flags, row, xr_stages)``.

    The row's bookkeeping, the RK4 step, the rate estimate and the crossing
    test are ``native.statements`` of the Python loop's code text; only the
    skeleton is written here.  ``y`` (the state), ``k``, ``f`` (e, edot,
    peak, E, e_prev, e_track, then dE/dtheta_I) and ``flags`` (tracking,
    in_dist) are read at entry and written back at the return.  The live
    loop writes its trace rows one after another from ``row``, and returns
    on an event, which the caller then appends to the event list in place
    of the crossing test's ``events.append``.  The guard is
    ``check_bounded``'s test: every component finite and the first 3n
    within DIVERGENCE_LIMIT.  It returns 1 when the guard fails, with k the
    row the failed step started from and ``y`` the state the step made,
    else 0.
    """
    n, iy = st.n, st.iy
    y, lines, moving, book = _loop_parts(st, with_sens, exact_sens, settled)
    dt = _literal(st.dt)
    step, temps = native.statements(book + lines)
    move, _ = native.statements([f"{v} = {x}" for v, x in moving])
    detect, more = native.statements(
        estimator_code(st.attention, dt) + detector_code(st.attention, f"k * {dt}")
        if live else [], drop=("events",))
    scalars = ["e", "edot", "peak", "E", "e_prev", "e_track"]
    dE = [f"dE{c}" for c in range(n)] if with_sens else []
    own = set(y + scalars + dE + ["k", "tracking", "in_dist"])

    def declare(names, source):
        return "double " + ", ".join(f"{v} = {source}[{i}]" for i, v in enumerate(names)) + ";"

    head = [declare(y, "y"), declare([f"t{j}" for j in range(n)], "theta"),
            declare(scalars + dE, "f"),
            "long long k = *k_io;",
            "int tracking = flags[0], in_dist = flags[1], in_dist0 = in_dist, failed = 0;",
            "double " + ", ".join(v for v in dict.fromkeys(temps + more) if v not in own) + ";"]
    if settled:
        head.append(declare(_settled_stages(n), "xr_stages"))
    limit = _literal(DIVERGENCE_LIMIT)
    bounded = " && ".join([f"isfinite({v})" for v in y]
                          + [f"fabs({v}) <= {limit}" for v in y[:3 * n]])
    # the trace row takes the control stage 1 applied
    record = [f"row[{i}] = {v};" for i, v in enumerate(y[:3 * n] + ["e", "edot", "u_1"])]
    loop = step + (record + [f"row += {3 * n + 3};"] if live else []) + move + [
        f"if (!({' + '.join(f'{v} * {v}' for v, _ in moving)} <= "
        f"{_literal(DIVERGENCE_LIMIT ** 2)}) && !({bounded})) {{",
        "    failed = 1;",
        "    break;",
        "}",
        "k += 1;",
        f"e = x{iy}_1 - xr{iy}_1;",
        *detect,
        f"if ({'in_dist != in_dist0 || ' if live else ''}k == stop"
        f" || next_start <= k * {dt}) break;",
    ]
    tail = ([f"y[{i}] = {v};" for i, v in enumerate(y)]
            + [f"f[{i}] = {v};" for i, v in enumerate(scalars + dE)]
            + ["*k_io = k;", "flags[1] = in_dist;", "return failed;"])
    return ("int segment(double *y, const double *theta, long long *k_io, long long stop,"
            " double next_start, double *f, int *flags, double *row,"
            " const double *xr_stages)\n{\n"
            + "".join(f"    {line}\n" for line in head + ["for (;;) {"])
            + "".join(f"        {line}\n" for line in loop)
            + "    }\n" + "".join(f"    {line}\n" for line in tail) + "}\n")


def _control_source(st):
    """Source of ``u(y)``: the control a step from state ``y`` applies."""
    y = _unpack(_state_names(st.n, False, ""), f"y[:{3 * st.n}]")
    return f"def u(y):\n    {y}\n    return {_control_code(st, '')}\n"


_SOURCES = {"f": _coupled_derivative_source, "segment": _segment_source,
            "rest": _reference_rest_source, "u": _control_source}


def _native_segment(st, lib, with_sens, exact_sens, live, settled):
    """``segment`` of ``_segment_source``'s signature and returns, over the C
    loop in ``lib`` (``_segment_c_source``).  A live loop writes its trace
    rows into ``rows.block`` (``_Rows``); on a failed guard, ``check_bounded``
    raises from the state the C loop returns, as in the Python loop."""
    import ctypes

    n, dt = st.n, st.dt
    size = len(_state_names(n, with_sens, ""))
    Doubles, Scalars = ctypes.c_double * size, ctypes.c_double * (6 + n)
    Theta, Stages, Flags = ctypes.c_double * n, ctypes.c_double * (3 * n), ctypes.c_int * 2
    fn = lib.segment
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong,
                   ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_void_p]

    def segment(y, theta, k, stop, next_start, e, edot, peak, E, tracking, rows, att,
                sens, xr_stages, check_bounded):
        if len(y) != size or len(theta) != n:   # ctypes would pad a short one
            raise ValueError(f"a segment takes {size} states and {n} parameters")
        state = Doubles(*y)
        detector = (att.e_prev, att.e_track) if live else (0.0, 0.0)
        f = Scalars(e, edot, peak, E, *detector, *(sens.dE_dthI if with_sens else ()))
        in_dist0 = live and att.in_disturbance
        flags = Flags(tracking, in_dist0)
        k_io = ctypes.c_longlong(k)
        failed = fn(state, Theta(*theta), ctypes.byref(k_io), stop, next_start, f, flags,
                    rows.tail(stop - k) if live else None,
                    None if xr_stages is None else Stages(*xr_stages))
        end, y = k_io.value, state[:]
        e, edot, peak, E = f[:4]
        if with_sens:
            sens.dE_dthI[:] = f[6:]
        if live:
            rows.count += end - k + failed
            in_dist = bool(flags[1])
            att.e_prev, att.edot_hat, att.e_track, att.in_disturbance = (
                f[4], edot, f[5], in_dist)
        if failed:
            try:
                check_bounded(y, end * dt + dt, 3 * n)
            except DivergenceError as exc:
                return exc, end, e, edot, None, peak, E, y
            raise RuntimeError("the native guard failed a state check_bounded passes")
        events = (0, 0, 0)
        if live and in_dist is not in_dist0:
            events = (1, 0, 1) if in_dist else (0, 1, 1)
            att.events.append((end * dt, "E_u" if in_dist else "E_d"))
        return None, end, e, edot, events, peak, E, y

    return segment


#: Rows a loop variant steps in Python, in one process, before it looks for
#: its native build in the cache (writing its C text, 3-14 ms), and before
#: it builds one (0.14-0.19 s for a plain B-747 loop, 0.35-0.48 s with
#: sensitivities), keyed by with_sens: about the rows the Python loop steps
#: in that time (3-4 us a plain row, 11-12 us a row with sensitivities;
#: x86_64, gcc 12).
#: A run looks or builds only with at least as many rows left, which a
#: native loop could then step instead, or once the process has stepped
#: twice as many: a loop that runs in short stretches, such as the settled
#: one in each of many runs, then repays it over the runs to come.
_LOOKUP_ROWS = 10_000
_BUILD_ROWS = {False: 50_000, True: 35_000}


class _Loop:
    """A variant of ``run``'s loop for equal steppers: the Python loop
    (``_segment_source``) until it has stepped enough rows to repay the
    native one (``_segment_c_source``), which then takes over.

    Each variant pays for the native loop only once the Python loop has
    spent about as long as that costs (renting until the rent adds up to
    the price): first a look in the cache, then a build.  A process whose
    variant steps fewer rows, such as a short run or a sweep over configs
    that each run once, stays with the Python loop, and the C compiler is
    not asked about.  ``native_error`` says why there is no native loop
    where a lookup failed; from then on the Python loop is the variant's.
    """

    def __init__(self, stepper, flags):
        self.stepper, self.flags = stepper, flags
        self.rows = 0           # rows the Python loop has stepped
        self.python = None
        self.native = None
        self.c_source = None    # written at the first lookup
        self.native_error = None

    def segment(self, rows_left):
        if self.native is not None:
            return self.native

        def repaid(rows):
            return self.rows >= rows and (rows_left >= rows or self.rows >= 2 * rows)

        build = repaid(_BUILD_ROWS[self.flags[0]])
        # one look in the cache, then, if it missed, one build
        if (self.native_error is None and repaid(_LOOKUP_ROWS)
                and (self.c_source is None or build)):
            try:
                if self.c_source is None:
                    native.compiler()   # no C text is made without one
                    self.c_source = _segment_c_source(self.stepper, *self.flags)
                lib = native.load(self.c_source, build)
            except native.BuildError as exc:
                self.native_error = str(exc)
                self.python = self._python()
                self.python.native_error = self.native_error
                self.c_source = None
            else:
                if lib is not None:
                    self.native = _native_segment(self.stepper, lib, *self.flags)
                    self.python = self.c_source = None
                    return self.native
        if self.python is None:
            python = self._python()

            def segment(y, theta, k, *args):
                out = python(y, theta, k, *args)
                self.rows += out[1] - k
                return out

            self.python = segment
        return self.python

    def _python(self):
        return _compile(self.stepper, "segment", *self.flags)


@functools.lru_cache(maxsize=64)
def _compile(stepper, name, *flags):
    """Function ``name`` of ``_SOURCES[name](stepper, *flags)``, or with
    ``name`` "loop" the ``_Loop`` of a segment.  Cached by the stepper's
    numbers and the flags, which fix the text, so the many ``_Stepper``s of
    a sweep or a grad-check generate, compile and count each loop once."""
    if name == "loop":
        return _Loop(stepper, flags)
    namespace = {"inf": math.inf, "nan": math.nan, "DivergenceError": DivergenceError}
    exec(_SOURCES[name](stepper, *flags), namespace)
    return namespace[name]


class _Stepper:
    """Closed-loop data, as floats, and the compiled run segments.

    Two steppers are equal when their numbers have the same reprs: the
    generated code sees them only as ``repr`` literals and through the
    values those give back, so equal steppers generate the same text.
    """

    def __init__(self, cfg, ctrl, ref):
        self.n = cfg.plant.n
        self.iy = cfg.plant.iy
        self.A = cfg.plant.A.tolist()
        self.B = cfg.plant.B.tolist()
        self.B1r = cfg.plant.B1r.tolist()
        self.Ar = ref.Ar.tolist()
        self.Bsum = (ref.B1r + ref.B2r).tolist()
        self.K = ctrl.K[0].tolist()
        self.k0 = float(ctrl.k0)
        self.gamma = float(ctrl.gamma)
        self.PB = (ctrl.P @ cfg.plant.B).tolist()
        self.r = float(cfg.r)
        self.dt = float(cfg.dt)
        self.attention = cfg.attention
        self._key = repr(vars(self))

    def __eq__(self, other):
        return isinstance(other, _Stepper) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def derivative(self, with_sens, exact_sens):
        """The compiled ``f(y, theta)`` the step integrates."""
        return _compile(self, "f", with_sens, exact_sens)

    def control(self):
        """The compiled ``u(y)``: the control a step from state ``y`` applies."""
        return _compile(self, "u")

    def segment(self, with_sens, exact_sens, live, settled, rows_left=math.inf):
        """The ``segment`` of ``run``'s loop (``_segment_source``) to call
        next, from a caller with at most ``rows_left`` rows to step: the
        Python loop or the native one (``_Loop``)."""
        return _compile(self, "loop", with_sens, exact_sens, live, settled).segment(rows_left)

    def reference_rest(self, xr):
        """x_r's RK4 stage-2..4 values, for a settled ``segment``, if the
        reference state ``xr`` is a bit-exact fixed point of its RK4 step,
        else None.  The reference model is autonomous, so a fixed point
        stays one."""
        new, stages = _compile(self, "rest")(xr)
        return stages if _bits(new) == _bits(xr) else None

    def step(self, y, theta, with_sens=False, exact_sens=False, k=0):
        """One RK4 step of the coupled state ``y`` (3n states, plus the 2n x n
        sensitivities when ``with_sens``) from row ``k``: one row of the
        frozen ``segment``.  Returns the new state as a list.

        Every component must stay finite and the 3n plant, reference and
        estimate states within DIVERGENCE_LIMIT, else DivergenceError at the
        time of row k + 1.
        """
        sens = SensitivityState(n=self.n)
        sens.activate(None)
        exc, _, _, _, _, _, _, out = self.segment(with_sens, exact_sens, False, False)(
            y, [float(v) for v in theta], k, k + 1, math.inf, 0.0, 0.0, 0.0, 0.0,
            False, None, None, sens, None, check_bounded,
        )
        if exc is not None:
            raise exc
        return out


def _bits(values):
    """The bytes of a list of floats: equal lists of bits, -0.0 and NaNs told
    apart."""
    return struct.pack(f"{len(values)}d", *values)


# --------------------------------------------------------------------------
# results

@dataclass
class PhaseMetrics:
    t_u: float
    t_d: float | None
    peak_abs_e: float
    E_phase: float
    recovered: bool
    jump_ref: float | None  # schedule jump this phase responds to
    snapshot: PhaseSnapshot | None = None
    step_u: int = 0
    step_d: int | None = None
    grad: np.ndarray | None = None   # the learner's dE/dtheta_I, unclipped


@dataclass
class RunResult:
    config: RunConfig
    trace: dict                 # arrays keyed t, x, x_r, e, edot_hat, theta, theta_hat, u, Eu, Ed
    phases: list
    events: list                # (t, "E_u"|"E_d")
    phase_reports: list         # learner phase-end reports
    net: PreadaptNet | None
    status: str = "ok"          # "ok" | "diverged"
    error: str | None = None
    error_step: int | None = None


def _jump_before(schedule, t):
    ref = None
    for tj in schedule.jump_times:
        if tj <= t:
            ref = tj
    return ref


def _sensitivity_start(n):
    """Flat [S_e; S_th] at a phase onset: S_e = 0, S_th = I."""
    return [0.0] * (n * n) + np.eye(n).reshape(-1).tolist()


def _store_sensitivities(sens, y, phase):
    """Move the flat sensitivities off the end of ``y`` into S_e and S_th,
    and take the learner's cost from ``phase``: the loop adds the same
    terms to both, so it keeps one sum."""
    n = sens.n
    flat = np.array(y[3 * n:])
    del y[3 * n:]
    sens.S_e = flat[:n * n].reshape(n, n)
    sens.S_th = flat[n * n:].reshape(n, n)
    sens.E_acc = phase.E_phase


def _next_piece_start(schedule, t):
    """Start of the first schedule piece after ``t``; ``theta_at`` gives the
    same piece for every time before it (the same ``t_start <= t`` test)."""
    for t_start in schedule.jump_times:
        if not t_start <= t:
            return t_start
    return math.inf


#: Trace rows handled as Python floats at a time: buffered between writes to
#: the trace arrays here, and formatted per `%` operation by cli's writer.
#: Whole-trace tolist() would hold every value of the trace as a Python
#: object at once.
_TRACE_CHUNK = 256


class _Rows(list):
    """The trace rows not yet written: floats appended to the list by the
    Python loop, and rows in ``block`` (``count`` of them) written there by
    the native one.  Both loops may fill one chunk, so the list is moved to
    the block before the native loop writes and before the rows are read."""

    def __init__(self, width):
        super().__init__()
        self.block = np.empty((_TRACE_CHUNK + 1, width))
        self.count = 0

    def _flush(self):
        if self:
            new = np.frombuffer(_bits(self)).reshape(-1, self.block.shape[1])
            self.block[self.count:self.count + len(new)] = new
            self.count += len(new)
            self.clear()

    def tail(self, rows):
        """The address the next row goes to, with room for ``rows`` rows."""
        self._flush()
        if self.count + rows > len(self.block):
            raise ValueError(f"no room for {rows} rows after {self.count}")
        return self.block.ctypes.data + self.count * self.block.strides[0]

    def take(self):
        """The rows, as a view of the block, which is then empty."""
        self._flush()
        rows, self.count = self.block[:self.count], 0
        return rows


def _write_rows(trace, rows, start, pieces, n):
    """Write the buffered rows (x, x_r, theta_hat, e, edot_hat, u each) from
    row ``start`` on, with their true parameter; returns the next row to
    write."""
    block = rows.take()
    stop = start + block.shape[0]
    hi = stop
    for first, theta in reversed(pieces):   # (first row, theta) of each piece
        if hi <= start:
            break
        trace["theta"][max(first, start):hi] = theta
        hi = first
    trace["x"][start:stop] = block[:, :n]
    trace["x_r"][start:stop] = block[:, n:2 * n]
    trace["theta_hat"][start:stop] = block[:, 2 * n:3 * n]
    trace["e"][start:stop] = block[:, 3 * n]
    trace["edot_hat"][start:stop] = block[:, 3 * n + 1]
    trace["u"][start:stop] = block[:, 3 * n + 2]
    return stop


def run(cfg, on_rows=None):
    """Simulate one closed-loop run; deterministic given config and seed.

    Per row k: e and its rate estimate, event detection, the onset's
    reinitialization or the recovery's phase close, the row's bookkeeping,
    then the RK4 step to row k + 1.  The rows between two events, schedule
    pieces or trace chunks run in a compiled ``segment``; this loop handles
    what happens at their ends.

    ``on_rows(trace, stop)``, if given, is called each time a chunk of rows
    has landed in the trace arrays, every column of rows [0, stop) final,
    and once more at the end with the whole trace, cut short after a
    divergence; it sees the arrays the result returns.
    """
    ctrl, ref = build_controller(cfg)
    stepper = _Stepper(cfg, ctrl, ref)
    n = cfg.plant.n
    iy = cfg.plant.iy
    dt = cfg.dt
    N = cfg.num_steps
    schedule = cfg.schedule
    att_cfg = cfg.attention

    net = None
    if cfg.preadapt.enabled:
        net = cfg.preadapt.net or PreadaptNet.random(
            n, cfg.preadapt.hidden, cfg.preadapt.seed, cfg.preadapt.init_scale
        )
    exact_sens = cfg.preadapt.gradient_mode == GradientMode.EXACT

    att = AttentionState()
    sens = SensitivityState(n=n)
    phases = []
    phase_reports = []
    open_phase = None
    tracking = False    # open_phase is not None and not open_phase.recovered

    trace = {
        "t": np.arange(N + 1) * dt,
        "x": np.empty((N + 1, n)),
        "x_r": np.empty((N + 1, n)),
        "e": np.empty(N + 1),
        "edot_hat": np.empty(N + 1),
        "theta": np.empty((N + 1, n)),
        "theta_hat": np.empty((N + 1, n)),
        "u": np.empty(N + 1),
        "Eu": np.zeros(N + 1, dtype=np.int8),
        "Ed": np.zeros(N + 1, dtype=np.int8),
    }
    rows = _Rows(3 * n + 3)     # the rows not yet written to the trace
    written = 0
    xr_stages = None    # x_r's stage values once it is at its fixed point
    pieces = []         # (first step, theta) of each schedule piece reached
    next_start = -math.inf   # theta_at runs again once t reaches this

    # coupled state as a list of floats: x, x_r, theta_hat, then the flat
    # sensitivities S_e, S_th while a learner phase is open
    y = cfg.x0.tolist() + cfg.x0.tolist() + cfg.theta_hat0.tolist()
    att.e_prev = att.e_track = y[iy] - y[n + iy]
    status, error, error_step = "ok", None, None
    steps_done = N

    k = 0
    e = y[iy] - y[n + iy]
    edot = velocity_estimator(att_cfg)(att, e, dt)
    flags = detect_events(att_cfg, att, e, edot, 0.0)
    while True:
        t = k * dt
        if next_start <= t:
            theta = theta_at(schedule, t)
            next_start = _next_piece_start(schedule, t)
            pieces.append((k, theta))
            theta_floats = theta.tolist()
        e_u, e_d, att_flag = flags

        if e_u:
            trace["Eu"][k] = 1
            snapshot = None
            if cfg.preadapt.enabled:
                theta_I, sigma_h, input2 = theta_init(net, e, edot)
                y[2 * n:3 * n] = map(float, apply_preadaptation(
                    att_flag, e_u, y[2 * n:3 * n], theta_I))
                snapshot = PhaseSnapshot(
                    t_u=t, input2=input2, sigma_h=sigma_h,
                    W=net.W.copy(), V=net.V.copy(),
                    x=np.array(y[0:n]), x_r=np.array(y[n:2 * n]),
                    theta_I=theta_I.copy(), step=k,
                )
                if cfg.preadapt.learner_enabled:
                    sens.activate(snapshot)
                    y[3 * n:] = _sensitivity_start(n)
            open_phase = PhaseMetrics(
                t_u=t, t_d=None, peak_abs_e=abs(e), E_phase=0.0,
                recovered=False, jump_ref=_jump_before(cfg.schedule, t),
                snapshot=snapshot, step_u=k,
            )
            phases.append(open_phase)
            tracking = True

        if e_d:
            trace["Ed"][k] = 1
        # a phase's peak runs from its onset row to its recovery row
        if tracking and (e_d or k == N):
            open_phase.peak_abs_e = max(open_phase.peak_abs_e, abs(e))
        if e_d and tracking:
            open_phase.t_d = t
            open_phase.step_d = k
            open_phase.recovered = True
            tracking = False
            if cfg.preadapt.learner_enabled and sens.active:
                _store_sensitivities(sens, y, open_phase)
                open_phase.grad = sens.dE_dthI
                net, report = close_phase(
                    sens, net, cfg.preadapt.gamma_pa, t,
                    clip_norm=cfg.preadapt.clip_norm,
                )
                report["mode"] = cfg.preadapt.gradient_mode.value
                phase_reports.append(report)

        if k == N:
            rows += y[:3 * n]
            rows += (e, edot, stepper.control()(y))
            break
        if k - written == _TRACE_CHUNK:
            written = _write_rows(trace, rows, written, pieces, n)
            if on_rows is not None:
                on_rows(trace, written)
        # row 0's x_r is the configured x0, which no guard has checked yet
        if xr_stages is None and k > 0:
            xr_stages = stepper.reference_rest(y[n:2 * n])
        segment = stepper.segment(sens.active, exact_sens, True, xr_stages is not None, N - k)
        peak, E = ((open_phase.peak_abs_e, open_phase.E_phase) if tracking
                   else (0.0, 0.0))
        exc, k, e, edot, flags, peak, E, y = segment(
            y, theta_floats, k, min(written + _TRACE_CHUNK, N), next_start, e, edot,
            peak, E, tracking, rows, att, sens, xr_stages, check_bounded,
        )
        if tracking:
            open_phase.peak_abs_e, open_phase.E_phase = peak, E
        if exc is not None:
            status = "diverged"
            error = str(exc)
            error_step = k
            steps_done = k
            break

    _write_rows(trace, rows, written, pieces, n)
    if status == "diverged":
        for key in trace:
            trace[key] = trace[key][:steps_done + 1]
    if on_rows is not None:
        on_rows(trace, steps_done + 1)

    if sens.active:
        # phase never closed before the horizon: no weight update, log it
        _store_sensitivities(sens, y, open_phase)
        phase_reports.append({
            "t_u": sens.snapshot.t_u, "t_d": None, "E_acc": sens.E_acc,
            "grad_W_norm": None, "grad_V_norm": None, "updated": False,
            "mode": cfg.preadapt.gradient_mode.value,
        })
        sens.deactivate()

    return RunResult(
        config=cfg, trace=trace, phases=phases, events=list(att.events),
        phase_reports=phase_reports, net=net,
        status=status, error=error, error_step=error_step,
    )


# --------------------------------------------------------------------------
# comparison

def phases_by_jump(result):
    """The phase that answers each schedule jump, keyed by jump time.

    One jump can open more than one phase before the next jump; the phase
    with the largest peak |e| answers it (the first of equal peaks).
    """
    by_jump = {}
    for p in result.phases:
        q = by_jump.get(p.jump_ref)
        if p.jump_ref is not None and (q is None or p.peak_abs_e > q.peak_abs_e):
            by_jump[p.jump_ref] = p
    return by_jump


def _require_comparable(config_a, config_b):
    """ConfigError unless two runs share their schedule, dt and horizon."""
    sched_a, sched_b = config_a.schedule, config_b.schedule
    if (
        len(sched_a.pieces) != len(sched_b.pieces)
        or any(
            ta != tb or not np.array_equal(va, vb)
            for (ta, va), (tb, vb) in zip(sched_a.pieces, sched_b.pieces)
        )
        or sched_a.horizon != sched_b.horizon
        or config_a.dt != config_b.dt
    ):
        raise ConfigError("compared runs must share schedule, dt, and horizon")


def compare_results(res_a, res_b):
    """Match phases across two runs by the schedule jump they respond to.

    A diverged run is refused: its last phase never closed, so its peak
    would not be a phase's peak.
    """
    for name, res in (("first", res_a), ("second", res_b)):
        if res.status == "diverged":
            raise DivergenceError(f"the {name} compared run diverged: {res.error}")
    _require_comparable(res_a.config, res_b.config)
    sched_a = res_a.config.schedule

    by_jump_a = phases_by_jump(res_a)
    by_jump_b = phases_by_jump(res_b)
    rows = []
    for tj in sched_a.jump_times:
        pa = by_jump_a.get(tj)
        pb = by_jump_b.get(tj)
        if pa is None or pb is None:
            continue
        reduction = 1.0 - pb.peak_abs_e / pa.peak_abs_e if pa.peak_abs_e > 0 else 0.0
        rows.append({
            "jump_t": tj,
            "t_u_a": pa.t_u, "t_u_b": pb.t_u,
            "peak_a": pa.peak_abs_e, "peak_b": pb.peak_abs_e,
            "reduction": reduction,
            "E_a": pa.E_phase, "E_b": pb.E_phase,
        })
    return rows


def compare(config_a, config_b):
    """Run both configurations and return (result_a, result_b, matched rows);
    configurations that cannot be compared are refused before either runs."""
    _require_comparable(config_a, config_b)
    res_a = run(config_a)
    res_b = run(config_b)
    return res_a, res_b, compare_results(res_a, res_b)


# --------------------------------------------------------------------------
# independent work on every CPU

def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _picklable(exc):
    """``exc`` if a pickle round trip gives back its type and message, else
    a RuntimeError that names it."""
    try:
        back = pickle.loads(pickle.dumps(exc))
    except Exception:
        back = None
    if type(back) is type(exc) and str(back) == str(exc):
        return exc
    return RuntimeError(f"fork_map worker raised {type(exc).__name__}: {exc}")


#: fork_map's tickets at most: 4 bytes each, 512 bytes in all, which is
#: POSIX's least PIPE_BUF, so one write puts them whole into an empty pipe
_TICKETS = 128


def _pull(fn, items, tickets, per_ticket):
    """Compute the items of each ticket this process reads from the pipe
    ``tickets`` until it is empty or ``fn`` raises an Exception.  A ticket is
    the index of its first item.  Returns ``({index: result}, None)`` or,
    on an exception, ``({index: result}, (index, exception))``."""
    done = {}
    while ticket := os.read(tickets, 4):
        start, = struct.unpack("I", ticket)
        for i in range(start, min(start + per_ticket, len(items))):
            try:
                done[i] = fn(items[i])
            except Exception as exc:
                return done, (i, exc)
    return done, None


def _map_in_child(fn, items, tickets, per_ticket, fd):
    """Body of a forked fork_map worker: ``_pull`` items, pickle what it
    returns to the pipe ``fd``, then _exit.

    os._exit skips the parent's stdio buffers and atexit hooks, which the
    child inherited and must not flush or run.  The traceback of an
    exception ``fn`` raises goes to stderr here; only its item's index, its
    type and its message cross the pipe.
    """
    code = 1
    try:
        with os.fdopen(fd, "wb") as pipe:
            done, failure = _pull(fn, items, tickets, per_ticket)
            if failure is not None:
                traceback.print_exception(failure[1])
                failure = failure[0], _picklable(failure[1])
            pipe.write(pickle.dumps((done, failure)))
        code = 0
    except Exception:   # a result that does not pickle: status 1 there
        traceback.print_exc()
    finally:
        os._exit(code)


def fork_map(fn, items):
    """``[fn(x) for x in items]``, computed by one process per CPU.

    This process and one forked worker per further CPU,
    ``min(_cpu_count(), len(items))`` processes in all, pull the items in
    index order: each takes the next unclaimed one whenever it is free, so
    a caller that lists its longest items first gets longest-first list
    scheduling (Graham, 1969).  The claims are 4-byte tickets, written into
    a pipe before the first fork, whose write end is then closed, so a
    process stops at the pipe's end.  Past ``_TICKETS`` items a ticket
    stands for a run of consecutive ones.  Each worker pickles its results,
    by index, to this process over a pipe, which is read to its end before
    that worker, and only it, is waited for.

    A process stops pulling at its first exception from ``fn``.  The
    exception raised here is that of the lowest failing index, which the
    loop would raise too: items are claimed in order, so each one below it
    was claimed and computed.  A worker's exception keeps its type and
    message (a RuntimeError naming it if it does not pickle), so a
    DivergenceError keeps its exit code; a worker that exits without a
    result raises RuntimeError with its status.  On any exception here,
    KeyboardInterrupt included, every live worker is killed and reaped.
    With one CPU, or without ``os.fork``, it is a plain loop.

    A forked child holds only the thread that forked it, so ``fn`` must not
    need a lock that another thread of the parent could hold at the fork.
    grad_check's replays run the generated loop and call no BLAS routine;
    a native loop is a call into the shared object the parent loaded (or
    the worker builds), which takes no lock and calls no BLAS either.
    A ``fn`` that does call BLAS after the parent has (the acceptance
    criteria's seed runs, through build_controller) relies on the BLAS
    re-creating its thread pool in a forked child, as OpenBLAS's atfork
    handler does; under a BLAS without one, such a worker may hang.
    """
    items = list(items)
    procs = min(_cpu_count(), len(items)) if hasattr(os, "fork") else 1
    if procs < 2:
        return [fn(x) for x in items]
    per_ticket = -(-len(items) // _TICKETS)
    starts = range(0, len(items), per_ticket)
    tickets, feed = os.pipe()
    workers = []   # [pid, pipe] of each worker, pid None once reaped
    try:
        try:
            os.write(feed, struct.pack(f"{len(starts)}I", *starts))
        finally:
            os.close(feed)
        for _ in range(1, procs):
            r, wfd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(wfd)
                raise
            if pid == 0:
                _map_in_child(fn, items, tickets, per_ticket, wfd)
            os.close(wfd)
            workers.append([pid, os.fdopen(r, "rb")])
        results, failure = _pull(fn, items, tickets, per_ticket)
        failures = [] if failure is None else [failure]
        for worker in workers:
            pid, pipe = worker
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            worker[0] = None
            if status != 0:
                raise RuntimeError(f"fork_map worker exited with status "
                                   f"{os.waitstatus_to_exitcode(status)}")
            done, failure = pickle.loads(data)
            results.update(done)
            if failure is not None:
                failures.append(failure)
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return [results[i] for i in range(len(items))]
    finally:
        for pid, pipe in workers:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()
        os.close(tickets)


# --------------------------------------------------------------------------
# finite-difference gradient check

def _replay_window(cfg, stepper, snapshot, steps, theta_I, sens_mode=None):
    """Re-simulate a frozen phase window from its onset snapshot.

    The window's rows run through ``run``'s compiled segment, frozen: no
    rate estimate, no event detection and no reinitialization; the window
    starts with theta_hat = theta_I.  Returns (E, dE_dthI or None).
    """
    n = cfg.plant.n
    iy = cfg.plant.iy
    dt = cfg.dt
    with_sens = sens_mode is not None
    exact_sens = sens_mode == GradientMode.EXACT

    y = snapshot.x.tolist() + snapshot.x_r.tolist() + [float(v) for v in theta_I]
    if with_sens:
        y += _sensitivity_start(n)
    sens = SensitivityState(n=n)
    sens.activate(snapshot)
    k, stop = snapshot.step, snapshot.step + steps
    e, E = y[iy] - y[n + iy], 0.0
    next_start = -math.inf
    xr_stages = None
    while k < stop:
        if next_start <= k * dt:
            theta = theta_at(cfg.schedule, k * dt).tolist()
            next_start = _next_piece_start(cfg.schedule, k * dt)
        if xr_stages is None:
            xr_stages = stepper.reference_rest(y[n:2 * n])
        segment = stepper.segment(with_sens, exact_sens, False, xr_stages is not None)
        exc, k, e, _, _, _, E, y = segment(
            y, theta, k, min(k + _TRACE_CHUNK, stop), next_start, e, 0.0, 0.0, E,
            True, None, None, sens, xr_stages, check_bounded,
        )
        if exc is not None:
            raise exc
    return E, sens.dE_dthI if with_sens else None


def grad_check(cfg, phase_index, delta, result=None):
    """Central-difference validation of the sensitivity-ODE gradient.

    Re-simulates the chosen closed phase with the reinitialization value
    perturbed component-wise by +/- delta, events frozen, and compares
    against the sensitivity-ODE gradient for both gradient modes.  The
    gradient of ``cfg``'s own mode is the one the run kept in the phase
    when ``result`` is a run of ``cfg`` itself (or None); a replay of the
    window gives the same bits.  Every other gradient is replayed.

    Each mode reports its relative error to the finite differences, per
    component, and ``cos_to_fd``, the cosine of its angle to them: a
    gradient of the wrong scale can still point downhill.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise ConfigError(f"delta must be finite and positive, got {delta}")
    if not cfg.preadapt.enabled:
        raise ConfigError("gradient check needs a preadapt-enabled run")
    if result is None:
        result = run(cfg)
    closed = [p for p in result.phases if p.recovered and p.snapshot is not None]
    if not 0 <= phase_index < len(closed):
        raise ConfigError(
            f"phase {phase_index} not available ({len(closed)} closed phases)"
        )
    phase = closed[phase_index]
    snap = phase.snapshot
    steps = phase.step_d - phase.step_u

    ctrl, ref = build_controller(cfg)
    stepper = _Stepper(cfg, ctrl, ref)
    n = cfg.plant.n
    theta_I = snap.theta_I

    modes = (GradientMode.EXACT, GradientMode.APPROX)
    grads = {}
    if result.config is cfg and phase.grad is not None:
        grads[cfg.preadapt.gradient_mode] = phase.grad.copy()
    # the sensitivity replays, the slow jobs, come first: fork_map's
    # processes pull the jobs in order, so they start at once
    jobs = [(theta_I, mode) for mode in modes if mode not in grads]
    for j in range(n):
        bump = np.zeros(n)
        bump[j] = delta
        jobs += [(theta_I + bump, None), (theta_I - bump, None)]
    replays = fork_map(lambda job: _replay_window(cfg, stepper, snap, steps, *job), jobs)
    for (_, mode), (_, grad) in zip(jobs, replays):
        if mode is not None:
            grads[mode] = grad
    bumped = replays[len(replays) - 2 * n:]

    fd = np.zeros(n)
    for j in range(n):
        (e_plus, _), (e_minus, _) = bumped[2 * j], bumped[2 * j + 1]
        fd[j] = (e_plus - e_minus) / (2.0 * delta)

    report = {"phase_index": phase_index, "t_u": phase.t_u, "t_d": phase.t_d,
              "delta": delta, "fd": fd, "modes": {}}
    for mode in modes:
        grad = grads[mode]
        rel = np.empty(n)
        for j in range(n):
            if abs(fd[j]) < 1e-8:
                rel[j] = abs(grad[j] - fd[j])
            else:
                rel[j] = abs(grad[j] - fd[j]) / abs(fd[j])
        report["modes"][mode.value] = {
            "grad": grad,
            "rel_error": rel,
            "max_rel_error": float(np.max(rel)),
            "cos_to_fd": _cosine(grad.tolist(), fd.tolist()),
        }
    return report


def _cosine(a, b):
    """cos of the angle between the vectors ``a`` and ``b``, held to [-1, 1]
    against rounding, NaN if one is zero; an exact sum of products, so no
    BLAS summation order moves its bits."""
    norms = math.hypot(*a) * math.hypot(*b)
    if not norms > 0.0:
        return math.nan
    return min(1.0, max(-1.0, math.fsum(p * q for p, q in zip(a, b)) / norms))
