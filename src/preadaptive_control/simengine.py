"""Full closed-loop simulation: wiring, scenario library, comparison metrics.

Per integration step the loop (in this order): samples the true parameter,
updates the output-error velocity estimate, runs event detection, applies the
preadaptation reinitialization on an onset event, closes the learner phase on
a recovery event, accumulates cost/sensitivity, computes the control input,
and finally advances the whole coupled state (plant, reference, estimate,
sensitivity blocks) with one RK4 step.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .attention import AttentionConfig, AttentionState, detect_events, update_velocity
from .controller import ControllerConfig, control_input, lqr_gain, solve_lyapunov
from .dynamics import (
    DIVERGENCE_LIMIT,
    PlantConfig,
    ReferenceConfig,
    ThetaSchedule,
    check_bounded,
    theta_at,
)
from .errors import ConfigError, DivergenceError
from .learner import (
    GradientMode,
    PhaseSnapshot,
    SensitivityState,
    accumulate_cost,
    close_phase,
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
    hidden: int = 3
    seed: int = 0
    init_scale: float = 0.5
    clip_norm: float | None = None
    net: PreadaptNet | None = None  # preloaded weights override the seed init


@dataclass(frozen=True)
class RunConfig:
    plant: PlantConfig
    schedule: ThetaSchedule
    attention: AttentionConfig
    preadapt: PreadaptSettings
    Q: np.ndarray
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
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
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
        if self.preadapt.learner_enabled and not self.preadapt.enabled:
            raise ConfigError("learner requires preadaptation to be enabled")
        x0 = np.zeros(n) if self.x0 is None else np.asarray(self.x0, dtype=float)
        th0 = (
            np.zeros(n)
            if self.theta_hat0 is None
            else np.asarray(self.theta_hat0, dtype=float)
        )
        if x0.shape != (n,) or th0.shape != (n,):
            raise ConfigError("x0 / theta_hat0 dimension mismatch")
        object.__setattr__(self, "Q", np.atleast_2d(np.asarray(self.Q, dtype=float)))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "theta_hat0", th0)

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
        attention=AttentionConfig(c_e=0.005, c_ed=0.02, tau_f=0.05),
        preadapt=preadapt if preadapt is not None else PreadaptSettings(),
        Q=np.eye(3),
        R=1.0,
        gamma=10.0,
        k0=0.0,
        r=0.1,
        dt=1e-3,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# --------------------------------------------------------------------------
# inner step (plant + reference + estimate + optional sensitivity)
#
# The state is a Python list of floats: indexing a numpy array boxes a new
# float64 per element, which used to be most of a step.  The derivative is
# compiled per closed loop as straight-line code, because at n = 3 a Python
# loop over the n terms of a sum costs more than the sum itself.  Each sum is
# written out left to right, in the order of the per-element loops it
# replaced, with the closed loop's matrices as float literals; the arithmetic
# is therefore the same IEEE operations in the same order, and traces are
# bit-identical to those of the earlier array implementation.

def _coupled_derivative_source(st, with_sens, exact_sens):
    """Source of ``f(y, theta)``: d/dt of the coupled state for ``st``'s loop.

    ``y`` holds x, x_r, theta_hat and, with sensitivities, S = [S_e; S_th]
    (2n x n, row-major); ``theta`` is the true parameter.  Both are lists of
    floats, and ``f`` returns one.
    """
    n = st.n
    R = range(n)

    def c(v):
        return f"({float(v)!r})"  # repr round-trips every float exactly

    x = [f"x{j}" for j in R]
    xr = [f"xr{j}" for j in R]
    th = [f"th{j}" for j in R]
    S = [[f"S{j}_{k}" for k in R] for j in range(2 * n)] if with_sens else []
    body = [
        ", ".join(x + xr + th + [v for row in S for v in row]) + ", = y",
        "".join(f"t{j}, " for j in R) + "= theta",
        "thx = 0.0" + "".join(f" + t{j} * {x[j]}" for j in R),
        f"u = {c(st.k0 * st.r)}"
        + "".join(f" - ({c(st.K[j])} + {th[j]}) * {x[j]}" for j in R),
        "s = 0.0" + "".join(f" + ({x[j]} - {xr[j]}) * {c(st.PB[j])}" for j in R),
    ]
    dy = [f"{c(st.B1r[i] * st.r)} + {c(st.B[i])} * (thx + u)"
          + "".join(f" + {c(st.A[i][j])} * {x[j]}" for j in R) for i in R]
    dy += [c(st.Bsum[i] * st.r) + "".join(f" + {c(st.Ar[i][j])} * {xr[j]}" for j in R)
           for i in R]
    dy += [f"{c(st.gamma)} * {x[i]} * s" for i in R]
    if with_sens:
        # note e_v + x_r = x
        a = [[c(st.Ar[i][j]) for j in R] for i in R]
        for i in R:
            for j in R:
                if exact_sens:
                    body.append(f"a{i}_{j} = {a[i][j]} + {c(st.B[i])} * (t{j} - {th[j]})")
                    a[i][j] = f"a{i}_{j}"
                body.append(f"bx{i}_{j} = {c(st.B[i])} * {x[j]}")
                body.append(f"g{i}_{j} = {c(st.gamma)} * {x[i]} * {c(st.PB[j])}")
        body.append(f"gs = {c(st.gamma)} * s")
        dy += ["0.0" + "".join(f" + {a[i][j]} * {S[j][k]}" for j in R)
               + "".join(f" - bx{i}_{j} * {S[n + j][k]}" for j in R)
               for i in R for k in R]
        dy += [f"gs * {S[i][k]}" + "".join(f" + g{i}_{j} * {S[j][k]}" for j in R)
               for i in R for k in R]
    lines = ["def f(y, theta):"] + [f"    {line}" for line in body]
    lines.append("    return [" + ",\n            ".join(dy) + "]")
    return "\n".join(lines) + "\n"


def _rk4_full_step(f, y, theta, dt):
    h = 0.5 * dt
    k1 = f(y, theta)
    k2 = f([a + h * b for a, b in zip(y, k1)], theta)
    k3 = f([a + h * b for a, b in zip(y, k2)], theta)
    k4 = f([a + dt * b for a, b in zip(y, k3)], theta)
    c = dt / 6.0
    return [a + c * (((p + 2.0 * q) + 2.0 * w) + z)
            for a, p, q, w, z in zip(y, k1, k2, k3, k4)]


class _Stepper:
    """Closed-loop data, as floats, and the compiled RK4 derivatives."""

    def __init__(self, cfg, ctrl, ref):
        self.n = cfg.plant.n
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
        self._derivative = {}
        for with_sens in (False, True):
            for exact_sens in (False, True):
                namespace = {"inf": math.inf, "nan": math.nan}
                exec(_coupled_derivative_source(self, with_sens, exact_sens), namespace)
                self._derivative[with_sens, exact_sens] = namespace["f"]
        self._theta_src = None   # last theta passed in, and its float list
        self._theta = None

    def step(self, y, theta, with_sens=False, exact_sens=False, t=None):
        """One RK4 step of the coupled state ``y`` (3n states, plus the 2n x n
        sensitivities when ``with_sens``); returns the new state as a list.

        Every component must stay finite and the 3n plant, reference and
        estimate states within DIVERGENCE_LIMIT, else DivergenceError; ``t``
        is the time at the start of the step.
        """
        if theta is not self._theta_src:
            self._theta_src = theta
            self._theta = [float(v) for v in theta]
        f = self._derivative[with_sens, exact_sens]
        out = _rk4_full_step(f, y, self._theta, self.dt)
        if not all(abs(v) <= DIVERGENCE_LIMIT for v in out):  # False on NaN
            check_bounded(out, None if t is None else t + self.dt, 3 * self.n)
        return out


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


def _store_sensitivities(sens, y):
    """Move the flat sensitivities off the end of ``y`` into S_e and S_th."""
    n = sens.n
    flat = np.array(y[3 * n:])
    del y[3 * n:]
    sens.S_e = flat[:n * n].reshape(n, n)
    sens.S_th = flat[n * n:].reshape(n, n)


def run(cfg):
    """Simulate one closed-loop run; deterministic given config and seed."""
    ctrl, ref = build_controller(cfg)
    stepper = _Stepper(cfg, ctrl, ref)
    n = cfg.plant.n
    iy = cfg.plant.iy
    dt = cfg.dt
    N = cfg.num_steps

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

    trace = {
        "t": np.empty(N + 1),
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

    # coupled state as a list of floats: x, x_r, theta_hat, then the flat
    # sensitivities S_e, S_th while a learner phase is open
    y = cfg.x0.tolist() + cfg.x0.tolist() + cfg.theta_hat0.tolist()
    status, error, error_step = "ok", None, None
    steps_done = N

    for k in range(N + 1):
        t = k * dt
        theta = theta_at(cfg.schedule, t)
        e = y[iy] - y[n + iy]
        if k == 0:
            att.e_prev = e
            att.e_track = e
        edot = update_velocity(cfg.attention, att, e, dt)
        e_u, e_d, att_flag = detect_events(cfg.attention, att, e, edot, t)

        if e_u:
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

        if e_d and open_phase is not None and not open_phase.recovered:
            open_phase.t_d = t
            open_phase.step_d = k
            open_phase.recovered = True
            if cfg.preadapt.learner_enabled and sens.active:
                _store_sensitivities(sens, y)
                net, report = close_phase(
                    sens, net, cfg.preadapt.gamma_pa, t,
                    clip_norm=cfg.preadapt.clip_norm,
                )
                report["mode"] = cfg.preadapt.gradient_mode.value
                phase_reports.append(report)

        if open_phase is not None:
            open_phase.peak_abs_e = max(open_phase.peak_abs_e, abs(e))
            if not open_phase.recovered and k < N:
                open_phase.E_phase += abs(e) * dt
        if sens.active and k < N:
            accumulate_cost(sens, e, y[3 * n + iy * n:3 * n + (iy + 1) * n], dt)

        trace["t"][k] = t
        trace["x"][k] = y[0:n]
        trace["x_r"][k] = y[n:2 * n]
        trace["e"][k] = e
        trace["edot_hat"][k] = edot
        trace["theta"][k] = theta
        trace["theta_hat"][k] = y[2 * n:3 * n]
        # numpy's dot, on the rows just written: a float loop sums in a
        # different order and would change u in the last bit
        trace["u"][k] = control_input(ctrl, trace["x"][k], trace["theta_hat"][k], cfg.r)
        trace["Eu"][k] = e_u
        trace["Ed"][k] = e_d

        if k == N:
            break
        try:
            y = stepper.step(y, theta, sens.active, exact_sens, t)
        except DivergenceError as exc:
            status = "diverged"
            error = str(exc)
            error_step = k
            steps_done = k
            break

    if status == "diverged":
        for key in trace:
            trace[key] = trace[key][:steps_done + 1]

    if sens.active:
        # phase never closed before the horizon: no weight update, log it
        _store_sensitivities(sens, y)
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

def compare_results(res_a, res_b):
    """Match phases across two runs by the schedule jump they respond to."""
    sched_a = res_a.config.schedule
    sched_b = res_b.config.schedule
    if (
        len(sched_a.pieces) != len(sched_b.pieces)
        or any(
            ta != tb or not np.array_equal(va, vb)
            for (ta, va), (tb, vb) in zip(sched_a.pieces, sched_b.pieces)
        )
        or sched_a.horizon != sched_b.horizon
        or res_a.config.dt != res_b.config.dt
    ):
        raise ConfigError("compared runs must share schedule, dt, and horizon")

    by_jump_a = {p.jump_ref: p for p in reversed(res_a.phases) if p.jump_ref is not None}
    by_jump_b = {p.jump_ref: p for p in reversed(res_b.phases) if p.jump_ref is not None}
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
    """Run both configurations and return (result_a, result_b, matched rows)."""
    res_a = run(config_a)
    res_b = run(config_b)
    return res_a, res_b, compare_results(res_a, res_b)


# --------------------------------------------------------------------------
# finite-difference gradient check

def _replay_window(cfg, stepper, snapshot, steps, theta_I, sens_mode=None):
    """Re-simulate a frozen phase window from its onset snapshot.

    Events are not re-detected and no reinitialization is applied; the
    window starts with theta_hat = theta_I.  Returns (E, dE_dthI or None).
    """
    n = cfg.plant.n
    iy = cfg.plant.iy
    dt = cfg.dt
    with_sens = sens_mode is not None
    exact = sens_mode == GradientMode.EXACT

    y = snapshot.x.tolist() + snapshot.x_r.tolist() + [float(v) for v in theta_I]
    if with_sens:
        y += _sensitivity_start(n)
    acc = SensitivityState(n=n)
    acc.activate(snapshot)
    for k in range(steps):
        t = snapshot.t_u + k * dt
        theta = theta_at(cfg.schedule, t)
        e = y[iy] - y[n + iy]
        # without sensitivities the row slice is empty and only E accumulates
        accumulate_cost(acc, e, y[3 * n + iy * n:3 * n + (iy + 1) * n], dt)
        y = stepper.step(y, theta, with_sens, exact, t)
    return acc.E_acc, acc.dE_dthI if with_sens else None


def grad_check(cfg, phase_index, delta, result=None):
    """Central-difference validation of the sensitivity-ODE gradient.

    Re-simulates the chosen closed phase with the reinitialization value
    perturbed component-wise by +/- delta, events frozen, and compares
    against the sensitivity-ODE gradient for both gradient modes.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if not cfg.preadapt.enabled:
        raise ConfigError("gradient check needs a preadapt-enabled run")
    if result is None:
        result = run(cfg)
    closed = [p for p in result.phases if p.recovered and p.snapshot is not None]
    if phase_index >= len(closed):
        raise ValueError(
            f"phase {phase_index} not available ({len(closed)} closed phases)"
        )
    phase = closed[phase_index]
    snap = phase.snapshot
    steps = phase.step_d - phase.step_u

    ctrl, ref = build_controller(cfg)
    stepper = _Stepper(cfg, ctrl, ref)
    n = cfg.plant.n
    theta_I = snap.theta_I

    fd = np.zeros(n)
    for j in range(n):
        bump = np.zeros(n)
        bump[j] = delta
        e_plus, _ = _replay_window(cfg, stepper, snap, steps, theta_I + bump)
        e_minus, _ = _replay_window(cfg, stepper, snap, steps, theta_I - bump)
        fd[j] = (e_plus - e_minus) / (2.0 * delta)

    report = {"phase_index": phase_index, "t_u": phase.t_u, "t_d": phase.t_d,
              "delta": delta, "fd": fd, "modes": {}}
    for mode in (GradientMode.EXACT, GradientMode.APPROX):
        _, grad = _replay_window(cfg, stepper, snap, steps, theta_I, sens_mode=mode)
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
        }
    return report
