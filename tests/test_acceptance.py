"""End-to-end acceptance checks, one test per criterion.

Each test prints a single CRITERION line with the measured numbers before
asserting, so the verdicts survive in the captured output of a failed run.
Criteria 5-7 aggregate over the seed set {0..9}.

Criterion 5 holds the learner to the claims in PAPER.md on the t=45 jump of
scenario 1, against regular adaptive control (RAC):

(a) the best of the ten peak reductions is at least 50% ("can reduce the
    peak of the response by as much as 50%");
(b) the peak is below the RAC peak in at least 6 of 10 seeds ("effective
    across a wide range of scenarios"), the same majority bar that criteria
    6 and 7 apply.

Its CRITERION line also reports how many seeds reach a 30% reduction; that
per-seed bar is not asserted (see the README's "Notes on fidelity").
"""

from functools import partial
from importlib import resources

import numpy as np
import pytest

from preadaptive_control import (
    GradientMode,
    PreadaptNet,
    PreadaptSettings,
    ThetaSchedule,
    build_b747,
    default_config,
    grad_check,
    lqr_gain,
    phases_by_jump,
    run,
    solve_lyapunov,
    theta_init,
)
from preadaptive_control.cli import _GRAD_CHECK_TOL, load_scenario, write_trace_csv
from preadaptive_control.learner import grad_weights
from preadaptive_control.simengine import (
    _replay_window,
    _Stepper,
    build_controller,
)

from conftest import windowed_cost

SEEDS = range(10)


def _verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _learner_settings(seed, mode=GradientMode.APPROX):
    return PreadaptSettings(enabled=True, learner_enabled=True, gradient_mode=mode,
                            gamma_pa=10.0, hidden=3, seed=seed)


def _phase_peaks(result):
    return {j: p.peak_abs_e for j, p in phases_by_jump(result).items()}


def _learner_peaks(scenario, seed):
    """_phase_peaks of a learner run: all a criterion's seed loop keeps of it."""
    return _phase_peaks(run(default_config(scenario, preadapt=_learner_settings(seed))))


# --------------------------------------------------------------------------

def test_criterion_1_solver_correctness():
    plant = build_b747()
    K = lqr_gain(plant.A, plant.B, np.eye(3), 1.0)
    Ar = plant.A - np.outer(plant.B, K[0])
    P = solve_lyapunov(Ar)
    lyap_resid = np.max(np.abs(Ar.T @ P + P @ Ar + np.eye(3)))
    spd = bool(np.all(np.linalg.eigvalsh(P) > 0.0))

    Pstar = None
    # reconstruct P* from the returned gain: K = B^T P* / R
    # solve the CARE residual with P* from a fresh Lyapunov iteration step
    from preadaptive_control.controller import solve_lyapunov_rhs

    Pstar = solve_lyapunov_rhs(Ar, np.eye(3) + np.outer(K[0], K[0]))
    care_resid = np.max(np.abs(
        plant.A.T @ Pstar + Pstar @ plant.A
        - np.outer(Pstar @ plant.B, plant.B @ Pstar) + np.eye(3)
    ))
    hurwitz = bool(np.all(np.linalg.eigvals(Ar).real < 0.0))

    p_scalar = solve_lyapunov(np.array([[-1.0]]))[0, 0]
    k_scalar = lqr_gain(np.array([[-1.0]]), [1.0], [[1.0]], 1.0)[0, 0]
    scalars_ok = (abs(p_scalar - 0.5) < 1e-12
                  and abs(k_scalar - (np.sqrt(2.0) - 1.0)) < 1e-12)

    ok = lyap_resid < 1e-9 and spd and care_resid < 1e-8 and hurwitz and scalars_ok
    _verdict(1, ok, f"lyap resid {lyap_resid:.2e}, CARE resid {care_resid:.2e}, "
                    f"SPD {spd}, Hurwitz {hurwitz}, scalar forms {scalars_ok}")


def test_criterion_2_mrac_baseline_property():
    sched = ThetaSchedule(pieces=[(0.0, 0.1 * np.ones(3))], horizon=60.0)
    cfg = default_config(1, schedule=sched)
    res = run(cfg)
    bounded = res.status == "ok"

    from preadaptive_control import build_controller

    ctrl, _ = build_controller(cfg)
    e_v = res.trace["x"] - res.trace["x_r"]
    dth = res.trace["theta_hat"] - res.trace["theta"]
    V = np.einsum("ki,ij,kj->k", e_v, ctrl.P, e_v) + (dth ** 2).sum(axis=1) / cfg.gamma
    max_increase = float(np.max(np.diff(V)))
    final_err = float(np.max(np.abs(e_v[-1])))

    ok = bounded and final_err < 1e-3 and max_increase <= 1e-9
    _verdict(2, ok, f"bounded {bounded}, |e_v|(60) {final_err:.2e}, "
                    f"max V increase {max_increase:.2e}")


def test_criterion_3_gradient_fidelity():
    cfg = default_config(1, preadapt=_learner_settings(0))
    report = grad_check(cfg, 0, 1e-5)
    ode_err = report["modes"]["exact"]["max_rel_error"]

    # network backprop: contract an arbitrary upstream gradient through
    # grad_weights and compare with finite differences of the forward pass
    net = PreadaptNet.random(3, 3, seed=0)
    e, edot = 0.005, 0.03
    g = np.array([1.3, -0.4, 0.9])
    _, sigma_h, input2 = theta_init(net, e, edot)
    dE_dW, dE_dV = grad_weights(g, net, input2, sigma_h)
    delta = 1e-6
    worst = 0.0
    for grad, which in ((dE_dW, "W"), (dE_dV, "V")):
        mat = getattr(net, which)
        for idx in np.ndindex(mat.shape):
            fd = 0.0
            for s, sign in ((delta, 1.0), (-delta, -1.0)):
                m = mat.copy()
                m[idx] += s
                pert = PreadaptNet(W=m if which == "W" else net.W,
                                   V=m if which == "V" else net.V)
                out, _, _ = theta_init(pert, e, edot)
                fd += sign * (g @ out) / (2.0 * delta)
            denom = max(abs(fd), 1e-8)
            worst = max(worst, abs(grad[idx] - fd) / denom)

    ok = ode_err < 1e-3 and worst < 1e-6
    _verdict(3, ok, f"sensitivity-ODE vs FD rel err {ode_err:.2e}, "
                    f"backprop vs FD rel err {worst:.2e}")


#: closed phases of each bundled learner file
BUNDLED_LEARNER_PHASES = {"scenario1_learner": 2, "scenario2_learner": 5,
                          "scenario3_learner": 7, "scenario3_exact": 9}


def test_grad_check_every_bundled_learner_phase():
    # exact mode is held to the CLI's tolerance on every closed phase;
    # approx mode's bias is reported, not gated.  grad_check takes the
    # run's own-mode gradient, which a replay of the window must give back
    # bit for bit, with the phase's cost
    exact, approx, cos = [], [], {"exact": [], "approx": []}
    for name, count in BUNDLED_LEARNER_PHASES.items():
        cfg = load_scenario(str(resources.files("preadaptive_control")
                                / "scenarios" / f"{name}.yaml"))
        res = run(cfg)
        stepper = _Stepper(cfg, *build_controller(cfg))
        closed = [p for p in res.phases if p.recovered and p.snapshot is not None]
        assert len(closed) == count, name
        for i, p in enumerate(closed):
            E, grad = _replay_window(cfg, stepper, p.snapshot, p.step_d - p.step_u,
                                     p.snapshot.theta_I, cfg.preadapt.gradient_mode)
            assert repr(E) == repr(p.E_phase), (name, i)
            assert grad.tobytes() == p.grad.tobytes(), (name, i)
            modes = grad_check(cfg, i, 1e-5, result=res)["modes"]
            exact.append(modes["exact"]["max_rel_error"])
            approx.append(modes["approx"]["max_rel_error"])
            for mode in cos:
                cos[mode].append(modes[mode]["cos_to_fd"])
    print(f"GRADCHECK: {len(exact)} closed phases, exact-mode max rel error "
          f"{max(exact):.2e} (gate {_GRAD_CHECK_TOL:g}), approx-mode "
          f"{min(approx):.2f}-{max(approx):.2f} (not gated); cos to fd: exact "
          f"{min(cos['exact']):.4f}-{max(cos['exact']):.4f}, approx "
          f"{min(cos['approx']):.4f}-{max(cos['approx']):.4f}, approx >= 0.998 in "
          f"{sum(c >= 0.998 for c in cos['approx'])} of {len(exact)}")
    assert max(exact) < _GRAD_CHECK_TOL


def test_criterion_4_attention_behavior(rac1_result):
    events = rac1_result.events
    kinds = [kind for _, kind in events]
    alternates = (kinds[::2] == ["E_u"] * len(kinds[::2])
                  and kinds[1::2] == ["E_d"] * len(kinds[1::2]))
    eus = [t for t, kind in events if kind == "E_u"]
    eds = [t for t, kind in events if kind == "E_d"]
    jumps = [5.0, 20.0, 45.0]
    next_jump = [20.0, 45.0, 60.0]
    timing = (len(eus) == 3 and len(eds) == 3 and all(
        tj < tu <= tj + 0.5 and tu < td < nx
        for tj, tu, td, nx in zip(jumps, eus, eds, next_jump)
    ))
    ok = alternates and timing
    _verdict(4, ok, f"E_u at {[round(t, 3) for t in eus]}, "
                    f"E_d at {[round(t, 3) for t in eds]}, alternation {alternates}")


def test_criterion_5_scenario1_peak_reduction(rac1_result):
    rac_peak = _phase_peaks(rac1_result)[45.0]
    # a seed that opens no t=45 phase counts as no reduction
    reductions = [1.0 - peaks[45.0] / rac_peak if 45.0 in peaks else float("-inf")
                  for peaks in map(partial(_learner_peaks, 1), SEEDS)]
    best = max(reductions)
    wins = sum(red > 0.0 for red in reductions)
    hits = sum(red >= 0.30 for red in reductions)
    ok = best >= 0.50 and wins >= 6
    _verdict(5, ok, f"best t=45 reduction {best:.2f}, peak below RAC in {wins}/10 seeds, "
                    f"{hits}/10 seeds reach >=30% "
                    f"(reductions {[round(float(red), 2) for red in reductions]})")


def test_criterion_6_scenario2_learning_transfer(rac2_result):
    rac_peaks = _phase_peaks(rac2_result)
    b_hits = c_hits = 0
    for peaks in map(partial(_learner_peaks, 2), SEEDS):
        b_hits += 70.0 in peaks and peaks[70.0] < rac_peaks[70.0]
        c_hits += all(j in peaks and peaks[j] < rac_peaks[j] for j in (95.0, 120.0))
    # (a) imposes no requirement at t=45; (b) and (c) must hold for a
    # majority of seeds
    ok = b_hits >= 6 and c_hits >= 6
    _verdict(6, ok, f"t=70 improved in {b_hits}/10 seeds, "
                    f"t=95 and t=120 improved in {c_hits}/10 seeds")


def test_criterion_7_exact_vs_approximated_gradient(rac3_result):
    cfg = rac3_result.config
    jumps = list(cfg.schedule.jump_times)
    later = jumps[2:]

    def later_cost(res):
        return sum(windowed_cost(res, jumps, cfg.schedule.horizon)[j] for j in later)

    def learner_cost(job):
        mode, seed = job
        return later_cost(run(default_config(3, preadapt=_learner_settings(seed, mode))))

    rac_sum = later_cost(rac3_result)
    modes = (GradientMode.EXACT, GradientMode.APPROX)
    jobs = [(mode, seed) for mode in modes for seed in SEEDS]
    wins = dict.fromkeys((mode.value for mode in modes), 0)
    for (mode, _), s in zip(jobs, map(learner_cost, jobs)):
        wins[mode.value] += s < rac_sum
    ok = wins["exact"] >= 6 and wins["approx"] >= 6
    _verdict(7, ok, f"later-phase |e| integral beats RAC ({rac_sum:.3f}) in "
                    f"{wins['exact']}/10 (exact) and {wins['approx']}/10 (approx) seeds")


def test_criterion_8_reinit_discipline(rac1_result):
    res = run(default_config(1, preadapt=_learner_settings(1)))
    tr = res.trace
    dth = np.linalg.norm(np.diff(tr["theta_hat"], axis=0), axis=1)
    eu_steps = set((np.flatnonzero(tr["Eu"])).tolist())
    smooth = max(dth[k] for k in range(len(dth)) if (k + 1) not in eu_steps)
    discontinuities = {int(k) + 1 for k in np.flatnonzero(dth > smooth)}
    sets_match = discontinuities == eu_steps
    xr_identical = np.array_equal(rac1_result.trace["x_r"], tr["x_r"])
    ok = sets_match and xr_identical
    _verdict(8, ok, f"theta_hat discontinuity steps == E_u steps {sets_match}, "
                    f"x_r bit-identical across variants {xr_identical}")


def test_criterion_9_determinism(tmp_path):
    cfg = default_config(1, preadapt=_learner_settings(2))
    write_trace_csv(run(cfg), tmp_path / "a.csv")
    write_trace_csv(run(cfg), tmp_path / "b.csv")
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # the order of the integrator run steps with: the RAC loop's final x,
    # x_r and theta_hat against a run at 1/64 of the coarse step
    one_piece = ThetaSchedule(pieces=[(0.0, 2.0 * np.ones(3))], horizon=1.0)

    def final_state(dt):
        res = run(default_config(1, schedule=one_piece, dt=dt, x0=[0.1, -0.2, 0.3],
                                 theta_hat0=[0.5, -0.5, 1.0]))
        return np.concatenate([res.trace[key][-1] for key in ("x", "x_r", "theta_hat")])

    fine = final_state(0.02 / 64)
    err = [np.max(np.abs(final_state(dt) - fine)) for dt in (0.02, 0.01)]
    ratio = err[0] / err[1]
    ok = identical and 8.0 <= ratio <= 32.0
    _verdict(9, ok, f"byte-identical traces {identical}, "
                    f"RK4 dt-halving error ratio {ratio:.1f}")
