"""Output checks built from the model equations, with numpy and scipy alone.

Nothing here imports the simulator: the gain comes from scipy's Riccati
solver, the Lyapunov matrix from scipy's Lyapunov solver, the reference
trajectory from its closed form, and the event detector is re-run from its
definition on the trace's own ``e`` and ``edot_hat`` columns.  Each check
returns a list of failure messages and records the size of the deviation it
measured in ``stats``, so a run can report how close to its limit it came.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov

# A step of the trace rounds to the last bits of a double; these limits sit
# orders of magnitude above what a correct run shows (see README.md) and far
# below what any of the planted faults there produce.
U_TOL = 1e-9            # control law, relative to max |u|
XR_TOL = 1e-9           # reference trajectory, relative to max |x_r|
V_RISE_TOL = 1e-12      # Lyapunov function rise, relative to max V
THETA_STEP_TOL = 1e-6   # adaptation increment vs trapezoid rule, relative to max |theta_hat|
GRAD_TOL = 1e-3         # exact-mode grad-check error, the CLI's own tolerance


@dataclass
class RunRecord:
    """One simulation's inputs and outputs as plain arrays."""

    name: str
    A: np.ndarray
    B: np.ndarray
    B1r: np.ndarray
    iy: int              # 0-based output index
    Q: np.ndarray
    R: float
    gamma: float
    k0: float
    r: float
    dt: float
    x0: np.ndarray
    c_e: float
    c_ed: float
    t: np.ndarray
    x: np.ndarray        # rows x n
    x_r: np.ndarray
    e: np.ndarray
    edot_hat: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    u: np.ndarray
    Eu: np.ndarray
    Ed: np.ndarray
    phases: list         # (t_u, t_d or None, peak_abs_e)


def _closed_loop(rec):
    """LQR gain K, reference matrix Ar = A - BK and P with Ar'P + PAr = -I."""
    P_care = solve_continuous_are(rec.A, rec.B[:, None], rec.Q, np.array([[rec.R]]))
    K = rec.B @ P_care / rec.R
    Ar = rec.A - np.outer(rec.B, K)
    P = solve_continuous_lyapunov(Ar.T, -np.eye(Ar.shape[0]))
    return K, Ar, P


def _note(stats, key, value):
    stats[key] = max(stats.get(key, 0.0), float(value))


def check_control_law(rec, K, stats):
    """u = -(K + theta_hat).x + k0 r, with K from the Riccati equation."""
    u = -(rec.x @ K) - np.sum(rec.theta_hat * rec.x, axis=1) + rec.k0 * rec.r
    dev = np.max(np.abs(u - rec.u)) / max(1.0, np.max(np.abs(rec.u)))
    _note(stats, "control_law_dev", dev)
    if not dev <= U_TOL:
        return [f"{rec.name}: u deviates from -(K + theta_hat).x + k0 r by {dev:.3g}"]
    return []


def check_reference(rec, Ar, stats):
    """x_r(t) = e^{Ar t} x0 + Ar^-1 (e^{Ar t} - I)(B1r + k0 B) r, by eigen-decomposition."""
    lam, W = np.linalg.eig(Ar)
    Winv = np.linalg.inv(W)
    a = Winv @ rec.x0
    b = Winv @ ((rec.B1r + rec.k0 * rec.B) * rec.r)
    E = np.exp(np.outer(rec.t, lam))
    x_r = ((E * a + (E - 1.0) / lam * b) @ W.T).real
    dev = np.max(np.abs(x_r - rec.x_r)) / max(1.0, np.max(np.abs(rec.x_r)))
    _note(stats, "reference_dev", dev)
    if not dev <= XR_TOL:
        return [f"{rec.name}: x_r deviates from its closed form by {dev:.3g}"]
    return []


def check_lyapunov(rec, P, stats):
    """V = e_v'P e_v + |theta_hat - theta|^2 / gamma never rises between jumps and onsets."""
    ev = rec.x - rec.x_r
    V = np.einsum("ki,ij,kj->k", ev, P, ev)
    V += np.sum((rec.theta_hat - rec.theta) ** 2, axis=1) / rec.gamma
    quiet = np.all(rec.theta[1:] == rec.theta[:-1], axis=1) & (rec.Eu[1:] == 0)
    rise = np.diff(V)[quiet]
    worst = max(0.0, float(np.max(rise))) / np.max(V) if rise.size else 0.0
    _note(stats, "lyapunov_rise", worst)
    if not worst <= V_RISE_TOL:
        k = int(np.flatnonzero(quiet)[np.argmax(rise)]) + 1
        return [f"{rec.name}: V rises by {worst:.3g} (relative) at row {k}"]
    return []


def check_adaptation_steps(rec, P, stats):
    """theta_hat moves by the adaptation law except at E_u rows, where it may jump."""
    s = (rec.x - rec.x_r) @ (P @ rec.B)
    rate = rec.gamma * rec.x * s[:, None]
    trapezoid = 0.5 * rec.dt * (rate[1:] + rate[:-1])
    resid = np.max(np.abs(np.diff(rec.theta_hat, axis=0) - trapezoid), axis=1)
    resid /= max(1.0, np.max(np.abs(rec.theta_hat)))
    off = rec.Eu[1:] == 0
    worst = float(np.max(resid[off])) if off.any() else 0.0
    _note(stats, "theta_hat_step_dev", worst)
    if not worst <= THETA_STEP_TOL:
        k = int(np.flatnonzero(off)[np.argmax(resid[off])]) + 1
        return [f"{rec.name}: theta_hat jumps by {worst:.3g} at row {k}, not an E_u row"]
    return []


def expected_events(e, edot_hat, c_e, c_ed):
    """E_u on an upward |e| crossing of c_e at |edot_hat| > c_ed, E_d on a
    downward crossing at |edot_hat| < c_ed, strictly alternating from E_u."""
    margin = np.abs(e) - c_e
    prev = np.concatenate([margin[:1], margin[:-1]])
    rate = np.abs(edot_hat)
    up = (prev < 0.0) & (margin >= 0.0) & (rate > c_ed)
    down = (prev > 0.0) & (margin <= 0.0) & (rate < c_ed)
    Eu = np.zeros(e.shape[0], dtype=np.int8)
    Ed = np.zeros(e.shape[0], dtype=np.int8)
    in_phase = False
    for k in np.flatnonzero(up | down):
        if not in_phase and up[k]:
            Eu[k], in_phase = 1, True
        elif in_phase and down[k]:
            Ed[k], in_phase = 1, False
    return Eu, Ed


def check_events(rec, stats):
    """The trace's e is x - x_r at the output, and its events are expected_events'."""
    if not np.array_equal(rec.e, rec.x[:, rec.iy] - rec.x_r[:, rec.iy]):
        return [f"{rec.name}: e is not x - x_r at output index {rec.iy}"]
    Eu, Ed = expected_events(rec.e, rec.edot_hat, rec.c_e, rec.c_ed)
    bad = np.flatnonzero((Eu != rec.Eu) | (Ed != rec.Ed))
    _note(stats, "event_mismatches", bad.size)
    if bad.size:
        k = int(bad[0])
        return [f"{rec.name}: {bad.size} event rows differ from the crossing "
                f"predicates, first at row {k} (t={rec.t[k]:.3f}, "
                f"Eu {rec.Eu[k]} vs {Eu[k]}, Ed {rec.Ed[k]} vs {Ed[k]})"]
    return []


def check_phase_peaks(rec):
    """Each phase opens on an E_u row, closes on an E_d row, and its peak lies
    between max|e| on [t_u, t_d] and max|e| up to the next E_u."""
    out = []
    onsets = np.flatnonzero(rec.Eu)
    if len(rec.phases) != onsets.size:
        return [f"{rec.name}: {len(rec.phases)} phases for {onsets.size} E_u rows"]
    mag = np.abs(rec.e)
    ends = list(onsets[1:]) + [mag.size]
    for (t_u, t_d, peak), k_u, k_next in zip(rec.phases, onsets, ends):
        if int(round(t_u / rec.dt)) != k_u:
            out.append(f"{rec.name}: phase at t={t_u} is not on E_u row {k_u}")
            continue
        k_d = k_next - 1 if t_d is None else int(round(t_d / rec.dt))
        if t_d is not None and rec.Ed[k_d] != 1:
            out.append(f"{rec.name}: phase closing at t={t_d} is not on an E_d row")
            continue
        lo = mag[k_u:k_d + 1].max()
        hi = mag[k_u:k_next].max()
        if not lo <= peak <= hi:
            out.append(f"{rec.name}: phase at t={t_u:.3f} has peak {peak:.6g} "
                       f"outside [{lo:.6g}, {hi:.6g}]")
    return out


def check_run(rec, stats):
    """Every single-run check; returns the failure messages."""
    K, Ar, P = _closed_loop(rec)
    return (
        check_control_law(rec, K, stats)
        + check_reference(rec, Ar, stats)
        + check_lyapunov(rec, P, stats)
        + check_adaptation_steps(rec, P, stats)
        + check_events(rec, stats)
        + check_phase_peaks(rec)
    )


def check_same_reference(recs):
    """x_r does not depend on the preadaptation settings: bit-identical across runs."""
    first = recs[0]
    return [f"{rec.name}: x_r differs from {first.name}'s"
            for rec in recs[1:] if not np.array_equal(rec.x_r, first.x_r)]


def check_compare_rows(rec_a, rec_b, rows):
    """Each compared peak is a phase peak of its run, and the reduction follows from them."""
    peaks_a = {t_u: p for t_u, _, p in rec_a.phases}
    peaks_b = {t_u: p for t_u, _, p in rec_b.phases}
    out = []
    for row in rows:
        pa = peaks_a.get(row["t_u_a"])
        pb = peaks_b.get(row["t_u_b"])
        if pa != row["peak_a"] or pb != row["peak_b"]:
            out.append(f"{rec_b.name}: compare row at jump {row['jump_t']} cites "
                       f"peaks that are not its runs' phase peaks")
        elif row["reduction"] != 1.0 - pb / pa:
            out.append(f"{rec_b.name}: compare row at jump {row['jump_t']} has "
                       f"reduction {row['reduction']} for peaks {pa}, {pb}")
    return out


def check_grad_reports(reports, stats):
    """Exact-mode sensitivity gradient within GRAD_TOL of finite differences;
    the approximate mode is only recorded."""
    out = []
    for rep in reports:
        exact = rep["modes"]["exact"]["max_rel_error"]
        _note(stats, "grad_exact_rel_error", exact)
        _note(stats, "grad_approx_rel_error", rep["modes"]["approx"]["max_rel_error"])
        if not exact < GRAD_TOL:
            out.append(f"grad-check phase {rep['phase_index']} (t_u={rep['t_u']:.3f}): "
                       f"exact-mode error {exact:.3g} is not below {GRAD_TOL:g}")
    return out
