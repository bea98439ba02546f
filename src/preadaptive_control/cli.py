"""Command-line front end: scenario files, trace/summary output, subcommands.

Subcommands:
  run        simulate one scenario file, write trace.csv + summary.yaml
  compare    run two scenario files and tabulate per-phase peak reductions
  grad-check validate the sensitivity-ODE gradient against finite differences

Exit codes: 0 ok, 2 config error, 3 divergence, 4 tolerance failure,
5 output write failed.
"""

import argparse
import contextlib
import os
import shutil
import signal
import sys
import tempfile
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .attention import AttentionConfig
from .dynamics import PlantConfig, ThetaSchedule
from .errors import ConfigError, DivergenceError
from .learner import GradientMode
from .preadapt import PreadaptNet
from .simengine import (
    _TRACE_CHUNK,
    PreadaptSettings,
    RunConfig,
    build_b747,
    compare_results,
    grad_check,
    run,
    scenario_schedule,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_TOLERANCE = 4
EXIT_OUTPUT = 5

_GRAD_CHECK_TOL = 1e-3


# --------------------------------------------------------------------------
# scenario file parsing (strict: unknown keys are config errors)

def _check_keys(section, allowed, where):
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in '{where}'")


def _parse_plant(node):
    if node == "b747":
        return build_b747()
    _check_keys(node, {"A", "B", "B1r", "output_index"}, "plant")
    try:
        return PlantConfig(
            A=np.asarray(node["A"], dtype=float),
            B=np.asarray(node["B"], dtype=float),
            B1r=np.asarray(node["B1r"], dtype=float),
            output_index=int(node["output_index"]),
        )
    except KeyError as exc:
        raise ConfigError(f"plant is missing key {exc}") from exc


def _parse_schedule(node, n):
    if isinstance(node, dict) and "scenario" in node:
        _check_keys(node, {"scenario"}, "schedule")
        return scenario_schedule(int(node["scenario"]), n=n)
    _check_keys(node, {"pieces", "horizon", "bounds"}, "schedule")
    try:
        pieces = [
            (float(p["t"]), np.asarray(p["theta"], dtype=float))
            for p in node["pieces"]
        ]
        horizon = float(node["horizon"])
    except (KeyError, TypeError) as exc:
        raise ConfigError("schedule pieces need 't' and 'theta' entries") from exc
    bounds = None
    if node.get("bounds") is not None:
        _check_keys(node["bounds"], {"lower", "upper"}, "schedule.bounds")
        bounds = (
            np.asarray(node["bounds"]["lower"], dtype=float),
            np.asarray(node["bounds"]["upper"], dtype=float),
        )
    return ThetaSchedule(pieces=pieces, horizon=horizon, bounds=bounds)


def _scalar(value, name, kind):
    """``value`` as ``kind``, float or bool, else a ConfigError naming ``name``:
    a bool is no number, and the string "false" is no bool."""
    if isinstance(value, bool) == (kind is bool):
        with contextlib.suppress(TypeError, ValueError):
            return kind(value)
    raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")


def _given(node, kind, *keys):
    """Each of ``keys`` that ``node`` has, as ``kind``; a field the file
    leaves out keeps its dataclass default."""
    return {key: _scalar(node[key], key, kind) for key in keys if key in node}


def _parse_attention(node):
    if node is None:
        return AttentionConfig()
    _check_keys(
        node, {"c_e", "c_ed", "tau_f", "estimator", "omega_n", "zeta"}, "attention"
    )
    fields = _given(node, float, "c_e", "c_ed", "tau_f", "omega_n", "zeta")
    if "estimator" in node:
        fields["estimator"] = str(node["estimator"])
    return AttentionConfig(**fields)


def _parse_preadapt(node):
    if node is None:
        return PreadaptSettings()
    _check_keys(
        node,
        {"enabled", "learner", "gradient_mode", "gamma_pa", "hidden", "seed",
         "init_scale", "clip_norm", "weights"},
        "preadapt",
    )
    # hidden and seed are checked by PreadaptSettings
    fields = {key: node[key] for key in ("hidden", "seed") if key in node}
    fields.update(_given(node, float, "gamma_pa", "init_scale"))
    fields.update(_given(node, bool, "enabled"))
    if "learner" in node:
        fields["learner_enabled"] = _scalar(node["learner"], "learner", bool)
    if "gradient_mode" in node:
        mode = str(node["gradient_mode"])
        if mode not in ("exact", "approx"):
            raise ConfigError(f"gradient_mode must be 'exact' or 'approx', got '{mode}'")
        fields["gradient_mode"] = GradientMode(mode)
    if node.get("clip_norm") is not None:
        fields["clip_norm"] = _scalar(node["clip_norm"], "clip_norm", float)
    if node.get("weights") is not None:
        fields["net"] = PreadaptNet.from_dict(node["weights"])
    return PreadaptSettings(**fields)


def load_scenario(path):
    """Parse and validate a scenario file into a RunConfig."""
    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from exc
    _check_keys(
        doc,
        {"plant", "schedule", "controller", "attention", "preadapt", "r", "dt",
         "x0", "theta_hat0"},
        "scenario",
    )
    for key in ("plant", "schedule"):
        if key not in doc:
            raise ConfigError(f"scenario file is missing '{key}'")

    plant = _parse_plant(doc["plant"])
    schedule = _parse_schedule(doc["schedule"], plant.n)

    ctrl_node = doc.get("controller") or {}
    _check_keys(ctrl_node, {"Q", "R", "gamma", "k0"}, "controller")
    Q = np.eye(plant.n) if ctrl_node.get("Q") in (None, "identity") else ctrl_node["Q"]

    return RunConfig(
        plant=plant,
        schedule=schedule,
        attention=_parse_attention(doc.get("attention")),
        preadapt=_parse_preadapt(doc.get("preadapt")),
        Q=Q,
        x0=doc.get("x0"),
        theta_hat0=doc.get("theta_hat0"),
        **_given(ctrl_node, float, "R", "gamma", "k0"),
        **_given(doc, float, "r", "dt"),
    )


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, preadapt=replace(cfg.preadapt, seed=int(args.seed)))
    if getattr(args, "dt", None) is not None:
        cfg = replace(cfg, dt=float(args.dt))
    if getattr(args, "mode", None) is not None:
        cfg = replace(
            cfg, preadapt=replace(cfg.preadapt, gradient_mode=GradientMode(args.mode))
        )
    return cfg


# --------------------------------------------------------------------------
# output writers

def _fmt(v):
    """17 significant digits: doubles survive a serialize/reparse round trip."""
    return format(float(v), ".17g")


@contextlib.contextmanager
def _replaced_on_success(path):
    """Text file open at a temporary name beside ``path``, renamed onto
    ``path`` when the block succeeds and removed when it raises, so ``path``
    never holds a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_chunks(f, columns, row_fmt, lo, hi):
    """Format trace rows [lo, hi) to f, one `%` operation per chunk of rows.

    lo is a chunk boundary; hi is one too, or the end of the trace.
    """
    for a in range(lo, hi, _TRACE_CHUNK):
        block = np.column_stack([c[a:a + _TRACE_CHUNK] for c in columns])
        f.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def _write_part_in_child(tmp, columns, row_fmt, lo, hi):
    """Body of a forked writer: format rows [lo, hi) into tmp, then _exit.

    os._exit skips the parent's stdio buffers and atexit hooks, which the
    child inherited and must not flush or run.  The child only slices numpy
    arrays and formats strings: it calls no BLAS routine and takes no lock
    that another thread of the parent could have held at the fork.
    """
    code = 1
    try:
        _write_chunks(tmp, columns, row_fmt, lo, hi)
        tmp.flush()
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


def write_trace_csv(result, path):
    """Write the trace as CSV, formatted by one process per available CPU.

    The 256-row chunks are split into contiguous parts. The parent formats
    the first part; each other part is formatted by a forked child into an
    unnamed temporary file in the output directory, which the parent then
    appends in order. The bytes do not depend on the number of parts.
    ``path`` is replaced only once the whole trace is written.
    """
    n = result.config.plant.n
    tr = result.trace
    cols = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"xr{i + 1}" for i in range(n)]
        + ["e", "edot_hat"]
        + [f"theta{i + 1}" for i in range(n)]
        + [f"theta_hat{i + 1}" for i in range(n)]
        + ["u", "Eu", "Ed"]
    )
    keys = ("t", "x", "x_r", "e", "edot_hat", "theta", "theta_hat", "u", "Eu", "Ed")
    columns = [tr[key] for key in keys]
    # '%.17g' gives the same text as _fmt; the event flags are ints
    row_fmt = "%.17g," * (len(cols) - 2) + "%d,%d\n"
    rows = tr["t"].shape[0]
    chunks = -(-rows // _TRACE_CHUNK)
    parts = max(1, min(_cpu_count(), chunks)) if hasattr(os, "fork") else 1
    edges = [min(rows, k * chunks // parts * _TRACE_CHUNK) for k in range(parts + 1)]

    children = []   # (pid, part file, rows), in part order, not yet reaped
    with _replaced_on_success(path) as f, contextlib.ExitStack() as part_files:
        try:
            for lo, hi in zip(edges[1:-1], edges[2:]):
                tmp = part_files.enter_context(
                    tempfile.TemporaryFile("w+", dir=Path(path).parent))
                pid = os.fork()
                if pid == 0:
                    _write_part_in_child(tmp, columns, row_fmt, lo, hi)
                children.append((pid, tmp, f"{lo}-{hi}"))
            f.write(",".join(cols) + "\n")
            _write_chunks(f, columns, row_fmt, edges[0], edges[1])
            f.flush()
            while children:
                pid, tmp, part_rows = children[0]
                status = os.waitpid(pid, 0)[1]
                del children[0]
                if status != 0:
                    raise RuntimeError(
                        f"trace writer of rows {part_rows} exited with status "
                        f"{os.waitstatus_to_exitcode(status)}")
                # copied a buffer at a time, so the parent never holds a part
                tmp.seek(0)
                shutil.copyfileobj(tmp.buffer, f.buffer)
        finally:
            for pid, _, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _config_echo(cfg):
    """Effective configuration with defaults materialized."""
    return {
        "plant": {
            "A": cfg.plant.A.tolist(),
            "B": cfg.plant.B.tolist(),
            "B1r": cfg.plant.B1r.tolist(),
            "output_index": int(cfg.plant.output_index),
        },
        "schedule": {
            "pieces": [
                {"t": float(t), "theta": v.tolist()} for t, v in cfg.schedule.pieces
            ],
            "horizon": float(cfg.schedule.horizon),
            "bounds": (
                None
                if cfg.schedule.bounds is None
                else {
                    "lower": cfg.schedule.bounds[0].tolist(),
                    "upper": cfg.schedule.bounds[1].tolist(),
                }
            ),
        },
        "controller": {
            "Q": cfg.Q.tolist(),
            "R": float(cfg.R),
            "gamma": float(cfg.gamma),
            "k0": float(cfg.k0),
        },
        "attention": {
            "c_e": cfg.attention.c_e,
            "c_ed": cfg.attention.c_ed,
            "tau_f": cfg.attention.tau_f,
            "estimator": cfg.attention.estimator,
            "omega_n": cfg.attention.omega_n,
            "zeta": cfg.attention.zeta,
        },
        "preadapt": {
            "enabled": cfg.preadapt.enabled,
            "learner": cfg.preadapt.learner_enabled,
            "gradient_mode": cfg.preadapt.gradient_mode.value,
            "gamma_pa": cfg.preadapt.gamma_pa,
            "hidden": cfg.preadapt.hidden,
            "seed": cfg.preadapt.seed,
            "init_scale": cfg.preadapt.init_scale,
            "clip_norm": cfg.preadapt.clip_norm,
        },
        "r": float(cfg.r),
        "dt": float(cfg.dt),
        "x0": cfg.x0.tolist(),
        "theta_hat0": cfg.theta_hat0.tolist(),
    }


def write_summary(result, path):
    doc = {
        "status": result.status,
        "error": result.error,
        "seed": result.config.preadapt.seed,
        "config": _config_echo(result.config),
        "events": [{"t": float(t), "kind": kind} for t, kind in result.events],
        "phases": [
            {
                "t_u": float(p.t_u),
                "t_d": None if p.t_d is None else float(p.t_d),
                "jump_ref": None if p.jump_ref is None else float(p.jump_ref),
                "peak_abs_e": float(p.peak_abs_e),
                "E_phase": float(p.E_phase),
                "recovered": bool(p.recovered),
            }
            for p in result.phases
        ],
        "phase_reports": [
            {k: (float(v) if isinstance(v, (int, float)) and not isinstance(v, bool)
                 else v) for k, v in rep.items()}
            for rep in result.phase_reports
        ],
        "final_weights": None if result.net is None else result.net.to_dict(),
    }
    with _replaced_on_success(path) as f:
        yaml.safe_dump(doc, f, sort_keys=False)


def write_compare_csv(rows, path):
    with _replaced_on_success(path) as f:
        f.write("jump_t,t_u_a,t_u_b,peak_a,peak_b,reduction_pct,E_a,E_b\n")
        for r in rows:
            f.write(
                ",".join(
                    [
                        _fmt(r["jump_t"]), _fmt(r["t_u_a"]), _fmt(r["t_u_b"]),
                        _fmt(r["peak_a"]), _fmt(r["peak_b"]),
                        _fmt(100.0 * r["reduction"]),
                        _fmt(r["E_a"]), _fmt(r["E_b"]),
                    ]
                )
                + "\n"
            )


# --------------------------------------------------------------------------
# subcommands

def _output_failed(exc):
    print(f"error: output write failed: {exc}", file=sys.stderr)
    return EXIT_OUTPUT


def cmd_run(args):
    cfg = _apply_overrides(load_scenario(args.scenario), args)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _output_failed(exc)
    result = run(cfg)
    try:
        write_trace_csv(result, out / "trace.csv")
        write_summary(result, out / "summary.yaml")
    except (OSError, RuntimeError) as exc:   # RuntimeError: a forked writer failed
        return _output_failed(exc)
    if result.status == "diverged":
        print(f"error: divergence at step {result.error_step}: {result.error}",
              file=sys.stderr)
        return EXIT_DIVERGED
    print(f"ok: {len(result.trace['t'])} trace rows, "
          f"{len(result.phases)} phases -> {out}")
    return EXIT_OK


def cmd_compare(args):
    cfg_a = _apply_overrides(load_scenario(args.scenario_a), args)
    cfg_b = _apply_overrides(load_scenario(args.scenario_b), args)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _output_failed(exc)
    res_a = run(cfg_a)
    res_b = run(cfg_b)
    for name, res in (("A", res_a), ("B", res_b)):
        if res.status == "diverged":
            print(f"error: run {name} diverged: {res.error}", file=sys.stderr)
            return EXIT_DIVERGED
    rows = compare_results(res_a, res_b)
    try:
        write_compare_csv(rows, out / "compare.csv")
    except OSError as exc:
        return _output_failed(exc)
    print("jump_t    t_u(A)    t_u(B)    peak(A)     peak(B)     reduction")
    for r in rows:
        print(
            f"{r['jump_t']:<9.3f} {r['t_u_a']:<9.3f} {r['t_u_b']:<9.3f} "
            f"{r['peak_a']:<11.5g} {r['peak_b']:<11.5g} {100 * r['reduction']:.1f}%"
        )
    return EXIT_OK


def cmd_grad_check(args):
    if args.delta <= 0.0:
        raise ConfigError("delta must be positive")
    cfg = _apply_overrides(load_scenario(args.scenario), args)
    if not cfg.preadapt.enabled:
        raise ConfigError("grad-check needs a preadapt-enabled scenario")
    try:
        report = grad_check(cfg, args.phase, args.delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"phase {report['phase_index']}: t_u={report['t_u']:.3f} "
          f"t_d={report['t_d']:.3f} delta={report['delta']:g}")
    print(f"  finite-difference: {report['fd']}")
    for mode, entry in report["modes"].items():
        print(f"  {mode:<7} grad: {entry['grad']}  "
              f"max rel err: {entry['max_rel_error']:.3e}")
    # the exact-mode gradient is held to tolerance; approx is advisory only
    if report["modes"]["exact"]["max_rel_error"] >= _GRAD_CHECK_TOL:
        print(f"FAIL: exact-mode relative error exceeds {_GRAD_CHECK_TOL:g}",
              file=sys.stderr)
        return EXIT_TOLERANCE
    print("PASS")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="preadapt-ctl",
        description="MRAC simulation with learnable preadaptation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--mode", choices=["exact", "approx"], default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two scenario files per phase")
    p_cmp.add_argument("scenario_a")
    p_cmp.add_argument("scenario_b")
    p_cmp.add_argument("--out", default="out")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--dt", type=float, default=None)
    p_cmp.add_argument("--mode", choices=["exact", "approx"], default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_gc = sub.add_parser("grad-check", help="finite-difference gradient validation")
    p_gc.add_argument("scenario")
    p_gc.add_argument("--phase", type=int, default=0)
    p_gc.add_argument("--delta", type=float, default=1e-5)
    p_gc.add_argument("--seed", type=int, default=None)
    p_gc.add_argument("--dt", type=float, default=None)
    p_gc.add_argument("--mode", choices=["exact", "approx"], default=None)
    p_gc.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
