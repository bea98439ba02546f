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
import numbers
import os
import shutil
import signal
import sys
import tempfile
import traceback
from collections import namedtuple
from functools import partial
from operator import attrgetter
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
# scenario files (strict: unknown keys are config errors)
#
# Each field has one row in _FIELDS, which the parser, its type checks, the
# summary's echo and the --seed/--dt/--mode overrides all read.  The plant
# and the schedule have their own forms ("b747", "scenario: N") and a parse
# and an echo function each.

def _check_keys(section, allowed, where, required=()):
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(map(str, unknown))[0]}' in '{where}'")
    for key in required:
        if key not in section:
            raise ConfigError(f"'{where}' is missing '{key}'")


def _scalar(value, name, kind):
    """``value`` as ``kind``, float, int or bool, else a ConfigError naming
    ``name``: a bool is no number, "false" is no bool and 2.7 is no int."""
    if (isinstance(value, bool) == (kind is bool)
            and (kind is not int or isinstance(value, numbers.Integral))):
        with contextlib.suppress(TypeError, ValueError):
            return kind(value)
    raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")


def _array(value, name, ndim):
    with contextlib.suppress(TypeError, ValueError):
        a = np.asarray(value, dtype=float)
        if a.ndim == ndim:
            return a
    raise ConfigError(f"{name} must be a {ndim}-d array of floats, got {value!r}")


def _choice(value, name, options):
    if isinstance(value, str) and value in options:
        return value
    raise ConfigError(f"{name} must be one of {', '.join(options)}, got {value!r}")


#: a field's type: parse(file value, field name) gives the value or raises a
#: ConfigError naming the field; echo(value) gives plain YAML data, or _OMIT
#: to leave the key out
_Kind = namedtuple("_Kind", "parse echo")
_OMIT = object()
_FLOAT = _Kind(partial(_scalar, kind=float), float)
_INT = _Kind(partial(_scalar, kind=int), int)
_BOOL = _Kind(partial(_scalar, kind=bool), bool)
_VECTOR = _Kind(partial(_array, ndim=1), np.ndarray.tolist)
_MATRIX = _Kind(partial(_array, ndim=2), np.ndarray.tolist)
_Q = _Kind(   # "identity" or absent: RunConfig's default
    lambda v, name: None if v in (None, "identity") else _array(v, name, 2),
    np.ndarray.tolist)
_ESTIMATOR = _Kind(partial(_choice, options=("tracking", "dirty")), str)
_GRADIENT_MODE = _Kind(
    lambda v, name: GradientMode(_choice(v, name, [m.value for m in GradientMode])),
    attrgetter("value"))
_CLIP_NORM = _Kind(lambda v, name: None if v is None else _scalar(v, name, float),
                   lambda v: None if v is None else float(v))
_WEIGHTS = _Kind(   # echoed only when preloaded, so the summary reloads the net
    lambda v, name: None if v is None else PreadaptNet.from_dict(v),
    lambda net: _OMIT if net is None else net.to_dict())

#: one scenario-file field: its section (None: top level), its key, its
#: _Kind, and the attribute it sets when that is not the key
_Field = namedtuple("_Field", "section key kind attr", defaults=(None,))


def _rows(section, *rows):
    return tuple(_Field(section, *row) for row in rows)


_PLANT_FIELDS = _rows("plant", ("A", _MATRIX), ("B", _VECTOR), ("B1r", _VECTOR),
                      ("output_index", _INT))

#: every field but the plant's and the schedule's, in the order of the echo
_FIELDS = (
    *_rows("controller", ("Q", _Q), ("R", _FLOAT), ("gamma", _FLOAT), ("k0", _FLOAT)),
    *_rows("attention", ("c_e", _FLOAT), ("c_ed", _FLOAT), ("tau_f", _FLOAT),
           ("estimator", _ESTIMATOR), ("omega_n", _FLOAT), ("zeta", _FLOAT)),
    *_rows("preadapt", ("enabled", _BOOL), ("learner", _BOOL, "learner_enabled"),
           ("gradient_mode", _GRADIENT_MODE), ("gamma_pa", _FLOAT), ("hidden", _INT),
           ("seed", _INT), ("init_scale", _FLOAT), ("clip_norm", _CLIP_NORM),
           ("weights", _WEIGHTS, "net")),
    *_rows(None, ("r", _FLOAT), ("dt", _FLOAT), ("x0", _VECTOR),
           ("theta_hat0", _VECTOR)),
)

#: each section's rows in table order; the top level (None) comes last
_SECTIONS = {section: tuple(f for f in _FIELDS if f.section == section)
             for section in dict.fromkeys(f.section for f in _FIELDS)}

#: sections whose fields fill the settings RunConfig holds under that name;
#: the fields of the others are RunConfig's own
_SETTINGS = {"attention": AttentionConfig, "preadapt": PreadaptSettings}

#: command-line option -> the (section, key) of the field it overrides
_OVERRIDES = {"seed": ("preadapt", "seed"), "dt": (None, "dt"),
              "mode": ("preadapt", "gradient_mode")}

#: the keys of the schedule's optional box on theta
_BOUNDS = ("lower", "upper")


def _parse_fields(node, fields):
    """{attribute: value} of each of ``fields`` that ``node`` gives; a field
    the file leaves out keeps its dataclass default."""
    return {f.attr or f.key: f.kind.parse(node[f.key], f.key)
            for f in fields if f.key in node}


def _echo_fields(holder, fields):
    echo = {f.key: f.kind.echo(getattr(holder, f.attr or f.key)) for f in fields}
    return {key: value for key, value in echo.items() if value is not _OMIT}


def _parse_plant(node):
    if node == "b747":
        return build_b747()
    keys = [f.key for f in _PLANT_FIELDS]
    _check_keys(node, keys, "plant", required=keys)
    return PlantConfig(**_parse_fields(node, _PLANT_FIELDS))


def _parse_schedule(node, n):
    if isinstance(node, dict) and "scenario" in node:
        _check_keys(node, {"scenario"}, "schedule")
        return scenario_schedule(_scalar(node["scenario"], "scenario", int), n=n)
    _check_keys(node, {"pieces", "horizon", "bounds"}, "schedule",
                required=("pieces", "horizon"))
    if not isinstance(node["pieces"], list):
        raise ConfigError(f"pieces must be a list, got {node['pieces']!r}")
    pieces = []
    for i, piece in enumerate(node["pieces"]):
        where = f"pieces[{i}]"
        _check_keys(piece, {"t", "theta"}, where, required=("t", "theta"))
        pieces.append((_scalar(piece["t"], f"{where}.t", float),
                       _array(piece["theta"], f"{where}.theta", 1)))
    bounds = node.get("bounds")
    if bounds is not None:
        _check_keys(bounds, _BOUNDS, "bounds", required=_BOUNDS)
        bounds = tuple(_array(bounds[key], f"bounds.{key}", 1) for key in _BOUNDS)
    horizon = _scalar(node["horizon"], "horizon", float)
    return ThetaSchedule(pieces=pieces, horizon=horizon, bounds=bounds)


def _schedule_echo(schedule):
    return {
        "pieces": [{"t": float(t), "theta": v.tolist()} for t, v in schedule.pieces],
        "horizon": float(schedule.horizon),
        "bounds": (None if schedule.bounds is None
                   else {key: b.tolist() for key, b in zip(_BOUNDS, schedule.bounds)}),
    }


def load_scenario(path, overrides=None):
    """Parse and validate a scenario file into a RunConfig; ``overrides`` maps
    a field's (section, key) to a value written over the file's before it is
    parsed, as the --seed, --dt and --mode options do."""
    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from exc
    _check_keys(doc, ["plant", "schedule", *filter(None, _SECTIONS),
                      *(f.key for f in _SECTIONS[None])], "scenario",
                required=("plant", "schedule"))
    plant = _parse_plant(doc["plant"])
    fields = {"plant": plant, "schedule": _parse_schedule(doc["schedule"], plant.n)}
    for section, rows in _SECTIONS.items():
        node = doc if section is None else doc.get(section)
        if section is not None:
            node = {} if node is None else node
            _check_keys(node, [f.key for f in rows], section)
        given = {k: v for (s, k), v in (overrides or {}).items() if s == section}
        values = _parse_fields({**node, **given}, rows)
        if section in _SETTINGS:
            fields[section] = _SETTINGS[section](**values)
        else:
            fields.update(values)
    return RunConfig(**fields)


def _overrides(args):
    """The --seed, --dt and --mode values given, keyed by the field each sets."""
    return {field: getattr(args, option) for option, field in _OVERRIDES.items()
            if getattr(args, option) is not None}


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
    """Effective configuration with defaults materialized: a scenario file
    that loads to ``cfg``."""
    doc = {"plant": _echo_fields(cfg.plant, _PLANT_FIELDS),
           "schedule": _schedule_echo(cfg.schedule)}
    for section, rows in _SECTIONS.items():
        holder = getattr(cfg, section) if section in _SETTINGS else cfg
        echo = _echo_fields(holder, rows)
        doc.update(echo if section is None else {section: echo})
    return doc


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
    cfg = load_scenario(args.scenario, _overrides(args))
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
    cfg_a = load_scenario(args.scenario_a, _overrides(args))
    cfg_b = load_scenario(args.scenario_b, _overrides(args))
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
    cfg = load_scenario(args.scenario, _overrides(args))
    report = grad_check(cfg, args.phase, args.delta)
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
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two scenario files per phase")
    p_cmp.add_argument("scenario_a")
    p_cmp.add_argument("scenario_b")
    p_cmp.add_argument("--out", default="out")
    p_cmp.set_defaults(func=cmd_compare)

    p_gc = sub.add_parser("grad-check", help="finite-difference gradient validation")
    p_gc.add_argument("scenario")
    p_gc.add_argument("--phase", type=int, default=0)
    p_gc.add_argument("--delta", type=float, default=1e-5)
    p_gc.set_defaults(func=cmd_grad_check)

    for p in (p_run, p_cmp, p_gc):   # the _OVERRIDES options
        p.add_argument("--seed", type=int)
        p.add_argument("--dt", type=float)
        p.add_argument("--mode", choices=[mode.value for mode in GradientMode])
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
