"""Command-line front end: scenario files, trace/summary output, subcommands.

Subcommands:
  run        simulate one scenario file, write trace.csv + summary.yaml
  compare    run two scenario files and tabulate per-phase peak reductions
  grad-check validate the sensitivity-ODE gradient against finite differences

Exit codes: 0 ok, 2 config error (an offline solve that fails included),
3 divergence, 4 tolerance failure, 5 output write failed.
"""

import argparse
import contextlib
import math
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
from .errors import ConfigError, DivergenceError, SolverError
from .learner import GradientMode
from .preadapt import PreadaptNet
from .simengine import (
    _TRACE_CHUNK,
    PreadaptSettings,
    RunConfig,
    _cpu_count,
    build_b747,
    compare,
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


def _trace_header(n):
    return ",".join(
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"xr{i + 1}" for i in range(n)]
        + ["e", "edot_hat"]
        + [f"theta{i + 1}" for i in range(n)]
        + [f"theta_hat{i + 1}" for i in range(n)]
        + ["u", "Eu", "Ed"]
    ) + "\n"


#: rows per `%` operation.  Whole 256-row chunks, about 75 kB of text each
#: with a row format per piece, left glibc's heap holding some 15 MB of freed
#: trace arrays from one run to the next in a process that runs several;
#: 32 rows do not, at the same speed (scenario 3, Python 3.11)
_FORMAT_ROWS = 32


def _write_chunks(f, trace, lo, hi):
    """Format trace rows [lo, hi) to f, a chunk of rows at a time.

    theta is constant over a schedule piece: its text is formatted once per
    piece and spliced into the piece's row format.  So is x_r's once the
    reference has settled, in each chunk where every row holds the same x_r.
    '%.17g' gives the same text as _fmt; the event flags are ints.
    """
    keys = ("t", "x", "x_r", "e", "edot_hat", "theta_hat", "u", "Eu", "Ed")
    columns = [trace[key] for key in keys]
    moving = [trace[key] for key in keys if key != "x_r"]
    theta, x_r = trace["theta"], trace["x_r"]
    n = theta.shape[1]
    # compared bit for bit: -0.0 and NaN format apart from 0.0 and from each
    # other
    bits, xr_bits = theta.view(np.int64), x_r.view(np.int64)
    spliced = None      # the theta and x_r bits of the current row format
    for c in range(lo, hi, _TRACE_CHUNK):
        d = min(c + _TRACE_CHUNK, hi)
        settled = bool((xr_bits[c:d] == xr_bits[c]).all())
        block = np.column_stack([col[c:d] for col in (moving if settled else columns)])
        width = block.shape[1]
        values = block.ravel().tolist()
        # the chunk's rows whose theta differs from the row before
        changes = np.flatnonzero((bits[c + 1:d] != bits[c:d - 1]).any(axis=1)) + 1
        runs = [0, *changes.tolist(), d - c]
        for a, b in zip(runs, runs[1:]):
            key = (bits[c + a].tobytes(), settled and xr_bits[c].tobytes())
            if spliced != key:
                spliced = key
                xr_fmt = "%.17g," * n
                if settled:
                    xr_fmt %= tuple(x_r[c].tolist())
                row_fmt = ("%.17g," * (1 + n) + xr_fmt + "%.17g," * 2
                           + ("%.17g," * n) % tuple(theta[c + a].tolist())
                           + "%.17g," * (n + 1) + "%d,%d\n")
                rows_fmt = row_fmt * _FORMAT_ROWS
            for r in range(a, b, _FORMAT_ROWS):
                s = min(r + _FORMAT_ROWS, b)
                f.write((rows_fmt if s - r == _FORMAT_ROWS else row_fmt * (s - r))
                        % tuple(values[r * width:s * width]))


def _write_part_in_child(tmp, trace, lo, hi):
    """Body of a forked part writer: format rows [lo, hi) into tmp, then _exit.

    os._exit skips the parent's stdio buffers and atexit hooks, which the
    child inherited and must not flush or run.  The child only slices numpy
    arrays and formats strings: it calls no BLAS routine and takes no lock
    that another thread of the parent could have held at the fork.
    """
    code = 1
    try:
        _write_chunks(tmp, trace, lo, hi)
        tmp.flush()
        code = 0
    except Exception as exc:
        traceback.print_exc()
        # the part is void: its file carries the reason to the parent instead,
        # written past the text layer, whose buffer may be what failed
        with contextlib.suppress(Exception):
            os.ftruncate(tmp.fileno(), 0)
            os.pwrite(tmp.fileno(), f"{type(exc).__name__}: {exc}".encode(), 0)
    finally:
        os._exit(code)


class _PartFailed(RuntimeError):
    """A forked part writer exited with a failure status."""


#: chunks a part formatted while the run steps holds at least, about 14 ms
#: of formatting, so that a fork and its copy-on-write faults in the running
#: parent stay small beside the part
_MIN_PART_CHUNKS = 8


def _part_rows(rows, cpus):
    """Rows a part formatted while the run steps holds at least."""
    if cpus < 2:
        return math.inf
    chunks = -(-rows // _TRACE_CHUNK)
    return max(_MIN_PART_CHUNKS, round(2 * math.sqrt(chunks))) * _TRACE_CHUNK


class _TraceCsv:
    """``run``'s ``on_rows``: formats a trace's rows into ``f`` as they land.

    With more than one CPU, each time enough rows have landed and no part
    writer is busy, a forked part writer formats them, from its
    copy-on-write view of the trace arrays, into an unnamed temporary file in
    ``directory``; the parent appends each finished part in row order.  The
    parts are sized from the trace's length, so that a run forks a few times
    and the rows left when it ends are few.  ``finish`` splits those rows
    between the parent and one forked writer per further CPU.  The bytes do
    not depend on the CPU count.
    """

    def __init__(self, f, directory):
        self.f = f
        self.directory = directory
        self.cpus = _cpu_count() if hasattr(os, "fork") else 1
        self.trace = None
        self.done = 0       # rows handed to a part
        self.parts = []     # [pid, file, lo, hi] in row order, not yet
        #                     appended; pid None: reaped, or the parent's
        self.part_rows = None

    def __call__(self, trace, stop):
        self.trace = trace
        if self.part_rows is None:
            self.part_rows = _part_rows(len(trace["t"]), self.cpus)
        self._append(block=False)
        # the rows of the last call are left to finish, which splits them
        if (not self.parts and stop - self.done >= self.part_rows
                and stop < len(trace["t"])):
            self._fork(stop)

    def _fork(self, hi):
        """Hand rows [done, hi) to a forked part writer."""
        lo, self.done = self.done, hi
        tmp = tempfile.TemporaryFile("w+", dir=self.directory)
        try:
            pid = os.fork()
        except BaseException:
            tmp.close()
            raise
        if pid == 0:
            _write_part_in_child(tmp, self.trace, lo, hi)
        self.parts.append([pid, tmp, lo, hi])

    def _append(self, block):
        """Append the parts in row order while they are done; ``block``: wait
        for each."""
        while self.parts:
            pid, tmp, lo, hi = self.parts[0]
            if pid is not None:
                reaped, status = os.waitpid(pid, 0 if block else os.WNOHANG)
                if not reaped:
                    return
                self.parts[0][0] = None
                if status != 0:
                    code = os.waitstatus_to_exitcode(status)
                    message = f"trace writer of rows {lo}-{hi} exited with status {code}"
                    if code == 1:   # its own failure, whose reason it left
                        message += ": " + os.pread(tmp.fileno(), 500, 0).decode(
                            errors="replace")
                    raise _PartFailed(message)
            # copied a buffer at a time, so the parent never holds a part
            self.f.flush()
            tmp.seek(0)
            shutil.copyfileobj(tmp.buffer, self.f.buffer)
            tmp.close()
            del self.parts[0]

    def finish(self):
        """Format the rows not yet handed to a part and append every part.

        The parent formats the first of the remaining parts, straight into
        ``f`` unless a part before it is still being written.
        """
        rows = len(self.trace["t"])
        lo = self.done
        chunks = -(-(rows - lo) // _TRACE_CHUNK)
        parts = max(1, min(self.cpus, chunks))
        edges = [min(rows, lo + k * chunks // parts * _TRACE_CHUNK)
                 for k in range(parts + 1)]
        self._append(block=False)
        ahead = len(self.parts)
        self.done = edges[1]
        for hi in edges[2:]:
            self._fork(hi)
        if ahead:
            tmp = tempfile.TemporaryFile("w+", dir=self.directory)
            self.parts.insert(ahead, [None, tmp, lo, edges[1]])
            _write_chunks(tmp, self.trace, lo, edges[1])
        else:
            _write_chunks(self.f, self.trace, lo, edges[1])
        self._append(block=True)

    def close(self):
        """Kill and reap the part writers still running; drop their files."""
        for pid, tmp, _, _ in self.parts:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            tmp.close()
        self.parts.clear()


@contextlib.contextmanager
def _trace_csv(path, n):
    """``on_rows`` for ``run`` that writes the trace to ``path``.

    ``path`` is replaced when the block succeeds; when it raises, the part
    writers are killed and reaped and no file is left.
    """
    with _replaced_on_success(path) as f:
        f.write(_trace_header(n))
        writer = _TraceCsv(f, Path(path).parent)
        try:
            yield writer
            writer.finish()
        finally:
            writer.close()


def write_trace_csv(result, path):
    """Write a finished run's trace as CSV, with the writer ``run`` streams
    into (see _TraceCsv): the same bytes."""
    with _trace_csv(path, result.config.plant.n) as on_rows:
        on_rows(result.trace, len(result.trace["t"]))


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
    try:
        with _trace_csv(out / "trace.csv", cfg.plant.n) as on_rows:
            result = run(cfg, on_rows=on_rows)
        write_summary(result, out / "summary.yaml")
    except (OSError, _PartFailed) as exc:   # a run's own errors pass through
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
    _, _, rows = compare(cfg_a, cfg_b)   # a diverged run raises DivergenceError
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
              f"max rel err: {entry['max_rel_error']:.3e}  "
              f"cos to fd: {entry['cos_to_fd']:.6f}")
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
    except (ConfigError, SolverError) as exc:   # a solve fails only on bad input
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
