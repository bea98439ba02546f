"""Native builds of generated code: C compiled by the system's cc, loaded
with ctypes.

``statements`` writes C for the generated Python statements of the run
loop: assignments, augmented assignments and if/elif/else over float
locals, with ``+ - * /``, comparisons, ``and``/``or``/``not`` and
``abs``.  Every operation is parenthesized as Python's parser grouped it,
and every float literal is its ``repr``, which a C compiler reads back as
the same double; compiled without ``-ffast-math`` and with
``-ffp-contract=off`` (no fused multiply-add), each operation rounds as
Python's does, so the C gives the same bits.

``load`` compiles a source once per user and machine: the shared object is
cached under ``$XDG_CACHE_HOME/preadaptive-control`` (else
``~/.cache/preadaptive-control``), a directory only its owner may write,
keyed by the sha256 of the source, the flags and ``cc --version``.  It is
built under a unique temporary name and published with ``os.replace``, so
processes that build the same key at once each load a whole library.  A
load marks its object used (its mtime), and a publish removes the least
recently used objects past ``CACHE_OBJECTS``.  A loaded library stays
mapped for the life of the process, as ctypes never unloads one.
Without a compiler, or when a build fails, ``compiler`` or ``load`` raise
BuildError saying why, and the caller runs its Python code.
"""

import functools
import os
import stat

#: The C compiler command.
_CC = "cc"
#: No -ffast-math and no -march: IEEE double arithmetic as written.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: Objects the cache keeps, the most recently used: 15-52 kB each.
CACHE_OBJECTS = 256
#: Put before every source: a compiler that keeps doubles in extended
#: precision (x87) would not round as Python does, so it builds nothing.
_PRELUDE = """#include <float.h>
#include <math.h>
#if FLT_EVAL_METHOD != 0
#error "doubles are evaluated in extended precision"
#endif
"""


# --------------------------------------------------------------------------
# Python statements to C

_OPS = {"Add": "+", "Sub": "-", "Mult": "*", "Div": "/", "Lt": "<", "LtE": "<=",
        "Gt": ">", "GtE": ">=", "Eq": "==", "NotEq": "!=", "And": " && ", "Or": " || ",
        "USub": "-", "Not": "!"}
_NAMES = {"inf": "INFINITY", "nan": "NAN"}


def _refuse(node):
    import ast

    raise ValueError(f"no C for {ast.unparse(node)!r}")


def _op(op, node):
    name = type(op).__name__
    return _OPS[name] if name in _OPS else _refuse(node)


def _expr(node):
    import ast

    if isinstance(node, ast.BinOp):
        return f"({_expr(node.left)} {_op(node.op, node)} {_expr(node.right)})"
    if isinstance(node, ast.UnaryOp):
        return f"({_op(node.op, node)}{_expr(node.operand)})"
    if isinstance(node, ast.BoolOp):
        return "(" + _op(node.op, node).join(map(_expr, node.values)) + ")"
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        return (f"({_expr(node.left)} {_op(node.ops[0], node)} "
                f"{_expr(node.comparators[0])})")
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "abs" and len(node.args) == 1):
        return f"fabs({_expr(node.args[0])})"
    if isinstance(node, ast.Constant) and type(node.value) in (bool, int, float):
        return repr(int(node.value) if type(node.value) is bool else node.value)
    if isinstance(node, ast.Name):
        return _NAMES.get(node.id, node.id)
    return _refuse(node)


def _block(body, drop, assigned):
    import ast

    out = []
    for node in body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            if not isinstance(target, ast.Name) or getattr(node, "targets", [0])[1:]:
                _refuse(node)
            assigned.append(target.id)
            op = "" if isinstance(node, ast.Assign) else _op(node.op, node)
            out.append(f"{target.id} {op}= {_expr(node.value)};")
        elif isinstance(node, ast.If):
            out += [f"if ({_expr(node.test)}) {{", *_indent(node.body, drop, assigned), "}"]
            if node.orelse:
                out += ["else {", *_indent(node.orelse, drop, assigned), "}"]
        elif (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute)
              and isinstance(node.value.func.value, ast.Name)
              and node.value.func.value.id in drop):
            continue
        else:
            _refuse(node)
    return out


def _indent(body, drop, assigned):
    return [f"    {line}" for line in _block(body, drop, assigned)]


def statements(lines, drop=()):
    """(C lines, names assigned) of the Python statement ``lines``; a call
    of a method of a name in ``drop`` is left out.  Each top-level statement
    is parsed on its own, so that no syntax tree of a whole loop is held."""
    import ast

    out, assigned, group = [], [], []
    for line in [*lines, ""]:
        if group and not line.startswith((" ", "elif ", "else:")):
            out += _block(ast.parse("\n".join(group)).body, drop, assigned)
            group = []
        group.append(line)
    return out, list(dict.fromkeys(assigned))


# --------------------------------------------------------------------------
# build, cache and load

def repaid(rows, threshold, rows_left):
    """Whether ``rows`` done in Python repay a native step that costs about
    ``threshold`` of them: once as many are done, and as many are left for
    the native code to do instead, or twice as many are done (a caller that
    works in short stretches then repays it over the stretches to come)."""
    return rows >= threshold and (rows_left >= threshold or rows >= 2 * threshold)


class BuildError(Exception):
    """Why there is no native build."""


@functools.cache
def _compiler_version(cc):
    """(``cc --version``'s output, None) or (None, why there is none); asked
    once per process."""
    import subprocess

    try:
        proc = subprocess.run([cc, "--version"], capture_output=True, text=True)
    except OSError as exc:
        return None, f"no C compiler: '{cc} --version' failed: {exc}"
    if proc.returncode != 0:
        return None, f"no C compiler: '{cc} --version' exited with {proc.returncode}"
    return proc.stdout, None


def compiler():
    """The compiler's ``--version`` text; BuildError if it does not answer."""
    version, why = _compiler_version(_CC)
    if why is not None:
        raise BuildError(why)
    return version


def cache_dir():
    """The cache directory, made if missing: BuildError unless it is a
    directory of this user that no one else may write."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "preadaptive-control")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.lstat(path)
    if not (stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid()
            and info.st_mode & 0o022 == 0):
        raise BuildError(f"{path} is not a directory that only this user may write")
    return path


def _build(source, path):
    """Compile ``source`` to the shared object ``path``, then prune the
    cache."""
    import subprocess
    import tempfile

    fd, c_file = tempfile.mkstemp(suffix=".c", dir=os.path.dirname(path))
    so_file = c_file[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as f:
            f.write(source)
        proc = subprocess.run([_CC, *FLAGS, "-o", so_file, c_file, "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildError(f"'{_CC}' exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        os.replace(so_file, path)
    finally:
        for name in (c_file, so_file):
            if os.path.exists(name):
                os.unlink(name)
    _prune(os.path.dirname(path))


def _prune(cache):
    """Remove the cached objects past the ``CACHE_OBJECTS`` most recently
    used.  A process that has one loaded keeps its mapping; one that is
    about to load it finds it gone, and builds it again or runs Python."""
    objects = []
    for entry in os.scandir(cache):
        if entry.name.endswith(".so"):
            try:
                objects.append((entry.stat().st_mtime_ns, entry.path))
            except FileNotFoundError:   # pruned by another process
                pass
    for _, path in sorted(objects, reverse=True)[CACHE_OBJECTS:]:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def load(source, build=True):
    """The ctypes library of the C ``source``: the cached one, else, with
    ``build``, one built now, else None.  BuildError if it cannot be built
    or loaded."""
    import hashlib

    source = _PRELUDE + source
    key = "\0".join([source, _CC, *FLAGS, compiler()])
    try:
        path = os.path.join(cache_dir(), hashlib.sha256(key.encode()).hexdigest() + ".so")
        try:
            os.utime(path)   # used now: the last to be pruned
        except FileNotFoundError:
            if not build:
                return None
            _build(source, path)
        import ctypes   # 7 ms: not for a look that misses

        return ctypes.CDLL(path)
    except OSError as exc:
        raise BuildError(str(exc)) from exc
