import dataclasses
import os

import numpy as np
import pytest

from preadaptive_control import build_b747, default_config, native, run, simengine, tracefmt
from preadaptive_control.simengine import build_controller

#: A compiler command that does not exist: the run loops are Python's.
NO_CC = "preadapt-no-cc"


def pytest_addoption(parser):
    parser.addoption("--python-loop", action="store_true",
                     help="hide the C compiler, so that every run loop and the "
                          "trace formatter are the Python ones")


@pytest.fixture(scope="session", autouse=True)
def native_cache(tmp_path_factory, pytestconfig):
    """The native loops and the trace formatter build into this session's
    own cache directory, at their first use, and with --python-loop not at
    all."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        eager_native(mp)
        if pytestconfig.getoption("--python-loop"):
            mp.setattr(native, "_CC", NO_CC)
        yield


#: The Python rows after which a loop looks for its native object, and
#: after which it builds one, as shipped.
SHIPPED_ROWS = simengine._LOOKUP_ROWS, dict(simengine._BUILD_ROWS)


def native_rows(monkeypatch, lookup, build):
    """From here on (until monkeypatch undoes it) a loop looks for its
    native object once its Python loop has stepped ``lookup`` rows, and
    builds one after ``build`` rows (a dict keyed by with_sens)."""
    monkeypatch.setattr(simengine, "_LOOKUP_ROWS", lookup)
    monkeypatch.setattr(simengine, "_BUILD_ROWS", build)


def eager_native(monkeypatch):
    """From here on (until monkeypatch undoes it) a loop, and the trace
    formatter, look for and build their native object at their first use,
    not once their Python code has done enough rows to repay them."""
    native_rows(monkeypatch, 0, {False: 0, True: 0})
    monkeypatch.setattr(tracefmt, "_LOOKUP_ROWS", 0)
    monkeypatch.setattr(tracefmt, "_BUILD_ROWS", 0)


#: The Python rows after which the trace formatter looks for its native
#: object, and after which it builds one, as shipped.
SHIPPED_FORMAT_ROWS = tracefmt._LOOKUP_ROWS, tracefmt._BUILD_ROWS


def formatter(monkeypatch, rows):
    """From here on (until monkeypatch undoes it) trace text is formatted by
    a fresh ``tracefmt.Formatter``, which looks for and builds the C
    formatter after ``rows`` (lookup, build) rows formatted in Python, or
    with ``rows`` None formats in Python only."""
    fresh = tracefmt.Formatter()
    if rows is None:
        fresh.native_error = "the Python formatter was asked for"
    else:
        monkeypatch.setattr(tracefmt, "_LOOKUP_ROWS", rows[0])
        monkeypatch.setattr(tracefmt, "_BUILD_ROWS", rows[1])
    monkeypatch.setattr(tracefmt, "FORMATTER", fresh)
    return fresh


def python_loop(monkeypatch):
    """From here on (until monkeypatch undoes it) steppers compile the
    Python loop: the compiler is hidden and the compiled loops forgotten."""
    monkeypatch.setattr(native, "_CC", NO_CC)
    simengine._compile.cache_clear()


def bits(value):
    """``value`` with every float as its bits and every array as its dtype,
    shape and bytes, so == tells -0.0 and NaNs apart."""
    if dataclasses.is_dataclass(value):
        return [(f.name, bits(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return [(key, bits(v)) for key, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def both_loops(fn):
    """(fn() with the native loop from each loop's first use, fn() with
    the Python one)."""
    simengine._compile.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        eager_native(mp)
        fast = fn()
        python_loop(mp)
        slow = fn()
    simengine._compile.cache_clear()
    return fast, slow


@pytest.fixture(scope="session")
def compiler(pytestconfig):
    """Whether this session's native loops and trace formatter are built."""
    if pytestconfig.getoption("--python-loop"):
        return False
    try:
        return bool(native.compiler())
    except native.BuildError:
        return False


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory, and the system's compiler."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_CC", "cc")
    try:
        native.compiler()
    except native.BuildError as exc:
        pytest.skip(str(exc))
    return tmp_path / "preadaptive-control"


@pytest.fixture(scope="session")
def b747():
    return build_b747()


@pytest.fixture(scope="session")
def rac1_result():
    """Scenario-1 run with preadaptation disabled (regular adaptive control)."""
    return run(default_config(1))


@pytest.fixture(scope="session")
def rac2_result():
    return run(default_config(2))


@pytest.fixture(scope="session")
def rac3_result():
    return run(default_config(3))


def windowed_cost(result, jumps, horizon):
    """Integral of |e| over each [jump, next jump) window, keyed by jump time."""
    t = result.trace["t"]
    e = np.abs(result.trace["e"])
    dt = t[1] - t[0]
    edges = list(jumps) + [horizon]
    return {
        a: float(np.sum(e[(t >= a) & (t < b)]) * dt)
        for a, b in zip(edges[:-1], edges[1:])
    }


def left_to_right_u(result):
    """The control of each trace row as the step sums it, left to right:
    k0 r - (K_0 + theta_hat_0) x_0 - (K_1 + theta_hat_1) x_1 - ..."""
    ctrl, _ = build_controller(result.config)
    K, head = ctrl.K[0].tolist(), float(ctrl.k0) * float(result.config.r)
    us = []
    for x, th in zip(result.trace["x"].tolist(), result.trace["theta_hat"].tolist()):
        u = head
        for K_j, th_j, x_j in zip(K, th, x):
            u -= (K_j + th_j) * x_j
        us.append(u)
    return us


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
