"""The native run loop: its C text, its build and cache, and its bits
against the Python loop's."""

import math
import os
import stat
import subprocess
import sys
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from preadaptive_control import (AttentionState, default_config, grad_check, native, run,
                                 simengine)
from preadaptive_control.cli import load_scenario
from preadaptive_control.dynamics import check_bounded
from preadaptive_control.simengine import _Stepper, build_controller

from conftest import (SHIPPED_ROWS, assert_no_child_left, bits, both_loops, native_rows,
                      python_loop)

BUNDLED = {"scenario1_rac": 0, "scenario1_learner": 2, "scenario2_rac": 0,
           "scenario2_learner": 5, "scenario3_rac": 0, "scenario3_learner": 7,
           "scenario3_exact": 9}   # closed phases of each file

#: The C of one plain segment: enough to build and call.
SOURCE = "int segment(double *y) { y[0] += 1.0; return 7; }\n"


def is_native(segment):
    return segment.__qualname__.startswith("_native_segment")


# --------------------------------------------------------------------------
# both loops give the same bits

@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_runs_and_grad_checks_equal_under_both_loops(name, compiler):
    # every trace column, the phases with their gradients and snapshots, the
    # events, the learner's reports, the final net and the status, and the
    # grad-check report of every closed phase, to the bit
    cfg = load_scenario(str(resources.files("preadaptive_control") / "scenarios"
                            / f"{name}.yaml"))
    stepper = _Stepper(cfg, *build_controller(cfg))

    def outputs():
        res = run(cfg)
        closed = [p for p in res.phases if p.recovered and p.snapshot is not None]
        reports = [grad_check(cfg, i, 1e-5, result=res) for i in range(len(closed))]
        return bits(res), bits(reports), is_native(stepper.segment(False, False, True))

    (run_bits, report_bits, was_native), slow = both_loops(outputs)
    assert (was_native, slow[2]) == (compiler, False)
    assert run_bits == slow[0]
    assert len(report_bits) == BUNDLED[name]
    assert report_bits == slow[1]


def test_frozen_steps_equal_under_both_loops():
    cfg = default_config(1)
    stepper = _Stepper(cfg, *build_controller(cfg))
    y = np.random.default_rng(3).standard_normal(27).tolist()
    fast, slow = both_loops(lambda: [stepper.step(y, [1.0, 2.0, 3.0], True, exact, k=77)
                                     for exact in (False, True)])
    assert bits(fast) == bits(slow)


# --------------------------------------------------------------------------
# the trace columns, and where a segment returns

def _columns(rows, n=3):
    """Trace columns (``simengine._TRACE_COLUMNS``) of ``rows`` rows, all 7.0."""
    return ([np.full((rows, n), 7.0) for _ in range(3)]
            + [np.full(rows, 7.0) for _ in range(3)])


@pytest.mark.parametrize("fault", ["short", "strided", "float32", "too_few"])
def test_the_native_segment_refuses_columns_it_could_write_past(fault, compiler):
    # the C loop writes row k at index k of each column: a column without
    # room for the segment's rows, not C-contiguous or not float64 is
    # refused before the C runs, and nothing is written
    if not compiler:
        pytest.skip("the native loop is not built in this session")
    cfg = default_config(1)
    segment = _Stepper(cfg, *build_controller(cfg)).segment(False, False, True)
    assert is_native(segment)
    rows = 300

    def call(columns):
        return segment([0.0] * 9, [0.1] * 3, 0, rows, math.inf, 0.0, 0.0, 0.0, 0.0,
                       False, columns, AttentionState(), None, check_bounded)

    good = _columns(rows)
    assert call(good)[1] == rows and not (good[3] == 7.0).any()
    columns = _columns(rows)
    if fault == "short":
        columns[4] = columns[4][:rows - 1]
    elif fault == "strided":
        columns[1] = np.full((rows, 6), 7.0)[:, ::2]
    elif fault == "float32":
        columns[5] = columns[5].astype(np.float32)
    else:
        columns.pop()
    before = bits(columns)
    with pytest.raises(ValueError, match="trace columns"):
        call(columns)
    assert bits(columns) == before


def _segment_spans(monkeypatch, cfg):
    """(entry row, return row) of each segment ``run(cfg)`` enters, the run,
    and whether every segment was the native one."""
    spans, natives = [], []
    real = simengine._Loop.segment

    def segment(loop, rows_left):
        fn = real(loop, rows_left)
        natives.append(is_native(fn))

        def counted(y, theta, k, *args):
            out = fn(y, theta, k, *args)
            spans.append((k, out[1]))
            return out

        return counted

    monkeypatch.setattr(simengine._Loop, "segment", segment)
    res = run(cfg)
    return spans, res, all(natives)


def test_a_native_run_returns_only_at_pieces_and_events(compiler, monkeypatch):
    if not compiler:
        pytest.skip("the native loop is not built in this session")
    cfg = default_config(1)
    spans, res, all_native = _segment_spans(monkeypatch, cfg)
    assert all_native
    assert len(spans) <= len(cfg.schedule.pieces) + len(res.events) + 1
    assert spans[-1][1] == cfg.num_steps


def test_the_python_loop_returns_on_multiples_of_the_chunk(monkeypatch):
    # it keeps at most one chunk of rows as floats: it returns at every
    # multiple of _TRACE_CHUNK, and otherwise only at pieces, events and
    # the horizon
    chunk = simengine._TRACE_CHUNK
    cfg = default_config(1)
    with monkeypatch.context() as mp:
        python_loop(mp)
        spans, res, all_native = _segment_spans(mp, cfg)
    simengine._compile.cache_clear()
    assert not all_native
    N = cfg.num_steps
    ends = {end for _, end in spans}
    pieces = {round(t / cfg.dt) for t in cfg.schedule.jump_times}
    events = {round(t / cfg.dt) for t, _ in res.events}
    assert set(range(chunk, N, chunk)) <= ends
    assert ends <= set(range(chunk, N, chunk)) | pieces | events | {N}
    assert all(end - k <= chunk for k, end in spans)


# --------------------------------------------------------------------------
# the C text

def test_statements_keep_pythons_grouping_and_literals():
    lines, assigned = native.statements([
        "u = -(1.5 + th0) * x0 - (0.1) * x1",
        "if abs(e) >= (0.005) and not e_prev < 1e-05:",
        "    in_dist = True",
        "    events.append((k * (0.001), 'E_u'))",
        "elif e != 0.0:",
        "    E -= a * (0.001)",
        "else:",
        "    E += inf",
    ], drop=("events",))
    assert lines == [
        "u = (((-(1.5 + th0)) * x0) - (0.1 * x1));",
        "if (((fabs(e) >= 0.005) && (!(e_prev < 1e-05)))) {",
        "    in_dist = 1;",
        "}",
        "else {",
        "    if ((e != 0.0)) {",
        "        E -= (a * 0.001);",
        "    }",
        "    else {",
        "        E += INFINITY;",
        "    }",
        "}",
    ]
    assert assigned == ["u", "in_dist", "E"]


@pytest.mark.parametrize("line", ["x = y ** 2", "x = f(y)", "x, y = y, x", "x = a < b < c",
                                  "events.append(1)", "x = 'text'"])
def test_statements_refuse_what_they_cannot_write(line):
    with pytest.raises(ValueError, match="no C for"):
        native.statements([line])


# --------------------------------------------------------------------------
# build, fallback and cache

def _call(lib):
    import ctypes

    y = (ctypes.c_double * 1)(41.0)
    return lib.segment(y), y[0]


def test_build_is_cached_and_private(cache):
    assert _call(native.load(SOURCE)) == (7, 42.0)
    (entry,) = os.listdir(cache)     # no temporary file left
    assert entry.endswith(".so")
    assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
    built = os.stat(cache / entry)
    os.utime(cache / entry, ns=(0, 0))
    assert _call(native.load(SOURCE)) == (7, 42.0)
    again = os.stat(cache / entry)
    assert again.st_ino == built.st_ino     # loaded, not rebuilt,
    assert again.st_mtime_ns > 0            # and marked used


def test_the_cache_keeps_the_most_recently_used(cache, monkeypatch):
    # a publish past CACHE_OBJECTS removes the least recently used objects;
    # a load without build takes the cached object, or gives None
    monkeypatch.setattr(native, "CACHE_OBJECTS", 2)
    sources = [SOURCE.replace("7", str(i)) for i in range(3)]
    names = []
    for i, source in enumerate(sources[:2]):
        native.load(source)
        (name,) = set(os.listdir(cache)) - set(names)
        os.utime(cache / name, ns=(i + 1, i + 1))   # sources[0] the oldest
        names.append(name)
    assert native.load(sources[0], build=False) is not None   # used now
    assert native.load(sources[2], build=False) is None
    assert sorted(os.listdir(cache)) == sorted(names)
    assert _call(native.load(sources[2])) == (2, 42.0)
    left = os.listdir(cache)
    assert len(left) == 2 and names[0] in left and names[1] not in left


def test_a_cache_others_may_write_is_refused(cache):
    cache.mkdir(mode=0o700)
    os.chmod(cache, 0o777)
    with pytest.raises(native.BuildError, match="not a directory that only this user may"):
        native.load(SOURCE)
    assert os.listdir(cache) == []


def test_racing_builds_each_load_a_whole_library(cache):
    # two processes build the same source into an empty cache at once; each
    # publishes its object with os.replace, and each loads one that works
    go_r, go_w = os.pipe()
    pids = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(go_w)
                os.read(go_r, 1)
                code = 0 if _call(native.load(SOURCE)) == (7, 42.0) else 2
            finally:
                os._exit(code)
        pids.append(pid)
    os.close(go_r)
    os.close(go_w)   # both start now
    statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    assert statuses == [0, 0]
    assert_no_child_left()
    assert [name[-3:] for name in os.listdir(cache)] == [".so"]


def test_a_failing_build_falls_back_to_the_python_loop(cache, tmp_path, monkeypatch):
    # a compiler that answers --version and fails every build: the loop is
    # the Python one, the run the same, and the reason says what failed
    fake = tmp_path / "fake-cc"
    fake.write_text('#!/bin/sh\n[ "$1" = --version ] && { echo fake 1.0; exit 0; }\n'
                    'echo "fake-cc: cannot build" >&2\nexit 1\n')
    fake.chmod(0o755)
    cfg = default_config(1, r=0.0234567)   # a loop no other test compiles
    want = bits(run(cfg).trace)
    simengine._compile.cache_clear()
    monkeypatch.setattr(native, "_CC", str(fake))
    try:
        stepper = _Stepper(cfg, *build_controller(cfg))
        segment = stepper.segment(False, False, True)
        assert not is_native(segment)
        assert segment.native_error.startswith(f"'{fake}' exited with 1: ")
        assert segment.native_error.endswith("fake-cc: cannot build")
        assert bits(run(cfg).trace) == want
    finally:
        simengine._compile.cache_clear()


def test_no_compiler_falls_back_with_its_reason(monkeypatch):
    monkeypatch.setattr(native, "_CC", "preadapt-no-such-cc")
    cfg = default_config(1)
    simengine._compile.cache_clear()
    try:
        segment = _Stepper(cfg, *build_controller(cfg)).segment(True, True, False)
    finally:
        simengine._compile.cache_clear()
    assert not is_native(segment)
    assert segment.native_error.startswith(
        "no C compiler: 'preadapt-no-such-cc --version' failed: ")


# --------------------------------------------------------------------------
# when a loop goes native

def short_run(r):
    """A 3 s scenario-1 RAC run: 3,000 steps, all of them in the plain live
    loop; ``r`` makes that loop no other test's."""
    cfg = default_config(1, r=r)
    return replace(cfg, schedule=replace(cfg.schedule, horizon=3.0))


def loop_of(cfg):
    stepper = _Stepper(cfg, *build_controller(cfg))
    return simengine._compile(stepper, "loop", False, False, True)


@pytest.fixture
def by_rows(cache, monkeypatch):
    """The default choice, on a scale of chunks: a look in the cache once
    a loop has stepped 600 rows in Python, a build once it has stepped
    1,200, each with as many rows left in the run."""
    native_rows(monkeypatch, 600, {False: 1200, True: 1200})
    simengine._compile.cache_clear()
    yield cache
    simengine._compile.cache_clear()


def python_run(cfg, monkeypatch):
    with monkeypatch.context() as mp:
        python_loop(mp)
        res = run(cfg)
        assert loop_of(cfg).native is None
    simengine._compile.cache_clear()
    return bits(res)


def test_a_loop_looks_then_builds_once_its_rows_repay_it(by_rows, monkeypatch):
    # each call steps a 256-row chunk: the look after 768 rows misses, the
    # build after 1,280 has 1,720 rows left to step natively
    cfg = short_run(0.0345678)
    want = python_run(cfg, monkeypatch)
    assert bits(run(cfg)) == want
    loop = loop_of(cfg)
    assert loop.native is not None and loop.rows == 1280
    (built,) = os.listdir(by_rows)
    # another process finds the object at its look
    simengine._compile.cache_clear()
    assert bits(run(cfg)) == want
    assert loop_of(cfg).native is not None and loop_of(cfg).rows == 768
    assert os.listdir(by_rows) == [built]


def test_a_run_builds_only_with_the_rows_left_to_repay_it(by_rows, monkeypatch):
    # 2,000 rows repay a build: the first run reaches them with 952 rows
    # left and stays Python; the next one builds at its first row
    native_rows(monkeypatch, 600, {False: 2000, True: 2000})
    cfg = short_run(0.0456789)
    want = python_run(cfg, monkeypatch)
    assert bits(run(cfg)) == want
    assert loop_of(cfg).native is None and loop_of(cfg).rows == 3000
    assert os.listdir(by_rows) == []    # looked at 768 rows, and missed
    assert bits(run(cfg)) == want
    assert loop_of(cfg).native is not None and loop_of(cfg).rows == 3000
    assert len(os.listdir(by_rows)) == 1


def test_a_loop_in_short_stretches_builds_after_twice_its_rows(by_rows, monkeypatch):
    # 3,500 rows repay a build, more than a run has: the third run builds
    # once the process has stepped 7,000 rows in Python, 1,024 rows in
    native_rows(monkeypatch, 600, {False: 3500, True: 3500})
    cfg = short_run(0.0567891)
    want = python_run(cfg, monkeypatch)
    for _ in range(2):
        assert bits(run(cfg)) == want
        assert loop_of(cfg).native is None
    assert bits(run(cfg)) == want
    assert loop_of(cfg).native is not None and loop_of(cfg).rows == 7024


def test_a_short_run_asks_no_compiler(cache, monkeypatch):
    # under the default rows a 3,000-step run keeps to Python: it writes no
    # C, asks no compiler and builds nothing
    native_rows(monkeypatch, *SHIPPED_ROWS)
    monkeypatch.setattr(native, "compiler", lambda: pytest.fail("the compiler was asked"))
    cfg = short_run(0.0678912)
    simengine._compile.cache_clear()
    try:
        run(cfg)
        loop = loop_of(cfg)
        assert (loop.native, loop.c_source, loop.rows) == (None, None, 3000)
    finally:
        simengine._compile.cache_clear()
    assert not cache.exists()


def test_import_and_controller_build_nothing(tmp_path):
    # a build waits for a loop's first use: importing the package and the
    # offline solves neither ask for the compiler nor write to the cache
    src = os.path.dirname(os.path.dirname(simengine.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src)
    code = ("from preadaptive_control import cli, native, simengine; "
            "simengine.build_controller(simengine.default_config(1)); "
            "print(native._compiler_version.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "0\n"
    assert os.listdir(tmp_path) == []
