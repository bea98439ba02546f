"""The C trace formatter: its text against Python's '%.17g', value by value,
the arguments it refuses, and when a writer turns to it."""

import locale
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from preadaptive_control import cli, default_config, native, run, tracefmt

from conftest import SHIPPED_FORMAT_ROWS, formatter

#: the doubles of a row of a 1-state trace, in COLUMNS order
ROW_DOUBLES = 8


@pytest.fixture(scope="module")
def c(compiler):
    if not compiler:
        pytest.skip("the trace formatter is not built in this session")
    return tracefmt.Native(native.load(tracefmt.c_source()))


def _trace(rows, n=1):
    """A trace of ``rows`` rows: every double 0.0, every flag 0."""
    trace = {key: np.zeros((rows, n) if key in tracefmt._VECTORS else rows)
             for key in tracefmt.COLUMNS}
    trace["Eu"] = np.zeros(rows, dtype=np.int8)
    trace["Ed"] = np.zeros(rows, dtype=np.int8)
    return trace


class _Bytes(list):
    def write(self, data):
        self.append(bytes(data))


def c_text(c, values):
    """The C formatter's text of each of ``values``: laid into the doubles
    of 1-state trace rows, in order, and read back out of its CSV."""
    values = np.asarray(values, dtype=np.float64)
    block = np.zeros((-(-len(values) // ROW_DOUBLES), ROW_DOUBLES))
    block.flat[:len(values)] = values
    trace = _trace(len(block))
    for i, key in enumerate(tracefmt.COLUMNS[:ROW_DOUBLES]):
        trace[key][:] = block[:, i].reshape(trace[key].shape)
    out = _Bytes()
    c.write(out, trace, 1, 0, len(block), tracefmt.buffer(1))
    fields = [line.split(",")[:ROW_DOUBLES]
              for line in b"".join(out).decode().splitlines()]
    return [field for row in fields for field in row][:len(values)]


def assert_like_python(c, values):
    values = np.asarray(values, dtype=np.float64)
    want = ["%.17g" % v for v in values.tolist()]
    got = c_text(c, values)
    wrong = [(v.hex(), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert wrong == []


@given(st.floats(allow_subnormal=True))
@example(math.copysign(math.nan, -1.0))
@example(math.nan)
@example(-0.0)
@example(5e-324)
def test_drawn_floats_read_as_in_python(c, value):
    assert_like_python(c, [value, -value])


def _hard_values():
    """10^k and its two neighbours for k in -324..308, every power of 2,
    and the ties 2^50 + j + 0.25 and + 0.75, both signs."""
    values = []
    for k in range(-324, 309):
        v = float(f"1e{k}")
        values += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    values += [math.ldexp(1.0, j) for j in range(-1074, 1024)]
    values += [2.0 ** 50 + j + frac for j in range(2000) for frac in (0.25, 0.75)]
    return np.array(values + [-v for v in values])


def test_powers_ties_and_random_bits_read_as_in_python(c):
    # 1,000,000 random bit patterns hold NaNs of both signs, infinities and
    # subnormals; the ties and the subnormals take the fallback, and all
    # the rest the fast path
    bits = np.random.default_rng(25).integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64)
    values = np.concatenate([_hard_values(), bits.view(np.float64)])
    before = c.fallbacks.value
    assert_like_python(c, values)
    fallbacks = c.fallbacks.value - before
    assert 4000 <= fallbacks < len(values) // 100


def _radix_comma_locale():
    for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "de_DE",
                 "fr_FR", "nl_NL.UTF-8", "ru_RU.UTF-8"):
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
        except locale.Error:
            continue
        if locale.localeconv()["decimal_point"] == ",":
            return name
        locale.setlocale(locale.LC_NUMERIC, "C")
    return None


def test_the_fallback_ignores_a_radix_comma_locale(c):
    # snprintf runs under the C locale, whatever LC_NUMERIC the process has
    was = locale.setlocale(locale.LC_NUMERIC)
    try:
        if _radix_comma_locale() is None:
            pytest.skip("no locale with a radix comma is installed")
        before = c.fallbacks.value
        assert_like_python(c, [2.0 ** 50 + 0.25, 5e-324, -1.5e-310])
        assert c.fallbacks.value - before == 3
    finally:
        locale.setlocale(locale.LC_NUMERIC, was)


def test_flags_read_as_ints(c):
    trace = _trace(5)
    trace["Eu"][:] = [0, 1, -1, 127, -128]
    trace["Ed"][:] = [10, -10, 99, 100, -100]
    out = _Bytes()
    c.write(out, trace, 1, 0, 5, tracefmt.buffer(1))
    lines = b"".join(out).decode().splitlines()
    assert [line.split(",")[-2:] for line in lines] == [
        ["0", "10"], ["1", "-10"], ["-1", "99"], ["127", "100"], ["-128", "-100"]]


# --------------------------------------------------------------------------
# what the C refuses

@pytest.mark.parametrize("fault", ["short", "strided", "float32", "int16_flag", "n",
                                   "missing", "past_the_end", "backwards", "negative",
                                   "buffer"])
def test_the_formatter_refuses_rows_it_could_read_past(c, fault):
    # the C reads row k at index k of each column and writes BUFFER_ROWS
    # rows into the buffer: columns it could read past, and a buffer it
    # could write past, are refused before the C runs, and nothing is written
    rows, n = 300, 2
    trace, lo, hi, buffer = _trace(rows, n), 0, rows, tracefmt.buffer(n)
    out = _Bytes()
    c.write(out, trace, n, lo, hi, buffer)
    assert len(b"".join(out).splitlines()) == rows
    if fault == "short":
        trace["u"] = trace["u"][:rows - 1]
    elif fault == "strided":
        trace["x_r"] = np.zeros((rows, 2 * n))[:, ::2]
    elif fault == "float32":
        trace["theta"] = trace["theta"].astype(np.float32)
    elif fault == "int16_flag":
        trace["Ed"] = trace["Ed"].astype(np.int16)
    elif fault == "n":
        n += 1
        buffer = tracefmt.buffer(n)
    elif fault == "missing":
        trace["edot_hat"] = None
    elif fault == "past_the_end":
        hi = rows + 1
    elif fault == "backwards":
        lo, hi = 10, 9
    elif fault == "negative":
        lo = -1
    else:
        buffer = buffer[:-1]
    out = _Bytes()
    with pytest.raises(ValueError, match="trace columns"):
        c.write(out, trace, n, lo, hi, buffer)
    assert out == []


# --------------------------------------------------------------------------
# when a writer turns to the C

@pytest.fixture(scope="module")
def three_seconds():
    """A 3 s scenario-1 RAC run: a 3,001-row trace."""
    cfg = default_config(1)
    return run(replace(cfg, schedule=replace(cfg.schedule, horizon=3.0)))


def _write(result, path):
    cli.write_trace_csv(result, path)
    return path.read_bytes()


def _python_bytes(result, path, monkeypatch):
    with monkeypatch.context() as m:
        formatter(m, None)
        return _write(result, path)


def test_a_formatter_looks_then_builds_once_its_rows_repay_it(three_seconds, cache,
                                                              tmp_path, monkeypatch):
    # Python formats a 256-row chunk at a time: the look after 768 rows
    # misses, the build after 1,280 has 1,721 rows left to format in C
    want = _python_bytes(three_seconds, tmp_path / "python.csv", monkeypatch)
    fmt = formatter(monkeypatch, (600, 1200))
    assert _write(three_seconds, tmp_path / "trace.csv") == want
    assert fmt.native is not None and fmt.rows == 1280
    (built,) = os.listdir(cache)
    # another process finds the object at its look
    fmt = formatter(monkeypatch, (600, 1200))
    assert _write(three_seconds, tmp_path / "trace.csv") == want
    assert fmt.native is not None and fmt.rows == 768
    assert os.listdir(cache) == [built]


def test_a_short_trace_asks_no_compiler(three_seconds, cache, tmp_path, monkeypatch):
    # under the shipped rows a 3,001-row trace is formatted in Python: no C
    # is written, no compiler asked and nothing built
    fmt = formatter(monkeypatch, SHIPPED_FORMAT_ROWS)
    monkeypatch.setattr(native, "compiler", lambda: pytest.fail("the compiler was asked"))
    monkeypatch.setattr(tracefmt, "c_source",
                        lambda: pytest.fail("the C text was written"))
    _write(three_seconds, tmp_path / "trace.csv")
    assert (fmt.native, fmt.looked, fmt.rows) == (None, False, 3001)
    assert not cache.exists()


def test_without_a_compiler_python_formats_with_its_reason(three_seconds, tmp_path,
                                                          monkeypatch):
    want = _python_bytes(three_seconds, tmp_path / "python.csv", monkeypatch)
    monkeypatch.setattr(native, "_CC", "preadapt-no-such-cc")
    fmt = formatter(monkeypatch, (0, 0))
    assert _write(three_seconds, tmp_path / "trace.csv") == want
    assert fmt.native is None and fmt.rows == 3001
    assert fmt.native_error.startswith(
        "no C compiler: 'preadapt-no-such-cc --version' failed: ")


def test_a_failing_build_leaves_python_formatting(three_seconds, cache, tmp_path,
                                                  monkeypatch):
    def fail(source, build=True):
        raise native.BuildError("planted build failure")

    want = _python_bytes(three_seconds, tmp_path / "python.csv", monkeypatch)
    fmt = formatter(monkeypatch, (0, 0))
    monkeypatch.setattr(native, "load", fail)
    assert _write(three_seconds, tmp_path / "trace.csv") == want
    assert (fmt.native, fmt.native_error, fmt.rows) == (None, "planted build failure", 3001)
