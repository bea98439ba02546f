"""trace.csv's rows as text in C: each double as Python's ``'%.17g'`` gives
it, byte for byte, each event flag as ``'%d'``.

glibc's ``printf("%.17g")`` is exact but slow (multi-precision
arithmetic), slower than Python's.  The C here takes a double ``m * 2^e``
(``m`` normalized to 64 bits), estimates its decimal exponent ``k`` from
``e``, and multiplies ``m`` by ``10^(16 - k)`` truncated to 128 bits, from
a table Python writes from its exact integers when it writes the C text.
The product's integer part holds the 17 significant digits, and its next
64 bits the fraction, which rounds them half to even (Loitsch, PLDI 2010;
Adams, OOPSLA 2019).  Both truncations only lower the product, by less
than 1.25 units of the fraction's last bit, so a fraction more than 4
units away from one half rounds as the exact value does.  Only a
fraction within 4 units of one half (a true tie such as ``2**50 + 0.25``)
and a subnormal go to ``snprintf("%.17g")``, under the C locale.  The
digits are laid out by ``%g``'s rules: exponent style when ``k < -4`` or
``k >= 17``, trailing zeros stripped, at least two exponent digits; every
NaN is ``nan``, as in Python, whatever its sign bit.

``Formatter`` decides when the C pays: as ``simengine._Loop`` does for
the run loop, it counts the rows the caller formats in Python and looks
for the built formatter, then builds it (``native.load``), once those
rows have cost about as much.
"""

import functools

import numpy as np

from . import native

#: trace.csv's fields in order: t, x, x_r, e, edot_hat, theta, theta_hat
#: and u as doubles, Eu and Ed as int8 flags
COLUMNS = ("t", "x", "x_r", "e", "edot_hat", "theta", "theta_hat", "u", "Eu", "Ed")
#: the columns of n values a row; the others hold one
_VECTORS = ("x", "x_r", "theta", "theta_hat")
#: Rows the C writes into the buffer between two writes to the file: a
#: bounded buffer, which a whole trace's text would not be.
BUFFER_ROWS = 256

#: Rows formatted in Python, in one process, before the built formatter is
#: looked for in the cache (asking the compiler's version, writing the C
#: text and loading it, about 10 ms), and before it is built (0.12-0.25 s):
#: about the rows Python formats in that time (5.5-6.6 us a row of a
#: 3-state trace; x86_64, gcc 12).  As in ``simengine._Loop``, either
#: happens only with as many rows left to format, or once twice as many
#: have been formatted in the process.
_LOOKUP_ROWS = 2_000
_BUILD_ROWS = 20_000


def row_bytes(n):
    """The most text a row of an n-state trace takes: 4n + 4 doubles of at
    most 24 characters and a comma each, and two flags of at most 4."""
    return 25 * (4 * n + 4) + 10


def _tables():
    """C arrays of the digit pairs 00..99 and of ``10^q`` for q = -292..324
    (the decimal exponents 16 - k of normal doubles): 128 bits, truncated,
    and their binary exponent."""
    hi, lo, exp = [], [], []
    for q in range(-292, 325):
        if q >= 0:
            shift = (10 ** q).bit_length() - 128
            bits = 10 ** q >> shift if shift > 0 else 10 ** q << -shift
        else:
            shift = -(127 + (10 ** -q).bit_length())
            bits = (1 << -shift) // 10 ** -q
        assert 1 << 127 <= bits < 1 << 128
        hi.append(f"{bits >> 64:#x}u")
        lo.append(f"{bits & (1 << 64) - 1:#x}u")
        exp.append(str(shift))
    rows = [("uint64_t", "POW_HI", hi), ("uint64_t", "POW_LO", lo),
            ("int16_t", "POW_EXP", exp)]
    pairs = "".join(f"{i:02d}" for i in range(100))
    return f'static const char PAIRS[] = "{pairs}";\n' + "".join(
        f"static const {kind} {name}[{len(values)}] = {{\n"
        + "".join(f"    {', '.join(values[i:i + 4])},\n" for i in range(0, len(values), 4))
        + "};\n" for kind, name, values in rows)


_C = r"""
#include <locale.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;

#define E16 10000000000000000ull
#define E17 100000000000000000ull
#define HALF (1ull << 63)

/* the tables */

/* values snprintf formatted: subnormals and near ties */
long long fallbacks;

static char *fallback(char *p, double v)
{
    static locale_t c_locale;
    if (!c_locale)
        c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    locale_t was = uselocale(c_locale);
    p += snprintf(p, 25, "%.17g", v);
    uselocale(was);
    fallbacks++;
    return p;
}

static void put8(char *p, uint32_t x)
{
    uint32_t a = x / 10000, b = x % 10000;
    memcpy(p, PAIRS + 2 * (a / 100), 2);
    memcpy(p + 2, PAIRS + 2 * (a % 100), 2);
    memcpy(p + 4, PAIRS + 2 * (b / 100), 2);
    memcpy(p + 6, PAIRS + 2 * (b % 100), 2);
}

static char *put_double(char *p, double v)
{
    uint64_t bits;
    memcpy(&bits, &v, 8);
    uint64_t frac = bits & ((1ull << 52) - 1);
    int biased = (int)(bits >> 52) & 0x7ff;
    if (biased == 0x7ff && frac) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (biased == 0) {
        if (!frac) {
            *p++ = '0';
            return p;
        }
        return fallback(p, fabs(v));
    }
    /* |v| = m 2^e with m in [2^63, 2^64); k = floor(log10(2^(e + 63))),
       the decimal exponent of |v| or one less */
    uint64_t m = (frac | 1ull << 52) << 11;
    int e = biased - 1075 - 11;
    int k = ((e + 63) * 78913) >> 18;
    uint64_t d, f;
    for (;;) {
        /* |v| 10^(16 - k) = m POW 2^(e + POW_EXP): its integer part d and
           64 bits of fraction f, both only ever too low */
        int i = 16 - k + 292;
        u128 low = (u128)m * POW_LO[i];
        u128 h = (u128)m * POW_HI[i] + (low >> 64);
        int sh = -(64 + e + POW_EXP[i]);
        d = (uint64_t)(h >> sh);
        f = (uint64_t)((h << (128 - sh)) >> 64);
        if (d < E17)
            break;
        k++;   /* the estimate was one low */
    }
    if (f - (HALF - 4) <= 8)   /* too near a tie to tell */
        return fallback(p, fabs(v));
    d += f > HALF;
    if (d == E17) {
        d = E16;
        k++;
    }
    char s[17];
    uint32_t top = (uint32_t)(d / 100000000);
    s[0] = (char)('0' + top / 100000000);
    put8(s + 1, top % 100000000);
    put8(s + 9, (uint32_t)(d % 100000000));
    int nd = 17;
    while (s[nd - 1] == '0')
        nd--;
    if (k < -4 || k >= 17) {
        *p++ = s[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, s + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = k < 0 ? '-' : '+';
        int x = k < 0 ? -k : k;
        if (x >= 100) {
            *p++ = (char)('0' + x / 100);
            x %= 100;
        }
        memcpy(p, PAIRS + 2 * x, 2);
        return p + 2;
    }
    if (k >= 0) {
        memcpy(p, s, k + 1);
        p += k + 1;
        if (nd > k + 1) {
            *p++ = '.';
            memcpy(p, s + k + 1, nd - k - 1);
            p += nd - k - 1;
        }
        return p;
    }
    *p++ = '0';
    *p++ = '.';
    for (int z = -1; z > k; z--)
        *p++ = '0';
    memcpy(p, s, nd);
    return p + nd;
}

static char *put_flag(char *p, int x)
{
    if (x < 0) {
        *p++ = '-';
        x = -x;
    }
    if (x >= 100)
        *p++ = (char)('0' + x / 100);
    if (x >= 10)
        *p++ = (char)('0' + x / 10 % 10);
    *p++ = (char)('0' + x % 10);
    return p;
}

static char *put_doubles(char *p, const double *v, long long count)
{
    for (long long i = 0; i < count; i++) {
        p = put_double(p, v[i]);
        *p++ = ',';
    }
    return p;
}

/* rows [lo, hi) of an n-state trace as trace.csv's text into out; the
   number of bytes written */
long long trace_rows(char *out, long long lo, long long hi, long long n,
                     const double *t, const double *x, const double *x_r,
                     const double *e, const double *edot_hat, const double *theta,
                     const double *theta_hat, const double *u,
                     const signed char *Eu, const signed char *Ed)
{
    char *p = out;
    for (long long k = lo; k < hi; k++) {
        p = put_doubles(p, t + k, 1);
        p = put_doubles(p, x + k * n, n);
        p = put_doubles(p, x_r + k * n, n);
        p = put_doubles(p, e + k, 1);
        p = put_doubles(p, edot_hat + k, 1);
        p = put_doubles(p, theta + k * n, n);
        p = put_doubles(p, theta_hat + k * n, n);
        p = put_doubles(p, u + k, 1);
        p = put_flag(p, Eu[k]);
        *p++ = ',';
        p = put_flag(p, Ed[k]);
        *p++ = '\n';
    }
    return p - out;
}
"""


@functools.cache
def c_source():
    """The formatter's C text: the fixed code with its tables."""
    return _C.replace("/* the tables */\n", _tables())


def _require_rows(columns, n, lo, hi, buffer):
    """ValueError unless ``columns`` are the ``COLUMNS`` of an n-state trace
    as C-contiguous arrays (float64, int8 for the flags) of one length that
    holds rows lo to hi, and ``buffer`` is ``buffer(n)``'s kind of array."""
    t = columns[0] if columns else None
    rows = len(t) if isinstance(t, np.ndarray) and t.ndim == 1 else -1
    if not (len(columns) == len(COLUMNS) and n >= 1 and 0 <= lo <= hi <= rows
            and all(isinstance(c, np.ndarray) and c.flags.c_contiguous
                    and c.dtype == (np.int8 if key in ("Eu", "Ed") else np.float64)
                    and c.shape == ((rows, n) if key in _VECTORS else (rows,))
                    for c, key in zip(columns, COLUMNS))
            and isinstance(buffer, np.ndarray) and buffer.dtype == np.uint8
            and buffer.flags.c_contiguous and buffer.flags.writeable
            and buffer.shape == (BUFFER_ROWS * row_bytes(n),)):
        raise ValueError(f"the trace columns cannot give rows {lo} to {hi}")


def buffer(n):
    """The byte array ``Native.write`` fills for an n-state trace."""
    return np.empty(BUFFER_ROWS * row_bytes(n), dtype=np.uint8)


class Native:
    """The C formatter of the library ``lib``."""

    def __init__(self, lib):
        import ctypes

        self.fn = lib.trace_rows
        self.fn.restype = ctypes.c_longlong
        self.fn.argtypes = ([ctypes.c_void_p] + [ctypes.c_longlong] * 3
                            + [ctypes.c_void_p] * len(COLUMNS))
        self.fallbacks = ctypes.c_longlong.in_dll(lib, "fallbacks")

    def write(self, out, trace, n, lo, hi, buffer):
        """Write rows [lo, hi) of the n-state ``trace`` to the binary file
        ``out``, ``BUFFER_ROWS`` rows at a time through ``buffer``
        (``buffer(n)``), once ``_require_rows`` has passed them."""
        columns = [trace[key] for key in COLUMNS]
        _require_rows(columns, n, lo, hi, buffer)
        pointers = [c.ctypes.data for c in columns]
        address, view = buffer.ctypes.data, buffer.data
        for a in range(lo, hi, BUFFER_ROWS):
            size = self.fn(address, a, min(a + BUFFER_ROWS, hi), n, *pointers)
            out.write(view[:size])


class Formatter:
    """Where the trace text is formatted: in Python until ``rows``, the
    rows formatted there, repay the C, then in C (``native``).

    ``choose`` looks for the built formatter once, then builds it; without
    a compiler, or when the look or the build fails, ``native_error`` says
    why, and Python formats every row from then on.
    """

    def __init__(self):
        self.rows = 0
        self.native = None
        self.looked = False
        self.native_error = None

    def choose(self, rows_left):
        """``native``, or None while the caller formats in Python (and adds
        the rows it formats to ``rows``); ``rows_left``: the rows it has
        still to format."""
        if self.native is not None or self.native_error is not None:
            return self.native
        build = native.repaid(self.rows, _BUILD_ROWS, rows_left)
        # one look in the cache, then, if it missed, one build
        if native.repaid(self.rows, _LOOKUP_ROWS, rows_left) and (not self.looked or build):
            self.looked = True
            try:
                native.compiler()   # no C text is made without one
                lib = native.load(c_source(), build)
            except native.BuildError as exc:
                self.native_error = str(exc)
            else:
                if lib is not None:
                    self.native = Native(lib)
        return self.native


#: The process's formatter: its Python rows count for every trace written.
FORMATTER = Formatter()
