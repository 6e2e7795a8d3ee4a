"""Hot representing functions compiled to C.

A search runs a fast source on Python first (see interp).  Once the
evaluations a source has run in this process pass HOT_RUNS, its C
translation is built with `cc` and every later restart binds that
runner and line search instead, through `ctypes`.  The Python flavour is
the specification: the C text is the same walk of the program
(interp._Source) spelled in C by CSource, its builtins keep the Python
flavour's semantics, not C's, and its line search is the C text of
interp._SEARCH.  So a search gives the same values, counts and results
on either backend.

Four parts:

* `_PRELUDE`, the builtins, the aborts and the runner's state;
* `_SEARCH`, the evaluation and the line search, in C;
* `build`, which compiles C texts in one `cc` call into a temporary
  directory deleted right after the library is loaded; the library
  stays mapped for the life of the process.  Without `cc`, or when the
  build fails or takes longer than BUILD_TIMEOUT_S, each source stays on
  Python for the rest of the process;
* `Hot.bind`, the ctypes glue of one objective, which counts on it as
  the Python runner does.

`import mexec` loads neither this module nor `ctypes` nor `subprocess`:
they are imported when a fast source is first bound.
"""

import math
import os
import sys
from functools import cache

from .interp import _Source
from .lang import Assign, walk
from .optimize import _CGOLD, _TINY, SENTINEL

# evaluations a source runs on Python before its C build: about the
# Python time one build takes (see README, "Compiled search")
HOT_RUNS = 50_000
BUILD_TIMEOUT_S = 60
# no FMA contraction and no libm call folded at compile time: every
# operation rounds as the Python flavour's does
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared",
          "-w")
# a step budget past any count a run reaches, which a long long holds
_BUDGET_CAP = 2 ** 62

# The builtins and arithmetic of interp, spelled so that every value is
# the Python flavour's: CPython 3.11's `math` maps a NaN from a non-NaN
# argument to a domain error and an infinity from a finite one to an
# overflow (only `exp`, which gives +inf) or a pole, and interp maps a
# domain error or a pole to NaN; so `log(0)` is NaN, `pow(0, -1)` is
# NaN but `pow(0, -inf)` is inf.  `floor(-0.0)` is +0.0, as Python's
# int does, and `hiword`/`loword` of NaN are NaN.
_PRELUDE = r"""
#include <setjmp.h>

double sin(double), cos(double), tan(double), exp(double), log(double),
    sqrt(double), pow(double, double);

#define MX_NAN __builtin_nan("")
#define MX_INF __builtin_inf()
#define MX_SENTINEL @SENTINEL@

struct mx_run {
    double eps;
    long long budget;
    const int *sat, *tl, *tt;
    double t, f;
    long long ne, nr;
    int above;
    double mr, m[MX_N + 1], lo[MX_N + 1], hi[MX_N + 1];
};

static double _r, _eps;
static long long _n, _B;
static int _c;
static const int *_sat, *_tl, *_tt;
static sigjmp_buf mx_jump;

static void mx_abort(void) __attribute__((noreturn));
static void mx_abort(void) { siglongjmp(mx_jump, 1); }

static double mx_math(double r, double x, int can_overflow) {
    if (r != r && x == x) return MX_NAN;
    if (__builtin_isinf(r) && __builtin_isfinite(x))
        return can_overflow ? MX_INF : MX_NAN;
    return r;
}

static double _b_sin(double x) { return mx_math(sin(x), x, 0); }
static double _b_cos(double x) { return mx_math(cos(x), x, 0); }
static double _b_tan(double x) { return mx_math(tan(x), x, 0); }
static double _b_exp(double x) { return mx_math(exp(x), x, 1); }
static double _b_log(double x) { return mx_math(log(x), x, 0); }
static double _b_sqrt(double x) { return mx_math(sqrt(x), x, 0); }
static double _b_fabs(double x) { return __builtin_fabs(x); }
static double _b_floor(double x) { return __builtin_floor(x) + 0.0; }

static double _b_pow(double a, double b) {
    double r = pow(a, b);
    if (__builtin_isfinite(a) && __builtin_isfinite(b)
            && !__builtin_isfinite(r)) {
        /* Python's ValueError, a domain error or the pole of 0 ^ -y */
        if (r != r || a == 0.0) return MX_NAN;
        /* its OverflowError: negative only for an odd integer power */
        if (a < 0.0 && b == __builtin_trunc(b)
                && __builtin_fmod(__builtin_fabs(b), 2.0) == 1.0)
            return -MX_INF;
        return MX_INF;
    }
    return r;
}
#define _pow _b_pow

static double _div(double a, double b) {
    if (b == 0.0) {
        if (a == 0.0 || a != a) return MX_NAN;
        return __builtin_copysign(MX_INF, a) * __builtin_copysign(1.0, b);
    }
    return a / b;
}

static double mx_word(double x, int shift) {
    union { double d; unsigned long long u; } w;
    if (x != x) return x;
    w.d = x;
    return (double)((w.u >> shift) & 0xffffffffULL);
}
static double _b_hiword(double x) { return mx_word(x, 32); }
static double _b_loword(double x) { return mx_word(x, 0); }
"""

# interp's runner and interp._SEARCH in C: `mx_eval` is one evaluation
# at x + t*d, counted on *ne and *nr, with the runner's last point and
# value kept in `run`; `mx_search` is the line search from f0, which
# leaves (t, value at t, whether the bracket's mid is above its lo) and
# its counts in `run`.  The two compare and assign as the Python ones
# do, in the same order, so each rounds the same.
_SEARCH = r"""
static double mx_eval(struct mx_run *run, const double *x, const double *d,
                      double t, long long *ne, long long *nr) {
    double v[MX_N + 1];
    int i, same = MX_N > 0;
    for (i = 0; i < MX_N; i++) v[i] = x[i] + t * d[i];
    ++*ne;
    for (i = 0; i < MX_N; i++) {
        if (v[i] < run->lo[i]) v[i] = run->lo[i];
        if (v[i] > run->hi[i]) v[i] = run->hi[i];
        same = same && v[i] == run->m[i]
            && (v[i] != 0.0
                || !__builtin_signbit(v[i]) == !__builtin_signbit(run->m[i]));
    }
    if (same) {
        ++*nr;
        return run->mr;
    }
    if (mx_core(run, v)) return MX_SENTINEL;
    for (i = 0; i < MX_N; i++) run->m[i] = v[i];
    run->mr = -@MAX@ <= _r && _r <= MX_SENTINEL ? _r : MX_SENTINEL;
    return run->mr;
}

static void mx_run_search(struct mx_run *run, const double *x0,
                          const double *d0, double f0, double xtol,
                          double growth) {
    long long ne = 0, nr = 0;
    double a = 0.0, fa = f0, b = 0.0, fb = 0.0, c = 1.0, fc;
    double lo, flo, hi, fhi, x, w, v, fx, fw, fv, d, e, e_prev;
    double xm, tol1, tol2, p, q, r, u, fu;
    int k = -1, above, rounds, i, golden;
    for (;;) {
        fc = mx_eval(run, x0, d0, c, &ne, &nr);
        if (k < 0) {
            if (fc > fa) {
                b = a; fb = fa; a = c; fa = fc;
            } else {
                b = c; fb = fc;
            }
        } else if (fc < fb && k < 80) {
            a = b; fa = fb; b = c; fb = fc;
        } else {
            break;
        }
        k += 1;
        c = b + growth * (b - a);
    }
    if (a < c) {
        lo = a; flo = fa; hi = c; fhi = fc;
    } else {
        lo = c; flo = fc; hi = a; fhi = fa;
    }
    above = fb > flo;
    x = w = v = b;
    fx = fw = fv = fb;
    rounds = 100;
    if (!(lo <= b && b <= hi) || !(lo < hi) || above || fb > fhi) {
        x = 0.0; fx = f0; rounds = 0;
    }
    a = lo; b = hi;
    d = e = 0.0;
    for (i = 0; i < rounds; i++) {
        xm = 0.5 * (a + b);
        tol1 = xtol * __builtin_fabs(x) + @TINY@;
        tol2 = 2.0 * tol1;
        if (__builtin_fabs(x - xm) <= tol2 - 0.5 * (b - a)) break;
        golden = 1;
        if (__builtin_fabs(e) > tol1) {
            r = (x - w) * (fx - fv);
            q = (x - v) * (fx - fw);
            p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if (q > 0.0) p = -p;
            q = __builtin_fabs(q);
            e_prev = e;
            e = d;
            if (__builtin_fabs(p) < __builtin_fabs(0.5 * q * e_prev)
                    && p > q * (a - x) && p < q * (b - x)) {
                d = p / q;
                u = x + d;
                if (u - a < tol2 || b - u < tol2)
                    d = __builtin_copysign(tol1, xm - x);
                golden = 0;
            }
        }
        if (golden) {
            e = x < xm ? b - x : a - x;
            d = @CGOLD@ * e;
        }
        u = __builtin_fabs(d) >= tol1 ? x + d
            : x + __builtin_copysign(tol1, d);
        fu = mx_eval(run, x0, d0, u, &ne, &nr);
        if (fu <= fx) {
            if (u >= x) a = x; else b = x;
            v = w; w = x; x = u;
            fv = fw; fw = fx; fx = fu;
        } else {
            if (u < x) a = u; else b = u;
            if (fu <= fw || w == x) {
                v = w; w = u;
                fv = fw; fw = fu;
            } else if (fu <= fv || v == x || v == w) {
                v = u; fv = fu;
            }
        }
    }
    run->t = x;
    run->f = fx;
    run->above = above;
    run->ne = ne;
    run->nr = nr;
}
""".replace("@MAX@", sys.float_info.max.hex()).replace(
    "@TINY@", _TINY.hex()).replace("@CGOLD@", _CGOLD.hex())


class CSource(_Source):
    """The C text of a fast source: interp._Source's walk, spelled in C.

    The program's functions become static C functions of the same
    names on doubles (`_dp` a long long), and the runner's state, the
    globals of the Python namespace, are file statics.  Every abort is
    `mx_abort()`, a long jump back to the evaluation, which reports the
    sentinel.
    """

    HEADS = {"def": "static double {} {{", "if": "if ({}) {{",
             "elif": "else if ({}) {{", "else": "else {{",
             "loop": "for (;;) {{"}
    END = "}"
    EMPTY = None
    STATEMENT = "{};"
    CHOOSE = "({test} ? {yes} : {no})"
    RAISE = "if ({test}) mx_abort();"
    EXIT_UNLESS = "if (!({test})) break;"
    TICK = ("_n += {count};", "if (_n > _B) mx_abort();")
    NAN_CHECK = "if (_a != _a || _b != _b) mx_abort();"

    def __init__(self, mode, guards):
        super().__init__(mode, False, guards)
        self.arity = 0

    def literal(self, value):
        # a literal is finite or, past the double range, inf
        if math.isinf(value):
            return "MX_INF" if value > 0 else "(-MX_INF)"
        text = value.hex()
        return f"({text})" if text.startswith("-") else text

    def signature(self, fn):
        params = (["long long _dp"] if self.guards else []) + [
            f"double v_{name}" for name, _kind in fn.params]
        return f"f_{fn.name}({', '.join(params) or 'void'})"

    def declare(self, fn):
        params = {name for name, _kind in fn.params}
        names = sorted({node.target.name for node in walk(fn)
                        if isinstance(node, Assign)} - params)
        self.emit("double _a, _b" + "".join(f", v_{name} = 0.0"
                                            for name in names) + ";")
        self.emit("int _k;")

    def program(self, program, entry, arity):
        for fn in program.functions:
            self.emit(f"static double {self.signature(fn)};")
        super().program(program, entry, arity)

    def runner(self, params, core, shared=()):
        """Emit `mx_core`, which runs `core` on the clamped inputs and
        returns 1 on an abort, and `mx_line` and `mx_search`, the
        exported runner and line search on `params`' scalars."""
        n = self.arity = len(params)
        self.emit("static int mx_core(const struct mx_run *run, "
                  "const double *mx_v) {")
        self.indent += 1
        self.emit("const int *_s = run->sat;")
        self.emit("double _a, _b;")
        self.emit("int _k;")
        for i, v in enumerate(params):
            self.emit(f"double {v} = mx_v[{i}];")
        self.emit("_eps = run->eps; _B = run->budget; "
                  "_tl = run->tl; _tt = run->tt;")
        self.emit("if (sigsetjmp(mx_jump, 0)) return 1;")
        for line in core:
            self.emit(line)
        self.emit("return 0;")
        self.indent -= 1
        self.emit("}")
        self.lines += _SEARCH.splitlines()
        xs = [f"x{i}" for i in range(n)]
        ds = [f"d{i}" for i in range(n)]
        arrays = (f"double x[MX_N + 1] = {{{', '.join(xs) or '0'}}}, "
                  f"d[MX_N + 1] = {{{', '.join(ds) or '0'}}};")
        scalars = "".join(f", double {v}" for v in xs + ds)
        self.lines += [
            f"double mx_line(struct mx_run *run{scalars}, double t) {{",
            f"    {arrays}",
            "    long long ne = 0;",
            "    run->nr = 0;",
            "    return mx_eval(run, x, d, t, &ne, &run->nr);",
            "}"]
        if n:
            self.lines += [
                f"void mx_search(struct mx_run *run{scalars}, double f0, "
                "double xtol, double growth) {",
                f"    {arrays}",
                "    mx_run_search(run, x, d, f0, xtol, growth);",
                "}"]

    def text(self):
        """The whole C text: prelude, functions and runner."""
        prelude = _PRELUDE.replace("@SENTINEL@", SENTINEL.hex())
        return (f"#define MX_N {self.arity}\n{prelude}\n"
                + "\n".join(self.lines) + "\n")


class Hot:
    """One fast source or constraint of this process and its C build.

    `bind` counts the evaluations run by the objectives it bound on
    Python; past HOT_RUNS it builds the C text `text()` once, and from
    then on binds the C runner.  `lib` is None before the build, False
    after one that failed, else (line, search, run type).
    """

    def __init__(self, arity, text):
        self.arity = arity
        self.text = text
        self.runs = 0
        self.watched = []
        self.lib = None

    def bind(self, objective, box, table, epsilon, budget, target):
        """(line, search) of the C runner for `objective`, as interp's
        `_bind` gives them, or None while the source stays on Python."""
        if self.lib is None:
            self.runs += sum(o.run_count for o in self.watched)
            self.watched.clear()
            if self.runs >= HOT_RUNS:
                build([self])
            else:
                self.watched.append(objective)
        if not self.lib:
            return None
        return _glue(self.lib, objective, box, table, epsilon, budget,
                     target)


def build(hots):
    """Build the C text of each of `hots` in one `cc` call and set its
    `lib`, False where no build is made: without `cc`, or if it fails or
    times out."""
    import ctypes
    import shutil
    import signal
    import subprocess
    import tempfile
    for hot in hots:
        hot.lib = False
    cc = shutil.which("cc")
    if cc is None:
        return
    try:
        with tempfile.TemporaryDirectory(prefix="mexec-") as tmp:
            sources = []
            for k, hot in enumerate(hots):
                sources.append(os.path.join(tmp, f"u{k}.c"))
                with open(sources[-1], "w", encoding="ascii") as out:
                    out.write(f"#define mx_line mx_line_{k}\n"
                              f"#define mx_search mx_search_{k}\n"
                              + hot.text())
            library = os.path.join(tmp, "mexec.so")
            # the compiler's own temporary files go into `tmp` too, and
            # a build that overruns is stopped with every process it
            # started
            with subprocess.Popen(
                    [cc, *CFLAGS, "-o", library, *sources, "-lm"], cwd=tmp,
                    env=dict(os.environ, TMPDIR=tmp), start_new_session=True,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL) as compiler:
                try:
                    failed = compiler.wait(timeout=BUILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    os.killpg(compiler.pid, signal.SIGKILL)
                    raise
            if failed:
                return
            lib = ctypes.PyDLL(library)
    except (OSError, subprocess.SubprocessError):
        return
    double, pointer = ctypes.c_double, ctypes.c_void_p
    for k, hot in enumerate(hots):
        n = hot.arity
        line = getattr(lib, f"mx_line_{k}")
        line.argtypes = [pointer] + [double] * (2 * n + 1)
        line.restype = double
        search = None
        if n:
            search = getattr(lib, f"mx_search_{k}")
            search.argtypes = [pointer] + [double] * (2 * n + 3)
            search.restype = None
        hot.lib = (line, search, _run_type(n), lib)


@cache
def _run_type(n):
    """The ctypes mirror of `struct mx_run` for n inputs."""
    import ctypes
    double, wide = ctypes.c_double, ctypes.c_longlong
    pointer = ctypes.POINTER(ctypes.c_int)

    class Run(ctypes.Structure):
        _fields_ = [("eps", double), ("budget", wide), ("sat", pointer),
                    ("tl", pointer), ("tt", pointer), ("t", double),
                    ("f", double), ("ne", wide), ("nr", wide),
                    ("above", ctypes.c_int), ("mr", double),
                    ("m", double * (n + 1)), ("lo", double * (n + 1)),
                    ("hi", double * (n + 1))]
    return Run


def _glue(lib, objective, box, table, epsilon, budget, target):
    """The C runner and line search bound to `objective`: each counts on
    it as interp's `_line` and `_search` do, and the two share one last
    point, which starts as NaN."""
    import ctypes
    c_line, c_search, run_type, _lib = lib
    n = len(box)
    run = run_type(eps=epsilon, budget=min(budget, _BUDGET_CAP), mr=math.nan)
    tables = {"sat": table}
    if target is not None:
        # the path cursor's labels end in one no label matches
        tables["tl"] = [label for label, _side in target] + [-1]
        tables["tt"] = [side == "T" for _label, side in target]
    for field, values in tables.items():
        if values is not None:
            # `run` keeps the array it points into
            setattr(run, field, (ctypes.c_int * (len(values) + 1))(*values))
    for i, (lo, hi) in enumerate(box):
        run.m[i], run.lo[i], run.hi[i] = math.nan, lo, hi
    address = ctypes.addressof(run)
    zeros = (0.0,) * n

    def line(x, d, t):
        try:
            value = c_line(address, *x, *d, t)
        except ctypes.ArgumentError:
            # what the Python runner raises on such a point, or its value
            point = [float(xi + t * di) for xi, di in zip(x, d)]
            value = c_line(address, *point, *zeros, -0.0)
        objective.eval_count += 1
        if run.nr:
            objective.reuse_count += 1
        return value

    def search(x, d, f0, xtol, growth):
        c_search(address, *x, *d, f0, xtol, growth)
        objective.eval_count += run.ne
        objective.reuse_count += run.nr
        return run.t, run.f, run.above != 0

    return line, search if n else None
