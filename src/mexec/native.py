"""Hot representing functions compiled to C.

A search runs a fast source on Python first (see interp).  Once the
evaluations a source has run in this process pass HOT_RUNS, its C
translation is built with `cc` and every later restart binds that
runner, line search and Powell instead, through `ctypes`.  The Python
code is the specification: the C text is the same walk of the program
(interp._Source) spelled in C by CSource, its builtins keep the Python
flavour's semantics, not C's, its line search is the C text of
interp._SEARCH, and its Powell that of optimize.powell_minimize and
_line_minimize, with the record of line searches in C.  So a search
gives the same values, counts and results on either backend.

Four parts:

* `_PRELUDE`, the builtins, the aborts and the runner's state;
* `_SEARCH` and `_POWELL`, evaluation, line search and Powell in C;
* `build`, which compiles C texts in one `cc` call into a temporary
  directory deleted right after the library is loaded; the library
  stays mapped for the life of the process.  Without `cc`, or when the
  build fails or takes longer than BUILD_TIMEOUT_S, each source stays on
  Python for the rest of the process;
* `Hot.bind`, the ctypes glue of one objective, which counts on it as
  the Python runner and Powell do.

`import mexec` loads neither this module nor `ctypes` nor `subprocess`:
they are imported when a fast source is first bound.
"""

import math
import os
import sys
from functools import cache

from .interp import _Source
from .lang import Assign, walk
from .optimize import _CGOLD, _TINY, BRACKET_GROWTH, SENTINEL

# evaluations a source runs on Python before its C build: about the
# Python time one build takes (see README, "Compiled search")
HOT_RUNS = 50_000
BUILD_TIMEOUT_S = 60
# no FMA contraction and no libm call folded at compile time: every
# operation rounds as the Python flavour's does
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared",
          "-w")
# a step budget or Powell round count past any a run reaches, in a long long
_BUDGET_CAP = 2 ** 62
# the functions each C text exports; the last two only with inputs
_EXPORTS = ("mx_line", "mx_search", "mx_powell")

# The builtins and arithmetic of interp, spelled so that every value is
# the Python flavour's: CPython 3.11's `math` maps a NaN from a non-NaN
# argument to a domain error and an infinity from a finite one to an
# overflow (only `exp`, which gives +inf) or a pole, and interp maps a
# domain error or a pole to NaN; so `log(0)` is NaN, `pow(0, -1)` is
# NaN but `pow(0, -inf)` is inf.  `floor(-0.0)` is +0.0, as Python's
# int does, and `hiword`/`loword` of NaN are NaN.
_PRELUDE = r"""
#include <setjmp.h>
#include <stdlib.h>
#include <string.h>

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
    double mr, m[MX_N + 1], lo[MX_N + 1], hi[MX_N + 1], px[MX_N + 1];
    struct mx_rec *recs;
    long long nrec, cap;
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

# optimize.powell_minimize and _line_minimize in C, with the evaluation
# and the line search above: `mx_line_min` answers a line search run
# before from the record `run->recs`, an open-addressed table keyed by
# the exact bits of x, d and xtol that lives as long as `run`, and
# `mx_powell` runs from the point `run->px`, leaving there its point and
# its value and counts in `run`.  Powell's `** 2` is libm's pow, which
# CPython's float `**` calls.  Both return 1 when the record finds no
# memory.
_POWELL = r"""
#define MX_KEY (2 * MX_N + 1)

struct mx_rec {
    double key[MX_KEY], x[MX_N + 1], f, decrease;
    long long requests;     /* 0 in an empty slot */
};

static const double mx_zeros[MX_N + 1];

static struct mx_rec *mx_slot(struct mx_rec *recs, long long cap,
                              const double *key) {
    unsigned long long h = 14695981039346656037ULL, w;
    long long i;
    for (i = 0; i < MX_KEY; i++) {
        memcpy(&w, key + i, sizeof w);
        h = (h ^ w) * 1099511628211ULL;
        h ^= h >> 31;
    }
    i = h & (cap - 1);
    while (recs[i].requests && memcmp(recs[i].key, key, sizeof recs[i].key))
        i = (i + 1) & (cap - 1);
    return recs + i;
}

static int mx_grow(struct mx_run *run) {
    long long cap = run->cap ? 2 * run->cap : 16, i;
    struct mx_rec *recs = calloc(cap, sizeof *recs);
    if (!recs) return 1;
    for (i = 0; i < run->cap; i++)
        if (run->recs[i].requests)
            *mx_slot(recs, cap, run->recs[i].key) = run->recs[i];
    free(run->recs);
    run->recs = recs; run->cap = cap;
    return 0;
}

static int mx_line_min(struct mx_run *run, double *x, const double *d,
                       double xtol, double *fx, double *decrease,
                       long long *ne, long long *nr) {
    double key[MX_KEY], f0;
    long long requested = *ne;
    struct mx_rec *rec;
    int i, held, kept;
    memcpy(key, x, MX_N * sizeof *x);
    memcpy(key + MX_N, d, MX_N * sizeof *d);
    key[2 * MX_N] = xtol;
    if (2 * (run->nrec + 1) > run->cap && mx_grow(run)) return 1;
    rec = mx_slot(run->recs, run->cap, key);
    if (rec->requests) {
        *ne += rec->requests; *nr += rec->requests;
    } else {
        f0 = mx_eval(run, x, mx_zeros, -0.0, ne, nr);
        mx_run_search(run, x, d, f0, xtol, @GROWTH@);
        held = run->above ? 3 : 4;
        *ne += run->ne + held;
        *nr += run->nr + held;
        kept = run->f >= f0;
        memcpy(rec->key, key, sizeof key);
        for (i = 0; i < MX_N; i++)
            rec->x[i] = kept ? x[i] : x[i] + run->t * d[i];
        rec->f = kept ? f0 : run->f;
        rec->decrease = f0 - rec->f;
        rec->requests = *ne - requested;
        run->nrec++;
    }
    for (i = 0; i < MX_N; i++) x[i] = rec->x[i];
    *fx = rec->f;
    *decrease = rec->decrease;
    return 0;
}

int mx_powell(struct mx_run *run, double xtol, double ftol,
              long long rounds, int nonnegative) {
    double *x = run->px, dirs[MX_N][MX_N + 1], start[MX_N + 1];
    double nd[MX_N + 1], fx, f_start, f_e, biggest, decrease, t;
    long long ne = 0, nr = 0, k;
    int i, j, at, moved, failed = 1;
    fx = mx_eval(run, x, mx_zeros, -0.0, &ne, &nr);
    if (nonnegative && fx == 0.0) goto done;
    for (k = 0; k < rounds; k++) {
        /* the axes, at the start and after every 2n rounds */
        if (k % (2 * MX_N) == 0)
            for (i = 0; i < MX_N; i++)
                for (j = 0; j < MX_N; j++) dirs[i][j] = i == j ? 1.0 : 0.0;
        f_start = fx;
        for (i = 0; i < MX_N; i++) start[i] = x[i];
        biggest = 0.0; at = 0;
        for (i = 0; i < MX_N; i++) {
            if (mx_line_min(run, x, dirs[i], xtol, &fx, &decrease, &ne, &nr))
                goto fail;
            if (nonnegative && fx == 0.0) goto done;
            if (decrease > biggest) {
                biggest = decrease; at = i;
            }
        }
        if (2.0 * (f_start - fx) <= ftol * (__builtin_fabs(f_start)
                                            + __builtin_fabs(fx)) + @TINY@)
            break;
        if (f_start < @GUARD@ && fx < @GUARD@) {
            for (i = 0; i < MX_N; i++) nd[i] = 2.0 * x[i] - start[i];
            f_e = mx_eval(run, nd, mx_zeros, -0.0, &ne, &nr);
            if (f_e < f_start) {
                t = (2.0 * (f_start - 2.0 * fx + f_e)
                     * pow(f_start - fx - biggest, 2.0)
                     - biggest * pow(f_start - f_e, 2.0));
                if (t < 0.0) {
                    moved = 0;
                    for (i = 0; i < MX_N; i++) {
                        nd[i] = x[i] - start[i];
                        moved = moved || nd[i] != 0.0;
                    }
                    if (moved) {
                        if (mx_line_min(run, x, nd, xtol, &fx, &decrease,
                                        &ne, &nr))
                            goto fail;
                        if (nonnegative && fx == 0.0) goto done;
                        for (i = 0; i < MX_N; i++) dirs[at][i] = nd[i];
                    }
                }
            }
        }
    }
done:
    failed = 0;
fail:
    run->f = fx; run->ne = ne; run->nr = nr;
    return failed;
}
""".replace("@TINY@", _TINY.hex()).replace(
    "@GROWTH@", BRACKET_GROWTH.hex()).replace("@GUARD@", (1e150).hex())


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
        returns 1 on an abort, and `mx_line`, `mx_search` and
        `mx_powell`, the exported runner, line search and Powell on
        `params`' scalars."""
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
            self.lines += _POWELL.splitlines() + [
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
    after one that failed, else (line, search, powell, run type, library).
    The C arrays of the last saturation table bound and of each path
    target are kept for the next bind.
    """

    def __init__(self, arity, text):
        self.arity = arity
        self.text = text
        self.runs = 0
        self.watched = []
        self.lib = None
        self.table = self.sat = None
        self.targets = {}

    def bind(self, objective, box, table, epsilon, budget, target):
        """(line, search, powell) of the C runner for `objective`, or
        None while the source stays on Python."""
        if self.lib is None:
            self.runs += sum(o.run_count for o in self.watched)
            self.watched.clear()
            if self.runs >= HOT_RUNS:
                build([self])
            else:
                self.watched.append(objective)
        if not self.lib:
            return None
        if table is not None and table != self.table:
            # a table changes only on an admission
            self.table, self.sat = table, _ints(table)
        if target is not None and target not in self.targets:
            # the path cursor's labels end in one no label matches
            self.targets[target] = (
                _ints([label for label, _side in target] + [-1]),
                _ints([side == "T" for _label, side in target]))
        return _glue(self.lib, objective, box,
                     None if table is None else self.sat,
                     self.targets.get(target), epsilon, budget)


def _ints(values):
    import ctypes
    return (ctypes.c_int * (len(values) + 1))(*values)


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
                    out.write("".join(f"#define {name} {name}_{k}\n"
                                      for name in _EXPORTS) + hot.text())
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
        line, search, powell = (getattr(lib, f"{name}_{k}", None)
                                for name in _EXPORTS)
        line.argtypes = [pointer] + [double] * (2 * n + 1)
        line.restype = double
        if n:
            search.argtypes = [pointer] + [double] * (2 * n + 3)
            search.restype = None
            powell.argtypes = [pointer, double, double, ctypes.c_longlong,
                               ctypes.c_int]
            powell.restype = ctypes.c_int
        hot.lib = (line, search, powell, _run_type(n), lib)


@cache
def _run_type(n):
    """The ctypes mirror of `struct mx_run` for n inputs, which frees
    its line-search record with it."""
    import ctypes
    double, wide = ctypes.c_double, ctypes.c_longlong
    pointer = ctypes.POINTER(ctypes.c_int)
    free = ctypes.CDLL(None).free
    free.argtypes, free.restype = [ctypes.c_void_p], None

    class Run(ctypes.Structure):
        _fields_ = [("eps", double), ("budget", wide), ("sat", pointer),
                    ("tl", pointer), ("tt", pointer), ("t", double),
                    ("f", double), ("ne", wide), ("nr", wide),
                    ("above", ctypes.c_int), ("mr", double),
                    ("m", double * (n + 1)), ("lo", double * (n + 1)),
                    ("hi", double * (n + 1)), ("px", double * (n + 1)),
                    ("recs", ctypes.c_void_p), ("nrec", wide),
                    ("cap", wide)]

        def __del__(self):
            free(self.recs)
    return Run


def _glue(lib, objective, box, sat, path, epsilon, budget):
    """The C runner, line search and Powell bound to `objective`, on the
    saturation table `sat` and the path target `path`, C arrays or None:
    each counts on it as interp's `_line` and `_search` and optimize's
    `powell_minimize` do, and they share one last point, which starts as
    NaN.  Powell's record of line searches lives as long as the three."""
    import ctypes
    c_line, c_search, c_powell, run_type, _lib = lib
    n = len(box)
    run = run_type(eps=epsilon, budget=min(budget, _BUDGET_CAP), mr=math.nan)
    # `run` keeps the arrays it points into
    if sat is not None:
        run.sat = sat
    if path is not None:
        run.tl, run.tt = path
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

    if not n:
        return line, None, None

    def search(x, d, f0, xtol, growth):
        c_search(address, *x, *d, f0, xtol, growth)
        objective.eval_count += run.ne
        objective.reuse_count += run.nr
        return run.t, run.f, run.above != 0

    def powell(x, cfg):
        """powell_minimize(objective, x, cfg) from the float point x."""
        run.px[:n] = x
        if c_powell(address, float(cfg.xtol), float(cfg.ftol),
                    min(cfg.max_rounds, _BUDGET_CAP), objective.nonnegative):
            raise MemoryError("no memory for the record of line searches")
        objective.eval_count += run.ne
        objective.reuse_count += run.nr
        return run.px[:n], run.f

    powell.run = run
    return line, search, powell
