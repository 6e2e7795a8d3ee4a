"""Span tracing of the mexec layers, from outside the package.

`Tracer.install` replaces the public functions of each module with
wrappers that record a span (name, start, end, parent) per call.  Names
are patched where they are looked up: `driver` calls its own
`execute`, `build_cfg`, `basinhopping` and `Objective` bindings, and
`interp` calls its own `pen` binding.  `Tracer.uninstall` restores the
originals, so an untraced run executes the unmodified package.

Spans are kept in flat arrays and written out at the end.  A span's
self time is its duration minus the part its child spans cover.  The
coverage penalty `pen` runs once per labeled conditional, so it is
recorded as a leaf: its calls and time are summed and charged to the
enclosing span, but no span is stored per call.
"""

import gzip
import time
from array import array
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self, keep_spans=True):
        self.keep_spans = keep_spans
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.calls = defaultdict(int)       # name -> calls
        self.total = defaultdict(float)     # name -> summed duration
        self.self_time = defaultdict(float)  # name -> summed self time
        self.counters = defaultdict(int)    # derived counts, see install
        self._stack = []                    # [span index, child time]
        self._open = {"powell": 0, "snap": 0}   # spans open right now
        self._patched = []

    # -- recording

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, on_exit=None):
        """Wrap `fn` so that each call records a span called `name`.
        `on_exit(args, result)` runs after the span closes."""
        sid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = -1
            if self.keep_spans:
                idx = len(self.span_start)
                self.span_name.append(sid)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if idx >= 0:
                    self.span_start[idx] = start
                    self.span_end[idx] = end
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    def leaf(self, name, fn):
        """Wrap a hot leaf function: count calls and time, no spans."""
        stack = self._stack

        def traced(*args):
            start = clock()
            result = fn(*args)
            duration = clock() - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration
            if stack:
                stack[-1][1] += duration
            return result

        return traced

    # -- patching

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, mx):
        """Patch the layers of the mexec package held in namespace `mx`."""
        counters = self.counters

        def depth_span(name, fn, key, on_exit=None):
            inner = self.span(name, fn, on_exit)

            def traced(*args, **kwargs):
                self._open[key] += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._open[key] -= 1
            return traced

        # front end, used during set-up
        self._patch(mx.lang, "parse", self.span("lang.parse", mx.lang.parse))
        self._patch(mx.satcheck, "parse_constraint", self.span(
            "lang.parse_constraint", mx.satcheck.parse_constraint))
        self._patch(mx.transforms, "prepare", self.span(
            "transforms.prepare", mx.transforms.prepare))

        # mode entry points, looked up on their modules by the benchmark
        for attr in ("run_coverage", "run_path", "run_bva"):
            self._patch(mx.driver, attr, self.span(
                f"driver.{attr}", getattr(mx.driver, attr)))
        self._patch(mx.satcheck, "check_sat", self.span(
            "satcheck.check_sat", mx.satcheck.check_sat))

        def descendant_pairs(_args, graph):
            counters["cfg.descendant_pairs"] += sum(
                len(v) for v in graph.descendant.values())
        self._patch(mx.driver, "build_cfg", self.span(
            "cfg.build", mx.driver.build_cfg, descendant_pairs))

        # restart loop: sampling, basinhopping, snap-to-zero, marks
        self._patch(mx.driver, "_minimize_once", self.span(
            "driver.minimize_once", mx.driver._minimize_once))

        def snap_hit(_args, snapped):
            counters["driver.snap_hits"] += snapped is not None
        self._patch(mx.driver, "snap_to_zero", depth_span(
            "driver.snap", mx.driver.snap_to_zero, "snap", snap_hit))

        def marked(args, state):
            counters["driver.infeasible_marks"] += state is not args[0]
        self._patch(mx.driver, "mark_infeasible", self.span(
            "driver.mark_infeasible", mx.driver.mark_infeasible, marked))

        self._patch(mx.driver, "basinhopping", self.span(
            "optimize.basinhopping", mx.driver.basinhopping))
        self._patch(mx.optimize, "powell_minimize", depth_span(
            "optimize.powell", mx.optimize.powell_minimize, "powell"))
        self._patch(mx.optimize, "_line_minimize", self.span(
            "optimize.line", mx.optimize._line_minimize))

        # the objective wrapper: evaluations in and out of Powell
        base = mx.optimize.Objective
        objective_call = self.span("driver.objective", base.__call__)

        def traced_call(obj, x):
            if self._open["powell"]:
                counters["optimize.powell_evals"] += 1
            return objective_call(obj, x)

        traced_objective = type("Objective", (base,),
                                {"__call__": traced_call})
        self._patch(mx.driver, "Objective", traced_objective)
        self._patch(mx.satcheck, "Objective", traced_objective)

        compile_constraint = mx.satcheck.compile_constraint

        def traced_compile(*args, **kwargs):
            objective = compile_constraint(*args, **kwargs)
            objective.fn = self.span("satcheck.objective", objective.fn)
            return objective
        self._patch(mx.satcheck, "compile_constraint", traced_compile)

        # one evaluation of the representing function; a replay is an
        # execute outside any Powell or snap span
        execute = self.span("interp.execute", mx.driver.execute,
                            self._count_trace)
        replay = self.span("driver.replay", execute)

        def traced_execute(*args, **kwargs):
            if self._open["powell"] or self._open["snap"]:
                return execute(*args, **kwargs)
            return replay(*args, **kwargs)
        self._patch(mx.driver, "execute", traced_execute)

        self._patch(mx.interp, "pen", self.leaf("saturation.pen",
                                                mx.interp.pen))
        self._patch(mx.saturation, "update_saturation", self.span(
            "saturation.update", mx.saturation.update_saturation))
        self._patch(mx.report, "coverage_report", self.span(
            "report.coverage_report", mx.report.coverage_report))
        self._patch(mx.report, "to_json", self.span(
            "report.to_json", mx.report.to_json))

    def _count_trace(self, _args, trace):
        self.counters["interp.steps"] += trace.steps
        self.counters["interp.aborts"] += trace.aborted is not None

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- results

    def durations(self, name):
        """Durations of the stored spans called `name`, in seconds."""
        sid = self._ids.get(name)
        if sid is None:
            return []
        return [self.span_end[i] - self.span_start[i]
                for i, n in enumerate(self.span_name) if n == sid]

    def write(self, path):
        """Write the stored spans as gzipped CSV: name,start,end,parent."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index,name,start,end,parent\n")
            for i in range(len(self.span_name)):
                out.write(f"{i},{self.names[self.span_name[i]]},"
                          f"{self.span_start[i]!r},{self.span_end[i]!r},"
                          f"{self.span_parent[i]}\n")
