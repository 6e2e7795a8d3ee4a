"""A fixed reference task that tells how fast the host runs Python
right now.

The host's speed drifts: it switches between a fast state and slow
spells, lasting from a second to minutes, and the benchmark's runs
take about 1.5 times as long in a slow spell.  The benchmark times this
task before and after every run and reports run times in units of it
(`ref`), so the drift cancels.

A slow spell does not slow all code alike.  Measured on a 2-CPU
x86-64 host: a small tree-walking evaluator, which fits in the
first-level cache, slowed by about 1.8; dict lookups of 2,000 records
in random order by 1.2-1.4.  The task is a mix of the two, about half
its time in each, because that mix followed the runs best: over five
workload seeds the list's time in its units spread 0.03-0.11 of the
median where raw seconds spread 0.08-0.18 (perfbench/README.md).  It
uses no code of mexec, so no change to mexec moves it.
"""

import gc
import math
import random
import time

clock = time.perf_counter


class _Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class _Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


class _If:
    __slots__ = ("label", "left", "right", "then", "other")

    def __init__(self, label, left, right, then, other):
        self.label, self.left, self.right = label, left, right
        self.then, self.other = then, other


def _eval(node, env, seen):
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return env[node.name]
    if isinstance(node, _Bin):
        a = _eval(node.left, env, seen)
        b = _eval(node.right, env, seen)
        if node.op == "+":
            return a + b
        if node.op == "*":
            return a * b
        return a - b
    a = _eval(node.left, env, seen)
    b = _eval(node.right, env, seen)
    seen.add((node.label, a < b))
    return _eval(node.then if a < b else node.other, env, seen)


def _tree(depth, label=0):
    if depth == 0:
        return _Bin("*", _Var("x"), _Num(0.5))
    return _If(label, _Bin("+", _Var("x"), _Num(depth)),
               _Bin("*", _Var("y"), _Num(1.5)),
               _tree(depth - 1, 2 * label + 1),
               _Bin("-", _tree(depth - 1, 2 * label + 2), _Var("y")))


_TREE = _tree(6)
_INPUTS = 100
_RECORDS = [{"a": float(i), "b": i % 7, "c": str(i)} for i in range(2000)]
_ORDER = random.Random(1).choices(range(len(_RECORDS)), k=5400)


def task():
    """Evaluate the fixed tree on fixed inputs, then sum over the records
    in the fixed order; about 2 ms of work on a fast host."""
    seen = set()
    total = 0.0
    for i in range(_INPUTS):
        env = {"x": math.sin(i) * 8.0, "y": math.cos(i) * 8.0}
        total += _eval(_TREE, env, seen)
    for j in _ORDER:
        record = _RECORDS[j]
        total += record["a"] * record["b"]
    return total, len(seen)


_EXPECTED = task()


def timed():
    """Seconds the task takes now; checks it computed what it should.
    The garbage collector is held off, so the size of the benchmark's
    heap does not change the task's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        got = task()
        seconds = clock() - start
    finally:
        if enabled:
            gc.enable()
    if got != _EXPECTED:
        raise RuntimeError("reference task gave a different answer")
    return seconds
