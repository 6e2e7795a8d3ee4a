"""Coverage reporting: four gcov-style metrics, a text table, and a
versioned JSON form that round-trips losslessly."""

import json
from dataclasses import dataclass, field, fields
from typing import Optional

SCHEMA = "mexec/1"


@dataclass
class CoverageReport:
    mode: str = "cover"
    entry: str = ""
    line_pct: float = 0.0
    condition_pct: float = 0.0
    branch_pct: float = 0.0
    call_pct: Optional[float] = None    # None when no call sites exist
    covered_lines: int = 0
    total_lines: int = 0
    covered_conditionals: int = 0
    total_conditionals: int = 0
    covered_branches: int = 0
    total_branches: int = 0
    covered_calls: int = 0
    total_calls: int = 0
    uninstrumentable: int = 0
    branch_status: dict = field(default_factory=dict)   # "0T" -> status
    inputs: list = field(default_factory=list)
    starts_used: int = 0
    eval_count: int = 0
    wall_time: float = 0.0


def _branch_key(branch):
    return f"{branch[0]}{branch[1]}"


def _pct(num, den):
    return 100.0 * num / den if den else 0.0


def coverage_report(result, program, entry="", uninstrumentable=None):
    """Aggregate a search result's traces into the four coverage metrics,
    each over the whole program, as gcov counts a file; the saturation
    state adds which branches are saturated or deemed infeasible.
    `uninstrumentable` defaults to the program's own count."""
    lines = set()
    conditionals = set()
    branches = set()
    calls = set()
    for trace in result.traces:
        lines |= trace.covered_lines
        conditionals |= trace.covered_conditionals
        branches |= trace.covered_branches
        calls |= trace.covered_calls

    state = result.state
    infeasible = state.infeasible if state is not None else frozenset()
    saturated = state.explored if state is not None else frozenset()

    total_calls = program.call_sites
    if uninstrumentable is None:
        uninstrumentable = program.uninstrumentable
    labels = range(program.num_conditionals)
    total_branches = 2 * len(labels)

    status = {}
    for label in labels:
        for side in ("T", "F"):
            b = (label, side)
            if b in branches:
                status[_branch_key(b)] = ("saturated" if b in saturated
                                          else "covered")
            elif b in infeasible:
                status[_branch_key(b)] = "infeasible"
            else:
                status[_branch_key(b)] = "uncovered"

    return CoverageReport(
        mode=result.mode,
        entry=entry,
        line_pct=_pct(len(lines), len(program.lines)),
        condition_pct=_pct(len(conditionals), len(labels)),
        branch_pct=_pct(len(branches), total_branches),
        call_pct=_pct(len(calls), len(total_calls)) if total_calls else None,
        covered_lines=len(lines),
        total_lines=len(program.lines),
        covered_conditionals=len(conditionals),
        total_conditionals=len(labels),
        covered_branches=len(branches),
        total_branches=total_branches,
        covered_calls=len(calls),
        total_calls=len(total_calls),
        uninstrumentable=uninstrumentable,
        branch_status=status,
        inputs=[list(x) for x in result.inputs],
        starts_used=result.starts_used,
        eval_count=result.eval_count,
        wall_time=result.wall_time,
    )


def to_json(report):
    # the fields in place: dataclasses.asdict would deep-copy them first
    return json.dumps({"schema": SCHEMA, **vars(report)}, indent=2,
                      sort_keys=True)


def from_json(text):
    """The report `to_json` wrote; ValueError for any other text."""
    payload = json.loads(text)
    if (not isinstance(payload, dict) or payload.pop("schema", None) != SCHEMA
            or payload.keys() - {f.name for f in fields(CoverageReport)}):
        raise ValueError(f"not a {SCHEMA} coverage report")
    return CoverageReport(**payload)


def _fmt_pct(value):
    return "n/a" if value is None else f"{value:.2f}%"


def format_text(report):
    rows = [
        ("Lines executed", _fmt_pct(report.line_pct),
         f"{report.covered_lines} of {report.total_lines}"),
        ("Conditions executed", _fmt_pct(report.condition_pct),
         f"{report.covered_conditionals} of {report.total_conditionals}"),
        ("Branches taken", _fmt_pct(report.branch_pct),
         f"{report.covered_branches} of {report.total_branches}"),
        ("Calls executed", _fmt_pct(report.call_pct),
         f"{report.covered_calls} of {report.total_calls}"),
    ]
    out = [f"entry {report.entry or '?'} ({report.mode} mode)"]
    for name, pct, detail in rows:
        out.append(f"  {name:<22} {pct:>8}  ({detail})")
    if report.uninstrumentable:
        out.append(f"  ignored conditionals   {report.uninstrumentable} "
                   "(pointer comparisons)")
    for status, title in (("infeasible", "deemed infeasible"),
                          ("uncovered", "not taken")):
        keys = sorted(k for k, v in report.branch_status.items()
                      if v == status)
        if keys:
            out.append(f"  {title:<22} {', '.join(keys)}")
    out.append(f"  test inputs            {len(report.inputs)}")
    out.append(f"  wall time              {report.wall_time:.3f}s")
    return "\n".join(out)
