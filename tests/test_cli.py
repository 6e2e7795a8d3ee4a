import json
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import asdict

import pytest

from mexec.cli import main
from mexec.driver import SearchConfig, run_bva, run_coverage, run_path
from mexec.errors import MexecError
from mexec.interp import CompiledProgram, coverage_config
from mexec.lang import parse
from mexec.optimize import MCMCConfig
from mexec.report import (
    SCHEMA, CoverageReport, coverage_report, format_text, from_json, to_json,
)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
FOO = str(BENCH / "foo.mx")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cover_happy_path(capsys):
    code, out, err = run_cli(
        capsys, "cover", FOO, "--entry", "FOO", "--seed", "42",
        "--n-start", "20")
    assert code == 0
    assert "Branches taken" in out
    assert "100.00%" in out


def test_missing_file_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "cover", "missing.mx")
    assert code == 1
    assert "mexec:" in err


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1


def test_unknown_entry_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "cover", FOO, "--entry", "nope")
    assert code == 1
    assert "nope" in err


def test_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.mx"
    bad.write_text("real f(real x) { if (x < ) { return 1; } }")
    code, _, err = run_cli(capsys, "cover", str(bad))
    assert code == 2
    assert "parse error" in err


def test_bad_box_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "cover", FOO, "--box", "oops")
    assert code == 1
    code, _, err = run_cli(capsys, "cover", FOO, "--box", "a:b")
    assert (code, err) == (1, "mexec: bad box 'a:b', expected numbers\n")


@pytest.mark.parametrize("argv", [
    ["cover", FOO, "--no-such-flag"], ["cover", FOO, "--seed", "one"],
    ["lint", FOO],
])
def test_a_bad_flag_is_a_usage_error_not_an_argparse_exit(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("mexec: ")


def test_path_branch_ids_read_in_either_case(capsys):
    found = []
    for target in ("0T,1F", "0t, 1f"):
        code, out, err = run_cli(capsys, "path", FOO, "--entry", "FOO",
                                 "--path", target, "--seed", "1",
                                 "--n-start", "20")
        assert code == 0, err
        found.append(out.splitlines()[0])
    assert found[0].startswith("found: ")
    assert found[0] == found[1]


def test_path_mode_prints_found_input(capsys):
    code, out, _ = run_cli(
        capsys, "path", FOO, "--entry", "FOO", "--path", "0T,1T",
        "--seed", "1", "--n-start", "20")
    assert code == 0
    assert out.startswith("found: ")


def test_path_mode_bad_path_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "path", FOO, "--entry", "FOO", "--path", "9Q")
    assert code == 1


def test_bva_mode_prints_boundaries(capsys):
    code, out, _ = run_cli(
        capsys, "bva", FOO, "--entry", "FOO", "--seed", "3",
        "--n-start", "6")
    assert code == 0
    assert "boundary: " in out


def test_sat_mode(capsys):
    code, out, _ = run_cli(
        capsys, "sat", "2^x <= 5 && x*x >= 5 && x >= 0", "--seed", "7",
        "--n-start", "50")
    assert code == 0
    assert out.startswith("sat: x = 2.2")


def test_sat_mode_unknown(capsys):
    code, out, _ = run_cli(
        capsys, "sat", "x == x + 1", "--seed", "7", "--n-start", "2")
    assert code == 0
    assert out.startswith("unknown")
    assert "1.0" in out


def test_sat_splits_conjuncts_on_tokens_so_comments_may_hold_ands(capsys):
    code, out, err = run_cli(capsys, "sat", "x == 1 /* a && b */",
                             "--seed", "1", "--n-start", "3")
    assert (code, out.strip(), err) == (0, "sat: x = 1.0", "")


def test_sat_parse_error_is_placed_in_the_whole_constraint(capsys):
    code, _, err = run_cli(capsys, "sat", "x == 1 && y == ²")
    assert code == 2
    assert "unexpected character '²' (line 1, col 16)" in err


def test_emit_instrumented(capsys):
    code, out, _ = run_cli(
        capsys, "cover", FOO, "--entry", "FOO", "--seed", "42",
        "--n-start", "10", "--emit-instrumented")
    assert code == 0
    program = parse(pathlib.Path(FOO).read_text())
    cfg = SearchConfig()
    source = CompiledProgram(program, coverage_config(cfg.epsilon), "FOO",
                             cfg.step_budget).source()
    compile(source, "foo", "exec")
    assert "def _bind(" in source
    assert re.findall(r"_sat\[(\d+)\]", source) == ["0", "1"]
    assert out.startswith(source + "\n")
    assert out[len(source) + 1:].startswith("entry FOO (cover mode)\n")
    assert "Branches taken" in out


def test_json_report_round_trip(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "cover", FOO, "--entry", "FOO", "--seed", "42",
        "--n-start", "20", "--json", str(out_path))
    assert code == 0
    text = out_path.read_text()
    payload = json.loads(text)
    assert payload["schema"] == "mexec/1"
    report = from_json(text)
    assert isinstance(report, CoverageReport)
    assert from_json(to_json(report)) == report


@pytest.mark.parametrize("mode", ["cover", "path", "bva"])
def test_json_report_is_the_fields_as_asdict_gives_them(mode):
    program = parse((BENCH / "k_cos.mx").read_text(encoding="utf-8"))
    entry = program.functions[-1].name
    cfg = SearchConfig(n_start=8, seed=5)
    result = {"cover": lambda: run_coverage(program, entry, cfg),
              "path": lambda: run_path(program, entry, [(0, "F")], cfg),
              "bva": lambda: run_bva(program, entry, cfg)}[mode]()
    report = coverage_report(result, program, entry, uninstrumentable=1)
    assert report.inputs and report.branch_status
    text = to_json(report)
    assert text == json.dumps({"schema": SCHEMA, **asdict(report)},
                              indent=2, sort_keys=True)
    assert from_json(text) == report
    assert to_json(from_json(text)) == text


POINTER_COMPARED = """real f(real *p, real x) {
    if (p == x) { x = x + 1; }
    if (x < 2) { x = x * 3; }
    return x;
}"""


def test_a_report_counts_the_programs_ignored_conditionals_by_default():
    program = parse(POINTER_COMPARED)
    result = run_coverage(program, "f", SearchConfig(seed=3, n_start=4))
    report = coverage_report(result, program, "f")
    assert report.uninstrumentable == 1
    assert "  ignored conditionals   1 (pointer comparisons)" in \
        format_text(report).splitlines()
    assert coverage_report(result, program, "f", 0).uninstrumentable == 0


# g's conditional is label 0, which the entry f never reaches
TWO_FUNCTIONS = """real g(real a) { if (a > 3) { a = 1; } return a; }
real f(real x) { if (x < 2) { x = x * 3; } return x; }"""


def test_a_report_counts_every_total_over_the_whole_program(capsys,
                                                           tmp_path):
    source = tmp_path / "two.mx"
    source.write_text(TWO_FUNCTIONS, encoding="utf-8")
    code, out, _ = run_cli(capsys, "cover", str(source), "--entry", "f",
                           "--seed", "1", "--n-start", "20")
    assert code == 0
    rows = [" ".join(line.split()) for line in out.splitlines()]
    assert "Conditions executed 50.00% (1 of 2)" in rows
    assert "Branches taken 50.00% (2 of 4)" in rows
    assert "not taken 0F, 0T" in rows


@pytest.mark.parametrize("name", sorted(p.name for p in BENCH.glob("*.mx")))
def test_a_cover_report_counts_the_branches_its_traces_cover(name):
    program = parse((BENCH / name).read_text(encoding="utf-8"))
    entry = program.functions[-1].name
    result = run_coverage(program, entry, SearchConfig(seed=4, n_start=10))
    report = coverage_report(result, program, entry)
    assert report.covered_branches == len(result.state.covered)


def test_a_report_of_a_program_without_labels_reads_zero_percent():
    program = parse("void f(real x) { }")
    report = coverage_report(
        run_coverage(program, "f", SearchConfig(seed=1, n_start=2)),
        program, "f")
    assert (report.line_pct, report.condition_pct, report.branch_pct,
            report.call_pct) == (0.0, 0.0, 0.0, None)
    assert (report.total_lines, report.total_branches) == (0, 0)


def test_from_json_rejects_what_is_not_a_report_with_value_error():
    text = to_json(CoverageReport(entry="f", inputs=[[1.0]]))
    assert from_json(text) == CoverageReport(entry="f", inputs=[[1.0]])
    extra = json.dumps({**json.loads(text), "colour": "red"})
    for bad in ("[1]", "null", "3", extra):
        with pytest.raises(ValueError):
            from_json(bad)


def test_json_report_deterministic_modulo_wall_time(capsys, tmp_path):
    payloads = []
    for name in ("a.json", "b.json"):
        out_path = tmp_path / name
        run_cli(capsys, "cover", FOO, "--entry", "FOO", "--seed", "42",
                "--n-start", "20", "--json", str(out_path))
        payload = json.loads(out_path.read_text())
        payload.pop("wall_time")
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_seed_env_fallback(capsys, tmp_path, monkeypatch):
    outputs = []
    monkeypatch.setenv("MEXEC_SEED", "42")
    for name in ("a.json", "b.json"):
        out_path = tmp_path / name
        run_cli(capsys, "cover", FOO, "--entry", "FOO",
                "--n-start", "20", "--json", str(out_path))
        payload = json.loads(out_path.read_text())
        payload.pop("wall_time")
        outputs.append(payload)
    assert outputs[0] == outputs[1]


def test_entry_defaults_to_last_function(capsys):
    code, out, _ = run_cli(
        capsys, "cover", FOO, "--seed", "42", "--n-start", "20")
    assert code == 0
    assert "entry FOO" in out


def test_kernel_cos_report(capsys):
    code, out, _ = run_cli(
        capsys, "cover", str(BENCH / "k_cos.mx"), "--seed", "42")
    assert code == 0
    assert "87.50%" in out
    assert "deemed infeasible      1F" in out
    assert "n/a" in out


def test_bad_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MEXEC_SEED", "abc")
    code, _, err = run_cli(capsys, "cover", FOO, "--n-start", "2")
    assert code == 1
    assert err.startswith("mexec: ")
    assert "MEXEC_SEED" in err


def test_nonpositive_epsilon_is_usage_error(capsys):
    for value in ("-1", "0", "nan", "inf"):
        code, _, err = run_cli(capsys, "cover", FOO, "--epsilon", value,
                               "--n-start", "2")
        assert code == 1
        assert "epsilon" in err


def test_sat_json_writes_the_result(capsys, tmp_path):
    out_path = tmp_path / "sat.json"
    code, out, _ = run_cli(
        capsys, "sat", "x*x == 4", "--seed", "7", "--n-start", "20",
        "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "sat"
    assert payload["variables"] == ["x"]
    assert payload["model"][0] ** 2 == 4.0
    assert 0 < payload["run_count"] <= payload["eval_count"]
    assert out.startswith(f"sat: x = {payload['model'][0]!r}")


def test_sat_json_writes_every_field_of_the_one_result_record(capsys,
                                                              tmp_path):
    out_path = tmp_path / "sat.json"
    code, _, _ = run_cli(capsys, "sat", "x*x == 4", "--seed", "7",
                         "--n-start", "20", "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert sorted(payload) == [
        "eval_count", "found", "graph", "inputs", "mode", "model",
        "residual", "run_count", "starts_used", "state", "traces",
        "variables", "verdict", "wall_time",
    ]
    assert payload["inputs"] == [payload["model"]]
    assert ((payload["mode"], payload["traces"], payload["state"],
             payload["graph"], payload["found"])
            == ("sat", [], None, None, None))


def test_sat_nan_operand_scores_the_point_instead_of_failing(capsys):
    # sqrt and log of a negative sample give NaN operands, which score
    # the sentinel rather than end the run
    code, out, err = run_cli(capsys, "sat", "sqrt(x) == 2", "--seed", "1",
                             "--n-start", "5")
    assert code == 0, err
    assert out.strip() == "sat: x = 4.0"
    code, out, err = run_cli(capsys, "sat", "log(x) >= 1 && x <= 3",
                             "--seed", "2", "--n-start", "5")
    assert code == 0, err
    assert out.startswith("sat: x = 2.9999")


def test_infinite_or_empty_box_is_an_error(capsys):
    for box in ("-inf:inf", "0:inf", "nan:1", "3:1", "2:2"):
        code, _, err = run_cli(capsys, "cover", FOO, f"--box={box}",
                               "--n-start", "2")
        assert code == 1, box
        assert "bad box" in err
        code, _, err = run_cli(capsys, "sat", "x == 1", f"--box={box}")
        assert code == 1, box


def test_nesting_too_deep_to_parse_is_a_parse_error(capsys, tmp_path):
    deep = "(" * 3000 + "x" + ")" * 3000
    blocks = "{" * 1000 + "}" * 1000
    for i, body in enumerate((f"if ({deep} < 1) {{ return 1; }}", blocks)):
        source = tmp_path / f"deep{i}.mx"
        source.write_text(f"real f(real x) {{ {body} return 0; }}")
        code, _, err = run_cli(capsys, "cover", str(source), "--seed", "1")
        assert code == 2
        assert "nested too deeply" in err
    code, _, err = run_cli(capsys, "sat", f"{deep} == 1", "--seed", "1")
    assert code == 2
    assert "nested too deeply" in err


@pytest.mark.parametrize("depth, braces", [(120, True), (400, False)])
def test_deeply_nested_ifs_are_an_error_not_a_crash(capsys, tmp_path,
                                                    depth, braces):
    opening = "if (x < {}) {{ " if braces else "if (x < {}) "
    body = "".join(opening.format(i) for i in range(depth)) + "x = 1;"
    if braces:
        body += " }" * depth
    source = tmp_path / "nested.mx"
    source.write_text(f"real f(real x) {{ {body} return x; }}")
    code, _, err = run_cli(capsys, "cover", str(source), "--seed", "1",
                           "--n-start", "1")
    assert code == 2
    assert err.startswith("mexec: parse error:")


def _ifs(depth):
    opening = "".join(f"if (x < {i}) {{ " for i in range(depth))
    return f"real f(real x) {{ {opening}x = 1;{' }' * depth} return x; }}"


def _whiles(depth):
    opening = "".join(f"while (x < {i}) {{ " for i in range(depth))
    return (f"real f(real x) {{ {opening}x = x + 1;{' }' * depth} "
            "return x; }")


def _else_ifs(arms):
    chain = " else ".join(f"if (x < {i}) {{ x = {i}; }}" for i in range(arms))
    return f"real f(real x) {{ {chain} return x; }}"


SHADOW = ("real sin(real x) { if (x < 1) { return 5; } return 2; } "
          "real f(real x) { return sin(x); }")


@pytest.mark.parametrize("source, message", [
    (SHADOW, "function 'sin' is named like a builtin"),
    (_whiles(21), "loops nested more than 20 deep"),
    (_ifs(98), "statements nested more than 97 deep"),
    (_else_ifs(98), "statements nested more than 97 deep"),
    ("", "the program defines no function"),
    ("// only a comment\n", "the program defines no function"),
], ids=["shadowing", "21-whiles", "98-ifs", "98-else-ifs", "empty",
        "comment-only"])
def test_programs_past_the_gate_are_parse_errors(capsys, tmp_path, source,
                                                message):
    path = tmp_path / "prog.mx"
    path.write_text(source)
    for argv in (["cover"], ["path", "--path", "0T"], ["bva"]):
        code, _, err = run_cli(capsys, *argv, str(path), "--seed", "1",
                               "--n-start", "1")
        assert code == 2, argv
        assert err.startswith(f"mexec: parse error: {message}")


@pytest.mark.parametrize("source", [_whiles(20), _ifs(97), _else_ifs(97)],
                         ids=["20-whiles", "97-ifs", "97-else-ifs"])
def test_programs_at_the_nesting_limits_run_in_every_mode(capsys, tmp_path,
                                                         source):
    path = tmp_path / "prog.mx"
    path.write_text(source)
    for argv in (["cover"], ["path", "--path", "0T"], ["bva"]):
        code, _, err = run_cli(capsys, *argv, str(path), "--seed", "1",
                               "--n-start", "2")
        assert (code, err) == (0, ""), argv


def test_unwritable_json_path_is_an_error_not_a_crash(capsys, tmp_path):
    target = str(tmp_path / "missing" / "report.json")
    for argv in (["cover", FOO], ["path", FOO, "--path", "0T"], ["bva", FOO],
                 ["sat", "x*x == 4"]):
        code, _, err = run_cli(capsys, *argv, "--seed", "1", "--n-start", "2",
                               "--json", target)
        assert code == 1, argv
        assert err.startswith("mexec: cannot write the JSON report:")


def test_source_that_is_not_utf8_is_an_error_not_a_crash(capsys, tmp_path):
    path = tmp_path / "latin1.mx"
    path.write_bytes("real f(real x) { return x; } // caf\xe9\n"
                     .encode("latin-1"))
    code, _, err = run_cli(capsys, "cover", str(path))
    assert code == 1
    assert err.startswith(f"mexec: {path} is not UTF-8 text")


def _chain(terms):
    return " + ".join(["x"] * terms)


@pytest.mark.parametrize("terms", [250, 1200, 3000])
def test_long_operator_chain_is_a_parse_error(capsys, tmp_path, terms):
    source = tmp_path / "chain.mx"
    source.write_text(f"real f(real x) {{ if ({_chain(terms)} < 1) "
                      "{ return 1; } return 0; }")
    for argv in (["cover"], ["cover", "--emit-instrumented"],
                 ["path", "--path", "0T"], ["bva"]):
        code, _, err = run_cli(capsys, *argv, str(source), "--seed", "1",
                               "--n-start", "1")
        assert code == 2, argv
        assert err.startswith("mexec: parse error: expression nested "
                              "more than 199 operators deep")
    code, _, err = run_cli(capsys, "sat", f"{_chain(terms)} == 1",
                           "--seed", "1", "--n-start", "1")
    assert code == 2
    assert err.startswith("mexec: parse error: expression nested")


def test_two_hundred_operand_chain_runs_in_every_mode(capsys, tmp_path):
    source = tmp_path / "chain.mx"
    source.write_text(f"real f(real x) {{ if ({_chain(200)} < 1) "
                      f"{{ return 1; }} return {_chain(200)}; }}")
    for argv in (["cover"], ["cover", "--emit-instrumented"],
                 ["path", "--path", "0T"], ["bva"]):
        code, _, err = run_cli(capsys, *argv, str(source), "--seed", "1",
                               "--n-start", "2")
        assert (code, err) == (0, ""), argv
    code, out, err = run_cli(capsys, "sat", f"1e999 + {_chain(199)} > 1",
                             "--seed", "1", "--n-start", "1")
    assert (code, err) == (0, "")
    assert out.startswith("sat")


def test_call_chain_too_deep_for_the_cfg_is_an_error(capsys, tmp_path):
    levels = ["real f400(real x) { if (x < 1) { x = 2; } return x; }"]
    levels += [f"real f{k}(real x) {{ if (x < {k}) {{ x = x + 1; }} "
               f"return f{k + 1}(x); }}" for k in range(399, 0, -1)]
    source = tmp_path / "calls.mx"
    source.write_text("\n".join(levels))
    code, _, err = run_cli(capsys, "cover", str(source), "--seed", "1",
                           "--n-start", "1")
    assert code == 1
    assert err == ("mexec: cannot build the CFG of f1: user calls nested "
                   "too deeply\n")


def test_negative_counts_and_bad_step_scale_are_usage_errors(capsys):
    for flag, value in (("--n-start", "-3"), ("--n-iter", "-1"),
                        ("--step-scale", "-0.5"), ("--step-scale", "nan"),
                        ("--step-scale", "inf")):
        setting = flag[2:].replace("-", "_")
        for argv in (["cover", FOO], ["sat", "x == 1"]):
            code, _, err = run_cli(capsys, *argv, flag, value)
            assert code == 1, (argv, flag, value)
            assert err.startswith(f"mexec: bad {setting} {value}"), err


# each config is built in the test: a bad setting raises as it is built
@pytest.mark.parametrize("flag, value, make", [
    ("--n-start", "-3", lambda: SearchConfig(n_start=-3)),
    ("--n-iter", "-1", lambda: SearchConfig(mcmc=MCMCConfig(n_iter=-1))),
    ("--epsilon", "nan", lambda: SearchConfig(epsilon=math.nan)),
    ("--epsilon", "0", lambda: SearchConfig(epsilon=0.0)),
    ("--epsilon", "inf", lambda: SearchConfig(epsilon=math.inf)),
    ("--step-scale", "inf", lambda: SearchConfig(mcmc=MCMCConfig(
        step_scale=math.inf))),
    ("--step-scale", "-0.5", lambda: SearchConfig(mcmc=MCMCConfig(
        step_scale=-0.5))),
    ("--infeasible-after", "0", lambda: SearchConfig(infeasible_after=0)),
    ("--infeasible-after", "-3", lambda: SearchConfig(infeasible_after=-3)),
    ("--box", "3:1", lambda: SearchConfig(box=[(3.0, 1.0)])),
    ("--box", "0:inf", lambda: SearchConfig(box=[(0.0, math.inf)])),
])
def test_a_bad_flag_reports_the_library_message(capsys, flag, value, make):
    with pytest.raises(MexecError) as library:
        run_coverage(parse("real f(real x) { return x; }"), "f", make())
    commands = [["cover", FOO]]
    if flag != "--infeasible-after":
        commands.append(["sat", "x == 1"])
    for argv in commands:
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out) == (1, ""), argv
        assert err == f"mexec: {library.value}\n"


def test_an_inner_bad_setting_is_reported_before_an_outer_one(capsys):
    # the MCMCConfig is built before the SearchConfig that holds it
    code, out, err = run_cli(capsys, "cover", FOO, "--n-start", "-3",
                             "--n-iter", "-1")
    assert (code, out) == (1, "")
    assert err == "mexec: bad n_iter -1, need at least 0\n"


def test_infeasible_after_below_one_is_a_usage_error(capsys):
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, "cover", FOO,
                                 "--infeasible-after", value)
        assert (code, out) == (1, "")
        assert err == f"mexec: bad infeasible_after {value}, need at least 1\n"
    code, out, _ = run_cli(capsys, "cover", FOO, "--infeasible-after", "1",
                           "--seed", "1", "--n-start", "5")
    assert code == 0
    assert "Branches taken" in out


def test_zero_restarts_and_iterations_are_valid(capsys):
    code, out, _ = run_cli(capsys, "sat", "x == 1", "--n-start", "0")
    assert (code, out) == (0, "unknown (no restart ran)\n")
    code, out, _ = run_cli(capsys, "cover", FOO, "--n-iter", "0",
                           "--step-scale", "0", "--seed", "1",
                           "--n-start", "5")
    assert code == 0
    assert "Branches taken" in out


def _no_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("n_start, residual", [("0", None),
                                               ("2", 2.000001)])
def test_sat_json_is_strict_json_whatever_the_budget(capsys, tmp_path,
                                                     n_start, residual):
    """With no restart run the residual is null, not Infinity, which a
    strict JSON reader rejects; after a restart it is the least value
    seen, here at x = 0 in a box without a root: x*x is 2 short and
    x < 0 holds at x <= -epsilon."""
    out_path = tmp_path / "sat.json"
    code, out, _ = run_cli(capsys, "sat", "x*x == 2 && x < 0", "--n-start",
                           n_start, "--seed", "1", "--box", "0:1",
                           "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text(), parse_constant=_no_constant)
    assert (payload["verdict"], payload["residual"]) == ("unknown", residual)
    assert out.startswith("unknown (")


def test_zero_input_program_and_variable_free_constraint_in_every_mode(
        capsys, tmp_path):
    source = tmp_path / "zero.mx"
    source.write_text(
        "real f() { real x = 3; if (x > 2) { x = 1; } return x; }\n")
    runs = {
        "cover": ["cover", str(source)],
        "path": ["path", str(source), "--path", "0F"],
        "bva": ["bva", str(source)],
        "sat": ["sat", "1e-200 == 0", "--json", str(tmp_path / "sat.json")],
    }
    outs = {}
    for mode, argv in runs.items():
        code, outs[mode], err = run_cli(capsys, *argv, "--seed", "1")
        assert (code, err) == (0, ""), mode
    assert "Branches taken           50.00%  (1 of 2)" in outs["cover"]
    assert "not taken              0F\n" in outs["cover"]
    assert outs["path"].startswith("not found\n")
    assert "boundary" not in outs["bva"]
    assert outs["sat"] == "unknown (best residual 0.0)\n"
    payload = json.loads((tmp_path / "sat.json").read_text())
    assert (payload["verdict"], payload["starts_used"],
            payload["eval_count"]) == ("unknown", 1, 1)


def test_closed_stdout_exits_one_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mexec.cli", "bva", FOO, "--seed", "1",
             "--n-start", "5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")
