"""Command-line front end.

Exit codes: 0 on success, 2 on source parse errors, 1 on every other
error (bad flags, unreadable files or --json paths, unknown entry, a
closed stdout).
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import driver, report, satcheck
from .errors import MalformedPath, MexecError, ParseError
from .interp import CompiledProgram, coverage_config
from .lang import parse
from .optimize import MCMCConfig


# the library defaults, which the flags' defaults repeat
_DEFAULTS = driver.SearchConfig()


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise MexecError(message)


def _build_parser():
    parser = _ArgumentParser(
        prog="mexec",
        description="Test-input generation for numerical programs by "
                    "global minimization of representing functions.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_common(p, with_source=True):
        if with_source:
            p.add_argument("source", help=".mx source file")
            p.add_argument("--entry", default=None,
                           help="entry function (default: last defined)")
        p.add_argument("--n-iter", type=int, default=_DEFAULTS.mcmc.n_iter,
                       help="basinhopping iterations per restart")
        p.add_argument("--n-start", type=int, default=_DEFAULTS.n_start,
                       help="number of restarts")
        p.add_argument("--epsilon", type=float, default=_DEFAULTS.epsilon,
                       help="strict-comparison distance offset")
        p.add_argument("--box", default="-1000:1000",
                       help="search box lo:hi, applied to every input")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (falls back to MEXEC_SEED)")
        p.add_argument("--step-scale", type=float,
                       default=_DEFAULTS.mcmc.step_scale,
                       help="perturbation half-width")
        p.add_argument("--json", dest="json_path", default=None,
                       help="also write a JSON report to this file")

    cover = sub.add_parser("cover", help="saturate all branches")
    add_common(cover)
    cover.add_argument("--infeasible-after", type=int,
                       default=_DEFAULTS.infeasible_after,
                       help="same-branch failures before deeming the "
                            "opposite branch infeasible")
    cover.add_argument("--emit-instrumented", action="store_true",
                       help="print the Python the search minimizes, "
                            "then the report (a hot search runs its C "
                            "translation, with the same values)")

    path = sub.add_parser("path", help="find an input following a path")
    add_common(path)
    path.add_argument("--path", dest="target", required=True,
                      help="target branch sequence, e.g. 0T,1T")

    bva = sub.add_parser("bva", help="find boundary-value inputs")
    add_common(bva)

    sat = sub.add_parser("sat", help="check a conjunction of comparisons")
    sat.add_argument("constraint",
                     help="e.g. '2^x <= 5 && x*x >= 5 && x >= 0'")
    add_common(sat, with_source=False)

    return parser


def _search_config(args):
    lo, sep, hi = args.box.partition(":")
    if not sep:
        raise MexecError(f"bad box {args.box!r}, expected lo:hi")
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise MexecError(f"bad box {args.box!r}, expected numbers")
    seed = args.seed
    if seed is None and os.environ.get("MEXEC_SEED"):
        try:
            seed = int(os.environ["MEXEC_SEED"])
        except ValueError:
            raise MexecError(f"bad MEXEC_SEED {os.environ['MEXEC_SEED']!r}, "
                             "expected an integer")
    return driver.SearchConfig(
        n_start=args.n_start,
        mcmc=MCMCConfig(n_iter=args.n_iter, step_scale=args.step_scale),
        box=[(lo, hi)],
        epsilon=args.epsilon,
        seed=seed,
        infeasible_after=getattr(args, "infeasible_after",
                                 _DEFAULTS.infeasible_after),
    )


def _load_program(args):
    try:
        with open(args.source, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise MexecError(str(exc))
    except UnicodeDecodeError as exc:
        raise MexecError(f"{args.source} is not UTF-8 text: {exc}")
    program = parse(source)
    return program, args.entry or program.functions[-1].name


def _parse_target(text):
    target = []
    for item in text.split(","):
        item = item.strip().upper()
        try:
            if item[-1:] not in ("T", "F"):
                raise ValueError(item)
            target.append((int(item[:-1]), item[-1]))
        except ValueError:
            raise MalformedPath(f"bad branch id {item!r}, expected like 0T")
    return target


def _write_json(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise MexecError(f"cannot write the JSON report: {exc}")


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise MexecError("a command is required")

        if args.command == "sat":
            constraint = satcheck.parse_constraint(args.constraint)
            cfg = _search_config(args)
            result = satcheck.check_sat(constraint, cfg)
            if result.verdict == "sat":
                model = ", ".join(
                    f"{name} = {value!r}"
                    for name, value in zip(result.variables, result.model))
                print(f"sat: {model}")
            elif result.residual is None:
                print("unknown (no restart ran)")
            else:
                print(f"unknown (best residual {result.residual!r})")
            if args.json_path:
                _write_json(args.json_path, json.dumps(
                    asdict(result), indent=2, sort_keys=True))
            return 0

        program, entry = _load_program(args)
        cfg = _search_config(args)
        if args.command == "cover":
            result = driver.run_coverage(program, entry, cfg)
            if args.emit_instrumented:
                print(CompiledProgram(program, coverage_config(cfg.epsilon),
                                      entry, cfg.step_budget).source())
        elif args.command == "path":
            target = _parse_target(args.target)
            result = driver.run_path(program, entry, target, cfg)
            if result.found is not None:
                print("found: " + ", ".join(repr(v) for v in result.found))
            else:
                print("not found")
        else:
            result = driver.run_bva(program, entry, cfg)
            for x in result.inputs:
                print("boundary: " + ", ".join(repr(v) for v in x))
        rep = report.coverage_report(result, program, entry)
        print(report.format_text(rep))
        if args.json_path:
            _write_json(args.json_path, report.to_json(rep))
        return 0
    except ParseError as exc:
        print(f"mexec: parse error: {exc}", file=sys.stderr)
        return 2
    except MexecError as exc:
        print(f"mexec: {exc}", file=sys.stderr)
        return 1


def run():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
