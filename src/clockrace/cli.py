"""Command-line interface.

Subcommands:
  analyze    run the static race analysis on a source file
  interpret  exhaustively interpret a program for fixed parameters
  gen-count  emit a counting nest for a polynomial
  gen-race   emit race-test programs for a pair of polynomials

Exit codes: 0 race-free / success, 1 parse or validation error,
2 potential races, 3 undetermined, 4 interpreter state limit reached.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

from .generators import counting_nest, parse_poly, race_test, race_tests_all_orthants
from .interp import explore
from .parser import ParseError, parse_file, validate_clock_rules
from .races import DEFAULT_BOUND, analyze
from .report import build_report
from .syntax import print_program

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_POTENTIAL_RACES = 2
EXIT_UNKNOWN = 3
EXIT_INCOMPLETE = 4


def _fail(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _load(path: str):
    """The parsed, clock-valid program, or None after printing why not."""
    try:
        program = parse_file(path)
    except OSError as e:
        _fail(e)
        return None
    except UnicodeDecodeError as e:
        _fail(f"{path} is not UTF-8 text: {e}")
        return None
    except ParseError as e:
        print(f"{path}:{e.line}:{e.col}: error: {e.message}", file=sys.stderr)
        return None
    diagnostics = validate_clock_rules(program)
    for d in diagnostics:
        print(f"{path}: error: {d}", file=sys.stderr)
    return None if diagnostics else program


def _cmd_analyze(args) -> int:
    if args.bound < 0:
        return _fail(f"--bound must be at least 0, got {args.bound}")
    if args.solver_cmd is not None:
        import shlex

        try:
            words = shlex.split(args.solver_cmd)
        except ValueError as e:
            return _fail(f"--solver-cmd {args.solver_cmd!r}: {e}")
        if not words or not words[0]:  # no program to start
            return _fail("--solver-cmd is empty")
    program = _load(args.file)
    if program is None:
        return EXIT_INPUT_ERROR
    t0 = time.monotonic()
    try:
        analysis = analyze(program, solver_cmd=args.solver_cmd, bound=args.bound)
    except MemoryError:
        print("error: out of memory during analysis", file=sys.stderr)
        return EXIT_UNKNOWN
    timings = {"analysis": time.monotonic() - t0}
    report = build_report(args.file, program, analysis, [], timings)
    try:
        if args.emit_smt:
            outdir = Path(args.emit_smt)
            outdir.mkdir(parents=True, exist_ok=True)
            for k, script in enumerate(analysis.smt_scripts):
                (outdir / f"race_{k}.smt2").write_text(script)
        if args.json:
            Path(args.json).write_text(report.to_json())
    except OSError as e:
        return _fail(e)
    print(report.to_text(), end="")
    if analysis.verdict == "PotentialRaces":
        return EXIT_POTENTIAL_RACES
    if analysis.verdict == "Unknown":
        return EXIT_UNKNOWN
    return EXIT_OK


def _parse_params(pairs, program) -> dict[str, int]:
    declared = {name for name, _ in program.params}
    out = {}
    for item in pairs or ():
        name, _, value = item.partition("=")
        if not _ or not name or not re.fullmatch("-?[0-9]+", value):
            raise ValueError(f"bad --param {item!r}, expected NAME=INT")
        if name not in declared:
            raise ValueError(f"--param {item!r}: the program has no parameter {name}")
        if name in out:
            raise ValueError(f"--param {name} given more than once")
        out[name] = int(value)
    return out


def _cmd_interpret(args) -> int:
    if args.max_states < 1:
        return _fail(f"--max-states must be at least 1, got {args.max_states}")
    program = _load(args.file)
    if program is None:
        return EXIT_INPUT_ERROR
    try:
        params = _parse_params(args.param, program)
    except ValueError as e:
        return _fail(e)
    try:
        res = explore(program, params, max_states=args.max_states)
    except ValueError as e:  # a parameter missing or below its bound
        return _fail(e)
    except MemoryError:
        return _fail("out of memory")
    except RecursionError:
        return _fail("program nested too deeply to interpret")
    print(f"instances: {len(res.instances)}")
    print(f"states explored: {res.state_count}")
    print(f"traces: {res.trace_count}")
    print(f"terminated: {res.terminated}")
    print(f"dynamic races: {len(res.races)}")
    for u, v in res.races:
        lu = program.stmt_label(u[1])
        lv = program.stmt_label(v[1])
        eu = ",".join(f"{k}={x}" for k, x in u[2])
        ev = ",".join(f"{k}={x}" for k, x in v[2])
        print(f"  {lu}<{eu}> vs {lv}<{ev}>")
    if res.incomplete:
        print(f"incomplete: state limit {args.max_states} reached")
        return EXIT_INCOMPLETE
    return EXIT_OK


_GEN_TOO_DEEP = "generated program nested too deeply to build or print"


def _cmd_gen_count(args) -> int:
    try:
        text = print_program(counting_nest(parse_poly(args.poly)))
    except ValueError as e:
        return _fail(e)
    except RecursionError:
        return _fail(_GEN_TOO_DEEP)
    print(text, end="")
    return EXIT_OK


def _cmd_gen_race(args) -> int:
    try:
        p1, p2 = parse_poly(args.p1), parse_poly(args.p2)
        tests = race_tests_all_orthants(p1, p2) if args.all_orthants else [race_test(p1, p2)]
        texts = [print_program(t.program) for t in tests]
    except ValueError as e:
        return _fail(e)
    except RecursionError:
        return _fail(_GEN_TOO_DEEP)
    for i, (t, text) in enumerate(zip(tests, texts)):
        signs = " ".join(f"{v}{'+' if s > 0 else '-'}" for v, s in t.signs)
        print(f"// orthant {i}: {signs or '(none)'}")
        print(text, end="")
        if i + 1 < len(tests):
            print()
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="clockrace",
        description="Static data-race analysis for polyhedral clocked programs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analyze a source file for races")
    a.add_argument("file")
    a.add_argument("--json", metavar="PATH", help="write a JSON report")
    a.add_argument("--emit-smt", metavar="DIR", help="write race_<k>.smt2 files")
    a.add_argument("--solver-cmd", metavar="CMD",
                   help="external SMT solver command (reads SMT-LIB on stdin)")
    a.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                   help="caps the parameter values the bounded tier searches (default %(default)s)")
    a.set_defaults(fn=_cmd_analyze)

    it = sub.add_parser("interpret", help="explore all schedules for fixed parameters")
    it.add_argument("file")
    it.add_argument("--param", action="append", metavar="NAME=INT")
    it.add_argument("--max-states", type=int, default=1_000_000)
    it.set_defaults(fn=_cmd_interpret)

    gc = sub.add_parser("gen-count", help="generate a counting nest")
    gc.add_argument("--poly", required=True, metavar="EXPR",
                    help='polynomial with nonnegative coefficients, e.g. "x^2+x*y+y^2"')
    gc.set_defaults(fn=_cmd_gen_count)

    gr = sub.add_parser("gen-race", help="generate polynomial race tests")
    gr.add_argument("--p1", required=True, metavar="EXPR")
    gr.add_argument("--p2", required=True, metavar="EXPR")
    gr.add_argument("--all-orthants", action="store_true",
                    help="emit one program per sign pattern of the variables")
    gr.set_defaults(fn=_cmd_gen_race)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
