"""What the benchmark harness in ``perfbench/`` reads of the program.

Its tracer wraps names in the analyzer's module namespaces, and its frozen
fuzz generator walks the instantiated term format.  A rename or a format
change there would otherwise only show when the benchmark runs.  The
modules are loaded by path, under names of their own, since
``tests/fuzzgen.py`` shares the generator's module name."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from clockrace import parse, parse_poly, race_test
from clockrace.interp import instantiate

from conftest import load

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_boundary():
    """Jacobi reaches the static layers; a nonlinear race test with a stub
    solver that answers unknown reaches SMT emission and, in the bounded
    tier, the interpreter."""
    races = importlib.import_module("clockrace.races")
    tracer = perfbench_module("tracing").Tracer()
    squares = race_test(parse_poly("x^2"), parse_poly("y^2")).program
    with tracer.installed():
        races.analyze(load("jacobi"))
        races.analyze(squares, solver_cmd="echo unknown", bound=2)
    for counter in ("phi.calls", "affine.calls", "hb.calls", "interp.calls", "smt.bytes",
                    "races.verdict.race-free", "races.verdict.witness"):
        assert tracer.counters[counter] > 0, counter


def test_frozen_fuzz_generator_reads_the_term_format():
    p = parse("param N >= 1;\narray A[1];\nfinish for (i=0:N-1) async A[i] = f();\n")
    assert perfbench_module("fuzzgen")._count_asyncs(instantiate(p, {"N": 3})) == 3


def test_harness_runs_a_short_traced_pass():
    """A one-second traced run of the smallest workload: what the harness
    reads of the program (the traced names, ``build_report`` and a
    candidate's system) must still be there for it to pass."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-static",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
