import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clockrace
from clockrace import parse
from clockrace.cli import main

from conftest import corpus_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_race_free_exit_0(capsys):
    code, out, _ = run(capsys, "analyze", str(corpus_path("jacobi")))
    assert code == 0
    assert "verdict: RaceFree" in out
    assert "race candidates: 4" in out


def test_analyze_potential_races_exit_2(tmp_path, capsys):
    f = tmp_path / "racy.cx10"
    f.write_text(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i=0:N-1) { async { A[0] = W(A[i]); } } }\n"
    )
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 2
    assert "PotentialRaces" in out
    assert "confirmed" in out


def test_analyze_unknown_exit_3(capsys):
    code, out, _ = run(capsys, "analyze", str(corpus_path("qr")), "--bound", "2")
    assert code == 3
    assert "Unknown(8)" in out


def test_analyze_text_says_why_a_witness_was_not_replayed(tmp_path, capsys):
    f = tmp_path / "racy.cx10"
    f.write_text(
        "param N >= 7;\narray A[1];\n"
        "finish { async { A[0] = f(); } async { A[0] = g(); } }\n"
    )
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 2
    assert ": witness/affine at N=7 (not replayed: parameter above 6)\n" in out


def test_analyze_text_of_a_witness_without_variables(tmp_path, capsys):
    """A program with no parameters and no loops races at the empty point:
    the text line has no dangling ``at``."""
    f = tmp_path / "racy.cx10"
    f.write_text("array A[1];\nfinish { async A[0] = f(); async A[0] = g(); }\n")
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 2
    assert "  [0] f:A[0] vs g:A[0] [write-write]: witness/affine (confirmed)\n" in out


def test_analyze_negative_bound_exit_1(capsys):
    """A negative bound would search only at the parameters' lower bounds
    and still be reported as the bound; it is refused instead."""
    code, out, err = run(capsys, "analyze", str(corpus_path("qr")), "--bound", "-3")
    assert code == 1
    assert out == ""
    assert err == "error: --bound must be at least 0, got -3\n"


@pytest.mark.parametrize(
    "solver_cmd, message",
    [(" ", "--solver-cmd is empty"), ('"x', "--solver-cmd '\"x': No closing quotation")],
)
def test_analyze_bad_solver_cmd_exit_1(capsys, solver_cmd, message):
    """A command that does not split into a program and its arguments is
    refused before the analysis, not met as a traceback in the SMT tier."""
    code, out, err = run(
        capsys, "analyze", str(corpus_path("qr")), "--bound", "2", "--solver-cmd", solver_cmd
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_analyze_parse_error_exit_1(tmp_path, capsys):
    f = tmp_path / "bad.cx10"
    f.write_text("param N >= ;\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 1
    assert ":1:" in err  # line number in the message


def test_analyze_validation_error_exit_1(tmp_path, capsys):
    f = tmp_path / "invalid.cx10"
    f.write_text("param N >= 1;\nadvance;\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 1
    assert "advance" in err


@pytest.mark.parametrize(
    "source",
    [
        # would read as RaceFree: the parameter u_i is captured by the
        # instance variable of iterator i, yet S0 at i = 1 reads the A[0]
        # that S0 at i = 0 writes
        "param u_i >= 1;\narray A[1];\n"
        "finish { for (i = 0 : u_i) { async { A[i] = S0(A[0]); } } }\n",
        # would print the phase as unavailable: a_t is a phase-counting name
        "param a_t >= 1;\narray A[1];\n"
        "clocked finish { for (t = 0 : a_t) { advance; }\n"
        "  clocked async { A[0] = S0(); } A[0] = S1(); }\n",
    ],
    ids=["u_i", "a_t"],
)
def test_analyze_reserved_parameter_prefix_exit_1(tmp_path, capsys, source):
    f = tmp_path / "reserved.cx10"
    f.write_text(source)
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"{f}:1:7: error: parameter ") and "reserved prefix" in line


def test_analyze_phase_table_keeps_parameter_names(tmp_path, capsys):
    # a parameter whose name contains u_ keeps it in the phase table
    f = tmp_path / "mu.cx10"
    f.write_text(
        "param mu_N >= 1;\narray A[1];\n"
        "clocked finish { for (t = 0 : mu_N) { advance; }\n"
        "  clocked async { A[0] = S0(); } A[0] = S1(); }\n"
    )
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 2
    assert "  phi[S0@clock0] = mu_N+1\n  phi[S1@clock0] = mu_N+1\n" in out


def test_analyze_deep_nesting_exit_1(tmp_path, capsys):
    f = tmp_path / "deep.cx10"
    f.write_text("param N >= 1;\n" + "{" * 3000 + "\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "error: input nested too deeply" in err


def test_analyze_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent.cx10")
    assert code == 1 and err


def test_analyze_non_utf8_file_exit_1(tmp_path, capsys):
    f = tmp_path / "latin1.cx10"
    f.write_bytes("param N >= 1; // caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {f} is not UTF-8 text: ") and err.count("\n") == 1


def test_analyze_json_into_missing_directory_exit_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "analyze", str(corpus_path("jacobi")), "--json", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_analyze_emit_smt_onto_a_file_exit_1(tmp_path, capsys):
    existing = tmp_path / "smt"
    existing.write_text("keep")
    code, out, err = run(
        capsys, "analyze", str(corpus_path("gauss_seidel")), "--emit-smt", str(existing)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert existing.read_text() == "keep"


def test_analyze_json_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run(capsys, "analyze", str(corpus_path("jacobi")), "--json", str(out1))
    run(capsys, "analyze", str(corpus_path("jacobi")), "--json", str(out2))
    blob1, blob2 = out1.read_text(), out2.read_text()
    payload = json.loads(blob1)
    assert payload["status"] == "RaceFree"
    assert len(payload["candidates"]) == 4
    assert payload["phi"]  # the phase table is included
    payload2 = json.loads(blob2)
    payload.pop("timings"), payload2.pop("timings")
    assert payload == payload2


def test_analyze_emits_smt_files(tmp_path, capsys):
    outdir = tmp_path / "smt"
    code, _, _ = run(
        capsys,
        "analyze",
        str(corpus_path("gauss_seidel")),
        "--emit-smt",
        str(outdir),
    )
    assert code == 0
    names = sorted(f.name for f in outdir.iterdir())
    assert names == ["race_0.smt2", "race_1.smt2"]
    for f in outdir.iterdir():
        assert "(check-sat)" in f.read_text()


def test_analyze_with_solver_stub(capsys):
    code, out, _ = run(
        capsys, "analyze", str(corpus_path("qr")), "--solver-cmd", "echo unsat"
    )
    assert code == 0
    assert "race-free/smt" in out


# ---------------------------------------------------------------------------
# interpret


def test_interpret_basic(capsys):
    code, out, _ = run(
        capsys,
        "interpret",
        str(corpus_path("jacobi")),
        "--param", "N=3",
        "--param", "T=1",
    )
    assert code == 0
    assert "dynamic races: 0" in out
    assert "terminated: True" in out


def test_interpret_reports_races(tmp_path, capsys):
    f = tmp_path / "racy.cx10"
    f.write_text(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i=0:N-1) { async { A[0] = W(A[i]); } } }\n"
    )
    code, out, _ = run(capsys, "interpret", str(f), "--param", "N=2")
    assert code == 0
    assert "dynamic races:" in out and "W" in out


def test_interpret_missing_param_exit_1(capsys):
    code, _, err = run(capsys, "interpret", str(corpus_path("jacobi")), "--param", "N=3")
    assert code == 1
    assert "T" in err


def test_interpret_deep_nesting_exit_1(tmp_path, capsys):
    # deep enough for the interpreter's recursion, shallow enough to parse
    depth = 400
    f = tmp_path / "deep.cx10"
    f.write_text(
        "param N >= 1;\narray A[1];\n"
        + "finish {\n" * depth + "A[0] = f();\n" + "}\n" * depth
    )
    code, _, err = run(capsys, "interpret", str(f), "--param", "N=1")
    assert code == 1
    assert err == "error: program nested too deeply to interpret\n"


def test_interpret_out_of_memory_exit_1(monkeypatch, capsys):
    # an exploration that runs out of memory ends in one error line, as in
    # the bounded tier; the failure is simulated rather than provoked
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(clockrace.cli, "explore", exhausted)
    code, out, err = run(capsys, "interpret", str(corpus_path("qr")), "--param", "N=2")
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


def test_interpret_param_below_bound_exit_1(capsys):
    code, out, err = run(capsys, "interpret", str(corpus_path("qr")), "--param", "N=-5")
    assert code == 1 and out == ""
    assert err == "error: parameter N=-5 below bound 2\n"


def test_interpret_state_limit_exit_4(capsys):
    code, out, _ = run(
        capsys,
        "interpret",
        str(corpus_path("moldyn")),
        "--param", "P=3",
        "--param", "T=2",
        "--max-states", "50",
    )
    assert code == 4
    assert "incomplete" in out



def test_interpret_bad_max_states_exit_1(capsys):
    """A limit below 1 would still explore the initial state and report the
    run as cut; it is refused instead."""
    for limit in ("0", "-1"):
        code, out, err = run(
            capsys,
            "interpret",
            str(corpus_path("jacobi")),
            "--param", "N=2",
            "--param", "T=1",
            "--max-states", limit,
        )
        assert code == 1 and out == ""
        assert err == f"error: --max-states must be at least 1, got {limit}\n"


def test_interpret_bad_param_value_exit_1(capsys):
    """Only an optionally signed run of ASCII digits is an INT."""
    for value in ("--5", "\u00b2"):
        code, out, err = run(capsys, "interpret", str(corpus_path("qr")), "--param", f"N={value}")
        assert code == 1 and out == ""
        assert err == f"error: bad --param 'N={value}', expected NAME=INT\n"


def test_interpret_undeclared_param_exit_1(capsys):
    code, out, err = run(
        capsys, "interpret", str(corpus_path("qr")), "--param", "N=2", "--param", "Q=1"
    )
    assert code == 1 and out == ""
    assert err == "error: --param 'Q=1': the program has no parameter Q\n"


def test_interpret_repeated_param_exit_1(capsys):
    code, out, err = run(
        capsys, "interpret", str(corpus_path("qr")), "--param", "N=2", "--param", "N=3"
    )
    assert code == 1 and out == ""
    assert err == "error: --param N given more than once\n"


# ---------------------------------------------------------------------------
# generators


def test_gen_count_output_reparses(capsys):
    code, out, _ = run(capsys, "gen-count", "--poly", "x^2+x*y+y^2")
    assert code == 0
    p = parse(out)
    assert [n for n, _ in p.params] == ["x", "y"]


def test_gen_count_bad_poly_exit_1(capsys):
    code, _, err = run(capsys, "gen-count", "--poly", "x^")
    assert code == 1 and err


def test_gen_count_reserved_variable_exit_1(capsys):
    # the variable would become a parameter that analyze refuses
    for poly, message in (
        ("u_x^2+1", "variable 'u_x' uses a reserved prefix u_, v_ or a_"),
        ("advance", "variable 'advance' is a keyword"),
    ):
        code, out, err = run(capsys, "gen-count", "--poly", poly)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


def test_gen_race_keyword_variable_exit_1(capsys):
    # the variable would become a loop iterator that analyze refuses
    code, out, err = run(capsys, "gen-race", "--p1", "for", "--p2", "2")
    assert code == 1 and out == ""
    assert err == "error: variable 'for' is a keyword\n"


def test_gen_race_output_reparses(capsys):
    code, out, _ = run(capsys, "gen-race", "--p1", "x", "--p2", "y")
    assert code == 0
    assert out.startswith("// orthant 0")
    parse(out)


def test_gen_race_all_orthants(capsys):
    code, out, _ = run(capsys, "gen-race", "--p1", "x^2", "--p2", "4", "--all-orthants")
    assert code == 0
    assert "// orthant 0: x+" in out
    assert "// orthant 1: x-" in out


def test_gen_race_negative_coefficient_exit_1(capsys):
    # without --all-orthants each side must have nonnegative coefficients
    code, out, err = run(capsys, "gen-race", "--p1", "x", "--p2", "x-1")
    assert code == 1 and out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# packaging


def test_import_does_not_load_sympy():
    # sympy is a test oracle only; the package has no runtime dependencies
    src = str(Path(clockrace.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, clockrace, clockrace.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_startup_imports_only_the_stdlib_it_runs():
    # records are NamedTuples, so dataclasses (and the inspect it loads) is
    # never imported; subprocess and json are imported by run_solver and
    # Report.to_json when they run.  -S keeps site's own imports out.
    src = str(Path(clockrace.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import clockrace, clockrace.cli, clockrace.report; "
        "print([m for m in ('dataclasses', 'inspect', 'subprocess', 'json') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
