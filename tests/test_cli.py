import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_analyze_negative_bound_exit_1(capsys):
    """A negative bound would search only at the parameters' lower bounds
    and still be reported as the bound; it is refused instead."""
    code, out, err = run(capsys, "analyze", str(corpus_path("qr")), "--bound", "-3")
    assert code == 1
    assert out == ""
    assert err == "error: --bound must be at least 0, got -3\n"


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
