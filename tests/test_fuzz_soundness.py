import random

import pytest

from clockrace import print_program
from clockrace.interp import instantiate, term_instances
from clockrace.parser import validate_clock_rules

import fuzzgen
import smallscope


def test_generator_is_deterministic():
    a = fuzzgen.generate(42)
    b = fuzzgen.generate(42)
    assert print_program(a) == print_program(b)


@pytest.mark.parametrize("seed", range(40))
def test_generated_programs_are_valid_and_bounded(seed):
    p = fuzzgen.generate(seed + 10_000)
    assert validate_clock_rules(p) == []
    t = instantiate(p, {"N": fuzzgen.PARAM_RANGE[1]})
    assert 1 <= len(term_instances(t)) <= fuzzgen.MAX_INSTANCES


def test_soundness_on_fresh_seeds():
    # a complementary run on seeds disjoint from the acceptance suite
    stats, errors = fuzzgen.run_soundness_suite(count=60, seed=777_000)
    assert stats["programs"] == 60
    for k, source, errs in errors:
        print(f"violating program (seed {777_000 + k}):\n{source}\n{errs}")
    assert errors == []
    # every static race point of these programs is a dynamic race
    assert stats["spurious_points"] == 0


def test_small_scope_slice_is_sound():
    # every program of the slice, which reaches a clocked finish inside a
    # parallel loop; no valid program hits the state limit, and every
    # static race point is a dynamic race
    valid, skipped, spurious, violations = smallscope.check_slice()
    for source, errs in violations:
        print(f"violating program:\n{source}{errs}")
    assert (valid, skipped, spurious, violations) == (333, 0, 0, [])


def test_checks_catch_a_seeded_unconfirmed_witness():
    # sanity-check the checker itself: a racy program must produce
    # confirmed witnesses, and the checks do inspect them
    from clockrace import parse

    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i1=0:N-1) { async { A[0] = W(A[i1]); } } }\n"
    )
    errs, n_cand, n_wit, spurious = fuzzgen.check_program(p, random.Random(0))
    assert errs == [] and spurious == 0
    assert n_cand >= 1 and n_wit >= 1


def test_checks_catch_a_race_free_candidate_that_races(monkeypatch):
    # the per-candidate checks: an analysis whose every candidate claims
    # race-free, on a program that races, fails both of them
    from clockrace import parse
    from clockrace.races import Verdict

    analyze = fuzzgen.analyze

    def all_race_free(*args, **kwargs):
        a = analyze(*args, **kwargs)
        return a._replace(candidates=[(c, Verdict("race-free", "affine")) for c, _ in a.candidates])

    monkeypatch.setattr(fuzzgen, "analyze", all_race_free)
    p = parse(
        "param N >= 1;\narray A[1];\n"
        "finish { for (i1=0:N-1) { async { A[0] = W(A[i1]); } } }\n"
    )
    errs, n_cand, _, _ = fuzzgen.check_program(p, random.Random(0))
    assert n_cand >= 1
    assert any(e.startswith("race-free ") and "has the dynamic race" in e for e in errs)
    assert any(e.endswith("is in no candidate that is not race-free") for e in errs)
