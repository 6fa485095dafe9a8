"""Benchmark workloads: inputs plus an answer for each that does not come
from the analyzer.

Each workload is a list of cases (one program each, analyzed once per
pass) and a list of command-line calls.  A case carries a check that
compares the analysis with the known answer and returns the breaches; every
reported witness is also substituted back into its candidate system.

- corpus-static: the seven corpus kernels the affine tier decides.  Known
  answer: every one is race-free.
- qr-bounded: the QR kernel at bound 8 without a solver, where the bounded
  tier does nearly all the work.  Known answer: never PotentialRaces.
- race-hunt: programs that race or that the bounded tier must search.
  Polynomial race tests (answer: whether P1 = P2 has a root in the box, by
  evaluation), two negative controls (answer: confirmed races), and seeded
  fuzz programs (answer: the exhaustive interpreter at N = 1..3).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from clockrace import parse, parse_poly, print_program, race_test
from clockrace.interp import explore

import fuzzgen

CORPUS_STATIC = ("jacobi", "gauss_seidel", "fig1a", "fig1b", "sor", "moldyn", "lufact")
QR_BOUND = 8
QR_CLI_BOUND = 3

# Every nonnegative integer root of a nonzero univariate polynomial of
# degree <= 2 with coefficients in [-3, 3] is at most 1 + 3/1 = 4 (Cauchy's
# bound), so the box [0, 4] holds all roots a univariate pair can have and
# the bounded tier at this bound finds one whenever one exists.
PAIR_BOX = 4
# Pair costs differ by up to 100x between draws.  A fresh draw per run
# would make run-to-run spread measure the draw, not the program, so the
# pairs are drawn once with this seed; --seed picks which side of each
# pair writes, the fuzz programs and the order of the cases.
PAIR_DRAW_SEED = 20131118
PAIR_QUOTAS = (("x", True, 5), ("x", False, 5), ("xy", True, 2))
# Fuzz programs are kept when the interpreter sees them race at some N in
# fuzzgen.PARAM_RANGE, so each one exercises witness search and
# confirmation.  They must also have at most FUZZ_MAX_STATES states at
# N = CONFIRM_MAX_PARAM, the largest parameter value at which the analyzer
# replays a witness.  About one racing program in seven is larger; the
# replay of one can run into the analyzer's own 60 000-state limit and cost
# seconds, so whether a seed drew one would swing the workload's total time
# by half.  Fuzz programs take 1 to 10 ms each, and the median call of
# the workload is one of them: in resampling, that median moved by 9 %
# between draws of 100 programs and by 7 % between draws of 150.  More
# would push the 10 slow race tests below the 5 % tail of the calls.
FUZZ_PROGRAMS = 150
FUZZ_MAX_STATES = 2_000
CONFIRM_MAX_PARAM = 6

# The acceptance suite's negative control: Jacobi without its second advance.
JACOBI_NEGATIVE = """param N >= 2;
param T >= 0;
array A[1];
array B[1];
clocked finish { for (i = 1 : N - 1) { clocked async { for (t = 0 : T) {
  B[i] = S0(A[i - 1], A[i], A[i + 1]);
  advance;
  A[i] = S1(B[i - 1], B[i], B[i + 1]);
} } } }
"""
# Gauss-Seidel without the advance in the spawning loop.
GAUSS_SEIDEL_NEGATIVE = """param N >= 2;
param T >= 0;
array A[1];
clocked finish { for (i = 1 : N - 1) { clocked async { for (t = 0 : T) {
  advance;
  A[i] = S0(A[i - 1], A[i], A[i + 1]);
  advance;
} } } }
"""

Check = Callable[[object], list[str]]  # analysis -> breaches


@dataclass
class Case:
    label: str
    source: str
    path: Optional[str]  # parsed from this file, as the CLI does, when set
    bound: int
    check: Check


@dataclass
class CliCall:
    label: str
    source: str
    path: Optional[str]  # written to a scratch file first when None
    args: tuple[str, ...]
    exit_codes: frozenset[int]


@dataclass
class Workload:
    cases: list[Case]
    cli: list[CliCall]


# ---------------------------------------------------------------------------
# Checks


def witness_errors(analysis) -> list[str]:
    """Substitute every witness back into its candidate system."""
    errors = []
    for cand, v in analysis.candidates:
        if v.status != "witness":
            continue
        w = v.witness or {}
        try:
            ok = all(c.satisfied(w) for c in cand.system.context) and cand.system.contains(w)
            if ok and cand.reduction is not None and None not in (cand.phi_u, cand.phi_v):
                ok = cand.phi_u.evaluate(w) == cand.phi_v.evaluate(w)
        except KeyError:
            ok = False
        if not ok:
            errors.append(f"candidate {cand.index}: witness {w} fails substitution")
    return errors


def _expect(allowed: set[str], confirmed: bool = False, extra=None) -> Check:
    def check(analysis) -> list[str]:
        errors = witness_errors(analysis)
        if analysis.verdict not in allowed:
            errors.append(f"verdict {analysis.verdict}, expected one of {sorted(allowed)}")
        if confirmed and not all(v.confirmed for _, v in analysis.candidates if v.status == "witness"):
            errors.append("a witness is not confirmed by the interpreter")
        if extra is not None:
            errors += extra(analysis)
        return errors

    return check


# ---------------------------------------------------------------------------
# Polynomial pairs: coefficient maps {exponents: coefficient}


def _monomials(variables: str) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(3), repeat=len(variables)) if sum(e) <= 2]


def _evaluate(poly: dict, point: tuple[int, ...]) -> int:
    total = 0
    for exps, c in poly.items():
        term = c
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total


def _poly_text(poly: dict, variables: str) -> str:
    terms = []
    for exps, c in sorted(poly.items(), reverse=True):
        if c == 0:
            continue
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e)
        terms.append(f"{c}*{mono}" if mono and c != 1 else (mono or str(c)))
    return "+".join(terms) or "0"


def _has_root(p1: dict, p2: dict, variables: str) -> bool:
    box = itertools.product(range(PAIR_BOX + 1), repeat=len(variables))
    return any(_evaluate(p1, pt) == _evaluate(p2, pt) for pt in box)


def draw_pairs(rng: random.Random) -> list[tuple[str, dict, dict, bool]]:
    """Pairs of polynomials of degree <= 2 with coefficients 0..3 whose
    difference involves every variable, filled to PAIR_QUOTAS by class."""
    out = []
    for variables, want_root, count in PAIR_QUOTAS:
        monos = _monomials(variables)
        while sum(1 for v, *_, r in out if v == variables and r == want_root) < count:
            p1 = {m: rng.randint(0, 3) for m in monos}
            p2 = {m: rng.randint(0, 3) for m in monos}
            uses_all = all(
                any(p1[m] != p2[m] and m[i] for m in monos) for i in range(len(variables))
            )
            if uses_all and _has_root(p1, p2, variables) == want_root:
                out.append((variables, p1, p2, want_root))
    return out


def _pair_check(variables: str, writer: dict, reader: dict, has_root: bool) -> Check:
    def roots_hold(analysis) -> list[str]:
        errors = []
        for _, v in analysis.candidates:
            if v.status != "witness":
                continue
            w = v.witness or {}
            pu = tuple(w.get("u_" + x) for x in variables)
            pv = tuple(w.get("v_" + x) for x in variables)
            if None in pu or pu != pv or _evaluate(writer, pu) != _evaluate(reader, pv):
                errors.append(f"witness {w} is not a common root")
        return errors

    allowed = {"PotentialRaces"} if has_root else {"RaceFree", "Unknown"}
    return _expect(allowed, extra=roots_hold)


# ---------------------------------------------------------------------------
# Workloads


def _corpus(root: Path, name: str) -> tuple[str, str]:
    path = root / "corpus" / f"{name}.cx10"
    return str(path), path.read_text()


def corpus_static(root: Path, seed: int) -> Workload:
    cases, cli = [], []
    for name in CORPUS_STATIC:
        path, source = _corpus(root, name)
        cases.append(Case(name, source, path, 8, _expect({"RaceFree"})))
        cli.append(CliCall(name, source, path, (), frozenset({0})))
    return Workload(cases, cli)


def qr_bounded(root: Path, seed: int) -> Workload:
    path, source = _corpus(root, "qr")
    allowed = {"RaceFree", "Unknown"}
    case = Case("qr", source, path, QR_BOUND, _expect(allowed))
    cli = CliCall("qr", source, path, ("--bound", str(QR_CLI_BOUND)), frozenset({0, 3}))
    return Workload([case], [cli])


def _dynamic_races(source: str, valuations, max_states: int = 200_000) -> Optional[bool]:
    """Whether the exhaustive interpreter sees a race at some valuation;
    None when it needs more than max_states states to tell."""
    for params in valuations:
        res = explore(parse(source), params, max_states=max_states)
        if res.races:
            return True
        if res.incomplete:
            return None
        if not res.terminated:
            raise RuntimeError(f"deadlock at {params}:\n{source}")
    return False


def race_hunt(root: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    cases, cli = [], []
    for label, source in (("jacobi-neg", JACOBI_NEGATIVE), ("gauss-seidel-neg", GAUSS_SEIDEL_NEGATIVE)):
        if not _dynamic_races(source, [{"N": 3, "T": 1}]):
            raise RuntimeError(f"{label}: the interpreter shows no race")
        cases.append(Case(label, source, None, PAIR_BOX, _expect({"PotentialRaces"}, confirmed=True)))
        cli.append(CliCall(label, source, None, ("--bound", str(PAIR_BOX)), frozenset({2})))

    for k, (variables, p1, p2, has_root) in enumerate(draw_pairs(random.Random(PAIR_DRAW_SEED))):
        writer, reader = (p2, p1) if rng.random() < 0.5 else (p1, p2)
        texts = _poly_text(writer, variables), _poly_text(reader, variables)
        program = race_test(parse_poly(texts[0]), parse_poly(texts[1])).program
        check = _pair_check(variables, writer, reader, has_root)
        cases.append(Case(f"pair{k}:{texts[0]}={texts[1]}", print_program(program), None, PAIR_BOX, check))

    lo, hi = fuzzgen.PARAM_RANGE
    fuzz = 0
    while fuzz < FUZZ_PROGRAMS:
        source = print_program(fuzzgen.generate(rng.randrange(1 << 30)))
        valuations = [{"N": n} for n in range(lo, hi + 1)]
        if not _dynamic_races(source, valuations, FUZZ_MAX_STATES):
            continue
        if explore(parse(source), {"N": CONFIRM_MAX_PARAM}, max_states=FUZZ_MAX_STATES).incomplete:
            continue
        cases.append(Case(f"fuzz{fuzz}", source, None, PAIR_BOX, _expect({"PotentialRaces", "Unknown"})))
        fuzz += 1
    rng.shuffle(cases)
    return Workload(cases, cli)


WORKLOADS = {"corpus-static": corpus_static, "qr-bounded": qr_bounded, "race-hunt": race_hunt}
