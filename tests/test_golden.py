"""Golden digests of the corpus reports and of the interpreter's facts.

Each report digest is the sha256 of the JSON reports (without ``timings``)
of a group of programs, each followed by its SMT scripts: one corpus file at
bound 8 (bound 3 for ``qr``), or ``fuzzgen.generate`` over a range of seeds
at bound 3.
Each facts digest covers one group of ``explore`` runs: state and trace
counts, termination, the races in order, the sorted phases and the full
happens-before matrix over the instances.  Each phase digest covers the
``phi_u``/``phi_v`` strings of every candidate of the all-orthant race tests
of one polynomial pair, so the phase functions are pinned beyond the corpus.
A refactor that should leave the analysis unchanged must keep every digest;
a change that alters reports on purpose must update them here and say why.
"""

import hashlib
import json

import pytest

from clockrace import analyze, explore, parse, parse_poly, race_candidates, race_tests_all_orthants
from clockrace.report import build_report

import fuzzgen
from conftest import CORPUS_NAMES, SIDE_BY_SIDE_CLOCKS, corpus_path, load

GOLDEN = {
    "jacobi": "01d2da75d9a6b5376b62b9182804d674d909fc007071a3f439b81ef3aa7afadd",
    "gauss_seidel": "36d56c4318e5c71f899bd71aacdbc11f7f8853771c037428dd6fa6b040467341",
    "qr": "f412449aadf9f8671a084793671a14d99536be5d562342e359ae83551f6fa638",
    "fig1a": "3cf2145cdfb1856a26695de6099105a12975b428ced734a12caf6e96127d100e",
    "fig1b": "bd1c0a69a4da6729cb643bc95b4894d8de951516ec0ce528fea5e1c4455e5bc5",
    "sor": "beeab51bb4f77311aa51d88efec59f52241cbd253d6573503a69e98da7cabacb",
    "moldyn": "6ee45128e1e0332f470452e3427ff17b173819c69c4ecde932a278acacd6a686",
    "lufact": "5ffaa1e3288d8346b1f9e4d0c93f73012557e6cfae740d70eb885b354d93e9b1",
    "fuzz/0-49": "2f6afb227d06365b387e1dc2b1282aad88174e92621d70e1402ce897e9803c83",
}


def _report_runs(group):
    """(source name, program, bound) of each analysis in a report group."""
    if group.startswith("fuzz/"):
        lo, hi = map(int, group[len("fuzz/"):].split("-"))
        return [(f"fuzz{seed}.cx10", fuzzgen.generate(seed), 3) for seed in range(lo, hi + 1)]
    return [(corpus_path(group).name, load(group), 3 if group == "qr" else 8)]


@pytest.mark.parametrize("group", GOLDEN)
def test_report_digest(group):
    h = hashlib.sha256()
    texts = []
    for source, p, bound in _report_runs(group):
        a = analyze(p, bound=bound)
        report = build_report(source, p, a, [])
        payload = json.loads(report.to_json())
        del payload["timings"]
        h.update(json.dumps(payload, sort_keys=True).encode())
        for script in a.smt_scripts:
            h.update(b"\0" + script.encode())
        texts.append(report.to_text())
    assert h.hexdigest() == GOLDEN[group], "".join(texts)


# An advance under an unclocked finish inside a clocked async: the root
# clock steps only once each activity is stuck through that finish.
STUCK_THROUGH_FINISH = parse(
    "param N >= 1;\narray A[1];\n"
    "clocked finish { for (i=0:N-1) { clocked async {\n"
    "  finish { advance; A[i] = f(); } A[i] = g(); } } advance; A[0] = h(); }\n"
)

SINGLE_RUNS = {
    "qr/N=6": ("qr", {"N": 6}, 1_000_000),
    # runs cut by the state limit, like "fuzz/0-49,max_states=50"
    "moldyn/P=3,T=2,max_states=50": ("moldyn", {"P": 3, "T": 2}, 50),
    "qr/N=4,max_states=50": ("qr", {"N": 4}, 50),
}


def _fact_runs(group):
    """(program, params, max_states) of each run in a facts group."""
    if group.startswith("corpus/"):
        p = load(group[len("corpus/"):])
        return [(p, {k: max(lb, n) for k, lb in p.params}, 1_000_000) for n in (1, 2, 3)]
    if group.startswith("fuzz/"):
        seeds, _, limit = group[len("fuzz/"):].partition(",max_states=")
        lo, hi = map(int, seeds.split("-"))
        progs = [fuzzgen.generate(seed) for seed in range(lo, hi + 1)]
        return [(p, {"N": n}, int(limit or 1_000_000)) for p in progs for n in (1, 2, 3)]
    if group == "side_by_side_clocks/N=1,2":
        return [(SIDE_BY_SIDE_CLOCKS, {"N": n}, 1_000_000) for n in (1, 2)]
    if group == "stuck_through_finish/N=1,2,3":
        return [(STUCK_THROUGH_FINISH, {"N": n}, 1_000_000) for n in (1, 2, 3)]
    name, params, max_states = SINGLE_RUNS[group]
    return [(load(name), params, max_states)]


GOLDEN_FACTS = {
    "corpus/jacobi": "1edc4d811c3aa1374398cc466c6958683eedab28dbf0527ece02a5ece003f3d2",
    "corpus/gauss_seidel": "3ed9e9029766ca81ad570a485583ae69209654da9c35e720bb56bae086573a77",
    "corpus/qr": "5d9163bfc1c91acda311e8638b4e2e224da55f994cd40741dc57a7e8413925bf",
    "corpus/fig1a": "fbd1a056a51694facc52a499b68b2aecd38327c808c0be7353ace176966cd113",
    "corpus/fig1b": "89ff6880659fb7b48e9239715f27d853ea6d92c4e0fce7f58135058d369257c3",
    "corpus/sor": "e22d25ab1e73da2244c53144e0f1f2ea6a36438a0a23c37ea17adb3efbe6103f",
    "corpus/moldyn": "934edd9651beaa6ce7d78929e554db3186f51fb657fe17aead8104ae3e1e207d",
    "corpus/lufact": "65afaa60c26095a7d437799a5a7460efc6a692ceadda69f0f8985967c493149e",
    "fuzz/0-9": "e12c49c105d0965ddf4466d0e1390d2c3781cc9b7c6a5a0d1ca90d2343068be9",
    "fuzz/10-19": "c39c92a61114918af88a4553168aa4fde15194e61cea2b6055e280b8f1ee2a35",
    "fuzz/20-29": "e04d5d6cd82c45d377667070c60267811e4f5563819ea9edf7e006df0070c263",
    "fuzz/30-39": "61c49602b8c2b18f93f10b89d6d8ffa28f4e9bc43706719bdefd406ff9c40a57",
    "fuzz/40-49": "14bd2f3be96b171c3c9f2ec509d74b6ccaa694696c67f894d5b60868fa167f0d",
    "fuzz/0-49,max_states=50": "7fc181f8850e3e169428fb0050ad7ab763e48b8edfe4a5fd5e82d59cf83b494f",
    "qr/N=6": "657c121d9341ce0b60d58a4741c2eb23559ae658aa4cfeece51c37da8fa62719",
    "moldyn/P=3,T=2,max_states=50": "69f5f58c1173b417a874d07d13826b20909faca7a87728b49505cec09aedf9a6",
    "qr/N=4,max_states=50": "86902f93a4175fe4546ca307116f02299835ecfc94f1891010e68e684712813d",
    # two clocks live at once, so a step's counter vector depends on its clock
    "side_by_side_clocks/N=1,2": "4c0195426d83a1c776ced4fd10a917977a9f6e1435eedf8739508df7843cc941",
    # stuckness through an unclocked finish (7, 19 and 55 states)
    "stuck_through_finish/N=1,2,3": "ef54f4c78387ae33472cf8e89d481cc85acd77ea9bc5ba926d952d4dbbf31730",
}


@pytest.mark.parametrize("group", GOLDEN_FACTS)
def test_explore_facts_digest(group):
    h = hashlib.sha256()
    for p, params, max_states in _fact_runs(group):
        res = explore(p, params, max_states=max_states)
        insts = res.instances
        facts = [
            res.state_count,
            res.trace_count,
            res.terminated,
            res.incomplete,
            res.races,
            sorted((inst, sorted(snaps)) for inst, snaps in res.phases.items()),
            "".join("01"[res.hb(u, v)] for u in insts for v in insts),
        ]
        h.update(json.dumps(facts).encode() + b"\0")
    assert h.hexdigest() == GOLDEN_FACTS[group]


GOLDEN_PHASES = {
    ("x^2+3", "4*x"): "a311c1dc2c19f683c6f76889cba774df905ceeda91633fcb415a93ef25a04329",
    ("2*x^2+1", "3*x+2"): "996ce4610d38b6e9029a98b8b5072e5cb707a99e28ca35ddb5beee965f5336c4",
    ("x^2+x+2", "3*x"): "566060ca5c8925083720d2c6916bcdcb06b1c079e5b1a62d7aae27ac158206e0",
    ("3*x^2+3*x*y+y^2+y+2", "3*x^2+3*x*y+x+y^2+2*y+1"):
        "b4e969caa4685fc52bd80bc212108c6c094bf0be4c037fadd7e41f74ac411e67",
    ("x*y+1", "x+y"): "240d221af7f16506f5219a09fd2420713fdf04f73cb52a8ab05577a080c0b4bb",
    ("x^2+2*y", "y^2+2*x+1"): "d1f956b6e7229730367ba9257cda63a2f769418cd11e6f7c6b7cfabcfa19c859",
}


@pytest.mark.parametrize("pair", GOLDEN_PHASES, ids="=".join)
def test_race_test_phase_digest(pair):
    h = hashlib.sha256()
    for test in race_tests_all_orthants(*map(parse_poly, pair)):
        for c in race_candidates(test.program):
            h.update(f"{c.phi_u}\0{c.phi_v}\0".encode())
    assert h.hexdigest() == GOLDEN_PHASES[pair]
