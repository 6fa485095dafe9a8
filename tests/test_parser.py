import pytest

from clockrace import (
    ParseError,
    parse,
    print_program,
    validate_clock_rules,
)
from conftest import CORPUS_NAMES, load


# ---------------------------------------------------------------------------
# Round trips


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_print_parse_round_trip(name):
    p = load(name)
    printed = print_program(p)
    reparsed = parse(printed)
    assert print_program(reparsed) == printed


def test_comments_and_whitespace_ignored():
    a = parse("param N >= 1;\narray A[1];\nfor (i=0:N) { A[i] = f(); }\n")
    b = parse(
        "// leading comment\nparam N >= 1;  // trailing\narray A[1];\n"
        "for ( i = 0 : N )   {\n  A[ i ] = f( ) ; // body\n}\n"
    )
    assert print_program(a) == print_program(b)


# ---------------------------------------------------------------------------
# Errors carry positions


@pytest.mark.parametrize(
    "source, line",
    [
        ("param N >= ;\n", 1),
        ("param N >= 1;\nparam N >= 2;\n", 2),
        ("param N >= 1;\narray A[1];\nA[i] = f();\n", 3),  # i not in scope
        ("param N >= 1;\narray A[1];\nA[1, 2] = f();\n", 3),  # arity
        ("param N >= 1;\nB[0] = f();\n", 2),  # undeclared array
        ("param N >= 1;\nfor (i=0:N*N) advance;\n", 2),  # non-affine bound
        ("param N >= 1;\nfor (i=0:N) for (i=0:N) advance;\n", 2),  # shadowing
        ("param N >= 1;\narray A[1];\nS(B[0]);\n", 3),  # read of undeclared array
        ("param N >= 1;\n{ advance;\n", 3),  # unterminated block
        ("param N >= 1;\nadvance;\nadvance;\n", 3),  # trailing input
        ("param N >= 1;\nclocked for (i=0:N) advance;\n", 2),  # clocked neither async nor finish
        ("array A[1];\narray A[2];\n", 2),  # duplicate array
    ],
)
def test_parse_errors_have_positions(source, line):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.line == line
    assert exc.value.col >= 1


@pytest.mark.parametrize(
    "guard, canonical",
    [
        ("i < N", "N - 1 >= i"),
        ("i <= N - 1", "N - 1 >= i"),
        ("i == 2", "i >= 2 && 2 >= i"),
        ("(i + 1) * 2 > N", "2*i + 1 >= N"),
    ],
)
def test_guard_forms_parse_to_their_ge_conditions(guard, canonical):
    def conds(g):
        p = parse(f"param N >= 1;\narray A[1];\nfor (i=0:N) if ({g}) A[i] = f();\n")
        return p.root.body.conds

    assert conds(guard) == conds(canonical)


# ---------------------------------------------------------------------------
# Clock validation rules


def _diags(source):
    return validate_clock_rules(parse(source))


def test_clocked_async_needs_clocked_finish():
    assert _diags("param N >= 1;\nfinish { clocked async { } }\n")
    assert not _diags("param N >= 1;\nclocked finish { clocked async { } }\n")


def test_no_unclocked_spawn_between_clocked_async_and_finish():
    assert _diags(
        "param N >= 1;\nclocked finish { async { clocked async { } } }\n"
    )
    assert _diags(
        "param N >= 1;\nclocked finish { finish { clocked async { } } }\n"
    )
    # a clocked async in between is fine
    assert not _diags(
        "param N >= 1;\nclocked finish { clocked async { clocked async { } } }\n"
    )


def test_advance_needs_clocked_finish():
    assert _diags("param N >= 1;\nadvance;\n")
    assert _diags("param N >= 1;\nfinish { advance; }\n")
    assert not _diags("param N >= 1;\nclocked finish { advance; }\n")


def test_no_unclocked_async_between_advance_and_finish():
    assert _diags("param N >= 1;\nclocked finish { async { advance; } }\n")
    # an unclocked finish in between is legal
    assert not _diags("param N >= 1;\nclocked finish { finish { advance; } }\n")


@pytest.mark.parametrize(
    "source, expected",
    [
        ("finish { clocked async { } }",
         ["[clocked-async-enclosure] node 2: clocked async has no governing clocked finish"]),
        ("clocked finish { async { clocked async { } } }",
         ["[clocked-async-unclocked-async] node 4: clocked async under unclocked async (node 2)"]),
        ("clocked finish { finish { clocked async { } } }",
         ["[clocked-async-unclocked-finish] node 4: clocked async under unclocked finish (node 2)"]),
        ("advance;",
         ["[advance-enclosure] node 0: advance is not enclosed by a clocked finish"]),
        ("clocked finish { async { advance; } }",
         ["[advance-unclocked-async] node 4: advance under unclocked async (node 2)"]),
        # innermost offender first, one diagnostic per node and rule
        ("clocked finish { async { finish { async { finish { clocked async { } } } } } }",
         ["[clocked-async-unclocked-finish] node 10: clocked async under unclocked finish (node 8)",
          "[clocked-async-unclocked-async] node 10: clocked async under unclocked async (node 6)"]),
        ("clocked finish { async { async { advance; } } }",
         ["[advance-unclocked-async] node 6: advance under unclocked async (node 4)"]),
        pytest.param(
            "clocked finish { " + "finish { " * 400 + "clocked async { } " + "} " * 400 + "}",
            ["[clocked-async-unclocked-finish] node 802: clocked async under unclocked finish (node 800)"],
            id="400-nested-finish",
        ),
    ],
)
def test_clock_rule_tags(source, expected):
    assert [str(d) for d in _diags("param N >= 1;\n" + source + "\n")] == expected


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_is_valid(name):
    assert validate_clock_rules(load(name)) == []


