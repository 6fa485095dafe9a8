import pytest
from hypothesis import given
from hypothesis import strategies as st

from clockrace import (
    ParseError,
    parse,
    print_program,
    validate_clock_rules,
)
from clockrace.syntax import Advance, AffineExpr, Basic, Finish, For, Program, Seq
from conftest import CORPUS_NAMES, load


# ---------------------------------------------------------------------------
# Round trips


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_print_parse_round_trip(name):
    p = load(name)
    printed = print_program(p)
    reparsed = parse(printed)
    assert print_program(reparsed) == printed


def _preorder(s):
    yield s
    if isinstance(s, Seq):
        for c in s.body:
            yield from _preorder(c)
    elif hasattr(s, "body"):
        yield from _preorder(s.body)


def _parents(p):
    """Each node's parent id, read from its root path; None for the root, id 0."""
    return {i: p.path_to(i)[-2].node_id if i else None for i in p.nodes}


def test_program_numbers_a_hand_built_tree_in_pre_order():
    loop = For(var="i", lo=AffineExpr(), hi=AffineExpr.var("N"),
               body=Seq(body=(Advance(), Basic(name="f"))))
    tree = Finish(clocked=True, body=Seq(body=(loop, Basic(name="g"))))
    p = Program(root=tree, params=(("N", 1),), arrays=())
    nodes = list(_preorder(p.root))
    assert [type(n).__name__ for n in nodes] == [
        "Finish", "Seq", "For", "Seq", "Advance", "Basic", "Basic"
    ]
    assert [n.node_id for n in nodes] == list(range(7))
    assert list(p.nodes) == list(range(7))
    assert all(p.nodes[n.node_id] is n for n in nodes)
    assert _parents(p) == {0: None, 1: 0, 2: 1, 3: 2, 4: 3, 5: 3, 6: 1}
    assert tree.node_id == -1 and tree.body.body[1].node_id == -1  # the input is unchanged
    # an already-numbered tree keeps its ids
    again = Program(root=p.root, params=p.params, arrays=p.arrays)
    assert [n.node_id for n in _preorder(again.root)] == list(range(7))
    assert _parents(again) == _parents(p)
    # a preset id is ignored: ids stay unique and in pre-order
    q = Program(root=Seq(body=(Advance(), Basic(name="f", node_id=0))), params=(), arrays=())
    assert [n.node_id for n in _preorder(q.root)] == [0, 1, 2]
    assert _parents(q) == {0: None, 1: 0, 2: 0}


def test_comments_and_whitespace_ignored():
    a = parse("param N >= 1;\narray A[1];\nfor (i=0:N) { A[i] = f(); }\n")
    b = parse(
        "// leading comment\nparam N >= 1;  // trailing\narray A[1];\n"
        "for ( i = 0 : N )   {\n  A[ i ] = f( ) ; // body\n}\n"
    )
    assert print_program(a) == print_program(b)


# ---------------------------------------------------------------------------
# Errors carry positions


def _at(source, line, col):
    """One error case, named by its source and line."""
    return pytest.param(source, line, col, id=f"{source}-{line}")


@pytest.mark.parametrize(
    "source, line, col",
    [
        _at("param N >= ;\n", 1, 12),
        _at("param N >= 1;\nparam N >= 2;\n", 2, 9),
        _at("param N >= 1;\narray A[1];\nA[i] = f();\n", 3, 3),  # i not in scope
        _at("param N >= 1;\narray A[1];\nA[1, 2] = f();\n", 3, 1),  # arity
        _at("param N >= 1;\nB[0] = f();\n", 2, 2),  # undeclared array
        _at("param N >= 1;\nfor (i=0:N*N) advance;\n", 2, 11),  # non-affine bound
        _at("param N >= 1;\nfor (i=0:N) for (i=0:N) advance;\n", 2, 18),  # shadowing
        _at("param N >= 1;\narray A[1];\nS(B[0]);\n", 3, 3),  # read of undeclared array
        _at("param N >= 1;\n{ advance;\n", 3, 1),  # unterminated block
        _at("param N >= 1;\nadvance;\nadvance;\n", 3, 1),  # trailing input
        _at("param N >= 1;\nclocked for (i=0:N) advance;\n", 2, 9),  # clocked neither async nor finish
        _at("array A[1];\narray A[2];\n", 2, 8),  # duplicate array
        _at("param N >= 1;\nparam v_x >= 0;\n", 2, 7),  # reserved parameter prefix
        _at("param N >= 1; // c\n\tadvance $;\n", 2, 10),  # bad character after a tab
        _at("param N >= 1;\n{ advance;", 2, 11),  # unterminated block, no final newline
        _at("param N >= 1;\nfor (i=0:N^2) advance;\n", 2, 11),  # no powers in programs
        _at("param 5 >= 1;\n", 1, 7),  # expected identifier
        _at("array A[x];\n", 1, 9),  # expected dimensionality
        _at("param N >= 1;\nfor (i=0:) advance;\n", 2, 10),  # expected expression
        _at("param N >= 1;\nfor (i=0:N) if (i = 0) advance;\n", 2, 19),  # expected comparison
        _at("param N >= 1;\n;\n", 2, 1),  # expected statement
    ],
)
def test_parse_errors_have_positions(source, line, col):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{line}:{col}: {exc.value.message}"


@given(st.text(alphabet="ab\n\t\r \u2028", max_size=40), st.data())
def test_error_position_matches_a_character_walk(source, data):
    offset = data.draw(st.integers(0, len(source)))
    line, col = 1, 1
    for ch in source[:offset]:
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    err = ParseError("m", source, offset)
    assert (err.line, err.col) == (line, col)


@pytest.mark.parametrize("subscript", ["0*N*M", "(N-N)*M", "N*0*M"])
def test_products_with_a_constant_zero_side_are_affine(subscript):
    """A side is constant when it has no terms, however it is written."""
    p = parse(f"param N >= 1;\nparam M >= 1;\narray A[1];\nA[{subscript}] = f();\n")
    assert p.root.write.subscripts == (AffineExpr(),)


@pytest.mark.parametrize(
    "guard, canonical",
    [
        ("i < N", "N - 1 >= i"),
        ("i <= N - 1", "N - 1 >= i"),
        ("i == 2", "i >= 2 && 2 >= i"),
        ("(i + 1) * 2 > N", "2*i + 1 >= N"),
        ("-i >= -N", "N >= i"),
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


