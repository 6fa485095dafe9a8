"""An evaluator of the SMT-LIB subset that ``clockrace.smt`` emits.

It shares no code with the emitter, so tests can check what a script means
at a point instead of how it is spelled.  A script's commands are
``declare-const`` of an ``Int``, ``assert``, and ``set-logic``,
``check-sat`` and ``get-model``, which do not bear on its meaning; ``;``
starts a comment.  A term is an integer numeral, a declared constant,
``false``, or an application of ``and``, ``or``, ``+``, ``*``, ``-``
(negation with one argument), or ``=`` or ``>=`` to two arguments.
"""

import re
from math import prod

_TOKEN = re.compile(r"[()]|[^\s()]+")


def read(text: str) -> list:
    """The top-level s-expressions of a script, as nested lists of atoms."""
    stack: list[list] = [[]]
    for line in text.splitlines():
        for token in _TOKEN.findall(line.split(";", 1)[0]):
            if token == "(":
                stack.append([])
            elif token == ")":
                if len(stack) == 1:
                    raise ValueError("unbalanced ')'")
                done = stack.pop()
                stack[-1].append(done)
            else:
                stack[-1].append(token)
    if len(stack) != 1:
        raise ValueError("unbalanced '('")
    return stack[0]


def compile_term(term, declared):
    """A function from a point (a mapping of the declared constants) to the
    integer or truth value of a term."""
    if isinstance(term, str):
        if term == "false":
            return lambda point: False
        if term.isdigit():
            n = int(term)
            return lambda point: n
        if term not in declared:
            raise ValueError(f"constant {term!r} is not declared")
        return lambda point: point[term]
    op, *args = term
    fs = [compile_term(a, declared) for a in args]
    if op == "and":
        return lambda point: all(f(point) for f in fs)
    if op == "or":
        return lambda point: any(f(point) for f in fs)
    if op == "+":
        return lambda point: sum(f(point) for f in fs)
    if op == "*":
        return lambda point: prod(f(point) for f in fs)
    if op == "-" and fs:
        first, rest = fs[0], fs[1:]
        if not rest:
            return lambda point: -first(point)
        return lambda point: first(point) - sum(f(point) for f in rest)
    if op in ("=", ">=") and len(fs) == 2:
        a, b = fs
        if op == "=":
            return lambda point: a(point) == b(point)
        return lambda point: a(point) >= b(point)
    raise ValueError(f"{op!r} with {len(fs)} arguments is outside the subset")


class Script:
    """A parsed script: its declared constants, in order, and a test of
    its assertions at a point."""

    def __init__(self, text: str) -> None:
        self.declared: list[str] = []
        self.asserts: list = []
        for command in read(text):
            head = command[0]
            if head == "declare-const":
                if command[2] != "Int":
                    raise ValueError(f"constant {command[1]} is not an Int")
                self.declared.append(command[1])
            elif head == "assert":
                self.asserts.append(compile_term(command[1], self.declared))
            elif head not in ("set-logic", "check-sat", "get-model"):
                raise ValueError(f"command {head!r} is outside the subset")

    def holds(self, point) -> bool:
        """Whether every assertion holds with each declared constant set to
        its value in point."""
        return all(f(point) for f in self.asserts)
