"""An enumerating stub SMT solver, for running ``clockrace analyze
--solver-cmd`` where no real solver is installed::

    python tests/enum_solver.py --box 6 < script.smt2

It reads a script of the subset ``smt_eval`` evaluates on stdin and tries
the points that set each declared constant to an integer in [-box, box].
It prints ``sat`` and a model of ``define-fun`` lines for the first point
where every assertion holds, else ``unknown``: a box cannot show that no
point exists, so it never prints ``unsat``.  A name the script uses but
does not declare is an error (exit 1, nothing on stdout).  Each top-level
conjunct of an assertion is checked as soon as the constants it names are
set, which prunes the search.
"""

import argparse
import sys

from smt_eval import Script, compile_term, read


def _conjuncts(term):
    if isinstance(term, list) and term[0] == "and":
        for t in term[1:]:
            yield from _conjuncts(t)
    else:
        yield term


def _atoms(term):
    if isinstance(term, str):
        yield term
    else:
        for t in term[1:]:
            yield from _atoms(t)


def search(text: str, box: int):
    """The first point of the box where the script holds, or None."""
    script = Script(text)
    declared = script.declared
    # checks[k]: the conjuncts that can be decided once declared[:k] are set
    # and not before; checks[0] holds those that name no constant.
    checks = [[] for _ in range(len(declared) + 1)]
    for command in read(text):
        if command[0] == "assert":
            for term in _conjuncts(command[1]):
                used = set(_atoms(term))
                last = max((k + 1 for k, v in enumerate(declared) if v in used), default=0)
                checks[last].append(compile_term(term, declared))
    point: dict[str, int] = {}

    def extend(k: int) -> bool:
        if not all(f(point) for f in checks[k]):
            return False
        if k == len(declared):
            return True
        for value in range(-box, box + 1):
            point[declared[k]] = value
            if extend(k + 1):
                return True
        del point[declared[k]]
        return False

    if not extend(0):
        return None
    assert script.holds(point)
    return point


def _model(point) -> str:
    lines = ["sat", "("]
    for name, value in point.items():
        text = str(value) if value >= 0 else f"(- {-value})"
        lines.append(f"  (define-fun {name} () Int {text})")
    return "\n".join(lines + [")"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--box", type=int, required=True, help="largest absolute value tried")
    args = ap.parse_args()
    point = search(sys.stdin.read(), args.box)
    print("unknown" if point is None else _model(point))
    return 0


if __name__ == "__main__":
    sys.exit(main())
