"""Every small program of a fixed shape, checked for soundness.

A random generator rarely builds some shapes, such as a clocked finish
inside a parallel loop; by the small-scope hypothesis (Jackson, *Software
Abstractions*, 2006) most bugs show in some small input, so this module
enumerates all inputs of a small grammar instead of sampling them.

A program is a spine of control nodes, outermost first, around one block.
The slice here takes every spine of ``SPINE_LENGTH`` nodes from
``SPINE_NODES`` with at most ``MAX_LOOPS`` loops and at least one
``clocked finish``, around the block ``a; advance; b``.  ``a`` and ``b``
are each one of ``LEAVES``, ``a`` calling ``f`` and ``b`` calling ``g``;
``x`` in a leaf is the innermost loop's iterator, or 0.  The texts that
break a clock rule are dropped, and ``fuzzgen.check_program`` checks each
other one.
"""

from __future__ import annotations

import itertools
import random

from clockrace import parse
from clockrace.parser import validate_clock_rules

import fuzzgen

SPINE_NODES = ("for", "async", "clocked async", "finish", "clocked finish")
SPINE_LENGTH = 3
MAX_LOOPS = 2
ITERATORS = ("i", "j")
LEAVES = ("A[{x}] = {f}();", "A[{x} + 1] = {f}();", "A[{x}] = {f}(A[{x} + 1]);")


def texts() -> list[str]:
    """The source of every program of the slice, valid or not."""
    out = []
    for spine in itertools.product(SPINE_NODES, repeat=SPINE_LENGTH):
        if spine.count("for") > MAX_LOOPS or "clocked finish" not in spine:
            continue
        head, x, iterators = "", "0", iter(ITERATORS)
        for node in spine:
            if node == "for":
                x = next(iterators)
                head += f"for ({x} = 0 : N - 1) "
            else:
                head += node + " "
        for a, b in itertools.product(LEAVES, repeat=2):
            block = f"{{ {a.format(x=x, f='f')} advance; {b.format(x=x, f='g')} }}"
            out.append(f"param N >= 1;\narray A[1];\n{head}{block}\n")
    return out


def check_slice():
    """Check every valid program of the slice: (the number of valid
    programs, the number skipped at the state limit, the number of static
    race points that are no dynamic race, and the violations as (source,
    errors) pairs)."""
    valid, skipped, spurious, violations = 0, 0, 0, []
    for text in texts():
        p = parse(text)
        if validate_clock_rules(p):
            continue
        errors, _, _, extra = fuzzgen.check_program(p, random.Random(valid))
        spurious += extra
        valid += 1
        if errors and errors[0].startswith("state limit hit"):
            skipped += 1
        elif errors:
            violations.append((text, errors))
    return valid, skipped, spurious, violations
