import sys
from contextlib import contextmanager
from pathlib import Path

from clockrace import parse, parse_file
from clockrace.interp import instantiate, term_instances

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

CORPUS_NAMES = [
    "jacobi",
    "gauss_seidel",
    "qr",
    "fig1a",
    "fig1b",
    "sor",
    "moldyn",
    "lufact",
]


def corpus_path(name: str) -> Path:
    return CORPUS / f"{name}.cx10"


def load(name: str):
    return parse_file(str(corpus_path(name)))


# A fresh clock per loop iteration, the clocks live side by side: the counter
# vectors hold several clocks at once, and the vector after a clock step
# depends on which clock it advances.
SIDE_BY_SIDE_CLOCKS = parse(
    "param N >= 1;\narray A[1];\n"
    "finish { for (i=0:N-1) { async { clocked finish {\n"
    "  clocked async { advance; A[i] = f(); } advance; A[i] = g(); } } } }\n"
)


def advance_count(p, params) -> int:
    """Number of advance instances the program executes (a counting nest is
    a straight line of clock steps, so this equals its advance count)."""
    return sum(1 for inst in term_instances(instantiate(p, params)) if inst[0] == "advance")


@contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to the caller's stack depth plus ``frames``
    for the body, so code that recurses once per nesting level fails fast;
    the old limit comes back on exit."""
    depth, frame = 0, sys._getframe(2)  # the caller, above __enter__ and this
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
