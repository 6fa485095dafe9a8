from pathlib import Path

from clockrace import parse_file
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


def advance_count(p, params) -> int:
    """Number of advance instances the program executes (a counting nest is
    a straight line of clock steps, so this equals its advance count)."""
    return sum(1 for inst in term_instances(instantiate(p, params)) if inst[0] == "advance")
