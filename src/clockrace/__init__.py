"""Static data-race analysis for polyhedral clocked task-parallel programs.

The package pairs a conservative static analyzer (happens-before plus
advance-count phase functions over affine constraint systems) with an
exhaustive reference interpreter used as ground truth, plus generators that
compile polynomials into synchronization patterns.
"""

from .affine import AffineSet, eq, ge, is_empty
from .generators import counting_nest, parse_poly, race_test, race_tests_all_orthants
from .hb import hb_disjuncts, reduce_clock, unordered_disjuncts
from .interp import explore, instantiate
from .parser import ParseError, parse, parse_file, validate_clock_rules
from .phi import QuasiPoly, phi
from .races import Analysis, RaceCandidate, Verdict, analyze, race_candidates
from .smt import emit_smtlib, run_solver
from .syntax import print_program

__all__ = [
    "AffineSet",
    "Analysis",
    "ParseError",
    "QuasiPoly",
    "RaceCandidate",
    "Verdict",
    "analyze",
    "counting_nest",
    "emit_smtlib",
    "eq",
    "explore",
    "ge",
    "hb_disjuncts",
    "instantiate",
    "is_empty",
    "parse",
    "parse_file",
    "parse_poly",
    "phi",
    "print_program",
    "race_candidates",
    "race_test",
    "race_tests_all_orthants",
    "reduce_clock",
    "run_solver",
    "unordered_disjuncts",
    "validate_clock_rules",
]
