"""Static data-race analysis for polyhedral clocked task-parallel programs.

The package pairs a conservative static analyzer (happens-before plus
advance-count phase functions over affine constraint systems) with an
exhaustive reference interpreter used as ground truth, plus generators that
compile polynomials into synchronization patterns.
"""

from .affine import AffineSet, Constraint, eq, ge, is_empty
from .generators import counting_nest, parse_poly, race_test, race_tests_all_orthants
from .hb import hb_disjuncts, reduce_clock, statement_domain, unordered_disjuncts
from .interp import ExploreResult, dynamic_phi, explore, instantiate
from .parser import Diagnostic, ParseError, parse, parse_file, validate_clock_rules
from .phi import QuasiPoly, count_concrete, phi
from .races import Analysis, RaceCandidate, Verdict, analyze, race_candidates
from .report import Report, build_report
from .smt import emit_smtlib, run_solver
from .syntax import AffineExpr, Program, print_program

__all__ = [
    "AffineSet",
    "AffineExpr",
    "Analysis",
    "Constraint",
    "Diagnostic",
    "ExploreResult",
    "ParseError",
    "Program",
    "QuasiPoly",
    "RaceCandidate",
    "Report",
    "Verdict",
    "analyze",
    "build_report",
    "count_concrete",
    "counting_nest",
    "dynamic_phi",
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
    "statement_domain",
    "unordered_disjuncts",
    "validate_clock_rules",
]
