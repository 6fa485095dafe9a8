"""SMT-LIB 2 emission and external solver invocation.

Race candidates whose phase difference is nonlinear are handed to an
external solver as QF_NIA scripts.  The solver is an arbitrary command
reading SMT-LIB from stdin and printing ``sat``/``unsat``/``unknown``
followed, for sat, by a ``get-model`` response."""

from __future__ import annotations

import re
import shlex
import subprocess
from math import lcm
from typing import Optional

from .affine import AffineSet, Constraint
from .phi import QuasiPoly
from .syntax import AffineExpr

SOLVER_TIMEOUT_S = 60.0


def _sexpr_int(k: int) -> str:
    return str(k) if k >= 0 else f"(- {-k})"


def _sexpr_affine(e: AffineExpr) -> str:
    parts = []
    for v, c in e.terms:
        parts.append(v if c == 1 else f"(* {_sexpr_int(c)} {v})")
    if e.const or not parts:
        parts.append(_sexpr_int(e.const))
    return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"


def _sexpr_poly(q: QuasiPoly, scale: int) -> str:
    """Integer-scaled polynomial as an SMT term."""
    parts = []
    for exps, c in q.coeffs:
        k = c * scale
        assert k.denominator == 1
        factors = []
        for v, e in zip(q.variables, exps):
            factors.extend([v] * e)
        if not factors:
            parts.append(_sexpr_int(int(k)))
        elif int(k) == 1:
            parts.append(factors[0] if len(factors) == 1 else "(* " + " ".join(factors) + ")")
        else:
            parts.append("(* " + " ".join([_sexpr_int(int(k))] + factors) + ")")
    if not parts:
        return "0"
    return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"


def _sexpr_constraint(c: Constraint) -> str:
    op = "=" if c.kind == "eq" else ">="
    return f"({op} {_sexpr_affine(c.expr)} 0)"


def emit_smtlib(
    system: AffineSet,
    phi_u: Optional[QuasiPoly] = None,
    phi_v: Optional[QuasiPoly] = None,
    comment: str = "",
) -> str:
    """SMT-LIB script that is satisfiable exactly when the race system has
    an integer solution (with equal phases when phase functions are given)."""
    variables = set(system.variables)
    for c in system.context:
        variables.update(c.expr.variables)
    phase_eq = None
    if phi_u is not None and phi_v is not None:
        diff_vars = tuple(sorted(set(phi_u.variables) | set(phi_v.variables)))
        variables.update(diff_vars)
        denoms = [c.denominator for _, c in phi_u.coeffs] + [
            c.denominator for _, c in phi_v.coeffs
        ]
        scale = lcm(*denoms) if denoms else 1
        phase_eq = f"(= (- {_sexpr_poly(phi_u, scale)} {_sexpr_poly(phi_v, scale)}) 0)"

    lines = []
    if comment:
        lines.extend(f"; {l}" for l in comment.splitlines())
    lines.append("(set-logic QF_NIA)")
    for v in sorted(variables):
        lines.append(f"(declare-const {v} Int)")
    for c in system.context:
        lines.append(f"(assert {_sexpr_constraint(c)})")
    if not system.disjuncts:
        lines.append("(assert false)")
    else:
        ds = []
        for d in system.disjuncts:
            cs = [_sexpr_constraint(c) for c in d]
            ds.append(cs[0] if len(cs) == 1 else "(and " + " ".join(cs) + ")")
        body = ds[0] if len(ds) == 1 else "(or " + " ".join(ds) + ")"
        lines.append(f"(assert {body})")
    if phase_eq:
        lines.append(f"(assert {phase_eq})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


_MODEL_RE = re.compile(
    r"\(define-fun\s+(\S+)\s*\(\)\s*Int\s*(\(-\s*\d+\)|-?\d+)\s*\)"
)


def parse_model(output: str) -> dict[str, int]:
    model = {}
    for name, val in _MODEL_RE.findall(output):
        val = val.strip()
        if val.startswith("("):
            model[name] = -int(val[1:-1].replace("-", "", 1).strip())
        else:
            model[name] = int(val)
    return model


def run_solver(solver_cmd: str, script: str) -> tuple[str, dict[str, int]]:
    """Run the solver on a script; returns (status, model).

    Status is "sat", "unsat", or "unknown" (also used for solver errors and
    for a solver still running after SOLVER_TIMEOUT_S seconds)."""
    try:
        proc = subprocess.run(
            shlex.split(solver_cmd),
            input=script,
            capture_output=True,
            text=True,
            timeout=SOLVER_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", {}
    out = proc.stdout.strip()
    first = out.split(None, 1)[0] if out else ""
    if first == "unsat":
        return "unsat", {}
    if first == "sat":
        return "sat", parse_model(out)
    return "unknown", {}
