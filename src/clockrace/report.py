"""Analysis reports: deterministic JSON and a human-readable summary."""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .phi import QuasiPoly
from .races import Analysis
from .syntax import Program


class Report(NamedTuple):
    source: str
    params: list[dict]
    arrays: list[dict]
    statements: list[str]
    diagnostics: list[str]
    candidates: list[dict]
    phi: dict[str, str]
    status: str  # "RaceFree" | "PotentialRaces(n)" | "Unknown(n)"
    verdict: str
    timings: dict[str, float]

    def to_json(self) -> str:
        import json

        payload = self._asdict()
        payload["timings"] = {k: round(v, 3) for k, v in self.timings.items()}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"analyzed {self.source}"]
        lines.append(
            "params: "
            + (", ".join(f"{p['name']} >= {p['lower_bound']}" for p in self.params) or "none")
        )
        if self.diagnostics:
            lines.append("diagnostics:")
            lines.extend(f"  {d}" for d in self.diagnostics)
        if self.phi:
            lines.append("phase functions:")
            for k, v in sorted(self.phi.items()):
                lines.append(f"  phi[{k}] = {v}")
        lines.append(f"race candidates: {len(self.candidates)}")
        for c in self.candidates:
            verdict = c["verdict"]
            extra = ""
            if verdict == "witness":
                pt = ", ".join(f"{k}={v}" for k, v in sorted(c["witness"].items()))
                extra = (f" at {pt}" if pt else "") + (" (confirmed)" if c["confirmed"] else "")
            elif verdict == "unknown" and c.get("bound") is not None:
                extra = f" (bound {c['bound']})"
            if c["detail"]:
                extra += f" ({c['detail']})"
            lines.append(f"  [{c['index']}] {c['description']}: {verdict}"
                         f"{'/' + c['method'] if c['method'] else ''}{extra}")
        lines.append(f"verdict: {self.status}")
        return "\n".join(lines) + "\n"


def _phase_label(p: Program, stmt_id: int, poly: QuasiPoly, prefix: str) -> str:
    """The phase with the prefix dropped, token by token, from the statement's iterators."""
    names = {prefix + it: it for it in p.enclosing_iterators(stmt_id)}
    return re.sub(r"[A-Za-z_]\w*", lambda m: names.get(m[0], m[0]), str(poly))


def build_report(
    source: str,
    p: Program,
    analysis: Analysis,
    diagnostics: list[str],
    timings: Optional[dict[str, float]] = None,
) -> Report:
    candidates = []
    n_witness = n_unknown = 0
    phases: dict[str, str] = {}
    for cand, verdict in analysis.candidates:
        if verdict.status == "witness":
            n_witness += 1
        elif verdict.status == "unknown":
            n_unknown += 1
        if cand.reduction is not None:
            for stmt_id, poly, prefix in (
                (cand.reduction.rep_u, cand.phi_u, "u_"),
                (cand.reduction.rep_v, cand.phi_v, "v_"),
            ):
                key = f"{p.stmt_label(stmt_id)}@clock{cand.reduction.finish_id}"
                phases[key] = "unavailable" if poly is None else _phase_label(p, stmt_id, poly, prefix)
        fields = verdict._asdict()
        fields["verdict"] = fields.pop("status")
        candidates.append(
            {
                "index": cand.index,
                "description": cand.describe(p),
                "kind": cand.kind,
                "system": str(cand.system),
                "clocked": cand.reduction is not None,
                "phi_u": str(cand.phi_u) if cand.phi_u is not None else None,
                "phi_v": str(cand.phi_v) if cand.phi_v is not None else None,
                **fields,
            }
        )
    if analysis.verdict == "PotentialRaces":
        status = f"PotentialRaces({n_witness})"
    elif analysis.verdict == "Unknown":
        status = f"Unknown({n_unknown})"
    else:
        status = "RaceFree"
    return Report(
        source=source,
        params=[{"name": n, "lower_bound": lb} for n, lb in p.params],
        arrays=[{"name": n, "dims": d} for n, d in p.arrays],
        statements=[p.stmt_label(s.node_id) for s in p.basic_statements()],
        diagnostics=diagnostics,
        candidates=candidates,
        phi=phases,
        status=status,
        verdict=analysis.verdict,
        timings=timings or {},
    )
