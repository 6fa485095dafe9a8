"""Per-layer tracing from outside the program.

The analyzer's modules call each other through names bound by
``from .x import y``, so a layer boundary is wrapped in the namespace of
its caller: replacing ``races.phi`` catches the calls ``race_candidates``
makes, where replacing ``phi.phi`` would not.  Spans stay in memory with
their parent's index; a layer's self time is the summed duration of its
spans minus the time covered by their child spans.  Counters are taken
from return values at the same boundaries.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _affine(result, counters):
    empty = result[0] if isinstance(result, tuple) else result
    counters["affine.calls"] += 1
    counters["affine.decided"] += empty is not None


def _phi(result, counters):
    counters["phi.calls"] += 1
    counters["phi.unavailable"] += result is None


def _hb(result, counters):
    counters["hb.calls"] += 1


def _candidates(result, counters):
    counters["races.candidates"] += len(result)


def _disprove(verdict, counters):
    counters[f"races.verdict.{verdict.status}"] += 1
    counters[f"races.method.{verdict.method or 'none'}"] += 1


def _smt(script, counters):
    counters["smt.bytes"] += len(script.encode())


def _explore(result, counters):
    counters["interp.calls"] += 1
    counters["interp.states"] += result.state_count
    counters["interp.incomplete"] += result.incomplete


def boundaries():
    """(owner, attribute, layer, counter) for every wrapped boundary.  The
    owner is the module whose namespace the caller looks the name up in."""
    mod = importlib.import_module
    parser, races, report, phi = (
        mod(f"clockrace.{m}") for m in ("parser", "races", "report", "phi")
    )
    return [
        (parser, "parse_file", "parser", None),
        (parser, "parse", "parser", None),
        (parser, "validate_clock_rules", "parser", None),
        (races, "analyze", "races.analyze", None),
        (races, "race_candidates", "races.candidates", _candidates),
        (races, "unordered_disjuncts", "hb", _hb),
        (races, "reduce_clock", "hb", _hb),
        (races, "phi", "phi", _phi),
        (races, "is_empty", "affine", _affine),
        (races, "is_empty_with_witness", "affine", _affine),
        (phi, "is_empty", "affine", _affine),
        (races, "disprove", "races.disprove", _disprove),
        (races, "emit_smtlib", "smt", _smt),
        (races, "explore", "interp", _explore),
        (report, "build_report", "report", None),
        (report.Report, "to_json", "report", None),
    ]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index or None, start, end]
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def call(self, layer: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [layer, parent, time.perf_counter(), None]
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        except (MemoryError, RecursionError):
            if layer == "interp":
                self.counters["interp.incomplete"] += 1
            raise
        finally:
            span[3] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, layer, count):
        def traced(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if count is not None:
                count(result, self.counters)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for owner, name, layer, count in boundaries():
                original = getattr(owner, name)
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, layer, count))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (layer, _, start, end), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return out
