#!/usr/bin/env python3
"""Benchmark for `clockrace analyze`.

    python3 perfbench/run.py --workload corpus-static --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the analyzer is imported from ``src/``.
Workloads are described in ``workloads.py`` and README.md.  Each run
analyzes the workload's programs in passes, single-process, for about
``--seconds`` seconds, and checks every verdict against an answer that
does not come from the analyzer.

--trace 0 measures end-to-end metrics with no tracing: set-up (a fresh
process importing clockrace), per-call analyze time, programs per second,
the command-line path, and peak memory.  --trace 1 alternates untraced and
traced passes and reports per-layer self times and counters, plus the
tracing overhead.  Human-readable lines go first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Fresh-process samples per run: each is one `import clockrace` (setup_s)
# and one command-line analysis (cli_s), spread over the measuring window
# so that a slow spell of the machine hits every metric alike.
PROCESS_SAMPLES = 10
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "analyze_s.median": "s",
    "analyze_s.tail": "s",
    "programs_per_s": "1/s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = ("parser", "hb", "phi", "affine", "races.candidates", "races.disprove",
               "races.analyze", "smt", "interp", "report", "bench")


def self_time_metric(layer: str) -> str:
    return f"{layer}_self_s" if "." in layer else f"{layer}.self_s"


COUNTERS = ("hb.calls", "phi.calls", "phi.unavailable", "affine.calls", "affine.decided",
            "races.candidates",
            "races.verdict.race-free", "races.verdict.witness", "races.verdict.unknown",
            "races.method.affine", "races.method.smt", "races.method.bounded",
            "smt.bytes", "interp.calls", "interp.states", "interp.incomplete")


def _load_analyzer():
    """Import clockrace from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    import clockrace

    if Path(clockrace.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"clockrace imported from {clockrace.__file__}, not {SRC}")


def _clear_sympy_cache():
    # Each analysis then pays what a one-shot command-line call pays.  The
    # benchmark never imports sympy itself, so a clockrace without sympy
    # also runs without it here.
    sympy = sys.modules.get("sympy")
    if sympy is not None:
        sympy.core.cache.clear_cache()


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _fresh_import_s(env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import clockrace"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Runner:
    def __init__(self, workload):
        from clockrace import parser, races, report

        self.parser, self.races, self.report = parser, races, report
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def analyze_case(self, case):
        """One timed call: what `clockrace analyze` does in process."""
        if case.path is not None:
            p = self.parser.parse_file(case.path)
        else:
            p = self.parser.parse(case.source)
        diagnostics = self.parser.validate_clock_rules(p)
        analysis = self.races.analyze(p, bound=case.bound)
        self.report.build_report(case.label, p, analysis, [], {}).to_json()
        return diagnostics, analysis

    def fail(self, label, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")

    def run_pass(self, tracer=None, between=None) -> list[float]:
        """Analyze every case once; returns the per-call times.  `between`,
        when given, is called untimed before each call."""
        times = []
        for case in self.workload.cases:
            if between is not None:
                between()
            _clear_sympy_cache()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    diagnostics, analysis = self.analyze_case(case)
                else:
                    diagnostics, analysis = tracer.call("bench", self.analyze_case, case)
                problems = None
            except Exception as e:  # an analysis that raises is a failed one
                problems = [f"raised {type(e).__name__}: {e}"]
            times.append(time.perf_counter() - t0)
            if problems is None:
                problems = [f"diagnostic {d}" for d in diagnostics] + case.check(analysis)
            if problems:
                self.fail(case.label, "; ".join(problems))
        return times

    def run_cli(self, call, env) -> float:
        path = call.path
        if path is None:
            WORK.mkdir(exist_ok=True)
            path = WORK / f"{call.label}.cx10"
            path.write_text(call.source)
        self.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "clockrace.cli", "analyze", str(path), *call.args],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode not in call.exit_codes:
            self.fail(f"cli {call.label}", f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return elapsed


def tail(samples: list[float]) -> tuple[float, int]:
    """The mean of the samples beyond the highest of p95/p90/p75 that has
    at least ten samples beyond it (nearest rank), and that percentile; the
    mean of all samples (beyond p0) below 40 samples.  The mean beyond the
    percentile, not the sample at it: on race-hunt the percentile falls
    among race tests of about the same cost, and which of them sat at it
    changed from run to run.  p99 is left out: it needs 1 000 samples, a
    count corpus-static reaches in some runs and not in others, and the
    tail would switch percentile between runs."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (95, 90, 75):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return statistics.fmean(ordered[rank:]), pct
    return statistics.fmean(ordered), 0


def trimmed_mean(samples: list[float]) -> float:
    """The mean without the fastest and the slowest tenth of the samples."""
    ordered = sorted(samples)
    k = len(ordered) // 10
    return statistics.fmean(ordered[k:len(ordered) - k])


def _more_passes(passes: list, start: float, seconds: float) -> bool:
    """Whether another pass of average length still ends inside the window."""
    if len(passes) < MIN_PASSES:
        return True
    mean_pass = statistics.fmean(sum(p) for p in passes)
    return time.perf_counter() - start + mean_pass <= seconds


def end_to_end(runner, seconds: float) -> dict[str, tuple[float, str]]:
    env = _env()
    _fresh_import_s(env)  # compiles bytecode once; users do not pay that per call
    calls = runner.workload.cli
    setup, cli, passes = [], [], []  # passes: per-call times, in case order

    def process_samples_until(count):
        while len(setup) < count:
            setup.append(_fresh_import_s(env))
            cli.append(runner.run_cli(calls[len(cli) % len(calls)], env))

    def process_samples_due():
        # Sample k is due at k * seconds / PROCESS_SAMPLES, between two calls.
        elapsed = time.perf_counter() - start
        process_samples_until(min(PROCESS_SAMPLES, 1 + int(PROCESS_SAMPLES * elapsed / seconds)))

    start = time.perf_counter()
    while _more_passes(passes, start, seconds):
        passes.append(runner.run_pass(between=process_samples_due))
    process_samples_until(PROCESS_SAMPLES)
    # The machine's speed changes within seconds, so times are averaged over
    # the whole window: each program's mean over the passes, and the mean
    # command-line call without the extremes.  A median of a few samples
    # would pick one speed.
    # The tail counts every call at its program's mean, so that it ranks
    # programs, not the machine's speed at the moment of one call.
    per_program = [statistics.fmean(times) for times in zip(*passes)]
    samples = [x for times in passes for x in times]
    tail_s, pct = tail(per_program * len(passes))
    print(f"analyze_s: {len(samples)} samples in {len(passes)} passes, tail is the mean beyond p{pct}; "
          f"setup_s and cli_s: {len(cli)} samples each")
    values = {
        "setup_s": statistics.median(setup),
        "analyze_s.median": statistics.median(per_program),
        "analyze_s.tail": tail_s,
        "programs_per_s": len(samples) / sum(samples),
        "cli_s": trimmed_mean(cli),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def per_layer(runner, seconds: float) -> dict[str, tuple[float, str]]:
    from tracing import Tracer

    plain, traced = [], []  # per-call times; (per-call times, tracer)
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or _more_passes(plain + [t for t, _ in traced], start, seconds):
        if len(plain) < len(traced):
            plain.append(runner.run_pass())
        else:
            tracer = Tracer()
            with tracer.installed():
                times = runner.run_pass(tracer)
            traced.append((times, tracer))

    counts = [{k: t.counters[k] for k in COUNTERS} for _, t in traced]
    for other in counts[1:]:
        if other != counts[0]:
            diff = {k: (counts[0][k], other[k]) for k in COUNTERS if counts[0][k] != other[k]}
            runner.fail("determinism", f"counters differ between traced passes: {diff}")
    selfs = [t.self_times() for _, t in traced]
    med = {layer: statistics.median(s.get(layer, 0.0) for s in selfs) for layer in LAYER_TIMES}
    c = counts[0]
    n_cand = sum(c[f"races.verdict.{s}"] for s in ("race-free", "witness", "unknown"))
    untraced_call = statistics.median(x for times in plain for x in times)
    traced_call = statistics.median(x for times, _ in traced for x in times)
    untraced_pass = statistics.median(sum(p) for p in plain)
    traced_pass = statistics.median(sum(times) for times, _ in traced)

    metrics = {self_time_metric(layer): (med[layer], "s") for layer in LAYER_TIMES}
    metrics.update({k: (c[k], "count") for k in COUNTERS})
    metrics["interp.states_per_s"] = (
        c["interp.states"] / med["interp"] if med["interp"] else 0.0, "1/s")
    metrics["affine.decided_ratio"] = (
        c["affine.decided"] / c["affine.calls"] if c["affine.calls"] else 0.0, "ratio")
    metrics["decided_ratio"] = (
        (c["races.verdict.race-free"] + c["races.verdict.witness"]) / n_cand if n_cand else 0.0,
        "ratio")
    metrics["trace.untraced_pass_s"] = (untraced_pass, "s")
    metrics["trace.traced_pass_s"] = (traced_pass, "s")
    metrics["trace.overhead_pass_s"] = (traced_pass - untraced_pass, "s")
    metrics["trace.overhead_call_s"] = (traced_call - untraced_call, "s")
    print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}; "
          f"decided {c['races.verdict.race-free'] + c['races.verdict.witness']}/{n_cand}, "
          f"affine decided {c['affine.decided']}/{c['affine.calls']}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        _load_analyzer()
        import workloads

        build = workloads.WORKLOADS[args.workload]
    except ImportError as e:
        print(f"perfbench: cannot load the analyzer: {e}", file=sys.stderr)
        return 2
    except KeyError:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        runner = Runner(build(ROOT, args.seed))
        metrics = (per_layer if args.trace else end_to_end)(runner, args.seconds)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        metrics["failed_ratio"] = (runner.failed / runner.attempted, "ratio")

    for err in runner.errors:
        print(f"FAILED {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
