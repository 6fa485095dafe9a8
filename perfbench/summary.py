#!/usr/bin/env python3
"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/summary.py [--seed 0] [--seconds 30] [--out perfbench/baseline.json]

Each workload runs twice through run.py, in a fresh process each time:
with --trace 0 for the end-to-end metrics and with --trace 1 for the
per-layer ones.  The table lists each metric by name and unit per
workload; the layer-share table gives each layer's self time as a share of
the traced pass.  --out also writes the raw results as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import LAYER_TIMES, self_time_metric

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    results = {w: {t: run(w, args.seed, args.seconds, t) for t in ("0", "1")} for w in WORKLOADS}
    names: dict[str, str] = {}
    for w in WORKLOADS:
        for t in ("0", "1"):
            for name, m in results[w][t]["metrics"].items():
                names.setdefault(name, m["unit"])

    print(f"{'metric':28s} {'unit':6s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name, unit in names.items():
        cells = []
        for w in WORKLOADS:
            m = results[w]["1" if name in results[w]["1"]["metrics"] else "0"]["metrics"].get(name)
            cells.append(f"{m['value']:16.6g}" if m else f"{'-':>16s}")
        print(f"{name:28s} {unit:6s}" + "".join(cells))
    for w in WORKLOADS:
        for t in ("0", "1"):
            r = results[w][t]
            print(f"{w} trace {t}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")

    print("\nself time as a share of the traced pass")
    print(f"{'layer':18s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for layer in LAYER_TIMES:
        cells = []
        for w in WORKLOADS:
            m = results[w]["1"]["metrics"]
            cells.append(f"{m[self_time_metric(layer)]['value'] / m['trace.traced_pass_s']['value']:16.1%}")
        print(f"{layer:18s}" + "".join(cells))

    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if all(results[w][t]["correct"] for w in WORKLOADS for t in ("0", "1")) else 1


if __name__ == "__main__":
    sys.exit(main())
