#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads train-image evaluate-toy \
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 [--out summary.json]

For every workload and metric this prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. End-to-end spreads
are compared with a third of the metric's bound in ``BENCHMARK.json``.
Runs are sequential; each is ``run.py`` with ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            runs.append((json.loads(lines[0]), json.loads(lines[-1])))
        if len(runs) < 2:
            ok = False
            continue
        names = list(runs[0][1]["metrics"])
        metrics = {n: summarise([r[1]["metrics"][n]["value"] for r in runs]) for n in names}
        summary[workload] = {"seeds": args.seeds, "environment": runs[0][0]["environment"],
                             "shapes": runs[0][0]["shapes"], "metrics": metrics}
        print(f"== {workload} ({len(runs)} runs)")
        for name, s in metrics.items():
            limit = bounds.get(name)
            flag = ""
            if limit is not None and name != "setup_s" and s["spread"] >= limit / 3:
                flag = f"  spread above bound/3 = {limit / 3:.4f}"
            print(f"{name:40s} median {s['median']:>12.6g}  q1 {s['q1']:>12.6g}  "
                  f"q3 {s['q3']:>12.6g}  spread {s['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
