#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads ledger-corpus,big-period --seeds 1-10

For every workload and metric this prints the median over seeds and the
spread: the distance between the first and third quartile
(statistics.quantiles with n=4) as a share of the median.  An end-to-end
metric is steady when its spread is below a third of its bound in
BENCHMARK.json.  The per-run values go to perfbench/out/spread-<label>.json.
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


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="run")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{proc.stdout}{proc.stderr}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        runs[workload] = values
        print(workload)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = f"  above a third of its bound {bound}"
                steady = False
            print(f"  {name:28s} median {med:<14.6g} spread {spread:.4f}{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.label}.json").write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
