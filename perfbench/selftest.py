#!/usr/bin/env python3
"""Self-test of the benchmark in its tiny mode; takes under a minute.

    python3 perfbench/selftest.py

For every workload it checks that:
  * a --trace 0 run prints every end-to-end metric of BENCHMARK.json by
    name with its unit, and fail_share 0;
  * a --trace 1 run prints every per-layer metric by name with its unit;
  * the deterministic counts repeat exactly for a fixed seed, traced or not;
  * a reference holding one wrong answer per workload makes fail_share
    nonzero.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run(workload: str, trace: int, reference: Path | None = None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: no output\n{proc.stderr}")
    record = json.loads((OUT / f"tiny-{workload}-seed1-trace{trace}.json").read_text())
    return lines, json.loads(lines[-1]), record


def printed(lines, name, unit) -> bool:
    return any(re.match(rf"\s*{re.escape(name)} = \S+ {re.escape(unit)}(\s|$)", ln) for ln in lines)


def wrong_reference() -> Path:
    ref = json.loads((HERE / "reference.json").read_text())
    ref["scan"]["2,2,1"]["min_size"] += 1          # period-scan
    ref["lemmas"]["L1"]["verdicts"] = ["COUNTEREXAMPLE"]  # lemma-windows
    ref["ledger"]["noncode_charge"] = "2/5"         # ledger-corpus and big-period
    OUT.mkdir(exist_ok=True)
    path = OUT / "wrong-reference.json"
    path.write_text(json.dumps(ref))
    return path


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    wrong = wrong_reference()
    for w in spec["workloads"]:
        name = w["name"]
        counts = []
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result, record = run(name, trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: not correct: {record['problems'][:3]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in wanted}:
                problems.append(f"{name} trace {trace}: result metrics differ from BENCHMARK.json")
            for m in wanted + [{"name": "fail_share", "unit": "ratio"}]:
                if not printed(lines, m["name"], m["unit"]):
                    problems.append(f"{name} trace {trace}: {m['name']} not printed with {m['unit']}")
            if not printed(lines, "fail_share", "ratio") or record["fail_share"] != 0:
                problems.append(f"{name} trace {trace}: fail_share is not 0")
            counts.append(record["counts"])
        lines, _, again = run(name, 0)
        counts.append(again["counts"])
        if any(c != counts[0] for c in counts):
            problems.append(f"{name}: deterministic counts differ between runs: {counts}")
        lines, result, record = run(name, 0, wrong)
        if result["failed"] == 0 or result["correct"] or record["fail_share"] <= 0:
            problems.append(f"{name}: a wrong reference left fail_share at 0")
        print(f"{name}: checked, counts {counts[0]}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
