#!/usr/bin/env python3
"""Benchmark entry point: run one workload for a set time and report.

    python3 perfbench/run.py --workload ledger-corpus --seed 1 --seconds 25 --trace 0

The load is a closed loop with one caller.  Each pass of the workload runs
in a fresh single-threaded interpreter (perfbench/worker.py), one after the
other, so every pass compiles its clause lists from an empty cache.  Passes
repeat while the next one is expected to end within --seconds, with at
least three untraced passes, or one traced and one untraced; each metric
is the median over passes.  Items (one code, lattice, lemma check or
window) take their median time over passes before the item percentiles
are taken.

With --trace 0 the last line holds the end-to-end metrics of
BENCHMARK.json.  With --trace 1 it holds the per-layer metrics, taken from
traced passes that alternate with untraced ones, so the tracing overhead is
measured within the same run.  Every run also writes
perfbench/out/<workload>-seed<n>-trace<t>.json with the seed, commit,
Python version, nproc, input sizes, every metric, the deterministic counts
and the raw numbers of each pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import COUNTS, HERE, OUT, ROOT, WORKLOADS

WORKER = HERE / "worker.py"
MIN_PASSES = 3  # untraced; a traced run needs one traced and one untraced pass
DEADLINE_S = 170  # the run must exit within 180 s


class PassFailed(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(args, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--reference", args.reference]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"a pass did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"a pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def item_stats(passes) -> dict:
    """Median and tail of per-item times, each item first taking its median over passes."""
    per_item = [statistics.median(times) for times in zip(*(p["items"] for p in passes))]
    ordered = sorted(per_item)
    n = len(ordered)
    # the highest rank that still has ten samples above it; below eleven
    # samples no rank has, and the tail is the maximum
    rank = n - 10 if n >= 11 else n
    return {"item_p50_ms": statistics.median(ordered) * 1000,
            "item_tail_ms": ordered[rank - 1] * 1000,
            "items": n, "tail_percentile": 100 * rank / n}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test mode: small inputs, the fewest passes")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="exact answers to check against")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # trace 1 alternates traced and untraced passes
    min_passes = 2 if args.trace else 1 if args.tiny else MIN_PASSES
    passes, durations = [], []
    try:
        while True:
            begin = time.monotonic()
            timeout = DEADLINE_S - (begin - started)
            if timeout <= 0:
                raise PassFailed("out of time")
            passes.append(run_pass(args, bool(args.trace) and len(passes) % 2 == 0, timeout))
            durations.append(time.monotonic() - begin)
            if len(passes) < min_passes:
                continue
            if args.tiny or time.monotonic() - started + statistics.median(durations) > args.seconds:
                break
    except PassFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 2

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    # deterministic counts must repeat exactly, and tracing must see the same work
    attempted += 1
    if any(p["counts"] != passes[0]["counts"] for p in passes) or any(
            p["layers"][name] != p["counts"][name] for p in traced for name in COUNTS):
        failed += 1
        problems.append("deterministic counts differ between passes or from the trace")
    items = item_stats(plain)

    median = lambda key, ps: statistics.median(p[key] for p in ps)  # noqa: E731
    values = {
        "wall_s": median("wall_s", plain),
        "setup_s": median("setup_s", passes),
        "peak_rss_mb": median("peak_rss_mb", plain),
        "item_p50_ms": items["item_p50_ms"],
        "item_tail_ms": items["item_tail_ms"],
    }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(p["layers"][name] for p in traced)
        values["trace.wall_s"] = median("wall_s", traced)
        values["trace.untraced_wall_s"] = values["wall_s"]
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    fail_share = failed / attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced passes in "
          f"{time.monotonic() - started:.1f} s")
    for name, value in values.items():
        note = ""
        if name == "item_p50_ms" or name == "item_tail_ms":
            note = f"  (n={items['items']}, tail at p{items['tail_percentile']:.1f})"
        print(f"  {name} = {value:.6g} {units.get(name, '')}{note}")
    print(f"  fail_share = {fail_share:.6g} ratio  ({failed} of {attempted} failed)")
    for name in COUNTS:
        print(f"  count {name} = {passes[0]['counts'][name]}")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")

    result = {
        "meta": {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "seconds": args.seconds, "tiny": args.tiny, "commit": git_commit(),
                 "python": platform.python_version(), "nproc": os.cpu_count(),
                 "machine": platform.machine(), "sizes": passes[0]["sizes"],
                 "passes": len(passes), "items": items},
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in values.items()},
        "fail_share": fail_share, "counts": passes[0]["counts"], "problems": problems[:50],
        "passes": passes,
    }
    OUT.mkdir(exist_ok=True)
    tag = "tiny-" if args.tiny else ""
    (OUT / f"{tag}{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
