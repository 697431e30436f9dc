#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the benchmark's exact answers.

Run it from the repository root on the commit whose outputs should become
the reference; the committed file was made on commit 633ea95, the first
commit the benchmark measured.  It takes about a minute on one core.

    python3 perfbench/make_reference.py

The file holds the minimum size and density of every lattice with
2pq <= 30, the lemma verdicts, the number of feasible assignments of each
window class, the ledger invariants, and the cluster and transfer counts
of the tiled witnesses.  Search nodes are stored for choosing the
period-scan sample only; they are not checked.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker


def main() -> int:
    hx = worker.import_library()
    hexgrid, optimize, lab = hx.hexgrid, hx.optimize, hx.lemma_lab
    frac = lambda x: f"{x.numerator}/{x.denominator}"  # noqa: E731

    scan = {}
    for lat in hexgrid.all_lattices(30):
        result = optimize.minimum_code(optimize.SearchSpec(lat))
        scan[f"{lat.p},{lat.q},{lat.shear}"] = {
            "domain": lat.domain_size, "min_size": result.min_size,
            "density": frac(result.witness.density()), "optimal": result.proof_of_optimality,
            "nodes": result.nodes_explored,
        }

    lemmas = {}
    for lemma_id in ("L1", "L2", "L3"):
        verdict = lab.check_lemma(lemma_id)
        lemmas[lemma_id] = {"verdicts": [verdict.result], "settled": verdict.configs_explored}
    for template in worker.L4_TEMPLATES:
        verdict = lab.check_lemma("L4", template=template, node_cap=worker.L4_NODE_CAP)
        # a capped run may end either way; a counterexample means the checker is broken
        assert verdict.result in ("VERIFIED", "INCONCLUSIVE"), verdict
        lemmas[f"L4/{template}"] = {"verdicts": ["INCONCLUSIVE", "VERIFIED"],
                                    "at_reference": verdict.result,
                                    "settled": verdict.configs_explored}

    windows = {}
    for s in (0, 1):
        centre = hexgrid.Vertex(0, 0, s)
        region = sorted(hexgrid.ball(centre, worker.WINDOW_RADIUS))
        for status, k in worker.WINDOW_CLASSES:
            pins = {centre: status}
            for i, w in enumerate(hexgrid.neighbors(centre)):
                pins[w] = "IN" if i < k else "OUT"
            windows[f"{status}-{k}-s{s}"] = sum(1 for _ in lab.enumerate(region, pins))

    d = hx.discharge
    triple = [[0, 2, 1], [1, 2, 0], [1, 2, 1]]
    shape = frozenset(hexgrid.Vertex(*v) for v in triple)
    shell, parts = lab.shell_partition_bound(None, hx.cluster.Cluster(0, shape, shape, False))
    ledger = {"noncode_charge": frac(d.MAIN_TARGET), "cluster_floor": frac(d.MAIN_TARGET),
              "prop1_floor": frac(d.PROP1_TARGET), "shell_slack": 8,
              "reference_triple": {"vertices": triple, "shell": shell, "parts": parts}}

    witness_at = [7, 1, 1]
    witness = optimize.minimum_code(optimize.SearchSpec(hexgrid.PeriodLattice(*witness_at))).witness
    tiles = {}
    for sizes in worker.SIZES["big-period"].values():
        m1, m2 = sizes["tile"]
        code = hx.code.tile(witness, m1, m2)
        tiles[f"{m1}x{m2}"] = {
            "clusters": len(hx.cluster.Classification(code).clusters),
            "prop1_transfers": len(d.run_prop1(code).transfers),
            "main_transfers": len(d.run_main(code).transfers),
        }
    big = {"witness": witness_at, "density": frac(witness.density()), "tiles": tiles}

    out = {"scan": scan, "lemmas": lemmas, "windows": windows, "ledger": ledger, "big": big}
    path = Path(worker.HERE) / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(scan)} lattices, {len(lemmas)} lemma runs, {len(windows)} window classes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
