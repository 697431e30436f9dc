#!/usr/bin/env python3
"""One measured pass of one benchmark workload.

run.py starts this file in a fresh interpreter for every pass, because
code.identifying_constraints caches clause lists for the life of a
process: a second pass in the same process would skip clause compilation
and measure a different program.  The pass imports hexident from the
checkout's src/, builds its inputs from the seed, runs the workload's task
in one thread, checks every output against reference.json, and prints one
JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload ledger-corpus --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import resource
import statistics
import sys
import time
import types
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from tracing import Tracer, instrument, layer_metrics, rebind

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("ledger-corpus", "period-scan", "lemma-windows", "big-period")

# L4 is run best-effort on both of its windows under this search-node cap
L4_NODE_CAP = 500
L4_TEMPLATES = ("fig5", "fig6")

# Windows are radius-3 balls cut from seeded random codes.  A class window
# pins the closed neighbourhood of its centre: up to symmetry its number of
# feasible assignments depends only on the centre's status and how many of
# its neighbours are code vertices, so a fixed mix of classes keeps the
# enumeration work the same for every seed and has exact counts in the
# reference.  A small window pins the code out to radius 2; many of them
# measure engine builds more than search.
WINDOW_CLASSES = (("IN", 0), ("IN", 1), ("IN", 2), ("IN", 3), ("OUT", 1), ("OUT", 2), ("OUT", 3))
WINDOW_RADIUS = 3

# Input sizes.  "tiny" is the self-test mode: the same steps on small inputs.
SIZES = {
    "ledger-corpus": {
        "full": {"exhaustive_max_domain": 10, "sampled_domain": 12, "sampled_codes": 600,
                 "random_max_domain": 28, "random_codes": 300},
        "tiny": {"exhaustive_max_domain": 6, "sampled_domain": 12, "sampled_codes": 40,
                 "random_max_domain": 28, "random_codes": 20},
    },
    "period-scan": {
        # every lattice with 2pq <= scan_max_domain, plus lattices from the
        # sample bands whose seed-commit search nodes add up to sample_nodes
        "full": {"scan_max_domain": 24, "sample_bands": [26, 28, 30], "sample_nodes": 15000},
        "tiny": {"scan_max_domain": 12, "sample_bands": [26, 28, 30], "sample_nodes": 1000},
    },
    "lemma-windows": {
        "full": {"lemmas": ["L1", "L2", "L3"], "class_rounds": 1, "small_windows": 100},
        "tiny": {"lemmas": ["L1", "L3"], "class_rounds": 1, "small_windows": 5},
    },
    "big-period": {
        "full": {"tile": [20, 30]},
        "tiny": {"tile": [2, 3]},
    },
}

# the deterministic work counts every result reports, traced or not
COUNTS = ("optimize.nodes", "lemma_lab.settled", "lemma_lab.enumerated",
          "discharge.transfers", "code.clauses")


def import_library():
    """hexident from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hexident
        from hexident import cli, cluster, code, discharge, hexgrid, lemma_lab, optimize
    except ImportError as exc:
        raise SystemExit(f"cannot import hexident from {SRC}: {exc}")
    if Path(hexident.__file__).resolve().parent != (SRC / "hexident").resolve():
        raise SystemExit(f"hexident was imported from {hexident.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, cluster=cluster, code=code, discharge=discharge,
                                 hexgrid=hexgrid, lemma_lab=lemma_lab, optimize=optimize)


class Workload:
    """Inputs from the seed, a task made of timed items, and exact checks.

    task() returns one (seconds or None, problems) record per operation;
    records with seconds are items, the rest are whole-output checks.
    """

    def __init__(self, hx, ref, rng: random.Random, sizes: dict):
        self.hx = hx
        self.ref = ref
        self.rng = rng
        self.sizes = sizes
        self.counts = Counter({name: 0 for name in COUNTS})
        self.lattices = set()  # every lattice whose clause list the pass compiles

    def timed(self, fn, *args):
        start = time.perf_counter()
        try:
            problems = fn(*args)
        except Exception as exc:  # one broken item must not hide the others
            problems = [f"raised {type(exc).__name__}: {exc}"]
        return time.perf_counter() - start, problems

    def clause_count(self) -> int:
        return sum(len(self.hx.code.identifying_constraints(lat)) for lat in self.lattices)


class LedgerCorpus(Workload):
    """The lower-bound path over many tiny domains."""

    def setup(self) -> dict:
        hx, s, rng = self.hx, self.sizes, self.rng
        codes, pool = [], []
        for lat in hx.hexgrid.all_lattices(s["sampled_domain"]):
            if lat.domain_size <= s["exhaustive_max_domain"]:
                codes.extend(hx.optimize.enumerate_codes(lat))
            elif lat.domain_size == s["sampled_domain"]:
                pool.extend(hx.optimize.enumerate_codes(lat))
            else:
                continue
            self.lattices.add(lat)
        exhaustive = len(codes)
        codes.extend(rng.sample(pool, s["sampled_codes"]))
        lattices = list(hx.hexgrid.all_lattices(s["random_max_domain"]))
        for _ in range(s["random_codes"]):
            lat = rng.choice(lattices)
            self.lattices.add(lat)
            codes.append(hx.optimize.random_code(lat, seed=rng.randrange(2**32)))
        self.codes = codes
        self.shapes = set()
        led = self.ref["ledger"]
        self.noncode = Fraction(led["noncode_charge"])
        self.floor = Fraction(led["cluster_floor"])
        self.prop1_floor = Fraction(led["prop1_floor"])
        return {"codes": len(codes), "exhaustive_codes": exhaustive,
                "sampled_codes": s["sampled_codes"], "sampled_pool": len(pool),
                "random_codes": s["random_codes"], "lattices": len(self.lattices)}

    def task(self):
        records = [self.timed(self.code_item, code) for code in self.codes]
        records.append(self.timed(self.reference_shell))
        return records

    def code_item(self, code):
        hx = self.hx
        d = hx.discharge
        if code.verify():
            return ["verify rejected a generated identifying code"]
        problems = []
        cls = hx.cluster.Classification(code)
        ledger1 = d.run_prop1(code)
        if not d.audit(ledger1, self.prop1_floor).ok or not ledger1.conserved():
            problems.append("prop1 ledger below its floor or not conserved")
        ledger = d.run_main(code)
        if any(ch != self.noncode for v, ch in ledger.final.items() if v not in code.members):
            problems.append("a non-code vertex does not end at the main target")
        for cl in ledger.classification.clusters:
            if not cl.infinite and ledger.cluster_total(cl.cid) < self.floor * cl.size:
                problems.append(f"cluster {cl.cid} ends below its floor")
        if not ledger.conserved():
            problems.append("main ledger does not conserve charge")
        if not d.audit(ledger, self.floor).ok:
            problems.append("main audit failed")
        if not d.claims_report(ledger)["ok"]:
            problems.append("outflow claims failed")
        if len(cls.clusters) != len(ledger.classification.clusters):
            problems.append("two classifications of one code disagree")
        slack = self.ref["ledger"]["shell_slack"]
        for cl in cls.clusters:
            if cl.infinite or cl.size > 8:
                continue
            shape = _normalized(cl.vertices)
            if shape in self.shapes:
                continue
            self.shapes.add(shape)
            _, parts = hx.lemma_lab.shell_partition_bound(code, cl)
            if parts > cl.size + slack:
                problems.append(f"shell of a {cl.size}-cluster needs {parts} parts")
        self.counts["discharge.transfers"] += len(ledger1.transfers) + len(ledger.transfers)
        return problems

    def reference_shell(self):
        want = self.ref["ledger"]["reference_triple"]
        Vertex = self.hx.hexgrid.Vertex
        triple = frozenset(Vertex(*v) for v in want["vertices"])
        cluster = self.hx.cluster.Cluster(0, triple, triple, False)
        got = self.hx.lemma_lab.shell_partition_bound(None, cluster)
        return [] if list(got) == [want["shell"], want["parts"]] else [f"reference 3-cluster shell {got}"]


def _normalized(shape):
    da = min(v.a for v in shape)
    db = min(v.b for v in shape)
    return frozenset((v.a - da, v.b - db, v.s) for v in shape)


class PeriodScan(Workload):
    """The upper-bound path: exact minimum codes through the CLI."""

    def setup(self) -> dict:
        hx, s = self.hx, self.sizes
        self.rows = self.ref["scan"]
        self.family = list(hx.hexgrid.all_lattices(s["scan_max_domain"]))
        pool = [key for key, row in self.rows.items() if row["domain"] in s["sample_bands"]]
        self.rng.shuffle(pool)
        sample, nodes = [], 0
        for key in pool:
            if nodes + self.rows[key]["nodes"] <= s["sample_nodes"]:
                sample.append(key)
                nodes += self.rows[key]["nodes"]
        self.sample = [hx.hexgrid.PeriodLattice(*map(int, key.split(","))) for key in sample]
        self.lattices.update(self.family, self.sample)
        return {"scan_lattices": len(self.family), "sample_lattices": len(self.sample),
                "sample_nodes_at_reference": nodes,
                "sample": sample}

    def task(self):
        hx = self.hx
        clock = {}
        search = hx.optimize.minimum_code

        def timed_search(spec, node_cap=None):
            start = time.perf_counter()
            try:
                return search(spec, node_cap=node_cap)
            finally:
                clock[spec.lattice] = time.perf_counter() - start

        rebind([hx.optimize, hx.cli], search, timed_search)

        out = io.StringIO()
        with redirect_stdout(out):
            status = hx.cli.main(["scan", "--max-domain", str(self.sizes["scan_max_domain"])])
        self.row_problems = {}
        records = [(None, self.check_scan(status, out.getvalue()))]
        for lat in self.family:
            records.append((clock.get(lat), self.row_problems.get(lat, ["no scan row"])))
        for lat in self.sample:
            out = io.StringIO()
            with redirect_stdout(out):
                status = hx.cli.main(["search", "--p", str(lat.p), "--q", str(lat.q),
                                      "--shear", str(lat.shear), "--format", "json"])
            records.append((clock.get(lat), self.check_search(lat, status, out.getvalue())))
        return records

    def check_scan(self, status, text):
        problems = [] if status == 0 else [f"scan exited with {status}"]
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["p", "q", "shear", "minSize", "density", "nodesExplored", "optimal"]:
            return problems + ["scan CSV header"]
        body = [r for r in rows[1:] if r]
        if len(body) != len(self.family):
            problems.append(f"scan has {len(body)} rows, wants {len(self.family)}")
        densities = [Fraction(r[4]) for r in body if len(r) == 7 and r[4]]
        if densities != sorted(densities):
            problems.append("scan rows are not sparsest first")
        for r in body:
            if len(r) != 7:
                problems.append(f"bad scan row {r}")
                continue
            lat = self.hx.hexgrid.PeriodLattice(int(r[0]), int(r[1]), int(r[2]))
            got = {"min_size": int(r[3]), "density": r[4], "optimal": r[6] == "True"}
            self.row_problems[lat] = self.compare(lat, got, int(r[5]))
        return problems

    def check_search(self, lat, status, text):
        if status != 0:
            return [f"search exited with {status}"]
        got = json.loads(text)
        return self.compare(lat, {"min_size": got["minSize"], "density": got["density"],
                                  "optimal": got["optimal"]}, got["nodesExplored"])

    def compare(self, lat, got, nodes):
        self.counts["optimize.nodes"] += nodes
        want = self.rows[f"{lat.p},{lat.q},{lat.shear}"]
        problems = []
        if got["min_size"] != want["min_size"] or Fraction(got["density"]) != Fraction(want["density"]):
            problems.append(f"{lat}: minimum {got['min_size']} {got['density']}, "
                            f"wants {want['min_size']} {want['density']}")
        if not got["optimal"]:
            problems.append(f"{lat}: no proof of optimality")
        if nodes < 1:
            problems.append(f"{lat}: {nodes} search nodes")
        return problems


class LemmaWindows(Workload):
    """The window engine with certainty rules, and the engine alone."""

    def setup(self) -> dict:
        hx, rng = self.hx, self.rng
        need = Counter({cls: self.sizes["class_rounds"] for cls in WINDOW_CLASSES})
        lattices = [lat for lat in hx.hexgrid.all_lattices(28) if lat.domain_size >= 20]
        self.windows, codes = [], []
        while +need:
            if len(codes) == 200:
                raise RuntimeError(f"random codes realise no window of classes {sorted(+need)}")
            lat = rng.choice(lattices)
            self.lattices.add(lat)
            code = hx.optimize.random_code(lat, seed=rng.randrange(2**32))
            codes.append(code)
            centres = list(lat.domain())
            rng.shuffle(centres)
            for v in centres:
                status = "IN" if code.contains(v) else "OUT"
                cls = (status, sum(code.contains(w) for w in hx.hexgrid.neighbors(v)))
                if need[cls] > 0:
                    need[cls] -= 1
                    self.windows.append(self.window(code, v, 1, f"{status}-{cls[1]}-s{v.s}"))
        for _ in range(self.sizes["small_windows"]):
            code = rng.choice(codes)
            self.windows.append(self.window(code, rng.choice(list(code.lattice.domain())), 2, None))
        return {"lemmas": self.sizes["lemmas"] + [f"L4/{t}" for t in L4_TEMPLATES],
                "l4_node_cap": L4_NODE_CAP, "class_windows": len(WINDOW_CLASSES) * self.sizes["class_rounds"],
                "small_windows": self.sizes["small_windows"], "window_radius": WINDOW_RADIUS,
                "codes_drawn": len(codes)}

    def window(self, code, centre, pin_radius, key):
        """Radius-3 window around centre with the code pinned out to pin_radius."""
        ball = self.hx.hexgrid.ball
        region = sorted(ball(centre, WINDOW_RADIUS))
        pins = {w: "IN" if code.contains(w) else "OUT" for w in ball(centre, pin_radius)}
        truth = tuple("IN" if code.contains(w) else "OUT" for w in region)
        return key, region, pins, truth

    def task(self):
        records = [self.timed(self.lemma_item, lid, None) for lid in self.sizes["lemmas"]]
        records += [self.timed(self.lemma_item, "L4", tpl) for tpl in L4_TEMPLATES]
        records += [self.timed(self.window_item, *w) for w in self.windows]
        return records

    def lemma_item(self, lemma_id, template):
        lab = self.hx.lemma_lab
        if template is None:
            verdict = lab.check_lemma(lemma_id)
            want = self.ref["lemmas"][lemma_id]
        else:
            verdict = lab.check_lemma(lemma_id, template=template, node_cap=L4_NODE_CAP)
            want = self.ref["lemmas"][f"{lemma_id}/{template}"]
        self.counts["lemma_lab.settled"] += verdict.configs_explored
        if verdict.result not in want["verdicts"]:
            return [f"{lemma_id} {template or ''}: {verdict.result}, wants {want['verdicts']}"]
        return []

    def window_item(self, key, region, pins, truth):
        configs = list(self.hx.lemma_lab.enumerate(region, pins))
        self.counts["lemma_lab.enumerated"] += len(configs)
        problems = []
        if not any(c.status == truth for c in configs):
            problems.append(f"window {key}: the code's own restriction is not enumerated")
        want = self.ref["windows"].get(key)
        if want is not None and len(configs) != want:
            problems.append(f"window {key}: {len(configs)} assignments, wants {want}")
        return problems


class BigPeriod(Workload):
    """The lower-bound layers on one huge domain."""

    def setup(self) -> dict:
        hx, rng = self.hx, self.rng
        big = self.ref["big"]
        lat = hx.hexgrid.PeriodLattice(*big["witness"])
        self.lattices.add(lat)
        result = hx.optimize.minimum_code(hx.optimize.SearchSpec(lat))
        self.counts["optimize.nodes"] += result.nodes_explored
        # a seeded translate of the witness, rows in seeded order
        da, db = rng.randrange(lat.p), rng.randrange(lat.q)
        Vertex = hx.hexgrid.Vertex
        moved = hx.code.PeriodicCode(
            lat, frozenset(Vertex(v.a + da, v.b + db, v.s) for v in result.witness.members))
        m1, m2 = self.sizes["tile"]
        tiled = hx.code.tile(moved, m1, m2)
        self.lattices.add(tiled.lattice)
        header, *rows = tiled.to_text().splitlines()
        rng.shuffle(rows)
        self.text = "\n".join([header] + rows) + "\n"
        self.want = big["tiles"][f"{m1}x{m2}"]
        return {"vertices": tiled.lattice.domain_size, "members": len(rows), "tile": [m1, m2],
                "witness": big["witness"], "shift": [da, db]}

    def task(self):
        return [self.timed(self.item)]

    def item(self):
        hx = self.hx
        d = hx.discharge
        big, want = self.ref["big"], self.want
        code = hx.code.PeriodicCode.from_text(self.text)
        problems = []
        if code.density() != Fraction(big["density"]):
            problems.append(f"density {code.density()}")
        if code.verify():
            return problems + ["verify rejected the tiled witness"]
        cls = hx.cluster.Classification(code)
        if len(cls.clusters) != want["clusters"]:
            problems.append(f"{len(cls.clusters)} clusters, wants {want['clusters']}")
        ledger1 = d.run_prop1(code)
        if not d.audit(ledger1, Fraction(self.ref["ledger"]["prop1_floor"])).ok or not ledger1.conserved():
            problems.append("prop1 ledger below its floor or not conserved")
        ledger = d.run_main(code)
        noncode = Fraction(self.ref["ledger"]["noncode_charge"])
        if any(ch != noncode for v, ch in ledger.final.items() if v not in code.members):
            problems.append("a non-code vertex does not end at the main target")
        if not d.audit(ledger, Fraction(self.ref["ledger"]["cluster_floor"])).ok or not ledger.conserved():
            problems.append("main audit failed or charge not conserved")
        if [len(ledger1.transfers), len(ledger.transfers)] != [want["prop1_transfers"], want["main_transfers"]]:
            problems.append(f"transfers {len(ledger1.transfers)}, {len(ledger.transfers)}")
        self.counts["discharge.transfers"] += len(ledger1.transfers) + len(ledger.transfers)
        return problems


CLASSES = {"ledger-corpus": LedgerCorpus, "period-scan": PeriodScan,
           "lemma-windows": LemmaWindows, "big-period": BigPeriod}


def probe_hexgrid(hx, rng: random.Random) -> dict:
    """Grid kernel timings on a fixed-size vertex stream, median of three."""
    hexgrid = hx.hexgrid
    lat = hexgrid.PeriodLattice(7, 4, 3)
    stream = [hexgrid.Vertex(rng.randint(-60, 60), rng.randint(-60, 60), rng.randint(0, 1))
              for _ in range(50000)]
    centres = stream[:1000]

    def canon():
        start = time.perf_counter_ns()
        for v in stream:
            lat.canonical(v)
            lat.index(v)
        return (time.perf_counter_ns() - start) / (2 * len(stream))

    def balls():
        start = time.perf_counter_ns()
        for radius in (2, 3, 4):
            for v in centres:
                hexgrid.ball(v, radius)
        return (time.perf_counter_ns() - start) / (3 * len(centres)) / 1000

    return {"hexgrid.canonical_ns": statistics.median(canon() for _ in range(3)),
            "hexgrid.ball_us": statistics.median(balls() for _ in range(3))}


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    args = parser.parse_args(argv)

    hx = import_library()
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer, hx)
    with open(args.reference) as fh:
        ref = json.load(fh)
    sizes = SIZES[args.workload]["tiny" if args.tiny else "full"]
    workload = CLASSES[args.workload](hx, ref, random.Random(args.seed), sizes)

    if tracer:
        used = tracer.run("setup", workload.setup)
    else:
        used = workload.setup()
    setup_s = time.perf_counter() - start

    task_start = time.perf_counter()
    records = tracer.run("task", workload.task) if tracer else workload.task()
    wall_s = time.perf_counter() - task_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = layer_metrics(tracer) if tracer else None
    problems = [p for _, ps in records for p in ps]
    failed = sum(1 for _, ps in records if ps)
    counts = dict(workload.counts)
    counts["code.clauses"] = workload.clause_count()
    result = {
        "workload": args.workload, "seed": args.seed, "traced": bool(tracer),
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "items": [seconds for seconds, _ in records if seconds is not None],
        "attempted": len(records), "failed": failed, "problems": problems[:20],
        "counts": counts, "sizes": used,
    }
    if tracer:
        result["layers"] = layers
        result["layers"].update(probe_hexgrid(hx, random.Random(args.seed)))
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
