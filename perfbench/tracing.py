"""Spans and counters recorded around hexident's public calls.

A traced pass replaces public names in the hexident modules with wrappers
that record one span per call: name, start, end and the index of the
enclosing span.  Spans stay in memory and are written out when the pass
ends.  A layer's self time is its spans' durations minus the part their
child spans cover, so run_main's self time excludes the Classification
and verify calls it makes.

The wrappers are installed from outside the library: no file under src/
changes.  Two counters read private names of lemma_lab (_Engine.search
for search nodes and _certify for open window assignments) because the
public verdict does not report them.  Search nodes are counted inside
check_lemma only, so settled assignments per node describe the lemma
checks and not the plain enumerations.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# metric name -> span name whose summed self time the metric reports
SELF_TIME_METRICS = {
    "code.compile_s": "code.compile",
    "code.parse_s": "code.parse",
    "code.verify_s": "code.verify",
    "cluster.classify_s": "cluster.classify",
    "discharge.prop1_s": "discharge.prop1",
    "discharge.main_s": "discharge.main",
    "discharge.audit_s": "discharge.audit",
    "discharge.claims_s": "discharge.claims",
    "lemma_lab.check_s": "lemma_lab.check",
    "lemma_lab.enumerate_s": "lemma_lab.enumerate",
    "lemma_lab.partition_s": "lemma_lab.partition",
    "optimize.search_s": "optimize.search",
    "optimize.generate_s": "optimize.generate",
    "cli.overhead_s": "cli.main",
}


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def run(self, name, fn, *args, **kwargs):
        span = [name, 0, 0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._open.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]][0] if self._open else None

    def self_seconds(self) -> dict:
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return {name: ns / 1e9 for name, ns in out.items()}


def rebind(modules, old, new) -> None:
    """Point every module attribute that holds old at new."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def instrument(tracer: Tracer, hx) -> None:
    """Install span wrappers on the public calls of every hexident layer."""
    modules = [hx.hexgrid, hx.code, hx.cluster, hx.discharge, hx.lemma_lab, hx.optimize, hx.cli]
    counts = tracer.counts

    def spanned(name, fn, after=None, materialize=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize:  # generators: the work happens while iterating
                out = tracer.run(name, lambda: list(fn(*args, **kwargs)))
            else:
                out = tracer.run(name, fn, *args, **kwargs)
            if after is not None:
                after(out)
            return iter(out) if materialize else out
        return wrapper

    def swap(name, fn, **kw):
        rebind(modules, fn, spanned(name, fn, **kw))

    PeriodicCode = hx.code.PeriodicCode
    PeriodicCode.verify = spanned("code.verify", PeriodicCode.verify)
    PeriodicCode.from_text = classmethod(spanned("code.parse", PeriodicCode.from_text.__func__))

    # the clause cache lives for the whole pass, so the first call per
    # lattice is the compile and later calls are lookups
    compile_clauses = hx.code.identifying_constraints
    compiled = set()

    def clauses(lattice):
        if lattice in compiled:
            return compile_clauses(lattice)
        out = tracer.run("code.compile", compile_clauses, lattice)
        compiled.add(lattice)
        counts["code.clauses"] += len(out)
        counts["code.clause_bytes"] += sum((c.mask.bit_length() + 7) // 8 for c in out)
        return out

    rebind(modules, compile_clauses, clauses)

    Classification = hx.cluster.Classification

    class TracedClassification(Classification):
        def __init__(self, code):
            tracer.run("cluster.classify", Classification.__init__, self, code)
            counts["cluster.clusters"] += len(self.clusters)

    rebind(modules, Classification, TracedClassification)

    def add_transfers(ledger):
        counts["discharge.transfers"] += len(ledger.transfers)

    d = hx.discharge
    swap("discharge.prop1", d.run_prop1, after=add_transfers)
    swap("discharge.main", d.run_main, after=add_transfers)
    swap("discharge.audit", d.audit)
    swap("discharge.claims", d.claims_report)

    lab = hx.lemma_lab

    def add_settled(verdict):
        counts["lemma_lab.settled"] += verdict.configs_explored

    def add_enumerated(configs):
        counts["lemma_lab.enumerated"] += len(configs)

    swap("lemma_lab.check", lab.check_lemma, after=add_settled)
    swap("lemma_lab.enumerate", lab.enumerate, after=add_enumerated, materialize=True)
    swap("lemma_lab.partition", lab.shell_partition_bound)

    engine_search = lab._Engine.search

    def search(engine, *args, **kwargs):
        if tracer.current() != "lemma_lab.check":
            return engine_search(engine, *args, **kwargs)
        before = engine.nodes
        try:
            return engine_search(engine, *args, **kwargs)
        finally:
            counts["lemma_lab.search_nodes"] += engine.nodes - before

    lab._Engine.search = search

    # _certify recurses through its module name; count only the outermost
    # call, whose False result leaves a window assignment open
    certify = lab._certify
    depth = [0]

    def certify_counted(*args, **kwargs):
        depth[0] += 1
        try:
            ok = certify(*args, **kwargs)
        finally:
            depth[0] -= 1
        if not ok and depth[0] == 0:
            counts["lemma_lab.open"] += 1
        return ok

    lab._certify = certify_counted

    o = hx.optimize

    def add_nodes(result):
        counts["optimize.nodes"] += result.nodes_explored

    swap("optimize.search", o.minimum_code, after=add_nodes)
    swap("optimize.generate", o.random_code)
    swap("optimize.generate", o.enumerate_codes, materialize=True)
    swap("cli.main", hx.cli.main)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self times and counts of one traced pass."""
    self_s = tracer.self_seconds()
    out = {metric: self_s.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
    for name in ("code.clauses", "code.clause_bytes", "cluster.clusters", "discharge.transfers",
                 "lemma_lab.settled", "lemma_lab.search_nodes", "lemma_lab.open",
                 "lemma_lab.enumerated", "optimize.nodes"):
        out[name] = tracer.counts[name]
    nodes = out["lemma_lab.search_nodes"]
    out["lemma_lab.settled_per_node"] = out["lemma_lab.settled"] / nodes if nodes else 0.0
    search_s = out["optimize.search_s"]
    out["optimize.nodes_per_s"] = out["optimize.nodes"] / search_s if search_s else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
