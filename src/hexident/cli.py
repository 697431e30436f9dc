"""Command-line front door for the toolkit.

One subcommand per job: verify a code file, print its density, classify
its clusters, run a discharging ledger with an audit, report one
cluster's outflow, check a structural lemma on a window, bound the
identifier partition around a cluster, search for a minimum code, and
scan lattice families for densities.

Exit codes are the automation API: 0 means success (verified, audit
passed, lemma verified), 1 means a definite negative finding (violations,
audit failure, counterexample, infeasible search), 2 means the
invocation itself was bad (usage, missing file, unparseable input).
All numbers print as exact fractions "num/den" unless --approx asks
for floats.  Output carries no timestamps, so identical invocations
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from hexident.cluster import Classification
from hexident.code import PeriodicCode
from hexident.discharge import (
    InvalidCode,
    MAIN_TARGET,
    PROP1_TARGET,
    audit,
    claims_report,
    outflow,
    run_main,
    run_prop1,
)
from hexident.hexgrid import PeriodLattice, Vertex, all_lattices, lattices_of_size
from hexident.lemma_lab import (
    LEMMA_IDS,
    check_lemma,
    load_template,
    shell_partition_bound,
)
from hexident.optimize import SearchSpec, INFEASIBLE, density_scan, minimum_code, scan_csv


def _frac(x: Fraction, approx: bool) -> str:
    return str(float(x)) if approx else f"{x.numerator}/{x.denominator}"


def _parse_bound(text: str) -> Fraction:
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bound must look like 12/29, got {text!r}")


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _domain_sizes(text: str) -> list[int]:
    """An argparse type: a comma list of domain sizes 2pq, ascending and
    without repeats."""
    try:
        sizes = sorted({int(part) for part in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")
    for size in sizes:
        if size < 2 or size % 2:
            raise argparse.ArgumentTypeError(f"a domain size 2pq is even and at least 2, got {size}")
    return sizes


def _parse_vertex(text: str) -> Vertex:
    try:
        a, b, s = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"vertex must look like a,b,s, got {text!r}")
    if s not in (0, 1):
        raise argparse.ArgumentTypeError("vertex side must be 0 or 1")
    return Vertex(a, b, s)


def _emit(text: str, args) -> None:
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    code = PeriodicCode.load(args.code)
    violations = code.verify()
    density = _frac(code.density(), args.approx)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "ok": not violations,
                    "density": density,
                    "violations": [
                        {"kind": v.kind, "vertices": [list(w) for w in v.vertices]}
                        for v in violations
                    ],
                },
                indent=2,
            ),
            args,
        )
    elif violations:
        lines = [str(v) for v in violations]
        lines.append(f"FAIL {len(violations)} violations")
        _emit("\n".join(lines), args)
    else:
        _emit(f"OK density={density}", args)
    return 0 if not violations else 1


def _cmd_density(args) -> int:
    code = PeriodicCode.load(args.code)
    _emit(_frac(code.density(), args.approx), args)
    return 0


def _cmd_classify(args) -> int:
    code = PeriodicCode.load(args.code)
    cls = Classification(code)
    if args.format == "text":
        lines = []
        for entry in cls.report()["clusters"]:
            bits = [f"cluster {entry['id']}: size={entry['size']}"]
            for label in ("crowded", "open", "threatened", "needy"):
                if entry[label] is not None:
                    bits.append(f"{label}={entry[label]}")
            lines.append(" ".join(bits))
        _emit("\n".join(lines) if lines else "no clusters", args)
    else:
        _emit(json.dumps(cls.report(), indent=2), args)
    return 0


def _cmd_discharge(args) -> int:
    code = PeriodicCode.load(args.code)
    if args.engine == "prop1":
        ledger = run_prop1(code)
        bound = args.bound if args.bound is not None else PROP1_TARGET
    else:
        ledger = run_main(code)
        bound = args.bound if args.bound is not None else MAIN_TARGET
    report = audit(ledger, bound)
    payload = {"ledger": ledger.to_json(), "audit": report.to_json()}
    if args.engine == "main":
        payload["claims"] = claims_report(ledger)
    ok = report.ok and ledger.conserved()
    if args.format == "text":
        word = "PASS" if ok else "FAIL"
        lines = [f"{word} engine={args.engine} bound={_frac(bound, args.approx)} "
                 f"conserved={ledger.conserved()}"]
        for subject, final in report.failures:
            lines.append(f"  below bound: {subject} final={_frac(final, args.approx)}")
        _emit("\n".join(lines), args)
    else:
        _emit(json.dumps(payload, indent=2), args)
    return 0 if ok else 1


def _cmd_outflow(args) -> int:
    code = PeriodicCode.load(args.code)
    ledger = run_main(code)
    cls = ledger.classification
    cluster = cls.clusters[cls.instance_of(args.at).cid]
    total = outflow(ledger, cluster)
    _emit(_frac(total, args.approx), args)
    return 0


def _cmd_check_lemma(args) -> int:
    template = None
    if args.template is not None:
        template = load_template(args.template) if os.path.exists(args.template) else args.template
    verdict = check_lemma(args.id, radius=args.radius, template=template,
                          node_cap=args.node_cap)
    if args.format == "json":
        _emit(json.dumps(verdict.to_json(), indent=2), args)
    else:
        lines = [verdict.result]
        if verdict.note:
            lines.append(f"note: {verdict.note}")
        _emit("\n".join(lines), args)
    return 0 if verdict.result == "VERIFIED" else 1


def _cmd_shell(args) -> int:
    code = PeriodicCode.load(args.code)
    cls = Classification(code)
    cluster = cls.clusters[cls.instance_of(args.at).cid]
    size, parts = shell_partition_bound(code, cluster)
    if args.format == "json":
        _emit(json.dumps({"shellSize": size, "minParts": parts}, indent=2), args)
    else:
        _emit(f"shell={size} minParts={parts}", args)
    return 0


def _cmd_search(args) -> int:
    lattice = PeriodLattice(args.p, args.q, args.shear)
    spec = SearchSpec(lattice, budget=args.budget,
                      symmetry_reduction=not args.no_symmetry)
    result = minimum_code(spec, node_cap=args.node_cap)
    if result.min_size == INFEASIBLE:
        if args.format == "json":
            _emit(json.dumps({"minSize": INFEASIBLE, "nodesExplored": result.nodes_explored,
                              "optimal": result.proof_of_optimality}, indent=2), args)
        else:
            _emit(f"INFEASIBLE within budget={args.budget} nodes={result.nodes_explored}", args)
        return 1
    witness_text = result.witness.to_text()
    if args.witness_out:
        result.witness.save(args.witness_out)
    density = _frac(result.witness.density(), args.approx)
    if args.format == "json":
        _emit(json.dumps({
            "minSize": result.min_size,
            "density": density,
            "nodesExplored": result.nodes_explored,
            "optimal": result.proof_of_optimality,
            "witness": witness_text,
        }, indent=2), args)
    else:
        lines = [f"minSize={result.min_size} density={density} "
                 f"optimal={result.proof_of_optimality} nodes={result.nodes_explored}"]
        if not args.witness_out:
            lines.append(witness_text.rstrip("\n"))
        _emit("\n".join(lines), args)
    return 0


def _cmd_scan(args) -> int:
    family = all_lattices(args.max_domain, p_max=args.p_max)
    if args.sizes:
        if args.sizes[-1] > args.max_domain:
            raise ValueError(f"--sizes {args.sizes[-1]} exceeds --max-domain {args.max_domain}")
        family = (lat for size in args.sizes for lat in lattices_of_size(size, args.p_max))
    rows = density_scan(family, node_cap=args.node_cap)
    _emit(scan_csv(rows), args)
    bad = [r for r in rows if r.critical]
    for row in bad:
        lat = row.lattice
        print(
            f"CRITICAL: density {row.density} below 12/29 at ({lat.p},{lat.q},{lat.shear})",
            file=sys.stderr,
        )
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexident",
        description="Identifying codes on the hexagonal grid: verify, classify, "
                    "discharge, check lemmas, and search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, fractions=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if fractions:
            p.add_argument("--approx", action="store_true",
                           help="print floats instead of exact fractions")
        p.add_argument("--output", help="write the report here instead of stdout")
        return p

    p = add("verify", _cmd_verify, fractions=True, help="check a code file for the identifying property")
    p.add_argument("--code", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("density", _cmd_density, fractions=True, help="print the density of a code file")
    p.add_argument("--code", required=True)

    p = add("classify", _cmd_classify, help="report clusters and their labels")
    p.add_argument("--code", required=True)
    p.add_argument("--format", choices=["text", "json"], default="json")

    p = add("discharge", _cmd_discharge, fractions=True, help="run a charge ledger and audit it")
    p.add_argument("--code", required=True)
    p.add_argument("--engine", choices=["prop1", "main"], default="main")
    p.add_argument("--bound", type=_parse_bound, default=None,
                   help="audit bound as num/den; defaults to the engine target")
    p.add_argument("--format", choices=["text", "json"], default="json")

    p = add("outflow", _cmd_outflow, fractions=True, help="total charge leaving one cluster")
    p.add_argument("--code", required=True)
    p.add_argument("--at", type=_parse_vertex, required=True,
                   help="a code vertex of the cluster, as a,b,s")

    p = add("check-lemma", _cmd_check_lemma, help="check a structural lemma on a window")
    p.add_argument("--id", required=True, choices=sorted(LEMMA_IDS))
    p.add_argument("--template", help="built-in window name or a window file")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--node-cap", type=_at_least(0), default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("shell", _cmd_shell, help="identifier partition bound around a cluster")
    p.add_argument("--code", required=True)
    p.add_argument("--at", type=_parse_vertex, required=True,
                   help="a code vertex of the cluster, as a,b,s")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("search", _cmd_search, fractions=True, help="minimum code for one period")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--shear", type=int, default=0)
    p.add_argument("--budget", type=_at_least(0), default=None)
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--node-cap", type=_at_least(0), default=None)
    p.add_argument("--witness-out", help="write the witness code file here")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("scan", _cmd_scan, help="density table over a lattice family, as CSV")
    p.add_argument("--max-domain", type=_at_least(2), required=True,
                   help="include every lattice with 2pq up to this")
    p.add_argument("--p-max", type=_at_least(1), default=None)
    p.add_argument("--sizes", type=_domain_sizes,
                   help="comma list of even sizes up to --max-domain; keep only these domain sizes")
    p.add_argument("--node-cap", type=_at_least(0), default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidCode as exc:
        print(f"invalid code: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
