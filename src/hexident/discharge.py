"""Exact-rational discharging engines over a classified periodic code.

Two engines share one ledger shape.  The coarse engine moves 2/(5k)
across each code/non-code edge and certifies a 2/5 floor per vertex.
The main engine moves 12/(29k) across edges (rule 1) and then routes
single 1/29 rescue payments between clusters (rules 2 to 5) so that
every vertex, counted per cluster for code vertices, keeps at least
12/29.

All accounting is per fundamental domain: a transfer debits and
credits orbit representatives, and equivariance of the donor selection
makes the per-domain sums equal the per-instance flows of the infinite
grid.  Cluster-level transfers remember the donor instance offset so
the outflow claims can be audited instance-wise.

Charges are integer numerators over one fixed denominator per engine,
kept in a list by orbit index: every amount either engine moves is a
whole number of those units.  The ledger keeps that list, and its
totals, conservation check and audit sum integers; a Fraction is built
only for a number the ledger reports.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from hexident.hexgrid import Vertex
from hexident.code import PeriodicCode
from hexident.cluster import Classification, Cluster, Instance, UnsupportedKind

RULE_AMOUNT = Fraction(1, 29)
MAIN_TARGET = Fraction(12, 29)
PROP1_TARGET = Fraction(2, 5)

# the charge units: rule 1 moves target/k for k = 1, 2, 3 donors, so
# 30 = lcm(5, 10, 15) for prop1; 174 = lcm(29, 58, 87) for main, which
# also holds RULE_AMOUNT as six units
PROP1_DENOM = 30
MAIN_DENOM = 174
_RULE_UNITS = int(RULE_AMOUNT * MAIN_DENOM)


class InvalidCode(ValueError):
    """The engines only run on verified identifying codes."""


@dataclass(frozen=True)
class Transfer:
    """One charge movement: vertex to vertex (rule 1) or cluster to cluster."""

    rule: int
    src: Union[Vertex, Instance]
    dst: Union[Vertex, int]
    amount: Fraction
    mode: Optional[str] = None  # rule 4 donor override: "crowded" or "face"

    def to_json(self) -> dict:
        out = {"rule": self.rule, "amount": _frac(self.amount)}
        if self.rule == 1:
            out["fromVertex"] = list(self.src)
            out["toVertex"] = list(self.dst)
        else:
            out["fromCluster"] = self.src.cid
            out["fromOffset"] = [self.src.da, self.src.db]
            out["toCluster"] = self.dst
        if self.mode:
            out["mode"] = self.mode
        return out


@dataclass
class ChargeLedger:
    code: PeriodicCode
    classification: Classification
    engine: str
    charge: list  # final numerators over denom, by orbit index
    denom: int
    transfers: list
    notes: list = field(default_factory=list)

    @functools.cached_property
    def final(self) -> dict:
        """The charges as {domain vertex: Fraction}, one Fraction per value."""
        fracs: dict = {}
        out = {}
        for v, n in zip(self.code.lattice.vertices, self.charge):
            f = fracs.get(n)
            if f is None:
                f = fracs[n] = Fraction(n, self.denom)
            out[v] = f
        return out

    @functools.cached_property
    def tally(self):
        """One pass over the transfers, kept for the ledger's lifetime:
        ledgers are not changed once their engine returns them.

        Returns the outflow of every open 3-cluster, the number of rescue
        payments each donor cluster makes, and the set of rescue payments as
        (donor cid, recipient cid, donor da, donor db).
        """
        cls = self.classification
        vertices, denom = self.code.lattice.vertices, self.denom
        flows = {cl.cid: 0 for cl in cls.clusters if cls.is_open3(cl.cid)}
        owner = {vertices[j]: cid for cid in flows for j in cls.cluster_orbits(cid)}
        spent: Counter = Counter()
        paid = set()
        for t in self.transfers:
            # rule 1 debits a domain vertex, the rescue rules a cluster instance
            cid = owner.get(t.src) if t.rule == 1 else t.src.cid
            if cid in flows:
                # every amount is a whole number of units over denom
                flows[cid] += t.amount.numerator * (denom // t.amount.denominator)
            if t.rule != 1:
                spent[cid] += 1
                paid.add((cid, t.dst, t.src.da, t.src.db))
        return {cid: Fraction(n, denom) for cid, n in flows.items()}, spent, paid

    def _units(self, cid: int) -> int:
        charge = self.charge
        return sum(charge[j] for j in self.classification.cluster_orbits(cid))

    def cluster_total(self, cid: int) -> Fraction:
        return Fraction(self._units(cid), self.denom)

    def conserved(self) -> bool:
        return sum(self.charge) == self.code.size() * self.denom

    def to_json(self) -> dict:
        lat = self.code.lattice
        return {
            "engine": self.engine,
            "lattice": {"p": lat.p, "q": lat.q, "shear": lat.shear},
            # domain order is orbit index order
            "final": [{"vertex": list(v), "charge": _frac(f)} for v, f in self.final.items()],
            "transfers": [t.to_json() for t in self.transfers],
            "clusterTotals": [
                {"cluster": cl.cid, "total": _frac(self.cluster_total(cl.cid))}
                for cl in self.classification.clusters
            ],
            "conserved": self.conserved(),
            "notes": list(self.notes),
        }


@dataclass
class AuditReport:
    bound: Fraction
    failures: list
    outflows: dict

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "bound": _frac(self.bound),
            "failures": [
                {
                    "subject": list(s) if isinstance(s, Vertex) else s,
                    "final": _frac(f),
                }
                for s, f in self.failures
            ],
            "outflows": {str(cid): _frac(v) for cid, v in sorted(self.outflows.items())},
        }


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _require_valid(code: PeriodicCode):
    bad = code.verify()
    if bad:
        raise InvalidCode(f"not an identifying code: {bad[0]}")


@functools.cache
def _rule1_pay(target: Fraction, denom: int) -> tuple:
    """What rule 1 moves per donor when a vertex has k code neighbors:
    (target/k as one shared Fraction, its numerator over denom), by k."""
    pay = [(None, 0)]
    for k in (1, 2, 3):
        amount = target / k
        units = amount * denom
        if units.denominator != 1:
            raise ValueError(f"denominator {denom} does not hold {amount}")
        pay.append((amount, units.numerator))
    return tuple(pay)


def _rule1(code: PeriodicCode, target: Fraction, denom: int) -> tuple[list[int], list]:
    """Rule 1: each non-code vertex takes target/k from each of its k code
    neighbors.  Returns the charge numerators over denom by orbit index,
    from one unit per code vertex, and the transfers."""
    domain = code.lattice.vertices
    inside = code.orbits()
    pay = _rule1_pay(target, denom)
    charge = [denom if i in inside else 0 for i in range(len(domain))]
    transfers = []
    for i, row in enumerate(code.lattice.table):
        if i in inside:
            continue
        donors = [j for j, _, _ in row if j in inside]
        amount, units = pay[len(donors)]
        w = domain[i]
        for j in donors:
            charge[i] += units
            charge[j] -= units
            transfers.append(Transfer(1, domain[j], w, amount))
    return charge, transfers


def run_prop1(code: PeriodicCode) -> ChargeLedger:
    """Edge-local engine: every non-code vertex ends at exactly 2/5."""
    _require_valid(code)
    charge, transfers = _rule1(code, PROP1_TARGET, PROP1_DENOM)
    return ChargeLedger(code, Classification(code), "prop1", charge, PROP1_DENOM, transfers)


def _donor_key(cls: Classification, inst: Instance):
    return (min(cls.instance_vertices(inst)), inst)


def _pay_cluster(cls, charge, transfers, rule, donor, recipient_cid, mode=None):
    # each cluster's charge sits on its least orbit, its least domain class
    charge[min(cls.cluster_orbits(donor.cid))] -= _RULE_UNITS
    charge[min(cls.cluster_orbits(recipient_cid))] += _RULE_UNITS
    transfers.append(Transfer(rule, donor, recipient_cid, RULE_AMOUNT, mode))


# rules 2 to 4 in precedence order: (rule, mode, qualifies(cls, cl, inst))
# over the instances a 1-cluster cl is nearby; the face mode reads the
# face positions of cl's clause pattern ball
_RESCUE_1 = (
    (2, None, lambda cls, cl, i: cls.is_big(i.cid)),
    (3, None, lambda cls, cl, i: cls.is_closed3(i.cid)),
    (4, "crowded", lambda cls, cl, i: cls.is_open3(i.cid) and cls.crowded[i.cid]),
    (4, "face", lambda cls, cl, i: cls.is_open3(i.cid) and cls.shares_face(cl, i)),
    (4, None, lambda cls, cl, i: cls.is_open3(i.cid)),
)


def _rescue_1cluster(cls: Classification, cl: Cluster, charge, transfers, notes):
    near = cls.nearby(cl)
    for rule, mode, qualifies in _RESCUE_1:
        donors = [i for i in near if qualifies(cls, cl, i)]
        if donors:
            donor = min(donors, key=lambda i: _donor_key(cls, i))
            _pay_cluster(cls, charge, transfers, rule, donor, cl.cid, mode)
            return
    notes.append(f"uncrowded 1-cluster {cl.cid} has no qualifying donor")


def _rescue_needy(cls: Classification, cl: Cluster, charge, transfers, notes):
    donors = [i for i in cls.nearby(cl) if cls.is_open3(i.cid) and not cls.paired(cl, i)]
    if donors:
        _pay_cluster(cls, charge, transfers, 5, min(donors, key=lambda i: _donor_key(cls, i)), cl.cid)
    else:
        notes.append(f"needy cluster {cl.cid} has no qualifying donor")


def run_main(code: PeriodicCode) -> ChargeLedger:
    """Rules 1 to 5 with literal precedence and deterministic donors."""
    _require_valid(code)
    cls = Classification(code)
    charge, transfers = _rule1(code, MAIN_TARGET, MAIN_DENOM)
    notes: list = []
    for cl in cls.clusters:
        if cl.size == 1 and not cls.crowded[cl.cid]:
            _rescue_1cluster(cls, cl, charge, transfers, notes)
    for cl in cls.clusters:
        if cl.size == 3 and cls.needy.get(cl.cid):
            _rescue_needy(cls, cl, charge, transfers, notes)
    return ChargeLedger(code, cls, "main", charge, MAIN_DENOM, transfers, notes)


def audit(ledger: ChargeLedger, bound: Fraction) -> AuditReport:
    """Non-code vertices per vertex, code vertices per cluster total."""
    # n / denom < bound, for a numerator n, read in integers
    scale, floor = bound.denominator, bound.numerator * ledger.denom
    failures = []
    inside = ledger.code.orbits()
    vertices = ledger.code.lattice.vertices
    for i, n in enumerate(ledger.charge):
        if i not in inside and n * scale < floor:
            failures.append((vertices[i], Fraction(n, ledger.denom)))
    for cl in ledger.classification.clusters:
        n = ledger._units(cl.cid)
        if n * scale < floor * len(cl.classes):
            failures.append((cl.cid, Fraction(n, ledger.denom)))
    failures.sort(key=lambda sf: (isinstance(sf[0], int), sf[0]))
    return AuditReport(bound, failures, dict(ledger.tally[0]))


def outflow(ledger: ChargeLedger, cluster: Cluster) -> Fraction:
    """Total charge one instance of an open 3-cluster sends away."""
    if not ledger.classification.is_open3(cluster.cid):
        raise UnsupportedKind("outflow is defined for open 3-clusters")
    return ledger.tally[0][cluster.cid]


def claims_report(ledger: ChargeLedger) -> dict:
    """Outflow bounds for open 3-clusters and spending caps for closed ones.

    Every open 3-cluster may send at most 52/29.  One that leaves some
    code vertex at distance two unpaid, or that has a closed 3-cluster
    or 4+-cluster within three, may send at most 51/29 (and the latter
    kind is never needy).  A closed 3-cluster pays at most nine rescue
    recipients when uncrowded, ten when crowded.
    """
    cls = ledger.classification
    flows, spent, paid = ledger.tally
    cap52 = Fraction(52, 29)
    cap51 = Fraction(51, 29)
    entries = []
    all_ok = True
    for cl in cls.clusters:
        if not cls.is_open3(cl.cid):
            continue
        out = flows[cl.cid]
        reach = cls.reach(cl)
        # an instance at distance two holds a code vertex at distance two
        # (none is nearer); cl's anchored instance paid the instance at
        # offset d exactly when cl at offset -d paid the anchored one
        quiet = any(
            d == 2 and (cl.cid, i.cid, -i.da, -i.db) not in paid for i, d in reach.items()
        )
        heavy = any(cls.is_big(i.cid) or cls.is_closed3(i.cid) for i in reach)
        entry = {
            "cluster": cl.cid,
            "outflow": _frac(out),
            "cap52": out <= cap52,
            "quietAtTwo": quiet,
            "cap51quiet": (not quiet) or out <= cap51,
            "heavyNearby": heavy,
            "cap51heavy": (not heavy) or (out <= cap51 and not cls.needy[cl.cid]),
        }
        all_ok = all_ok and entry["cap52"] and entry["cap51quiet"] and entry["cap51heavy"]
        entries.append(entry)
    spending = []
    for cl in cls.clusters:
        if not cls.is_closed3(cl.cid):
            continue
        count = spent[cl.cid]
        cap = 10 if cls.crowded[cl.cid] else 9
        spending.append({"cluster": cl.cid, "recipients": count, "cap": cap, "ok": count <= cap})
        all_ok = all_ok and count <= cap
    return {"open3": entries, "closed3": spending, "ok": all_ok}
