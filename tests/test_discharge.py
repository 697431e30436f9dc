"""Discharging engine tests.

Exact-rational checks of both engines plus direct coverage of the
rescue-donor precedence on handcrafted cluster layouts.  Some layouts
are non-identifying on purpose: the rescue helpers only read the
classification, so validity is switched off to stage rare shapes.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from hexident.hexgrid import PeriodLattice, Vertex, all_lattices, ball, lattices_of_size, layers, neighbors
from hexident import code as code_module
from hexident.code import PeriodicCode, full_code, tile
from hexident.cluster import Classification, Instance, UnsupportedKind
from hexident.optimize import SearchSpec, enumerate_codes, minimum_code, random_code
from hexident.discharge import (
    ChargeLedger,
    InvalidCode,
    MAIN_DENOM,
    MAIN_TARGET,
    PROP1_TARGET,
    RULE_AMOUNT,
    Transfer,
    _rescue_1cluster,
    _rescue_needy,
    _rule1,
    audit,
    claims_report,
    outflow,
    run_main,
    run_prop1,
)

# the hexagonal faces through a vertex, written out as 6-cycles
from test_hexgrid import faces_through


def bare(p, q, members, shear=0):
    lat = PeriodLattice(p, q, shear)
    return PeriodicCode(lat, frozenset(Vertex(*m) for m in members))


def sub0(n=3):
    return bare(n, n, [(a, b, 0) for a in range(n) for b in range(n)])


def cid_of(cls, v):
    return cls.instance_of(Vertex(*v)).cid


def moved(charge):
    """The nonzero charges a rescue left, as sorted Fractions."""
    return sorted(Fraction(n, MAIN_DENOM) for n in charge if n)


def rescue1(cls, cid):
    charge = [0] * cls.code.lattice.domain_size
    transfers, notes = [], []
    _rescue_1cluster(cls, cls.clusters[cid], charge, transfers, notes)
    # one payment debits the donor and credits the recipient
    assert moved(charge) == ([-RULE_AMOUNT, RULE_AMOUNT] if transfers else [])
    return transfers, notes


def test_prop1_sub0_exact():
    led = run_prop1(sub0())
    assert led.conserved()
    for v, charge in led.final.items():
        assert charge == (Fraction(3, 5) if v.s == 0 else PROP1_TARGET)
    assert all(t.rule == 1 and t.amount == Fraction(2, 15) for t in led.transfers)
    assert audit(led, PROP1_TARGET).ok


def test_main_sub0_exact():
    led = run_main(sub0())
    assert led.conserved()
    assert not led.notes
    for v, charge in led.final.items():
        assert charge == (Fraction(17, 29) if v.s == 0 else MAIN_TARGET)
    assert all(t.rule == 1 and t.amount == Fraction(4, 29) for t in led.transfers)
    rep = audit(led, MAIN_TARGET)
    assert rep.ok and rep.outflows == {}
    assert claims_report(led) == {"open3": [], "closed3": [], "ok": True}


def test_full_code_no_transfers():
    code = full_code(PeriodLattice(2, 2, 0))
    for engine in (run_main, run_prop1):
        led = engine(code)
        assert led.transfers == [] and led.conserved()
        assert all(charge == 1 for charge in led.final.values())
        assert audit(led, MAIN_TARGET).ok


def test_engines_reject_invalid_codes():
    broken = bare(7, 7, [(0, 1, 1), (1, 1, 0), (1, 1, 1)])
    for engine in (run_main, run_prop1):
        try:
            engine(broken)
            raise AssertionError("invalid code accepted")
        except InvalidCode:
            pass
    assert issubclass(InvalidCode, ValueError)
    # verify hands out a new list on each call, so a caller that changes
    # one leaves the code's own violations as they were
    bad = broken.verify()
    bad.clear()
    assert broken.verify() and broken.verify() is not broken.verify()
    for engine in (run_main, run_prop1):
        with pytest.raises(InvalidCode, match="not an identifying code"):
            engine(broken)


def test_ledgers_reuse_the_violations_of_verify(monkeypatch):
    # a code tests the clauses once; both ledgers then read its violations
    codes = [random_code(PeriodLattice(7, 1, 3), seed=1), sub0()]
    for c in codes:
        assert c.verify() == []

    def compile_again(lattice):
        raise AssertionError(f"clauses of {lattice} compiled again")

    monkeypatch.setattr(code_module, "identifying_constraints", compile_again)
    for c in codes:
        assert audit(run_prop1(c), PROP1_TARGET).ok
        assert audit(run_main(c), MAIN_TARGET).ok


def test_outflow_requires_open3():
    led = run_main(sub0())
    try:
        outflow(led, led.classification.clusters[0])
        raise AssertionError("1-cluster accepted")
    except UnsupportedKind:
        pass


# layout: singleton u with a 4-cluster, a closed 3-cluster, and a
# stray singleton (which closes that 3-cluster) all within reach
U23 = (6, 6, 0)
BIG4 = [(7, 6, 1), (8, 6, 0), (8, 6, 1), (9, 6, 0)]
CLOSED3 = [(4, 6, 0), (4, 6, 1), (4, 7, 0)]
CLOSER = (5, 5, 1)


def test_rescue_prefers_big_over_closed3():
    code = bare(12, 12, [U23, CLOSER] + BIG4 + CLOSED3)
    cls = Classification(code)
    ucid = cid_of(cls, U23)
    assert cls.clusters[ucid].size == 1 and not cls.crowded[ucid]
    assert cls.is_closed3(cid_of(cls, CLOSED3[0]))
    transfers, notes = rescue1(cls, ucid)
    assert not notes
    (t,) = transfers
    assert t.rule == 2 and t.amount == RULE_AMOUNT
    assert cls.is_big(t.src.cid)


def test_rescue_falls_back_to_closed3():
    code = bare(12, 12, [U23, CLOSER] + CLOSED3)
    cls = Classification(code)
    transfers, notes = rescue1(cls, cid_of(cls, U23))
    assert not notes
    (t,) = transfers
    assert t.rule == 3 and t.amount == RULE_AMOUNT
    assert t.src.cid == cid_of(cls, CLOSED3[0])


# three singletons, each with open 3-clusters staged so one donor mode
# wins per singleton: face-sharing center, plain center, crowded center
U4A = (2, 2, 0)
FACE3 = [(3, 1, 0), (3, 1, 1), (3, 2, 0)]       # center (3,1,1) shares a face with U4A
PLAIN_BYSTANDER = [(0, 3, 0), (0, 3, 1), (0, 4, 0)]
U4B = (8, 2, 0)
PLAIN3 = [(10, 2, 0), (9, 2, 1), (9, 3, 0)]     # center (9,2,1) at distance 3, no shared face
U4C = (2, 8, 0)
CROWDED3 = [(0, 8, 0), (0, 8, 1), (0, 9, 0)]
FACE_BYSTANDER = [(3, 7, 0), (3, 7, 1), (3, 8, 0)]
CROWDERS = [(11, 9, 0), (11, 10, 0)]            # both at distance two from (0,9,0)


def test_rule4_mode_precedence():
    code = bare(
        12,
        12,
        [U4A, U4B, U4C] + CROWDERS + FACE3 + PLAIN_BYSTANDER + PLAIN3 + CROWDED3 + FACE_BYSTANDER,
    )
    cls = Classification(code)
    assert cls.crowded[cid_of(cls, CROWDED3[0])]
    for path in (FACE3, PLAIN_BYSTANDER, PLAIN3, FACE_BYSTANDER):
        assert cls.is_open3(cid_of(cls, path[0]))
        assert not cls.crowded[cid_of(cls, path[0])]

    (t,), notes = rescue1(cls, cid_of(cls, U4A))
    assert not notes
    # a face-sharing center outranks the plain center also in range
    assert (t.rule, t.mode, t.src.cid) == (4, "face", cid_of(cls, FACE3[0]))

    (t,), notes = rescue1(cls, cid_of(cls, U4B))
    assert (t.rule, t.mode, t.src.cid) == (4, None, cid_of(cls, PLAIN3[0]))

    (t,), notes = rescue1(cls, cid_of(cls, U4C))
    # a crowded center outranks the face-sharing one
    assert (t.rule, t.mode, t.src.cid) == (4, "crowded", cid_of(cls, CROWDED3[0]))
    assert t.amount == RULE_AMOUNT


# a threatened open 3-cluster ringed by four threatened singletons, plus
# a second open 3-cluster whose near leaf reaches both leaves of the
# first without the pairing condition holding back
NEEDY3 = [(4, 3, 0), (3, 3, 1), (3, 4, 0)]
RING = [(3, 5, 0), (2, 3, 0), (4, 2, 0), (3, 2, 0)]
DONOR3 = [(5, 4, 0), (4, 4, 1), (4, 5, 0)]


def test_needy_rescue_with_unpaired_donor():
    code = bare(12, 12, NEEDY3 + RING + DONOR3)
    cls = Classification(code)
    ncid = cid_of(cls, NEEDY3[1])
    dcid = cid_of(cls, DONOR3[1])
    assert cls.threatened[ncid] and cls.threatened[dcid]
    for t in RING:
        tcid = cid_of(cls, t)
        assert cls.clusters[tcid].size == 1 and cls.threatened[tcid]
    assert cls.needy_support(cls.clusters[ncid]) == 4
    assert cls.needy[ncid]
    charge = [0] * code.lattice.domain_size
    transfers, notes = [], []
    _rescue_needy(cls, cls.clusters[ncid], charge, transfers, notes)
    assert not notes
    (t,) = transfers
    assert (t.rule, t.src.cid, t.dst, t.amount) == (5, dcid, ncid, RULE_AMOUNT)
    assert moved(charge) == [-RULE_AMOUNT, RULE_AMOUNT]


def test_needy_without_donor_leaves_note():
    code = bare(12, 12, NEEDY3 + RING)
    cls = Classification(code)
    ncid = cid_of(cls, NEEDY3[1])
    assert cls.needy[ncid]
    charge = [0] * code.lattice.domain_size
    transfers, notes = [], []
    _rescue_needy(cls, cls.clusters[ncid], charge, transfers, notes)
    assert transfers == [] and moved(charge) == []
    assert notes and "no qualifying donor" in notes[0]


def test_dense_surround_caps_outflow():
    # open 3-cluster whose whole neighborhood except the opening is code
    lat = PeriodLattice(6, 6, 0)
    path = [Vertex(2, 2, 0), Vertex(2, 2, 1), Vertex(3, 2, 0)]
    removed = {
        (1, 2, 1), (1, 3, 1), (2, 1, 1), (2, 3, 0), (2, 3, 1), (3, 1, 1), (3, 2, 1),
    }
    code = PeriodicCode(
        lat, frozenset(v for v in lat.domain() if (v.a, v.b, v.s) not in removed)
    )
    assert not code.verify()
    led = run_main(code)
    cls = led.classification
    cid = cid_of(cls, (2, 2, 0))
    assert cls.is_open3(cid) and set(cls.clusters[cid].vertices) == set(path)
    flow = outflow(led, cls.clusters[cid])
    assert flow == Fraction(28, 29)
    assert flow < Fraction(48, 29)
    assert led.conserved() and audit(led, MAIN_TARGET).ok and claims_report(led)["ok"]


# verified codes found by seeded search, frozen because random small
# codes rarely need the later rescue rules
RULE2_CODE = (6, 3, 3, [
    (0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1),
    (2, 1, 0), (2, 1, 1), (3, 0, 1), (3, 2, 0), (4, 0, 0), (4, 0, 1), (4, 1, 0),
    (4, 2, 0), (5, 0, 0), (5, 0, 1), (5, 1, 1), (5, 2, 1),
])
RULE3_CODE = (6, 4, 0, [
    (0, 1, 0), (0, 1, 1), (0, 3, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 0),
    (1, 2, 1), (2, 1, 0), (2, 2, 1), (2, 3, 0), (2, 3, 1), (3, 1, 0), (3, 1, 1),
    (3, 2, 1), (3, 3, 1), (4, 0, 0), (4, 1, 0), (4, 2, 1), (4, 3, 0), (5, 0, 1),
    (5, 1, 1), (5, 2, 1), (5, 3, 1),
])


def frozen(fix):
    p, q, shear, members = fix
    return bare(p, q, members, shear)


def test_frozen_code_pays_by_rule2():
    led = run_main(frozen(RULE2_CODE))
    rules = {t.rule for t in led.transfers}
    assert 2 in rules and not led.notes
    cls = led.classification
    for t in led.transfers:
        if t.rule == 2:
            assert cls.is_big(t.src.cid)
            assert led.cluster_total(t.dst) == MAIN_TARGET
    assert audit(led, MAIN_TARGET).ok and claims_report(led)["ok"]


def test_frozen_code_pays_by_rule3():
    led = run_main(frozen(RULE3_CODE))
    hits = [t for t in led.transfers if t.rule == 3]
    assert hits and not led.notes
    cls = led.classification
    for t in hits:
        assert cls.is_closed3(t.src.cid)
        assert not cls.open_[t.src.cid]
    assert audit(led, MAIN_TARGET).ok and claims_report(led)["ok"]


def test_transfer_amounts_are_rule_literals():
    led = run_main(frozen(RULE3_CODE))
    for t in led.transfers:
        if t.rule == 1:
            assert t.amount in (Fraction(12, 29), Fraction(6, 29), Fraction(4, 29))
        else:
            assert t.amount == RULE_AMOUNT
    led = run_prop1(frozen(RULE3_CODE))
    for t in led.transfers:
        assert t.amount in (Fraction(2, 5), Fraction(1, 5), Fraction(2, 15))


def test_ledger_json_shape_and_determinism():
    led = run_main(frozen(RULE2_CODE))
    blob = led.to_json()
    assert blob["engine"] == "main" and blob["conserved"] is True
    assert blob["lattice"] == {"p": 6, "q": 3, "shear": 3}
    rule1 = [t for t in blob["transfers"] if t["rule"] == 1]
    assert rule1 and all("fromVertex" in t and "toVertex" in t for t in rule1)
    cluster_rules = [t for t in blob["transfers"] if t["rule"] != 1]
    assert cluster_rules
    for t in cluster_rules:
        assert set(t) >= {"fromCluster", "fromOffset", "toCluster"}
        assert t["amount"] == "1/29"
    assert json.dumps(blob) == json.dumps(run_main(frozen(RULE2_CODE)).to_json())
    rep = audit(led, MAIN_TARGET).to_json()
    assert rep["bound"] == "12/29" and rep["failures"] == []


def test_small_lattice_sweep_exact():
    # every subset of one 12-vertex lattice, both engines, exact targets
    lat = PeriodLattice(3, 2, 1)
    n = 2 * lat.p * lat.q
    verified = 0
    census = Counter()
    for bits in range(1 << n):
        code = PeriodicCode.from_bits(lat, bits)
        if code.verify():
            continue
        verified += 1
        led = run_main(code)
        assert led.conserved() and not led.notes
        assert audit(led, MAIN_TARGET).ok
        assert claims_report(led)["ok"]
        credits = Counter()
        for t in led.transfers:
            census[t.rule] += 1
            if t.rule != 1:
                credits[t.dst] += 1
        for v in lat.domain():
            if not code.contains(v):
                assert led.final[v] == MAIN_TARGET
        cls = led.classification
        for cl in cls.clusters:
            if cl.size != 1:
                continue
            total = led.cluster_total(cl.cid)
            if cls.crowded[cl.cid]:
                assert total >= Fraction(13, 29) and credits[cl.cid] == 0
            else:
                assert total == MAIN_TARGET and credits[cl.cid] == 1
        led = run_prop1(code)
        assert led.conserved()
        assert min(led.final.values()) >= PROP1_TARGET
        for v in lat.domain():
            if not code.contains(v):
                assert led.final[v] == PROP1_TARGET
        assert audit(led, PROP1_TARGET).ok
    assert verified == 1545
    assert census[1] == 13752 and census[2] == 48


# -- the distance-three relation against its first implementation ---------
#
# Before Classification.reach and Classification.nearby, every predicate
# ran its own ball / set distance search.  Those searches are kept here as
# the reference that reach, nearby, needy_support, paired, pairs, the quiet
# claim, outflow and rule 4's face test must reproduce exactly.


def _ref_set_distance(src, dst, cap):
    """The least distance between two vertex sets, or cap + 1 past cap."""
    dst = set(dst)
    for d, layer in enumerate(layers(src, cap)):
        if not dst.isdisjoint(layer):
            return d
    return cap + 1


def _ref_within(cls, around, radius, exclude):
    found = set()
    for v in around:
        for w in ball(v, radius):
            if cls.code.contains(w):
                found.add(cls.instance_of(w))
    found.discard(exclude)
    return sorted(found)


def _ref_center(cl):
    """The degree-2 vertex of a 3-cluster's anchored instance."""
    return next(v for v in cl.vertices if sum(w in cl.vertices for w in neighbors(v)) == 2)


def _anchored_leaves(cl):
    return tuple(sorted(cl.vertices - {_ref_center(cl)}))


def _ref_leaves(cls, inst):
    return tuple(
        Vertex(v.a + inst.da, v.b + inst.db, v.s) for v in _anchored_leaves(cls.clusters[inst.cid])
    )


def _ref_inst_within(cls, src, inst, radius):
    if cls.clusters[inst.cid].infinite:
        targets = cls.clusters[inst.cid].classes
        return any(cls.code.lattice.canonical(w) in targets for v in src for w in ball(v, radius))
    return _ref_set_distance(src, cls.instance_vertices(inst), radius) <= radius


def _ref_nearby_from_1cluster(cls, v, inst):
    if cls.is_big(inst.cid) or cls.is_closed3(inst.cid):
        return _ref_inst_within(cls, {v}, inst, 3)
    if cls.is_open3(inst.cid):
        return _ref_set_distance({v}, {cls.instance_center(inst)}, 3) <= 3
    return False


def _ref_nearby_from_open3(cls, c1, inst):
    if cls.is_big(inst.cid) or cls.is_closed3(inst.cid):
        return _ref_inst_within(cls, c1.vertices, inst, 3)
    if cls.is_open3(inst.cid):
        tv = cls.instance_vertices(inst)
        return all(_ref_set_distance({leaf}, tv, 3) <= 3 for leaf in _anchored_leaves(c1))
    return False


def _ref_needy_support(cls, cl):
    count = 0
    for inst in _ref_within(cls, cl.vertices, 3, cl.anchored):
        tgt = cls.clusters[inst.cid]
        if tgt.size not in (1, 3) or not cls.threatened[inst.cid]:
            continue
        if tgt.size == 1:
            (v,) = cls.instance_vertices(inst)
            count += _ref_nearby_from_1cluster(cls, v, cl.anchored)
        else:
            leaves = _ref_leaves(cls, inst)
            count += all(_ref_set_distance({lf}, cl.vertices, 3) <= 3 for lf in leaves)
    return count


def _ref_paired(cls, c1, inst):
    if not (cls.is_open3(c1.cid) and cls.is_open3(inst.cid)):
        return False
    if cls.crowded[c1.cid] or cls.crowded[inst.cid] or inst == c1.anchored:
        return False
    tv = cls.instance_vertices(inst)
    if not all(_ref_set_distance({lf}, tv, 3) <= 3 for lf in _anchored_leaves(c1)):
        return False
    return all(_ref_set_distance({lf}, c1.vertices, 3) <= 3 for lf in _ref_leaves(cls, inst))


def _ref_pairs(cls):
    seen = set()
    out = []
    for cl in cls.clusters:
        if not cls.is_open3(cl.cid) or cls.crowded[cl.cid]:
            continue
        for inst in _ref_within(cls, cl.vertices, 3, cl.anchored):
            if not _ref_paired(cls, cl, inst):
                continue
            if cl.cid < inst.cid:
                key = (cl.cid, inst.cid, inst.da, inst.db)
            elif cl.cid > inst.cid:
                key = (inst.cid, cl.cid, -inst.da, -inst.db)
            else:
                key = (cl.cid, cl.cid) + min((inst.da, inst.db), (-inst.da, -inst.db))
            if key not in seen:
                seen.add(key)
                out.append((cl.anchored, inst))
    return sorted(out)


def _ref_outflow(ledger, cluster):
    total = Fraction(0)
    for t in ledger.transfers:
        if t.rule == 1:
            if t.src in cluster.classes:
                total += t.amount
        elif t.src.cid == cluster.cid:
            total += t.amount
    return total


def _ref_received_from_anchored(ledger, donor, inst):
    for t in ledger.transfers:
        if t.rule == 1 or t.dst != inst.cid:
            continue
        if t.src.cid == donor.cid and (t.src.da + inst.da, t.src.db + inst.db) == (0, 0):
            return True
    return False


def _ref_quiet(ledger, cluster):
    cls = ledger.classification
    seen = set()
    for v in cluster.vertices:
        for w in ball(v, 2):
            if w in seen or w in cluster.vertices or not ledger.code.contains(w):
                continue
            seen.add(w)
            if _ref_set_distance({w}, cluster.vertices, 2) != 2:
                continue
            if not _ref_received_from_anchored(ledger, cluster, cls.instance_of(w)):
                return True
    return False


def _unchecked_main(code):
    """run_main without the validity check, so arbitrary sets get a ledger:
    rule 1 runs when every non-code vertex has a code neighbor."""
    cls = Classification(code)
    lat = code.lattice
    if all(any(code.contains(u) for u in neighbors(w)) for w in lat.domain() if w not in code.members):
        charge, transfers = _rule1(code, MAIN_TARGET, MAIN_DENOM)
    else:
        charge, transfers = [MAIN_DENOM if v in code.members else 0 for v in lat.domain()], []
    notes = []
    for cl in cls.clusters:
        if cl.size == 1 and not cls.crowded[cl.cid]:
            _rescue_1cluster(cls, cl, charge, transfers, notes)
    for cl in cls.clusters:
        if cl.size == 3 and cls.needy.get(cl.cid):
            _rescue_needy(cls, cl, charge, transfers, notes)
    return ChargeLedger(code, cls, "main", charge, MAIN_DENOM, transfers, notes)


def _planted(rng):
    """Random non-touching 1-clusters and 3-paths on an 8-12 x 8-12 lattice."""
    p = rng.randint(8, 12)
    lat = PeriodLattice(p, rng.randint(8, 12), rng.randrange(p))
    share1 = rng.uniform(0.3, 0.6)
    members = set()
    for _ in range(rng.randint(8, 30)):
        v = Vertex(rng.randrange(lat.p), rng.randrange(lat.q), rng.randrange(2))
        shape = [v] if rng.random() < share1 else [v, *rng.sample(neighbors(v), 2)]
        classes = {lat.canonical(w) for w in shape}
        rim = {lat.canonical(x) for w in shape for x in neighbors(w)}
        if len(classes) == len(shape) and not (classes | rim) & members:
            members |= classes
    return PeriodicCode(lat, frozenset(members))


def _relation_corpus(kind):
    if kind == "fixtures":
        return [
            bare(12, 12, [U23, CLOSER] + BIG4 + CLOSED3),
            bare(12, 12, [U23, CLOSER] + CLOSED3),
            bare(12, 12, [U4A, U4B, U4C] + CROWDERS + FACE3 + PLAIN_BYSTANDER + PLAIN3
                 + CROWDED3 + FACE_BYSTANDER),
            bare(12, 12, NEEDY3 + RING + DONOR3),
            bare(12, 12, NEEDY3 + RING),
            bare(8, 8, [(2, 7, 1), (3, 7, 0), (3, 6, 1), (2, 6, 0), (2, 5, 1), (3, 5, 0)]),
            frozen(RULE2_CODE),
            frozen(RULE3_CODE),
            sub0(),
        ]
    if kind == "planted":
        rng = random.Random(20261020)
        return [_planted(rng) for _ in range(200)]
    rng = random.Random(20261021)
    lattices = list(all_lattices(48))
    codes = []
    for _ in range(300):
        lat = rng.choice(lattices)
        density = rng.uniform(0.2, 0.6)
        codes.append(PeriodicCode(lat, frozenset(v for v in lat.domain() if rng.random() < density)))
    return codes


class _WalkCounter(list):
    """A transfer list that counts the passes over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_ledger_tallies_its_transfers_once():
    # audit, claims_report and outflow read one tally of the ledger
    opened = 0
    for code in _relation_corpus("fixtures"):
        led = _unchecked_main(code)
        led.transfers = _WalkCounter(led.transfers)
        rep = audit(led, MAIN_TARGET)
        claims = claims_report(led)
        cls = led.classification
        for cl in cls.clusters:
            if cls.is_open3(cl.cid):
                opened += 1
                assert outflow(led, cl) == rep.outflows[cl.cid]
        rep.outflows.clear()  # a report's outflows are its own
        flows = {entry["cluster"]: Fraction(entry["outflow"]) for entry in claims["open3"]}
        assert audit(led, Fraction(1, 2)).outflows == flows
        assert claims_report(led) == claims
        assert led.transfers.walks == 1
    assert opened


@pytest.mark.parametrize("kind", ["fixtures", "planted", "arbitrary"])
def test_relation_matches_reference_searches(kind):
    seen = Counter()
    for code in _relation_corpus(kind):
        led = _unchecked_main(code)
        cls = led.classification
        claims = claims_report(led)
        quiet = {entry["cluster"]: entry["quietAtTwo"] for entry in claims["open3"]}
        assert audit(led, MAIN_TARGET).outflows == {
            cl.cid: _ref_outflow(led, cl) for cl in cls.clusters if cls.is_open3(cl.cid)
        }
        for cl in cls.clusters:
            if cl.size not in (1, 3):
                continue
            reach = cls.reach(cl)
            for radius in (2, 3):
                want = _ref_within(cls, cl.vertices, radius, cl.anchored)
                assert sorted(i for i, d in reach.items() if d <= radius) == want
            within3 = _ref_within(cls, cl.vertices, 3, cl.anchored)
            for inst in within3:
                assert cls.paired(cl, inst) == _ref_paired(cls, cl, inst)
                seen["paired"] += cls.paired(cl, inst)
            if cl.size == 1:
                (v,) = cl.vertices
                want = {i for i in within3 if _ref_nearby_from_1cluster(cls, v, i)}
                faces = faces_through(v)
                for inst in within3:
                    if cls.clusters[inst.cid].size == 3:
                        face = any(cls.instance_center(inst) in f for f in faces)
                        assert cls.shares_face(cl, inst) == face
                        seen["face" if face else "no face"] += 1
            elif cls.is_open3(cl.cid):
                want = {i for i in within3 if _ref_nearby_from_open3(cls, cl, i)}
                support = cls.needy_support(cl)
                assert support == _ref_needy_support(cls, cl)
                assert outflow(led, cl) == _ref_outflow(led, cl)
                assert quiet[cl.cid] == _ref_quiet(led, cl)
                seen["support"] += support > 0
                seen["quiet"] += quiet[cl.cid]
                seen["loud"] += not quiet[cl.cid]
            else:
                continue
            assert cls.nearby(cl) == frozenset(want)
            seen["nearby"] += len(want)
        assert cls.pairs() == _ref_pairs(cls)
        seen["rule1"] += any(t.rule == 1 for t in led.transfers)
        seen.update(f"rule{t.rule}{t.mode or ''}" for t in led.transfers if t.rule != 1)
    # each corpus reaches the cases it is here for
    floors = {
        "fixtures": ("rule2", "rule3", "rule4face", "rule4crowded", "rule4", "rule5", "paired"),
        "planted": ("rule3", "rule4face", "rule4crowded", "rule4", "paired", "support"),
        "arbitrary": ("rule1", "rule2", "rule3", "rule4crowded", "support"),
    }[kind]
    for key in floors + ("nearby", "quiet", "loud", "face", "no face"):
        assert seen[key] > 0, (key, dict(seen))


# -- the shape labels and instance lookup against their Vertex versions ----
#
# crowded, open_, instance_of and instance_center once walked Vertex objects
# and looked each one up through canonical(); those versions are kept here
# as references.


def _ref_crowded1(code, v):
    return any(all(code.contains(x) for x in neighbors(u)) for u in neighbors(v))


def _ref_open3(code, cl):
    center = _ref_center(cl)
    (w,) = [x for x in neighbors(center) if x not in cl.vertices]
    return not any(code.contains(y) for y in neighbors(w) if y != center)


def _ref_crowded3(code, cl):
    for v in cl.vertices:
        near = sum(1 for w in layers((v,), 2)[2] if w not in cl.vertices and code.contains(w))
        if near >= 2:
            return True
    return False


def _ref_instance_of(cls, w):
    lat = cls.code.lattice
    c = lat.canonical(w)
    cl = next(cl for cl in cls.clusters if c in cl.classes)
    if cl.infinite:
        return Instance(cl.cid, 0, 0)
    (u,) = [u for u in cl.vertices if lat.canonical(u) == c]
    return Instance(cl.cid, w.a - u.a, w.b - u.b)


@pytest.mark.parametrize("kind", ["fixtures", "planted", "arbitrary"])
def test_labels_match_vertex_references(kind):
    rng = random.Random(20261022)
    seen = Counter()
    for code in _relation_corpus(kind):
        cls = Classification(code)
        lat = code.lattice
        for cl in cls.clusters:
            if cl.size == 1:
                (v,) = cl.vertices
                assert cls.crowded[cl.cid] == _ref_crowded1(code, v)
                seen["crowded1", cls.crowded[cl.cid]] += 1
            elif cl.size == 3:
                assert cls.open_[cl.cid] == _ref_open3(code, cl)
                assert cls.crowded[cl.cid] == _ref_crowded3(code, cl)
                c = _ref_center(cl)
                da, db = rng.randrange(-3, 4), rng.randrange(-3, 4)
                assert cls.instance_center(Instance(cl.cid, da, db)) == Vertex(c.a + da, c.b + db, c.s)
                seen["open3", cls.open_[cl.cid]] += 1
                seen["crowded3", cls.crowded[cl.cid]] += 1
                # a translate of the cluster within distance two
                seen["self-near"] += any(
                    w not in cl.vertices and lat.canonical(w) in cl.classes
                    for v in cl.vertices
                    for w in layers((v,), 2)[2]
                )
            seen["infinite"] += cl.infinite
        for v in lat.domain():
            # v shifted by k1*(p, 0) + k2*(shear, q) in cell space
            k1, k2 = rng.randrange(-3, 4), rng.randrange(-3, 4)
            w = Vertex(v.a + k1 * lat.p + k2 * lat.shear, v.b + k2 * lat.q, v.s)
            if v in code.members:
                assert cls.instance_of(w) == _ref_instance_of(cls, w)
            else:
                with pytest.raises(ValueError, match="not a code vertex"):
                    cls.instance_of(w)
    floors = {
        "fixtures": ("crowded1", "open3", "crowded3"),
        "planted": ("crowded1", "open3", "crowded3"),
        "arbitrary": ("crowded1", "open3", "crowded3", "self-near", "infinite"),
    }[kind]
    for key in floors:
        both = seen[key] if key in ("self-near", "infinite") else seen[key, True] and seen[key, False]
        assert both, (key, dict(seen))


def _ref_rule1(code, target, final, transfers):
    """Rule 1 as the engines once ran it: Fractions in a {Vertex: Fraction}
    dict, donors found by canonical() lookups."""
    lat = code.lattice
    for w in lat.domain():
        if w in code.members:
            continue
        donors = [u for u in neighbors(w) if code.contains(u)]
        amount = target / len(donors)
        for u in donors:
            cu = lat.canonical(u)
            final[w] += amount
            final[cu] -= amount
            transfers.append(Transfer(1, cu, w, amount))


def _ref_ledger(code, engine):
    """The ledger an engine builds, with every charge summed in Fractions:
    rule 1 from _ref_rule1, and each rescue payment the engine made
    debited from the donor's least class and credited to the
    recipient's, as the Fraction-dict engine did.  Returns the engine's
    ledger, the Fraction charges and a ledger holding them as numerators
    over the engine's denominator."""
    led = engine(code)
    target = {"main": MAIN_TARGET, "prop1": PROP1_TARGET}[led.engine]
    final = {v: Fraction(1 if v in code.members else 0) for v in code.lattice.domain()}
    transfers = []
    _ref_rule1(code, target, final, transfers)
    clusters = led.classification.clusters
    for t in led.transfers[len(transfers):]:
        assert t.rule != 1
        final[min(clusters[t.src.cid].classes)] -= t.amount
        final[min(clusters[t.dst].classes)] += t.amount
        transfers.append(t)
    units = [f * led.denom for f in final.values()]
    assert all(n.denominator == 1 for n in units)
    charge = [int(n) for n in units]
    ref = ChargeLedger(code, led.classification, led.engine, charge, led.denom, transfers, led.notes)
    return led, final, ref


def test_integer_charges_match_fraction_reference():
    rng = random.Random(20261018)
    codes = [code for lat in all_lattices(10) for code in enumerate_codes(lat)]
    lattices = list(all_lattices(28))
    codes += [random_code(rng.choice(lattices), seed=rng.randrange(2**32)) for _ in range(150)]
    codes += [frozen(RULE2_CODE), frozen(RULE3_CODE), sub0(), full_code(PeriodLattice(2, 2))]
    witness = minimum_code(SearchSpec(PeriodLattice(7, 1, 1))).witness
    codes.append(tile(witness, 2, 3))
    seen = Counter()
    for code in codes:
        for engine in (run_prop1, run_main):
            led, final, ref = _ref_ledger(code, engine)
            assert json.dumps(led.to_json()) == json.dumps(ref.to_json())
            assert led.final == final
            assert led.conserved() == (sum(final.values()) == code.size())
            totals = {cl.cid: sum(final[c] for c in cl.classes) for cl in led.classification.clusters}
            assert {cid: led.cluster_total(cid) for cid in totals} == totals
            target = {"main": MAIN_TARGET, "prop1": PROP1_TARGET}[led.engine]
            for bound in (target, Fraction(1, 2)):
                want = [(v, f) for v, f in final.items() if v not in code.members and f < bound]
                want += [
                    (cl.cid, totals[cl.cid])
                    for cl in led.classification.clusters
                    if totals[cl.cid] < bound * len(cl.classes)
                ]
                assert audit(led, bound).failures == sorted(want, key=lambda sf: (isinstance(sf[0], int), sf[0]))
                seen["failing", bound] += bool(want)
            seen.update((led.engine, t.rule, t.amount) for t in led.transfers)
    # every rule-1 amount of both engines, and rescue payments, occur
    for k in (1, 2, 3):
        assert seen["prop1", 1, PROP1_TARGET / k] and seen["main", 1, MAIN_TARGET / k]
    assert seen["main", 2, RULE_AMOUNT] and seen["main", 3, RULE_AMOUNT]
    # the audits at 1/2 report failures
    assert seen["failing", Fraction(1, 2)]


def test_tally_looks_up_no_orbit_index(monkeypatch):
    # rule-1 donors are domain vertices, so the tally keys the open
    # clusters' classes by vertex and never canonicalises a donor
    rng = random.Random(20261019)
    lattices = list(all_lattices(28))
    codes = [random_code(rng.choice(lattices), seed=rng.randrange(2**32)) for _ in range(40)]
    codes += [frozen(RULE2_CODE), frozen(RULE3_CODE), sub0(), tile(sub0(), 2, 2)]
    ledgers = []
    for code in codes:
        for engine in (run_prop1, run_main):
            led, _, ref = _ref_ledger(code, engine)
            led.__dict__.pop("tally", None)
            ledgers.append((led, ref.tally))

    def no_index(lattice, v):
        raise AssertionError("tally canonicalised a vertex")

    monkeypatch.setattr(PeriodLattice, "index", no_index)
    flowing = 0
    for led, want in ledgers:
        assert led.tally == want
        cls = led.classification
        assert want[0] == {cl.cid: _ref_outflow(led, cl) for cl in cls.clusters if cls.is_open3(cl.cid)}
        flowing += any(want[0].values())
    assert flowing


def _translate(code, da, db):
    return PeriodicCode(code.lattice, frozenset(Vertex(v.a + da, v.b + db, v.s) for v in code.members))


def _presentation_free(code):
    """What the main ledger of a code should say whichever translate
    presents it: the multiset of (infinite, classes, cluster total), the
    open 3-clusters' outflows, and the audit and claims verdicts."""
    ledger = run_main(code)
    totals = Counter(
        (cl.infinite, len(cl.classes), ledger.cluster_total(cl.cid)) for cl in ledger.classification.clusters
    )
    return totals, sorted(ledger.tally[0].values()), audit(ledger, MAIN_TARGET).ok, claims_report(ledger)["ok"]


def test_ledgers_are_translation_invariant_on_small_domains():
    # every nontrivial cell translate of every identifying code with
    # 2pq <= 10: 2777 codes, 10026 translates
    codes = translates = 0
    for lat in all_lattices(10):
        for code in enumerate_codes(lat):
            want = _presentation_free(code)
            for da in range(lat.p):
                for db in range(lat.q):
                    if da or db:
                        assert _presentation_free(_translate(code, da, db)) == want, (code, da, db)
                        translates += 1
            codes += 1
    assert (codes, translates) == (2777, 10026)


def test_lower_bound_outputs_are_pinned():
    # the text, both ledgers, both audits, the claims and the cluster report
    # of every identifying code with 2pq <= 10, and of two random codes on
    # each lattice with 2pq in 14..28, as JSON: a change to any of them is
    # on purpose, and updates this digest and says why
    codes = [code for lat in all_lattices(10) for code in enumerate_codes(lat)]
    lattices = [lat for size in range(14, 29, 2) for lat in lattices_of_size(size)]
    codes += [random_code(lat, seed=seed) for lat in lattices for seed in (0, 1)]
    assert (len(codes), len(lattices)) == (2777 + 264, 132)
    digest = hashlib.sha256()
    for code in codes:
        prop1, main = run_prop1(code), run_main(code)
        record = [code.to_text(), prop1.to_json(), main.to_json(), audit(prop1, PROP1_TARGET).to_json(),
                  audit(main, MAIN_TARGET).to_json(), claims_report(main), Classification(code).report()]
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == "3a88f120146929dd0e846e6600dc5d1d030ff3cf03e1bc6051013d8e1a214ce9"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: _donor_key breaks a tie between rule-2 donors by least "
                          "coordinates, so a translate moves one rescue between clusters")
def test_translate_keeps_the_rule2_donor():
    # the tied rescue moves from the infinite cluster to the 4-cluster,
    # whose total goes 68/29 -> 67/29; both audits still pass
    code = random_code(PeriodLattice(5, 2, 4), seed=2)
    assert _presentation_free(_translate(code, 0, 1)) == _presentation_free(code)
