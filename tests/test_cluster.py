"""Cluster extraction and labeling tests.

Fixtures are small codes whose cluster structure was worked out by hand
on the infinite grid; several are deliberately non-identifying since
classification does not require validity.
"""

import json
import random
from collections import deque

import pytest

from hexident.hexgrid import PeriodLattice, Vertex, all_lattices, neighbors
from hexident.code import PeriodicCode
from hexident.cluster import Classification, Instance, UnsupportedKind
from hexident.optimize import enumerate_codes, random_code


def bare(p, q, members, shear=0):
    lat = PeriodLattice(p, q, shear)
    return PeriodicCode(lat, frozenset(Vertex(*m) for m in members))


# open 3-path (0,1,1)-(1,1,0)-(1,1,1), center (1,1,0), inside the 7x7 domain
PATH3 = [(0, 1, 1), (1, 1, 0), (1, 1, 1)]


def test_sub0_all_crowded_1clusters():
    code = bare(3, 3, [(a, b, 0) for a in range(3) for b in range(3)])
    cls = Classification(code)
    assert len(cls.clusters) == 9
    for cl in cls.clusters:
        assert cl.size == 1
        assert cls.crowded[cl.cid]
        assert not cls.threatened[cl.cid]


def test_full_code_single_infinite_cluster():
    code = bare(2, 2, [(a, b, s) for a in range(2) for b in range(2) for s in (0, 1)])
    cls = Classification(code)
    assert len(cls.clusters) == 1
    cl = cls.clusters[0]
    assert cl.infinite
    assert cl.size is None
    assert len(cl.classes) == 8
    assert cls.is_big(cl.cid)
    entry = cls.report()["clusters"][0]
    assert entry["size"] == "INFINITE"
    assert entry["crowded"] is None


def test_infinite_chain_via_wraparound():
    # (0,0,0)-(0,0,1)-(1,0,0)-... wraps through p=1 into a horizontal chain
    code = bare(1, 2, [(0, 0, 0), (0, 0, 1)])
    cls = Classification(code)
    assert len(cls.clusters) == 1
    assert cls.clusters[0].infinite
    assert cls.clusters[0].classes == frozenset({Vertex(0, 0, 0), Vertex(0, 0, 1)})


def test_open_3cluster_labels():
    code = bare(7, 7, PATH3)
    cls = Classification(code)
    assert len(cls.clusters) == 1
    cl = cls.clusters[0]
    assert cl.size == 3
    assert cls.instance_center(cl.anchored) == Vertex(1, 1, 0)
    assert cls.instance_center(Instance(cl.cid, 7, -7)) == Vertex(8, -6, 0)
    assert cls.open_[cl.cid]
    assert not cls.crowded[cl.cid]
    assert cls.threatened[cl.cid]
    assert not cls.needy[cl.cid]
    assert cls.needy_support(cl) == 0
    assert cls.report()["clusters"][0]["center"] == [1, 1, 0]


def test_closed_3cluster_and_nearby_1cluster():
    # (2,0,0) is a second code neighbor of the center's outside neighbor
    code = bare(7, 7, PATH3 + [(2, 0, 0)])
    cls = Classification(code)
    assert len(cls.clusters) == 2
    c3, c1 = cls.clusters
    assert c3.size == 3 and c1.size == 1
    assert not cls.open_[c3.cid]
    assert not cls.crowded[c3.cid]
    assert not cls.threatened[c3.cid]
    assert not cls.crowded[c1.cid]
    assert c3.anchored in cls.nearby(c1)
    try:
        cls.nearby(c3)
        raise AssertionError("nearby from a closed 3-cluster accepted")
    except UnsupportedKind:
        pass
    # its only nearby 3-cluster is closed, hence unthreatened
    assert not cls.threatened[c1.cid]
    entry = cls.report()["clusters"][c1.cid]
    assert entry["nearby"] == [{"cluster": c3.cid, "offset": [0, 0]}]


def test_crowded_open_3cluster():
    # leaf (1,1,1) sees both extras at distance exactly two; the center's
    # outside neighbor (1,0,1) keeps both its other neighbors uncoded
    code = bare(7, 7, PATH3 + [(2, 1, 1), (2, 0, 1)])
    cls = Classification(code)
    c3 = cls.clusters[0]
    assert c3.size == 3
    assert cls.open_[c3.cid]
    assert cls.crowded[c3.cid]
    assert not cls.threatened[c3.cid]
    # (2,1,0) has all three neighbors coded, crowding both extras
    for cl in cls.clusters[1:]:
        assert cl.size == 1
        assert cls.crowded[cl.cid]
        assert cls.report()["clusters"][cl.cid]["nearby"] is None


def test_crowded_1cluster_via_saturated_neighbor():
    code = bare(5, 5, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    cls = Classification(code)
    assert len(cls.clusters) == 3
    # (0,0,1) is adjacent to all three, so each is crowded
    for cl in cls.clusters:
        assert cl.size == 1
        assert cls.crowded[cl.cid]


def test_infinite_strip_dominates_nearby_1cluster():
    strip = [(0, b, s) for b in range(4) for s in (0, 1)]
    code = bare(4, 4, strip + [(2, 0, 0)])
    cls = Classification(code)
    assert len(cls.clusters) == 2
    inf = next(cl for cl in cls.clusters if cl.infinite)
    one = next(cl for cl in cls.clusters if not cl.infinite)
    assert one.vertices == frozenset({Vertex(2, 0, 0)})
    assert not cls.crowded[one.cid]
    assert inf.anchored in cls.nearby(one)
    # a 4+-cluster within three kills the threat label
    assert not cls.threatened[one.cid]
    assert cls.instance_of(Vertex(0, 9, 1)) == Instance(inf.cid, 0, 0)


def test_own_translates_are_instances():
    code = bare(2, 1, [(0, 0, 0)])
    cls = Classification(code)
    assert len(cls.clusters) == 1
    cl = cls.clusters[0]
    assert cls.reach(cl) == {Instance(0, 0, -1): 2, Instance(0, 0, 1): 2}
    assert cls.instance_vertices(Instance(0, 0, 1)) == frozenset({Vertex(0, 1, 0)})


def test_needy_support_requires_open3():
    code = bare(3, 3, [(0, 0, 0)])
    cls = Classification(code)
    try:
        cls.needy_support(cls.clusters[0])
        raise AssertionError("1-cluster accepted")
    except UnsupportedKind:
        pass


def test_paired_open_3clusters():
    # two open 3-paths whose four leaf-to-set distances all equal three
    c1 = [(2, 7, 1), (3, 7, 0), (3, 6, 1)]
    c2 = [(2, 6, 0), (2, 5, 1), (3, 5, 0)]
    code = bare(8, 8, c1 + c2)
    cls = Classification(code)
    assert len(cls.clusters) == 2
    lo, hi = cls.clusters
    for cl in (lo, hi):
        assert cl.size == 3
        assert cls.open_[cl.cid]
        assert not cls.crowded[cl.cid]
        assert cls.threatened[cl.cid]
        assert not cls.needy[cl.cid]
        assert cls.needy_support(cl) == 1
    assert cls.reach(lo) == {hi.anchored: 3}
    assert cls.reach(hi) == {lo.anchored: 3}
    assert cls.paired(lo, hi.anchored)
    assert cls.paired(hi, lo.anchored)
    assert cls.pairs() == [(Instance(lo.cid, 0, 0), Instance(hi.cid, 0, 0))]
    rep = cls.report()
    assert rep["pairs"] == [
        [{"cluster": lo.cid, "offset": [0, 0]}, {"cluster": hi.cid, "offset": [0, 0]}]
    ]


def test_report_deterministic():
    code = bare(8, 8, [(2, 7, 1), (3, 7, 0), (3, 6, 1), (2, 6, 0), (2, 5, 1), (3, 5, 0)])
    r1 = json.dumps(Classification(code).report(), sort_keys=True)
    r2 = json.dumps(Classification(code).report(), sort_keys=True)
    assert r1 == r2


def _reference_clusters(code):
    """Clusters as first built, in two passes per component: a search over
    orbit classes (the quotient graph), then a second search in infinite
    coordinates for the instance, which fails on reaching one class at two
    distinct vertices.  Entries are (vertices, classes, infinite)."""
    lat = code.lattice
    out = []
    assigned = set()
    for rep in lat.domain():
        if rep not in code.members or rep in assigned:
            continue
        classes = {rep}
        frontier = [rep]
        while frontier:
            u = frontier.pop()
            for w in neighbors(u):
                c = lat.canonical(w)
                if c in code.members and c not in classes:
                    classes.add(c)
                    frontier.append(c)
        by_class = {rep: rep}
        queue = deque([rep])
        infinite = False
        while queue and not infinite:
            u = queue.popleft()
            for w in neighbors(u):
                if not code.contains(w):
                    continue
                c = lat.canonical(w)
                prev = by_class.get(c)
                if prev is None:
                    by_class[c] = w
                    queue.append(w)
                elif prev != w:
                    infinite = True
                    break
        inst = classes if infinite else set(by_class.values())
        out.append((frozenset(inst), frozenset(classes), infinite))
        assigned |= classes
    return out


def test_components_match_two_pass_reference_on_random_codes():
    rng = random.Random(20261019)
    lattices = list(all_lattices(40))
    infinite = finite = 0
    for _ in range(400):
        lat = rng.choice(lattices)
        density = rng.uniform(0.3, 0.6)
        code = PeriodicCode(lat, frozenset(v for v in lat.domain() if rng.random() < density))
        got = [(cl.vertices, cl.classes, cl.infinite) for cl in Classification(code).clusters]
        assert got == _reference_clusters(code)
        infinite += sum(entry[2] for entry in got)
        finite += sum(not entry[2] for entry in got)
    assert infinite >= 100 and finite >= 1000


def _ref_component(code, rep):
    """The canonical() breadth-first search the table search replaced:
    the classes of rep's component, and its instance through rep, or None
    when one class is reached at two distinct vertices."""
    lat = code.lattice
    by_class = {rep: rep}
    infinite = False
    queue = deque([rep])
    while queue:
        u = queue.popleft()
        for w in neighbors(u):
            c = lat.canonical(w)
            if c not in code.members:
                continue
            prev = by_class.get(c)
            if prev is None:
                by_class[c] = w
                queue.append(w)
            elif prev != w:
                infinite = True
    return set(by_class), None if infinite else set(by_class.values())


def _component_corpus(kind):
    rng = random.Random(20261018)
    if kind == "acceptance":
        # the acceptance gate's codes: every identifying code with 2pq <= 12
        # and 1000 seeded random verified codes with 2pq <= 28
        codes = [code for lat in all_lattices(12) for code in enumerate_codes(lat)]
        lattices = list(all_lattices(28))
        return codes + [random_code(lattices[i % len(lattices)], seed=i) for i in range(1000)]
    lattices = list(all_lattices(40))
    codes = []
    for _ in range(300):
        lat = rng.choice(lattices)
        if kind == "random":
            density = rng.uniform(0.2, 0.7)
            members = {v for v in lat.domain() if rng.random() < density}
        else:
            # planted: a few random walks, which wrap around small periods
            members = set()
            for _ in range(rng.randint(1, 6)):
                v = Vertex(rng.randrange(lat.p), rng.randrange(lat.q), rng.randrange(2))
                for _ in range(rng.randint(0, 12)):
                    members.add(v)
                    v = rng.choice(neighbors(v))
        codes.append(PeriodicCode(lat, frozenset(members)))
    return codes


@pytest.mark.parametrize("kind", ["acceptance", "planted", "random"])
def test_table_component_matches_canonical_search(kind):
    infinite = finite = 0
    for code in _component_corpus(kind):
        lat = code.lattice
        cls = Classification(code)
        inside = code.orbits()
        for rep in code.members:
            at, inf = cls._component(lat.index(rep), inside)
            placed = {}
            for j, (da, db) in at.items():
                c = lat.vertex_at(j)
                placed[c] = Vertex(c.a + da, c.b + db, c.s)
            got = (set(placed), None if inf else set(placed.values()))
            assert got == _ref_component(code, rep), (code, rep)
            infinite += inf
            finite += not inf
    assert infinite and finite


def test_random_codes_partition_and_maximality():
    rng = random.Random(20260822)
    lattices = [PeriodLattice(2, 2), PeriodLattice(3, 2), PeriodLattice(3, 3, 1), PeriodLattice(4, 2, 2)]
    for lat in lattices:
        domain = list(lat.domain())
        for _ in range(8):
            members = frozenset(v for v in domain if rng.random() < 0.4)
            if not members:
                continue
            code = PeriodicCode(lat, members)
            cls = Classification(code)
            seen = set()
            for cl in cls.clusters:
                assert cl.classes.isdisjoint(seen)
                seen |= cl.classes
                if cl.infinite:
                    continue
                assert len(cl.vertices) == len(cl.classes)
                assert {lat.canonical(v) for v in cl.vertices} == cl.classes
                # component: connected and maximal in the code
                todo = [next(iter(cl.vertices))]
                reach = set(todo)
                while todo:
                    v = todo.pop()
                    for w in neighbors(v):
                        if code.contains(w):
                            assert lat.canonical(w) in cl.classes
                            if w in cl.vertices and w not in reach:
                                reach.add(w)
                                todo.append(w)
                assert reach == cl.vertices
                # every vertex of an instance reports the same offset
                k1, k2 = rng.randrange(-2, 3), rng.randrange(-2, 3)
                # each vertex shifted by k1*(p, 0) + k2*(shear, q) in cell space
                da, db = k1 * lat.p + k2 * lat.shear, k2 * lat.q
                offs = {cls.instance_of(Vertex(v.a + da, v.b + db, v.s))[1:] for v in cl.vertices}
                assert len(offs) == 1
            assert seen == set(code.members)
