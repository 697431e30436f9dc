"""Window enumeration and structural lemma checks.

Oracle counts for the small windows were frozen from independent runs:
the 15 assignments of a closed 1-ball and the 192 assignments of the
sealed-singleton window are stable under the deterministic search order.
The shell bounds were cross-checked against an exact cover search.
"""

import functools
import hashlib
import itertools
import json
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass

import pytest

from hexident.hexgrid import PeriodLattice, Vertex, layers, neighbors
from hexident import hexgrid
from hexident.cluster import Cluster, UnsupportedKind
from hexident import lemma_lab as ll
from hexident.code import identifying_constraints
from hexident.optimize import random_code
from hexident.lemma_lab import (
    COUNTEREXAMPLE,
    IN,
    INCONCLUSIVE,
    OUT,
    UNKNOWN,
    VERIFIED,
    RegionTooLarge,
    Template,
    TEMPLATES,
    check_lemma,
    load_template,
    parse_template,
    save_template,
    shell_partition_bound,
    template_text,
)


def ball(center, radius):
    return sorted(hexgrid.ball(center, radius))


def shell(shape):
    """Vertices at distance two or three from the shape."""
    return frozenset().union(*layers(shape, 3)[2:])


V0 = Vertex(0, 0, 1)


def pinned_clusters(tpl):
    """The connected sets of a template's pinned-IN vertices, as the
    engine splits them: sorted vertex tuples, ordered by least member."""
    eng = ll._Engine(tpl.region(), tpl.constraints())
    return [tuple(eng.verts[i] for i in c.members) for c in eng.split(eng.pinned_in)]


# ---------------------------------------------------------------------------
# enumeration


def test_single_vertex_two_assignments():
    cfgs = list(ll.enumerate([Vertex(0, 0, 0)]))
    assert len(cfgs) == 2
    statuses = sorted(c.status[0] for c in cfgs)
    assert statuses == [IN, OUT]


def test_closed_ball_assignment_count():
    # all 16 sign patterns on a closed neighborhood are feasible except the
    # all-OUT one, whose center would have an empty identifier
    cfgs = list(ll.enumerate(ball(V0, 1)))
    assert len(cfgs) == 15
    for cfg in cfgs:
        m = cfg.as_mapping()
        assert any(st == IN for st in m.values())


def test_enumeration_is_deterministic():
    region = ball(V0, 1)
    first = [c.status for c in ll.enumerate(region)]
    second = [c.status for c in ll.enumerate(region)]
    assert first == second


def test_full_code_restriction_is_feasible():
    # the everything-IN assignment restricts a valid periodic code, so the
    # over-approximating window rules must keep it
    region = ball(V0, 1)
    stream = [c.as_mapping() for c in ll.enumerate(region)]
    assert {v: IN for v in region} in stream


def test_pins_are_respected():
    region = ball(V0, 1)
    pins = {V0: IN, Vertex(0, 0, 0): OUT}
    for cfg in ll.enumerate(region, pins):
        m = cfg.as_mapping()
        assert m[V0] == IN
        assert m[Vertex(0, 0, 0)] == OUT


def test_every_window_vertex_decided():
    region = ball(V0, 2)
    pins = {Vertex(0, 0, 0): OUT, Vertex(5, 5, 0): IN}
    for constraints in (None, pins):
        configs = list(ll.enumerate(region, constraints))
        assert configs
        for cfg in configs:
            assert set(cfg.status) <= {IN, OUT}


def test_region_cap():
    big = ball(V0, 6)
    assert len(big) > ll.ENUMERATION_CAP
    with pytest.raises(RegionTooLarge):
        list(ll.enumerate(big))


def test_enumerate_streams(monkeypatch):
    # the free radius-3 ball has 217771 assignments; the first one, all IN,
    # is yielded at the walk's first leaf: the root, then one node per
    # window vertex
    engines = []

    class Recording(ll._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(ll, "_Engine", Recording)
    region = ball(V0, 3)
    first = next(ll.enumerate(region))
    assert first.status == (IN,) * len(region)
    assert [e.nodes for e in engines] == [len(region) + 1]


@dataclass(frozen=True)
class _FrozenConfig:
    """A window assignment as a frozen dataclass of its region and status
    tuple: the reference for WindowConfig's equality, hash, repr and JSON."""

    region: tuple
    status: tuple

    def as_mapping(self):
        return dict(zip(self.region, self.status))

    def to_json(self):
        return {"window": [[v.a, v.b, v.s, st] for v, st in zip(self.region, self.status)]}


def test_window_config_matches_the_frozen_dataclass():
    tpl = TEMPLATES["fig3a"]
    snapshots = list(ll.enumerate(tpl.region(), tpl.constraints()))
    for snap in snapshots:
        built = ll.WindowConfig(snap.region, snap.status)
        ref = _FrozenConfig(snap.region, snap.status)
        assert built == snap and hash(built) == hash(snap) == hash(ref)
        assert repr(snap) == repr(built) == repr(ref).replace("_FrozenConfig", "WindowConfig")
        assert snap.to_json() == built.to_json() == ref.to_json()
        assert snap.as_mapping() == built.as_mapping() == ref.as_mapping()
    assert len(set(snapshots)) == len(snapshots) == 192
    snap = snapshots[0]
    assert snap != _FrozenConfig(snap.region, snap.status)
    assert pickle.loads(pickle.dumps(snap)) == snap
    for name in ("region", "status", "_mask"):
        with pytest.raises(FrozenInstanceError):
            setattr(snap, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(snap, name)
    with pytest.raises(ValueError):
        ll.WindowConfig(snap.region, snap.status[1:])
    with pytest.raises(ValueError):
        ll.WindowConfig(snap.region, (UNKNOWN,) + snap.status[1:])


# the radius-3 ball around (0, 0, 0) with (0, 0, 0) and its three neighbors
# pinned IN
_STAR_WINDOW = (ball(Vertex(0, 0, 0), 3), {w: IN for w in [Vertex(0, 0, 0), *neighbors(Vertex(0, 0, 0))]})


def _digest_windows():
    """fig3a, and radius-3 balls pinned out to radius 1 or 2 by a fixed code
    or with a lone vertex and its neighbors IN: 61703 assignments."""
    tpl = TEMPLATES["fig3a"]
    yield tpl.region(), tpl.constraints()
    code = random_code(PeriodLattice(7, 1, 3), seed=1)
    for centre, pin_radius in ((Vertex(0, 0, 0), 1), (Vertex(1, 0, 1), 1), (Vertex(1, 0, 1), 2),
                               (Vertex(6, 0, 1), 2)):
        yield ball(centre, 3), {w: IN if code.contains(w) else OUT for w in ball(centre, pin_radius)}
    yield _STAR_WINDOW


def test_enumeration_order_and_content_pinned():
    # the (region, status) sequence of each window, as taken when every
    # assignment held its own status tuple
    digest = hashlib.sha256()
    counts = []
    for region, pins in _digest_windows():
        configs = ll.enumerate(region, pins)
        first = next(configs)
        digest.update(repr(first.region).encode())
        n = 0
        for cfg in itertools.chain([first], configs):
            assert cfg.region == first.region
            digest.update(" ".join(cfg.status).encode() + b"\n")
            n += 1
        counts.append(n)
    assert counts == [192, 5314, 24425, 368, 125, 31279]
    assert digest.hexdigest() == "f7e0d657d9e8a5bd05872ae2cdef4a410bd1d33e815325f6ffdf4533000820ec"


def test_held_assignments_keep_only_masks():
    # 289 B per assignment when each held a dataclass and a status tuple
    tracemalloc.start()
    try:
        configs = list(ll.enumerate(*_STAR_WINDOW))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(configs) == 31279
    assert held < 128 * len(configs)


def test_pinned_vertices_do_not_count_against_cap():
    big = ball(V0, 6)
    pins = {v: IN for v in big[: len(big) - 10]}
    list(ll.enumerate(big, pins))  # must not raise


# ---------------------------------------------------------------------------
# templates


def test_template_text_round_trip():
    tpl = TEMPLATES["fig3a"]
    again = parse_template(template_text(tpl), name=tpl.name)
    assert again == tpl


def test_template_file_round_trip(tmp_path):
    tpl = TEMPLATES["fig4"]
    path = tmp_path / "window.txt"
    save_template(tpl, path)
    again = load_template(path, name=tpl.name)
    assert again == tpl


def test_window_file_streams_its_rows(tmp_path):
    # the refusal at row UNIVERSE_CAP + 1 holds only the rows before it
    path = tmp_path / "long.txt"
    path.write_text("".join("%d 0 0 UNKNOWN\n" % a for a in range(200000)))
    tracemalloc.start()
    try:
        with pytest.raises(RegionTooLarge, match="universe cap of %d" % ll.UNIVERSE_CAP):
            load_template(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_parse_template_rejects_bad_rows():
    with pytest.raises(ValueError):
        parse_template("0 0 0 MAYBE")
    with pytest.raises(ValueError):
        parse_template("0 0 IN")
    with pytest.raises(ValueError, match="sublattice"):
        parse_template("0 0 7 IN")
    # a coordinate that is not an integer names its row
    with pytest.raises(ValueError, match="got '0 0 x IN'$"):
        parse_template("0 0 x IN")


def test_template_registry_shapes():
    assert set(TEMPLATES) == {"fig3a", "fig3b", "fig4", "fig5", "fig6"}
    for tpl in TEMPLATES.values():
        assert len(tpl.region()) == len(set(tpl.region()))
    # one sealed lone vertex for the first window, one pinned 3-path for the
    # next two, two pinned 3-paths for the paired windows
    for name, want in (("fig3b", 1), ("fig4", 1), ("fig5", 2), ("fig6", 2)):
        comps = pinned_clusters(TEMPLATES[name])
        assert sum(1 for c in comps if len(c) == 3) == want


def test_sealed_window_enumeration_oracle():
    tpl = TEMPLATES["fig3a"]
    sizes = {}
    n = 0
    for cfg in ll.enumerate(tpl.region(), tpl.constraints()):
        n += 1
        k = sum(1 for st in cfg.status if st == IN)
        sizes[k] = sizes.get(k, 0) + 1
    assert n == 192
    assert sizes == {5: 8, 6: 34, 7: 59, 8: 54, 9: 28, 10: 8, 11: 1}


# ---------------------------------------------------------------------------
# lemma verdicts


def test_unknown_lemma_id():
    with pytest.raises(ValueError):
        check_lemma("L99")


def test_radius_and_template_conflict():
    with pytest.raises(ValueError):
        check_lemma("L1", radius=2, template="fig3a")


def test_lone_vertex_window_verifies():
    v = check_lemma("L1")
    assert v.result == VERIFIED
    assert v.counterexample is None


def test_lone_vertex_larger_window_verifies():
    rows = []
    for v in ball(V0, 4):
        if v == V0:
            rows.append((v, IN))
        elif v in neighbors(V0):
            rows.append((v, OUT))
        else:
            rows.append((v, UNKNOWN))
    verdict = check_lemma("L1", template=Template("ball4", tuple(rows)))
    assert verdict.result == VERIFIED


def test_tiny_radius_is_honest():
    # a 1-ball window cannot see the surrounding structure; the checker must
    # admit that instead of inventing a refutation
    v = check_lemma("L1", radius=1)
    assert v.result == INCONCLUSIVE
    assert v.counterexample is None


def test_closed_cluster_window_verifies():
    v = check_lemma("L2")
    assert v.result == VERIFIED


def test_needy_cluster_window_verifies():
    v = check_lemma("L3")
    assert v.result == VERIFIED


def test_node_cap_reports_inconclusive():
    v = check_lemma("L2", node_cap=40)
    assert v.result == INCONCLUSIVE
    assert "node cap" in v.note


def test_verdict_json_round_trips():
    import json

    v = check_lemma("L1")
    blob = json.dumps(v.to_json())
    back = json.loads(blob)
    assert back["lemmaId"] == "L1"
    assert back["result"] == VERIFIED


# verdict, settled window assignments, engine search nodes and _certify
# calls of the default windows and of the capped paired windows; a change to
# the engine or to a certainty rule that moves any of them has changed what
# the checker does.  The certify calls catch a change to the certify
# branching, such as another influence() order, that leaves the search
# counts alone
_PINNED_COUNTS = [
    ("L1", None, None, VERIFIED, 5, 9, 0),
    ("L2", None, None, VERIFIED, 799, 1597, 1474),
    ("L3", None, None, VERIFIED, 507, 1013, 54),
    ("L4", "fig5", 500, INCONCLUSIVE, 245, 501, 0),
    ("L4", "fig6", 500, INCONCLUSIVE, 244, 501, 0),
]


def _counted_check(monkeypatch, lemma_id, **kwargs):
    """The verdict, the settled count, the search nodes of every engine
    search the check ran, and the _certify calls, recursive ones included
    (_certify recurses through the module name)."""
    searched = []
    search = ll._Engine.search
    certify = ll._certify
    certified = [0]

    def counted(eng, *args, **kw):
        before = eng.nodes
        search(eng, *args, **kw)
        searched.append(eng.nodes - before)

    def counted_certify(*args, **kw):
        certified[0] += 1
        return certify(*args, **kw)

    monkeypatch.setattr(ll._Engine, "search", counted)
    monkeypatch.setattr(ll, "_certify", counted_certify)
    v = check_lemma(lemma_id, **kwargs)
    return v.result, v.configs_explored, searched, certified[0]


def _counts_id(row):
    """A case's name: the window, its verdict and its search counts; the
    certify count is checked but not part of the name."""
    return "-".join(map(str, row[:-1]))


@pytest.mark.parametrize("lemma_id,template,node_cap,result,settled,nodes,certified", _PINNED_COUNTS,
                         ids=[_counts_id(row) for row in _PINNED_COUNTS])
def test_lemma_counters_pinned(monkeypatch, lemma_id, template, node_cap, result, settled, nodes,
                               certified):
    got = _counted_check(monkeypatch, lemma_id, template=template, node_cap=node_cap)
    assert got == (result, settled, [nodes], certified)


# the same for ball windows around the default templates' pins
_RADIUS_COUNTS = [
    ("L1", 2, INCONCLUSIVE, 16, 31, 176),
    ("L3", 3, VERIFIED, 178, 355, 647),
    ("L4", 2, INCONCLUSIVE, 130, 259, 2974),
]


@pytest.mark.parametrize("lemma_id,radius,result,settled,nodes,certified", _RADIUS_COUNTS,
                         ids=[_counts_id(row) for row in _RADIUS_COUNTS])
def test_radius_window_counters_pinned(monkeypatch, lemma_id, radius, result, settled, nodes, certified):
    got = _counted_check(monkeypatch, lemma_id, radius=radius, node_cap=3000)
    assert got == (result, settled, [nodes], certified)


def _assert_components_split(eng, got):
    """components() gives the very records split gives for the IN mask,
    in the same order."""
    want = eng.split(eng.mem)
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


@pytest.mark.parametrize("lemma_id,window", [
    ("L1", {}),
    ("L2", {}),
    ("L3", {}),
    ("L4", {"template": "fig5"}),
    ("L4", {"template": "fig6"}),
    ("L3", {"radius": 3}),
], ids=["L1", "L2", "L3", "L4-fig5", "L4-fig6", "L3-r3"])
def test_components_match_split_along_the_search(monkeypatch, lemma_id, window):
    # every call the window search and the certify search make, against a
    # flood fill of the IN mask from scratch
    components = ll._Engine.components
    calls = [0]

    def checked(eng):
        got = components(eng)
        _assert_components_split(eng, got)
        calls[0] += 1
        return got

    monkeypatch.setattr(ll._Engine, "components", checked)
    check_lemma(lemma_id, node_cap=500, **window)
    assert calls[0] > 0


def test_components_match_split_on_a_random_walk():
    # assign, mark and undo in random order on a radius-3 window, so the
    # walk also backs into states whose IN mask lacks some of the last
    # stack entry's vertices, and merges components it had found apart
    tpl = ll._radius_window("L4", 3)
    eng = ll._Engine(tpl.region(), tpl.constraints())
    rng = random.Random(1103)
    marks = []
    backed = merged = 0
    comps = eng.components()
    for _ in range(3000):
        undecided = [i for i in range(eng.n) if not eng.dec >> i & 1]
        if marks and (rng.random() < 0.2 or not undecided):
            k = rng.randrange(len(marks)) if rng.random() < 0.3 else len(marks) - 1
            eng.undo(marks[k])
            del marks[k:]
        else:
            marks.append(eng.mark())
            if not eng.assign(rng.choice(undecided), rng.random() < 0.4):
                eng.undo(marks.pop())
        backed += bool(eng._comp_stack[-1][0] & ~eng.mem)
        last, comps = comps, eng.components()
        merged += any(sum(1 for p in last if p.mask & c.mask) >= 2 for c in comps)
        _assert_components_split(eng, comps)
    assert backed and merged


def test_radius_window_keeps_template_pins():
    # the ball holds every pin of the default template within the radius,
    # except the lone vertex's normalized witnesses, and halo rows for the rest
    for lemma_id, name in ll._DEFAULT_TEMPLATE.items():
        tpl = ll._radius_window(lemma_id, 2)
        pins = TEMPLATES[name].constraints()
        if lemma_id == "L1":
            pins = {v: st for v, st in pins.items() if v not in (Vertex(1, 2, 1), Vertex(0, 1, 1))}
        assert tpl.constraints() == pins


# ---------------------------------------------------------------------------
# window checks: every refusal, and infeasible windows


def _with_rows(name, extra):
    rows = dict(TEMPLATES[name].rows)
    rows.update(extra)
    return Template(name + "+", tuple(rows.items()))


def _all_out(center):
    return {v: OUT for v in (center,) + neighbors(center)}


@pytest.mark.parametrize("lemma_id,template,message", [
    ("L1", "fig3b", "exactly one sealed lone code vertex"),
    ("L2", "fig3a", "exactly one 3-cluster"),
    ("L2", "fig5", "exactly one 3-cluster"),
    ("L3", "fig5", "exactly one 3-cluster"),
    ("L4", "fig4", "exactly two 3-clusters"),
])
def test_wrong_anchor_count_is_refused(lemma_id, template, message):
    with pytest.raises(ValueError, match=message):
        check_lemma(lemma_id, template=template)


def test_lone_vertex_needs_its_neighbors_pinned_out():
    # the only pinned-IN vertex, with one neighbor left unknown
    near, far = neighbors(V0)[:2], neighbors(V0)[2]
    base = {V0: IN, **{u: OUT for u in near}}
    region = ball(V0, 3)
    for pinned in (base, {**base, far: UNKNOWN}):
        tpl = Template("open", tuple((v, pinned.get(v, UNKNOWN)) for v in region))
        with pytest.raises(ValueError, match="exactly one sealed lone code vertex"):
            check_lemma("L1", template=tpl)


def _rim_rows(name):
    """The template's rows that neighbor a pinned 3-cluster."""
    clusters = [c for c in pinned_clusters(TEMPLATES[name]) if len(c) == 3]
    rim = {w for c in clusters for v in c for w in neighbors(v)} - {v for c in clusters for v in c}
    return [v for v, _ in TEMPLATES[name].rows if v in rim]


@pytest.mark.parametrize("lemma_id,name,message", [
    ("L2", "fig3b", "exactly one 3-cluster with its neighbors pinned OUT"),
    ("L3", "fig4", "exactly one 3-cluster with its neighbors pinned OUT"),
    ("L4", "fig5", "exactly two 3-clusters with their neighbors pinned OUT"),
])
def test_cluster_needs_its_neighbors_pinned_out(lemma_id, name, message):
    # a 3-cluster with a neighbor left to the enumeration could grow in a
    # completion while the rules still read it as a 3-path
    rows = _rim_rows(name)
    assert len(rows) == (10 if lemma_id == "L4" else 5)
    for v in rows:
        tpl = _with_rows(name, {v: UNKNOWN})
        eng = ll._Engine(tpl.region(), tpl.constraints())
        with pytest.raises(ValueError, match=message):
            ll._make_state(lemma_id, eng)


def test_lone_vertex_needs_to_be_alone():
    # a second lone vertex with its neighbors pinned OUT
    other = Vertex(-5, 5, 1)
    tpl = _with_rows("fig3a", {other: IN, **{u: OUT for u in neighbors(other)}})
    with pytest.raises(ValueError, match="exactly one sealed lone code vertex"):
        check_lemma("L1", template=tpl)


def test_unpaired_clusters_are_refused():
    # fig4's open 3-cluster and a translate too far away to pair with it
    far = {Vertex(v.a + 9, v.b, v.s): st for v, st in TEMPLATES["fig4"].constraints().items()}
    with pytest.raises(ValueError, match="not paired"):
        check_lemma("L4", template=_with_rows("fig4", far))


def test_unknown_pin_is_refused():
    # a pin is IN or OUT; a vertex left to the enumeration is simply not
    # pinned, on the boundary as in the interior
    region = ball(V0, 1)
    for v in (V0, Vertex(0, 0, 0)):
        with pytest.raises(ValueError, match="bad constraint status"):
            list(ll.enumerate(region, {v: UNKNOWN}))


def test_bad_constraint_status_is_refused():
    with pytest.raises(ValueError, match="bad constraint status"):
        list(ll.enumerate(ball(V0, 1), {V0: "MAYBE"}))


_INFEASIBLE = "the pinned window admits no feasible assignment at all"


def test_infeasible_lone_vertex_window_verifies():
    # the pins conflict at an all-OUT closed neighborhood before the lone
    # vertex's neighbors are assigned; the anchor is still read off the pins
    lone = Vertex(5, 5, 1)
    pins = {lone: IN, **{u: OUT for u in neighbors(lone)}, **_all_out(Vertex(3, 5, 0))}
    region = ball(lone, 3)
    rows = [(v, pins.get(v, UNKNOWN)) for v in region]
    rows += [(v, st) for v, st in sorted(pins.items()) if v not in region]
    v = check_lemma("L1", template=Template("conflict", tuple(rows)))
    assert (v.result, v.configs_explored, v.note) == (VERIFIED, 0, _INFEASIBLE)


def test_infeasible_window_ignores_enumeration_cap():
    # the conflict stops the base assignment before the thirty far OUT pins
    # are assigned; they must not count as free vertices
    extra = {Vertex(a, 0, 0): OUT for a in range(10, 40)}
    tpl = _with_rows("fig3b", {**_all_out(Vertex(-5, 0, 0)), **extra})
    for lemma_id in ("L2", "L3"):
        v = check_lemma(lemma_id, template=tpl)
        assert (v.result, v.note) == (VERIFIED, _INFEASIBLE)
    assert list(ll.enumerate(tpl.region(), tpl.constraints())) == []


def test_universe_cap_comes_before_any_mask():
    big = {Vertex(a, 40, 0): OUT for a in range(ll.UNIVERSE_CAP)}
    with pytest.raises(RegionTooLarge, match="universe cap of %d" % ll.UNIVERSE_CAP):
        ll._Engine(ball(V0, 1), big)


def test_radius_window_cap_comes_before_the_ball(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the ball window was built before checking the cap")

    # radius 36 holds 1999 ball vertices, radius 37 holds 2110
    assert len(ll._radius_window("L1", 36).rows) >= 1999
    monkeypatch.setattr(ll, "layers", never)
    with pytest.raises(RegionTooLarge, match="universe cap of %d" % ll.UNIVERSE_CAP):
        ll._radius_window("L1", 37)


def _reference_distances(eng):
    """The pairwise grid-distance table the engine once kept: a
    breadth-first search to depth four from every universe vertex, keyed by
    index pairs (i, j) with i < j; farther pairs are absent."""
    table = {}
    for i, v in enumerate(eng.verts):
        found = {v: 0}
        frontier = [v]
        for d in range(1, 5):
            nxt = []
            for u in frontier:
                for w in neighbors(u):
                    if w not in found:
                        found[w] = d
                        nxt.append(w)
            frontier = nxt
        for w, d in found.items():
            j = eng.index.get(w)
            if j is not None and j > i:
                table[(i, j)] = d
    return table


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_engine_distance_masks_match_reference_table(name):
    tpl = TEMPLATES[name]
    eng = ll._Engine(tpl.region(), tpl.constraints())
    table = _reference_distances(eng)

    def d(i, j):
        return 0 if i == j else table.get((min(i, j), max(i, j)), 99)

    for i in range(eng.n):
        for j in range(eng.n):
            for r in range(ll.REACH + 1):
                assert bool(eng.within[r][i] >> j & 1) == (d(i, j) <= r)
            assert bool(eng.ring2[i] >> j & 1) == (d(i, j) == 2)


def _ref_clause_compile(eng):
    """The clause compile as it was written over neighbor index tuples: a
    full vertex's distance-two partners are collected from its neighbors'
    neighbors.  Returns the full flags and the clause lists."""
    nb_in = _nb_in(eng)
    nb_full = [len(row) == 3 for row in nb_in]
    clauses = [[] for _ in range(eng.n)]
    for i in range(eng.n):
        if not nb_full[i]:
            continue
        cands = set(nb_in[i])
        for m in nb_in[i]:
            cands.update(nb_in[m])
        own = [_ref_mask(nb_in[i] + (i,))]
        own += [own[0] ^ _ref_mask(nb_in[j] + (j,)) for j in sorted(cands) if j > i and nb_full[j]]
        for clause in own:
            for t in hexgrid.set_bits(clause):
                clauses[t].append(clause)
    return nb_full, clauses


def _random_windows(count, seed):
    """Radius-3 balls of random codes, pinned to the code out to radius 1
    or 2."""
    rng = random.Random(seed)
    lattices = [lat for lat in hexgrid.all_lattices(28) if lat.domain_size >= 20]
    for _ in range(count):
        code = random_code(rng.choice(lattices), seed=rng.randrange(2**32))
        centre = rng.choice(list(code.lattice.domain()))
        pins = {w: IN if code.contains(w) else OUT for w in hexgrid.ball(centre, rng.choice((1, 2)))}
        yield ball(centre, 3), pins


def _engine_windows():
    for tpl in TEMPLATES.values():
        yield tpl.region(), tpl.constraints()
    for lemma_id in ("L1", "L2", "L3", "L4"):
        for radius in (1, 2, 3):
            tpl = ll._radius_window(lemma_id, radius)
            yield tpl.region(), tpl.constraints()
    yield from _random_windows(12, 8)


def test_engine_clauses_match_neighbor_table_compile():
    # nbmask is within[1], and a full vertex's distance-two partners are
    # the higher bits of within[2]; the lists are the old compile's, in its
    # order, less the clauses that a vertex IN at the root satisfies
    dropped = 0
    for region, pins in _engine_windows():
        eng = ll._Engine(region, pins)
        nb_full, clauses = _ref_clause_compile(eng)
        assert eng.nbmask == [_ref_mask(row + (i,)) for i, row in enumerate(_nb_in(eng))]
        assert eng.nb_full == nb_full
        assert eng.clauses == [[c for c in row if not c & eng.mem] for row in clauses]
        dropped += sum(map(len, clauses)) - sum(map(len, eng.clauses))
    assert dropped


def test_engine_clauses_are_the_embedded_periodic_clauses(monkeypatch):
    # on a lattice that no universe wraps, each engine clause is a periodic
    # clause of identifying_constraints read through the embedding, one to
    # one with those whose N[u] and N[v] both lie in the universe
    monkeypatch.setattr(ll._Engine, "restrict_clauses", lambda eng, out_ok: None)
    lat = hexgrid.PeriodLattice(24, 24)
    windows = [(tpl.region(), tpl.constraints()) for tpl in TEMPLATES.values()]
    windows += [(ball(V0, 1), {}), (ball(V0, 2), {V0: IN})]
    for region, pins in windows:
        eng = ll._Engine(region, pins)
        at = {lat.index(v): v for v in eng.verts}
        assert len(at) == eng.n
        got = {tuple(sorted(lat.index(eng.verts[i]) for i in hexgrid.set_bits(clause)))
               for row in eng.clauses for clause in row}
        want = []
        for c in identifying_constraints(lat):
            u = at.get(lat.index(c.u))
            if u is None:
                continue
            shift = u.a - c.u.a, u.b - c.u.b
            support = set(hexgrid.closed_neighborhood(u))
            if c.v is not None:
                v = Vertex(c.v.a + shift[0], c.v.b + shift[1], c.v.s)
                support.update(hexgrid.closed_neighborhood(v))
            if support <= eng.index.keys():
                want.append(c.orbits)
        assert len(want) == len(set(want)) == len(got)
        assert got == set(want)


class _TrailEngine(ll._Engine):
    """The engine as it was before the iterative walk: every decided vertex
    goes on a trail, mark() is the trail length and undo() clears the
    vertices past it, assign propagates from a work list, and the search
    recurses.  Its clause lists are the full compile."""

    def __init__(self, region, pins):
        self.trail = []
        super().__init__(region, pins)
        self.clauses = _ref_clause_compile(self)[1]

    def mark(self):
        return len(self.trail)

    def undo(self, m):
        for i in self.trail[m:]:
            clear = ~(1 << i)
            self.dec &= clear
            self.mem &= clear
        del self.trail[m:]

    def assign(self, root, val):
        todo = [(root, val)]
        while todo:
            i, v = todo.pop()
            b = 1 << i
            if self.dec & b:
                if bool(self.mem & b) != v:
                    return False
                continue
            self.dec |= b
            self.trail.append(i)
            if v:
                self.mem |= b
                continue
            for clause in self.clauses[i]:
                if clause & self.mem:
                    continue
                und = clause & ~self.dec
                if und == 0:
                    return False
                if und & (und - 1) == 0:
                    todo.append((und.bit_length() - 1, True))
        return True

    def _pick(self):
        best = -1
        best_score = -1
        for i in self.free_idx:
            if not (self.dec >> i) & 1:
                score = (self.nbmask[i] & self.dec).bit_count()
                if score > best_score:
                    best = i
                    best_score = score
        return best

    def search(self, on_leaf, try_prune=None, node_cap=None):
        self.aborted = False
        if self.base_ok:
            self._search(on_leaf, try_prune, node_cap)

    def _search(self, on_leaf, try_prune, node_cap):
        if self.aborted:
            return
        self.nodes += 1
        if node_cap is not None and self.nodes > node_cap:
            self.aborted = True
            return
        if try_prune is not None and try_prune(self):
            return
        i = self._pick()
        if i < 0:
            on_leaf(self)
            return
        for val in (True, False):
            m = self.mark()
            if self.assign(i, val):
                self._search(on_leaf, try_prune, node_cap)
            self.undo(m)
            if self.aborted:
                return


def _searched(eng, prune=None, node_cap=None, abort_at=None):
    """One search from a fresh node count: per leaf its snapshot and state,
    then the nodes, whether it stopped early, and the state it left.
    prune is the share of nodes below the root that a seeded pseudo-random
    try_prune settles; abort_at the leaf at which on_leaf sets aborted."""
    leaves = []

    def on_leaf(e):
        leaves.append((e.snapshot(), e.dec, e.mem))
        if len(leaves) == abort_at:
            e.aborted = True

    rng = random.Random(1201)
    eng.nodes = 0
    eng.search(on_leaf, None if prune is None else lambda e: e.nodes > 1 and rng.random() < prune,
               node_cap)
    return leaves, eng.nodes, eng.aborted, (eng.dec, eng.mem)


def test_walk_matches_recursive_search():
    # leaf sequence, nodes, early stop and the state left behind, against
    # the recursive search over the full clause lists
    runs = [{"node_cap": cap, "prune": prune} for cap in (1, 17, 500) for prune in (None, 0.2)]
    runs += [{"prune": 0.35}] + [{"abort_at": k} for k in (1, 7, 60)]
    leaves = aborted = 0
    for region, pins in _engine_windows():
        eng, ref = ll._Engine(region, pins), _TrailEngine(region, pins)
        root = (eng.dec, eng.mem)
        assert (ref.dec, ref.mem) == root
        for kw in runs:
            got = _searched(eng, **kw)
            assert got == _searched(ref, **kw), kw
            assert got[3] == root
            leaves += len(got[0])
            aborted += got[2]
    assert leaves and aborted


def _assigns_below_root(monkeypatch):
    """Every assign result of an engine whose constructor has returned:
    the search and certify assigns, without the pin loading."""
    init, assign = ll._Engine.__init__, ll._Engine.assign
    results = []

    def built(eng, *args, **kw):
        init(eng, *args, **kw)
        eng.below_root = True

    def recorded(eng, i, val):
        ok = assign(eng, i, val)
        if eng.__dict__.get("below_root"):
            results.append(ok)
        return ok

    monkeypatch.setattr(ll._Engine, "__init__", built)
    monkeypatch.setattr(ll._Engine, "assign", recorded)
    return results


def test_assign_below_the_root_never_fails_on_engine_windows(monkeypatch):
    # the walk and _certify keep no failed-branch path, so no search may
    # reach one: the capped search and enumerate of every window
    results = _assigns_below_root(monkeypatch)
    for region, pins in _engine_windows():
        ll._Engine(region, pins).search(lambda e: None, node_cap=3000)
        for _ in itertools.islice(ll.enumerate(region, pins), 3000):
            pass
    assert len(results) > 10000 and all(results)


@pytest.mark.parametrize("lemma_id,template,node_cap", [row[:3] for row in _PINNED_COUNTS],
                         ids=[_counts_id(row) for row in _PINNED_COUNTS])
def test_assign_below_the_root_never_fails_on_lemma_checks(monkeypatch, lemma_id, template, node_cap):
    results = _assigns_below_root(monkeypatch)
    check_lemma(lemma_id, template=template, node_cap=node_cap)
    assert results and all(results)


def _walked(eng, steps, seed, choices):
    """A seeded walk of assign, mark and undo over the given vertices: per
    step the assign result (None for an undo) and the state after it."""
    rng = random.Random(seed)
    marks, trace = [], []
    for _ in range(steps):
        undecided = [i for i in choices if not eng.dec >> i & 1]
        if marks and (rng.random() < 0.2 or not undecided):
            k = rng.randrange(len(marks)) if rng.random() < 0.3 else len(marks) - 1
            eng.undo(marks[k])
            del marks[k:]
            trace.append((None, eng.dec, eng.mem))
        else:
            marks.append(eng.mark())
            ok = eng.assign(rng.choice(undecided), rng.random() < 0.4)
            if not ok:
                eng.undo(marks.pop())
            trace.append((ok, eng.dec, eng.mem))
    return trace


def _full_lists(region, pins):
    eng = ll._Engine(region, pins)
    eng.clauses = _ref_clause_compile(eng)[1]
    return eng


def _for_enumerate(region, pins):
    eng = ll._Engine(region, pins)
    eng.restrict_clauses(eng.pinned_out | eng._free_mask)
    return eng


def _forced(trace):
    """Assign steps that decided more than their own vertex."""
    return sum(bool(ok) and (dec ^ last).bit_count() > 1
               for (ok, dec, _), (_, last, _) in zip(trace[1:], trace))


def test_root_pruned_lists_match_full_lists_on_a_random_walk():
    # any undecided universe vertex may be set either way, as the certify
    # search does; every result and every state agree
    forced = 0
    for k, (region, pins) in enumerate(_engine_windows()):
        eng, full = ll._Engine(region, pins), _full_lists(region, pins)
        if not eng.base_ok:
            continue
        choices = range(eng.n)
        trace = _walked(eng, 400, k, choices)
        assert trace == _walked(full, 400, k, choices)
        forced += _forced(trace)
    assert forced


def test_enumerate_lists_match_full_lists_on_a_random_walk():
    # only free window vertices are set, as the enumerate walk does; every
    # result agrees, and so does every state that _pick and snapshot read
    forced = 0
    for k, (region, pins) in enumerate(_engine_windows()):
        eng, full = _for_enumerate(region, pins), _full_lists(region, pins)
        if not eng.base_ok or not eng.free_idx:
            continue
        read = _ref_mask(eng.region_idx)
        for i in eng.free_idx:
            read |= eng.nbmask[i]
        choices = eng.free_idx
        got, want = _walked(eng, 400, k, choices), _walked(full, 400, k, choices)
        assert [(ok, dec & read, mem & read) for ok, dec, mem in got] == \
            [(ok, dec & read, mem & read) for ok, dec, mem in want]
        forced += _forced(got)
    assert forced


def test_enumerate_matches_full_lists():
    # the first 3000 assignments of every window, in order, against the
    # walk over the full clause lists; the enumerate lists are shorter
    # than a lemma engine's on some windows
    shorter = 0
    for region, pins in _engine_windows():
        full = _full_lists(region, pins)
        want = []
        if full.base_ok:
            for _ in itertools.islice(full._walk(), 3000):
                want.append(full.snapshot())
        assert list(itertools.islice(ll.enumerate(region, pins), 3000)) == want
        lists = _for_enumerate(region, pins).clauses
        shorter += sum(map(len, lists)) < sum(map(len, ll._Engine(region, pins).clauses))
    assert shorter


def _lemma_windows():
    for lemma_id, name in ll._DEFAULT_TEMPLATE.items():
        yield lemma_id, TEMPLATES[name]
        for radius in (1, 2, 3):
            yield lemma_id, ll._radius_window(lemma_id, radius)
    yield "L4", TEMPLATES["fig6"]


def test_growth_margin_keeps_every_anchor_ball():
    # every zone is cut from the anchors' reach3, which must be the whole
    # distance-REACH ball of the anchor
    anchors = 0
    for lemma_id, tpl in _lemma_windows():
        eng = ll._Engine(tpl.region(), tpl.constraints())
        for a in ll._make_state(lemma_id, eng).anchors:
            anchors += 1
            ball_k = set().union(*layers([eng.verts[i] for i in a.members], ll.REACH))
            assert ball_k <= set(eng.index)
            assert a.reach3 == _ref_mask(eng.index[v] for v in ball_k)
    assert anchors == 22


# ---------------------------------------------------------------------------
# the component records against the tuple-based rules they replaced
#
# The references below are the certainty rules as they were written over
# bare index tuples, re-deriving each component's center, frontier and
# closure on every call.  They are kept as the oracle for the records,
# changed only to take the engine, the pinned cluster and the component
# list as arguments.


def _ref_mask(idx):
    m = 0
    for i in idx:
        m |= 1 << i
    return m


@functools.lru_cache(maxsize=4)
def _nb_in(eng):
    """Per universe vertex, the indices of its in-universe neighbors, in
    the order of hexgrid.neighbors: the neighbor table the references
    read."""
    return [tuple(eng.index[w] for w in neighbors(v) if w in eng.index) for v in eng.verts]


# the engine's decided and IN bits of one vertex, as the references read them
def _decided(eng, i):
    return bool(eng.dec >> i & 1)


def _is_in(eng, i):
    return bool(eng.mem >> i & 1)


def _ref_components(eng, mem=None):
    comps = []
    seen = 0
    mem = eng.mem if mem is None else mem
    for i in hexgrid.set_bits(mem):
        if (seen >> i) & 1:
            continue
        stack = [i]
        comp = []
        seen |= 1 << i
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in _nb_in(eng)[u]:
                if (mem >> w) & 1 and not (seen >> w) & 1:
                    seen |= 1 << w
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def _ref_comp_frontier(eng, comp):
    und = set()
    outside = False
    comp_set = set(comp)
    for i in comp:
        if not eng.nb_full[i]:
            outside = True
        for j in _nb_in(eng)[i]:
            if j not in comp_set and not _decided(eng, j):
                und.add(j)
    return sorted(und), outside


def _ref_near(eng, radius, comp_a, comp_b):
    reach = eng.within[radius]
    target = _ref_mask(comp_b)
    return any(reach[i] & target for i in comp_a)


def _ref_path_center(eng, comp):
    if len(comp) != 3:
        return None
    comp_set = set(comp)
    for i in comp:
        if sum(1 for j in _nb_in(eng)[i] if j in comp_set) == 2:
            return i
    return None


def _ref_center_outside_nb(eng, comp):
    c = _ref_path_center(eng, comp)
    if c is None or not eng.nb_full[c]:
        return None
    comp_set = set(comp)
    for j in _nb_in(eng)[c]:
        if j not in comp_set:
            return j
    return None


def _ref_cert_big(eng, comp):
    if len(comp) >= 4:
        return True
    if len(comp) == 3:
        w = _ref_center_outside_nb(eng, comp)
        if w is None or not eng.nb_full[w]:
            return False
        c = _ref_path_center(eng, comp)
        for x in _nb_in(eng)[w]:
            if x != c and _decided(eng, x) and _is_in(eng, x):
                return True
    return False


def _ref_cert_exact_open3(eng, comp):
    if len(comp) != 3:
        return False
    und, outside = _ref_comp_frontier(eng, comp)
    if und or outside:
        return False
    w = _ref_center_outside_nb(eng, comp)
    if w is None or not eng.nb_full[w]:
        return False
    c = _ref_path_center(eng, comp)
    for x in _nb_in(eng)[w]:
        if x == c:
            continue
        if not _decided(eng, x) or _is_in(eng, x):
            return False
    return True


def _ref_cert_crowded(eng, comp):
    if len(comp) == 1:
        x = comp[0]
        for u in _nb_in(eng)[x]:
            if not _decided(eng, u) or _is_in(eng, u) or not eng.nb_full[u]:
                continue
            others = [j for j in _nb_in(eng)[u] if j != x]
            if len(others) == 2 and all(_decided(eng, j) and _is_in(eng, j) for j in others):
                return True
        return False
    if len(comp) == 3:
        outside = eng.mem & ~_ref_mask(comp)
        return any((eng.ring2[v] & outside).bit_count() >= 2 for v in comp)
    return False


def _ref_cert_unthreat(eng, comp, comps):
    for other in comps:
        if other is comp:
            continue
        if _ref_cert_big(eng, other) and _ref_near(eng, 3, comp, other):
            return True
    if 2 <= len(comp) <= 3:
        for other in comps:
            if other is comp:
                continue
            if len(other) >= 2 and _ref_near(eng, 2, comp, other):
                return True
    return False


def _ref_uncrowded_exact(eng, anchor):
    anchor_set = set(anchor)
    for v in anchor:
        hits = 0
        for w in layers((eng.verts[v],), 2)[2]:
            j = eng.index.get(w)
            if j is None:
                return None
            if j in anchor_set:
                continue
            if not _decided(eng, j):
                return None
            if _is_in(eng, j):
                hits += 1
        if hits >= 2:
            return False
    return True


def _ref_qual_exact(eng, comp):
    if len(comp) >= 4:
        return False
    if len(comp) == 2:
        return False
    if len(comp) == 1:
        x = comp[0]
        if not eng.nb_full[x]:
            return None
        for u in _nb_in(eng)[x]:
            if not eng.nb_full[u]:
                return None
            others = [j for j in _nb_in(eng)[u] if j != x]
            if not all(_decided(eng, j) for j in others):
                return None
        return not _ref_cert_crowded(eng, comp)
    if not _ref_cert_exact_open3(eng, comp):
        w = _ref_center_outside_nb(eng, comp)
        if w is None or not eng.nb_full[w]:
            return None
        c = _ref_path_center(eng, comp)
        for x in _nb_in(eng)[w]:
            if x != c and not _decided(eng, x):
                return None
        return False
    comp_set = set(comp)
    for v in comp:
        for w in layers((eng.verts[v],), 2)[2]:
            j = eng.index.get(w)
            if j is None:
                return None
            if j not in comp_set and not _decided(eng, j):
                return None
    return not _ref_cert_crowded(eng, comp)


def _ref_influence_candidates(eng, zone_idx, anchors, comps):
    cands = set()
    for i in zone_idx:
        if not _decided(eng, i):
            cands.add(i)
    for comp in comps:
        und, _ = _ref_comp_frontier(eng, comp)
        cands.update(und)
        w = _ref_center_outside_nb(eng, comp)
        if w is not None:
            for x in _nb_in(eng)[w]:
                if not _decided(eng, x):
                    cands.add(x)
    for anchor in anchors:
        for v in anchor:
            cands.update(hexgrid.set_bits(eng.ring2[v] & ~eng.dec))
    dec = eng.dec
    return sorted(cands, key=lambda i: (-(eng.nbmask[i] & dec).bit_count(), i))


def _check_records_against_reference(state, anchors):
    eng = state.eng
    comps = eng.components()
    ref = _ref_components(eng)
    assert [c.members for c in comps] == ref
    for c, t in zip(comps, ref):
        assert c.mask == _ref_mask(t)
        assert c.center == _ref_path_center(eng, t)
        frontier = _ref_comp_frontier(eng, t)
        assert (sorted(hexgrid.set_bits(c.rim & ~eng.dec)), c.edge) == frontier
        assert ll._sealed(eng, c) == (frontier == ([], False))
        assert ll._cert_big(eng, c) == _ref_cert_big(eng, t)
        assert (ll._sealed(eng, c) and ll._open(eng, c)) == _ref_cert_exact_open3(eng, t)
        assert ll._cert_crowded(eng, c) == _ref_cert_crowded(eng, t)
        assert ll._cert_unthreat(eng, c, comps) == _ref_cert_unthreat(eng, t, ref)
        if isinstance(state, ll._L2State):
            assert state._qual_exact(c) == _ref_qual_exact(eng, t)
    if isinstance(state, ll._L2State):
        assert state._uncrowded_exact() == _ref_uncrowded_exact(eng, anchors[0])
    zone = list(hexgrid.set_bits(state.zone_mask))
    cands = _ref_influence_candidates(eng, zone, anchors, ref)
    assert sorted(hexgrid.set_bits(state.influence())) == sorted(cands)
    assert eng._pick(state.influence()) == (cands[0] if cands else -1)


# L2 runs whole, its 1597 search nodes well below the cap that once kept
# the test near twenty seconds; the others run whole or at the paired
# windows' caps
@pytest.mark.parametrize("lemma_id,template,node_cap", [
    ("L1", None, None),
    ("L2", None, 24000),
    ("L3", None, None),
    ("L4", "fig5", 1500),
    ("L4", "fig6", 1500),
])
def test_component_records_match_tuple_rules(monkeypatch, lemma_id, template, node_cap):
    # every state the window search and the certify search visit: the
    # search calls prune at each node before its leaf, and _certify recurses
    # through the module name
    pinned = []
    make_state = ll._make_state
    pins = TEMPLATES[template or ll._DEFAULT_TEMPLATE[lemma_id]].constraints()

    def recording_make_state(lid, eng):
        state = make_state(lid, eng)
        pinned[:] = [a.members for a in state.anchors]
        pinned_in = _ref_mask(eng.index[v] for v, st in pins.items() if st == IN)
        assert all(a in _ref_components(eng, pinned_in) for a in pinned)
        return state

    prune = ll._LemmaState.prune
    certify = ll._certify
    visited = [0]

    def checked(state):
        visited[0] += 1
        _check_records_against_reference(state, pinned)

    def checked_prune(state, eng):
        checked(state)
        return prune(state, eng)

    def checked_certify(state, *args, **kwargs):
        checked(state)
        return certify(state, *args, **kwargs)

    monkeypatch.setattr(ll, "_make_state", recording_make_state)
    monkeypatch.setattr(ll._LemmaState, "prune", checked_prune)
    monkeypatch.setattr(ll, "_certify", checked_certify)
    check_lemma(lemma_id, template=template, node_cap=node_cap)
    assert visited[0] > 0


# ---------------------------------------------------------------------------
# the zone, ball and geometry masks against the vertex-set rules they replaced
#
# The references below are the lemma states' zones, balls and position rules
# as they were written over grid vertex sets: distance layers around each
# pinned cluster, balls from hexgrid, and statuses looked up per vertex (a
# vertex beyond the universe reads UNKNOWN).  They are kept as the oracle
# for the masks, changed only to take the engine and the state as
# arguments.


def _ref_status(eng, v):
    i = eng.index.get(v)
    if i is None or not _decided(eng, i):
        return UNKNOWN
    return IN if _is_in(eng, i) else OUT


def _ref_vertex_sets(state):
    """The zone as a vertex set, and the centers', pinned clusters' and
    leaves' distance-three balls."""
    eng = state.eng
    around = [layers([eng.verts[i] for i in a.members], 3) for a in state.anchors]
    cluster_balls = [set().union(*layers_k) for layers_k in around]
    if isinstance(state, ll._L1State):
        zone = set().union(*around[0])
    elif isinstance(state, ll._L2State):
        zone = set().union(*around[0][2:])
    elif isinstance(state, ll._L3State):
        zone = set().union(*around[0][1:])
    else:
        zone = set().union(*cluster_balls).difference(*(layers_k[0] for layers_k in around))
    centers = [a.center for a in state.anchors if a.center is not None]
    center_balls = [hexgrid.ball(eng.verts[c], 3) for c in centers]
    leaf_balls = [hexgrid.ball(eng.verts[i], 3)
                  for a in state.anchors for i in a.members if i != a.center]
    return zone, center_balls, cluster_balls, leaf_balls


def _ref_singleton_geom_unqual(eng, x, center_balls, cluster_balls):
    vx = eng.verts[x]
    if any(vx in cb for cb in center_balls):
        return False
    for ball_k in cluster_balls:
        if vx in ball_k:
            for m in neighbors(vx):
                if _ref_status(eng, m) == OUT:
                    continue
                for y in neighbors(m):
                    if y == vx or _ref_status(eng, y) == OUT:
                        continue
                    if y in ball_k:
                        return False
    for ball_k in cluster_balls:
        good = 0
        for m in neighbors(vx):
            if _ref_status(eng, m) == OUT:
                continue
            if m in ball_k:
                good += 1
        if good >= 2:
            return False
    return True


def _ref_comp_geom_unqual(eng, comp, cluster_balls):
    if len(comp) == 3:
        center = _ref_path_center(eng, comp)
        ends = [eng.verts[i] for i in comp if i != center]
        for ball_k in cluster_balls:
            if ends[0] in ball_k and ends[1] in ball_k:
                return False
        return True
    if len(comp) == 2:
        for m, other in (comp, comp[::-1]):
            far = eng.verts[other]
            for w in neighbors(eng.verts[m]):
                j = eng.index.get(w)
                if j is not None and (j == other or _decided(eng, j)):
                    continue
                for ball_k in cluster_balls:
                    if w in ball_k and far in ball_k:
                        return False
        return True
    return False


def _ref_l3_refuted(eng, anchor_mask, leaf_balls, comps):
    for leaf_ball in leaf_balls:
        for v in leaf_ball:
            i = eng.index.get(v)
            if i is None or not _decided(eng, i):
                return False
    near1, near2 = (_ref_mask(eng.index[v] for v in b if v in eng.index) & ~anchor_mask
                    for b in leaf_balls)
    for c in comps:
        if c.mask & anchor_mask or not c.mask & (near1 | near2):
            continue
        if not ll._sealed(eng, c):
            return False
        if len(c.members) >= 2 and c.mask & near1 and c.mask & near2:
            return False
    return True


def _ref_free_zone(state, zone):
    """The free zone set as vertices: the undecided zone vertices that are
    not next to a member of a decided-IN component that meets the zone or
    holds a pinned vertex.  Components by flood fill over neighbors."""
    eng = state.eng
    pinned = {eng.verts[i] for a in state.anchors for i in a.members}
    left = {v for v in eng.verts if _ref_status(eng, v) == IN}
    blocked = set()
    while left:
        comp, todo = set(), [left.pop()]
        while todo:
            v = todo.pop()
            comp.add(v)
            for w in neighbors(v):
                if w in left:
                    left.remove(w)
                    todo.append(w)
        if comp & zone or comp & pinned:
            blocked.update(w for v in comp for w in neighbors(v))
    return frozenset(v for v in zone if _ref_status(eng, v) == UNKNOWN and v not in blocked)


@functools.lru_cache(maxsize=None)
def _ref_independence(verts):
    """The independence number of the grid graph on a vertex set, by an
    exact branching search: one connected part at a time; a vertex with at
    most one neighbor is always taken; a part whose degrees are all two is
    a cycle; otherwise a vertex of degree three is left out or taken."""
    if not verts:
        return 0
    part, todo = set(), [min(verts)]
    while todo:
        v = todo.pop()
        if v not in part:
            part.add(v)
            todo.extend(w for w in neighbors(v) if w in verts)
    rest = verts - part
    if rest:
        return _ref_independence(frozenset(part)) + _ref_independence(rest)
    degree = {v: sum(w in verts for w in neighbors(v)) for v in verts}
    low = min(verts, key=lambda v: (degree[v], v))
    if degree[low] <= 1:
        return 1 + _ref_independence(verts - {low, *neighbors(low)})
    if degree[low] == 2 and max(degree.values()) == 2:
        return len(verts) // 2
    high = max(verts, key=lambda v: (degree[v], v))
    return max(_ref_independence(verts - {high}),
               1 + _ref_independence(verts - {high, *neighbors(high)}))


# the limits _support is asked about: L3's hypothesis, L4 and L2
_LIMITS = (3, 7, 10)


def _check_masks_against_vertex_sets(state, seen):
    eng = state.eng
    comps = eng.components()
    zone, center_balls, cluster_balls, leaf_balls = _ref_vertex_sets(state)
    zone_mask = _ref_mask(eng.index[v] for v in zone if v in eng.index)
    # every zone and ball lies inside the universe
    assert zone_mask.bit_count() == len(zone)
    assert all(v in eng.index for b in cluster_balls for v in b)
    assert state.zone_mask == zone_mask
    # the packing floor is the independence number of the free zone set,
    # and never more than the undecided zone vertices
    floor = _ref_independence(_ref_free_zone(state, frozenset(zone)))
    assert state._floor(comps) == floor
    plain = (zone_mask & ~eng.dec).bit_count()
    assert floor <= plain
    seen["packed"] = seen.get("packed", 0) + (floor < plain)
    for limit in _LIMITS:
        # past the limit the value may stop early, but never above the bound
        got = state._floor(comps, limit)
        assert min(got, limit + 1) == min(floor, limit + 1) and got <= floor
    if isinstance(state, ll._L1State):
        return
    support = floor
    for c in comps:
        unqual = ll._cert_big(eng, c) or ll._cert_crowded(eng, c)
        if isinstance(state, ll._ThreatState):
            if len(c.members) == 1:
                got = ll._singleton_geom_unqual(eng, c.members[0], state.center_reach, state.balls)
                want = _ref_singleton_geom_unqual(eng, c.members[0], center_balls, cluster_balls)
            else:
                got = ll._comp_geom_unqual(eng, c, state.balls)
                want = _ref_comp_geom_unqual(eng, c.members, cluster_balls)
            assert got == want
            seen[(len(c.members), want)] = seen.get((len(c.members), want), 0) + 1
            unqual = unqual or ll._cert_unthreat(eng, c, comps) or want
        if not c.mask & state.anchor_mask and c.mask & zone_mask and not unqual:
            support += 1
    for limit in _LIMITS:
        assert min(state._support(comps, limit), limit + 1) == min(support, limit + 1)
    if isinstance(state, ll._ThreatState):
        assert state.balls == [_ref_mask(eng.index[v] for v in b) for b in cluster_balls]
    if isinstance(state, ll._L3State):
        home = next(c for c in comps if c.mask & state.anchor_mask)
        assert home is state.anchor
        assert state.refuted() == _ref_l3_refuted(eng, state.anchor_mask, leaf_balls, comps)


# the paired windows stop at their caps to keep the test near ten seconds;
# L1 reads only the zone and its floor, and L2 adds no position rule
@pytest.mark.parametrize("lemma_id,window,node_cap", [
    ("L1", {}, None),
    ("L2", {}, None),
    ("L3", {}, None),
    ("L4", {"template": "fig5"}, 1500),
    ("L4", {"template": "fig6"}, 1500),
    ("L3", {"radius": 2}, None),
    ("L3", {"radius": 3}, None),
    ("L4", {"radius": 2}, None),
    ("L4", {"radius": 3}, 1500),
], ids=["L1", "L2", "L3-fig4", "L4-fig5", "L4-fig6", "L3-r2", "L3-r3", "L4-r2", "L4-r3"])
def test_lemma_masks_match_vertex_set_rules(monkeypatch, lemma_id, window, node_cap):
    # every state the window search and the certify search visit
    prune = ll._LemmaState.prune
    certify = ll._certify
    seen = {}
    visited = [0]

    def checked(state):
        visited[0] += 1
        _check_masks_against_vertex_sets(state, seen)

    def checked_prune(state, eng):
        checked(state)
        return prune(state, eng)

    def checked_certify(state, *args, **kwargs):
        checked(state)
        return certify(state, *args, **kwargs)

    monkeypatch.setattr(ll._LemmaState, "prune", checked_prune)
    monkeypatch.setattr(ll, "_certify", checked_certify)
    check_lemma(lemma_id, node_cap=node_cap, **window)
    assert visited[0] > 0
    # the packing bound was below the plain count somewhere on the walk
    assert seen["packed"]
    if lemma_id in ("L3", "L4"):
        # the position rules were asked about singletons, pairs and 3-paths,
        # and each answered both ways
        assert all(seen.get((size, want)) for size in (1, 2, 3) for want in (True, False)), seen


@pytest.mark.parametrize("lemma_id,window", [
    ("L2", {"template": "fig3b"}),
    ("L3", {"template": "fig4"}),
    ("L4", {"template": "fig5"}),
    ("L3", {"radius": 3}),
    ("L4", {"radius": 3}),
], ids=["L2-fig3b", "L3-fig4", "L4-fig5", "L3-r3", "L4-r3"])
def test_lemma_masks_match_vertex_set_rules_on_arbitrary_states(lemma_id, window):
    # the rules read only the decided and IN masks, so they must agree on
    # any assignment that keeps the pins, feasible or not; such states
    # reach positions the search prunes before it gets there
    tpl = ll._resolve_template(lemma_id, window.get("radius"), window.get("template"))
    eng = ll._Engine(tpl.region(), tpl.constraints())
    state = ll._make_state(lemma_id, eng)
    pins = eng.pinned_in | eng.pinned_out
    rng = random.Random(lemma_id + str(window))
    seen = {}
    for _ in range(150):
        p_dec = rng.choice((0.3, 0.6, 0.9))
        dec, mem = pins, eng.pinned_in
        for i in range(eng.n):
            if not pins >> i & 1 and rng.random() < p_dec:
                dec |= 1 << i
                if rng.random() < 0.3:
                    mem |= 1 << i
        eng.dec, eng.mem = dec, mem
        _check_masks_against_vertex_sets(state, seen)
    if lemma_id in ("L3", "L4"):
        assert all(seen.get((size, want)) for size in (1, 2, 3) for want in (True, False)), seen


def _brute_independence(verts):
    """The largest independent subset of a vertex set, by trying its least
    vertex out and in, all the way down."""
    if not verts:
        return 0
    v = min(verts)
    rest = verts - {v}
    return max(_brute_independence(rest), 1 + _brute_independence(rest.difference(neighbors(v))))


def _free_only(state, free):
    """Put the state's engine where exactly the given unpinned zone
    vertices are undecided and only the pins are IN: the free set is then
    those vertices, since the pinned clusters' rims are pinned OUT."""
    eng = state.eng
    eng.mem = eng.pinned_in
    eng.dec = ((1 << eng.n) - 1) & ~_ref_mask(eng.index[v] for v in free)


def _random_zone_sets(state, count, seed):
    """Random sets of unpinned zone vertices, each drawn from a radius-4
    ball of the grid around one, so that many are adjacent."""
    eng = state.eng
    zone = {eng.verts[i] for i in hexgrid.set_bits(state.zone_mask & ~(eng.pinned_in | eng.pinned_out))}
    rng = random.Random(seed)
    for _ in range(count):
        around = hexgrid.ball(rng.choice(sorted(zone)), 4) & zone
        p = rng.choice((0.6, 0.8, 1.0))
        yield frozenset(v for v in around if rng.random() < p)


@pytest.mark.parametrize("lemma_id,template", [("L2", "fig3b"), ("L4", "fig5")])
def test_packing_floor_is_the_independence_number_on_random_sets(lemma_id, template):
    tpl = TEMPLATES[template]
    state = ll._make_state(lemma_id, ll._Engine(tpl.region(), tpl.constraints()))
    eng = state.eng
    matched = 0
    for free in _random_zone_sets(state, 200, lemma_id):
        _free_only(state, free)
        comps = eng.components()
        want = _brute_independence(free)
        assert state._floor(comps) == want == _ref_independence(free)
        for limit in _LIMITS:
            got = state._floor(comps, limit)
            assert min(got, limit + 1) == min(want, limit + 1) and got <= want
        matched += want < len(free)
    assert matched > 100


@pytest.mark.parametrize("lemma_id,template", [("L2", "fig3b"), ("L4", "fig5")])
def test_packing_matching_is_a_maximum_matching(lemma_id, template):
    # the pairs join a vertex of s = 0 to a neighbor of s = 1, inside the
    # set, no vertex twice; and no larger matching exists, since the
    # independence number is the set's size minus the matching's
    tpl = TEMPLATES[template]
    state = ll._make_state(lemma_id, ll._Engine(tpl.region(), tpl.constraints()))
    eng = state.eng
    for free in _random_zone_sets(state, 200, lemma_id + "m"):
        mask = _ref_mask(eng.index[v] for v in free)
        left = _ref_mask(eng.index[v] for v in free if v.s == 0)
        match = state._matching(left, mask & ~left)
        pairs = [(eng.verts[a], eng.verts[b]) for b, a in match.items()]
        assert all(a in free and b in free and a.s == 0 and b.s == 1 for a, b in pairs)
        assert all(b in neighbors(a) for a, b in pairs)
        assert len({a for a, _ in pairs}) == len(pairs)
        assert len(free) - len(match) == _brute_independence(free)


def test_packing_floor_counts_a_zone_vertex_next_to_an_outside_component():
    # a decided-IN vertex x just outside L2's zone, next to an undecided
    # zone vertex z, every other zone vertex OUT: setting z IN grows x's
    # cluster into the zone, where it is a candidate, so z stays free.
    # Removing the neighbors of every IN vertex, not only of components
    # that meet the zone, would drop z and undercount
    tpl = TEMPLATES["fig3b"]
    state = ll._make_state("L2", ll._Engine(tpl.region(), tpl.constraints()))
    eng = state.eng
    zone = {eng.verts[i] for i in hexgrid.set_bits(state.zone_mask)}
    near = {eng.verts[i] for i in hexgrid.set_bits(state.anchor.reach3)}
    z, x = next((z, x) for z in sorted(zone) for x in neighbors(z)
                if x in eng.index and x not in near)
    eng.dec = ((1 << eng.n) - 1) & ~(1 << eng.index[z])
    eng.mem = eng.pinned_in | 1 << eng.index[x]
    comps = eng.components()
    assert [c.members for c in comps if not c.mask & state.zone_mask
            and not c.mask & state.anchor_mask] == [(eng.index[x],)]
    assert _ref_free_zone(state, frozenset(zone)) == {z}
    assert state._floor(comps) == 1
    # the same vertex next to a zone-meeting component is not free
    eng.mem |= 1 << eng.index[next(w for w in neighbors(z) if w in zone)]
    assert state._floor(eng.components()) == 0


# ---------------------------------------------------------------------------
# the decided-only refutation path

# a window pinned so densely that the conclusion is refuted on decided
# vertices alone: a sealed 3-path plus seven sealed singletons that cover
# the window, with no second component reaching both leaves
_ANCHOR = (Vertex(0, 0, 1), Vertex(1, 0, 0), Vertex(1, 0, 1))
_SINGLES = (
    Vertex(-1, 0, 1),
    Vertex(-1, 1, 1),
    Vertex(0, -1, 1),
    Vertex(0, 1, 1),
    Vertex(1, 1, 1),
    Vertex(2, -1, 1),
    Vertex(2, 0, 1),
)


def _dense_window():
    region = sorted(hexgrid.ball(_ANCHOR[0], 3) | hexgrid.ball(_ANCHOR[2], 3))
    code = set(_ANCHOR) | set(_SINGLES)
    return Template(
        "dense", tuple((v, IN if v in code else OUT) for v in region)
    )


def test_refuted_fires_on_sealed_starved_leaf():
    tpl = _dense_window()
    eng = ll._Engine(tpl.region(), tpl.constraints())
    state = ll._make_state("L3", eng)
    seen = []

    def on_leaf(e):
        seen.append(state.refuted())
        # the same pattern crowds the pinned cluster, so the full checker
        # settles it by a false hypothesis before consulting refuted()
        assert state.hyp_false()

    eng.search(on_leaf)
    assert seen == [True]


def test_refuted_rejects_leaf_with_helper_cluster():
    tpl = TEMPLATES["fig4"]
    eng = ll._Engine(tpl.region(), tpl.constraints())
    state = ll._make_state("L3", eng)
    hits = []

    def on_leaf(e):
        if state.concl_certain() and not hits:
            hits.append(state.refuted())
            e.aborted = True

    eng.search(on_leaf)
    assert hits == [False]


def test_dense_window_settles_by_crowding():
    v = check_lemma("L3", template=_dense_window())
    assert v.result == VERIFIED


class _AlwaysRefuted(ll._LemmaState):
    def hyp_false(self):
        return False

    def concl_certain(self):
        return False

    def refuted(self):
        return True

    def influence(self):
        return 0

    def prune(self, eng):
        return False


def test_counterexample_verdict_plumbing(monkeypatch):
    # force the per-window evaluation to call every assignment refuting;
    # the checker must stop on the first leaf of its one search and
    # surface that window as an advisory counterexample
    tpl = TEMPLATES["fig3a"]
    first = next(ll.enumerate(tpl.region(), tpl.constraints()))
    monkeypatch.setattr(ll, "_make_state",
                        lambda lid, eng: _AlwaysRefuted(eng, eng.split(eng.pinned_in)))
    searches = []
    search = ll._Engine.search

    def counted(eng, *args, **kw):
        searches.append(eng)
        search(eng, *args, **kw)

    monkeypatch.setattr(ll._Engine, "search", counted)
    v = check_lemma("L1", template="fig3a")
    assert v.result == COUNTEREXAMPLE
    assert "advisory" in v.note
    assert v.counterexample == first
    assert v.configs_explored == 1
    m = v.counterexample.as_mapping()
    for vert, st in tpl.constraints().items():
        assert m[vert] == st
    assert len(searches) == 1
    # the verdict's JSON as taken when WindowConfig was a frozen dataclass
    blob = json.dumps(v.to_json()).encode()
    assert hashlib.sha256(blob).hexdigest() == "0088da991aee52acb36eb6d219e664140253d2fe71c337f1f6d9b86c1572ccca"


def test_partition_counterexample_verdict(monkeypatch):
    # a shape that needs too many parts comes back as a window of its
    # vertices, all IN
    monkeypatch.setattr(ll, "_shell_bound", lambda verts: (len(verts), 13 if len(verts) == 4 else 0))
    v = check_lemma("L5partition", radius=4)
    assert v.to_json() == {
        "lemmaId": "L5partition", "result": COUNTEREXAMPLE, "radius": 4, "template": None,
        "configsExplored": 25,
        "counterexample": {"window": [[0, 0, 0, IN], [0, 0, 1, IN], [1, 0, 0, IN], [1, 0, 1, IN]]},
        "note": "shape of size 4 needs more than size + 8 parts",
    }


# ---------------------------------------------------------------------------
# shell partition bounds


def _cluster(verts):
    shape = frozenset(verts)
    return Cluster(0, shape, shape, False)


def test_shell_bound_needs_finite_cluster():
    infinite = Cluster(0, frozenset([V0]), frozenset([V0]), True)
    with pytest.raises(UnsupportedKind):
        shell_partition_bound(None, infinite)


def test_shell_bound_single_vertex():
    size, parts = shell_partition_bound(None, _cluster([Vertex(0, 0, 0)]))
    assert size == 15
    assert parts == 9
    assert parts <= 1 + 8


def test_shell_bound_pinned_closed_cluster():
    triple = next(c for c in pinned_clusters(TEMPLATES["fig3b"]) if len(c) == 3)
    size, parts = shell_partition_bound(None, _cluster(triple))
    assert (size, parts) == (20, 11)


def test_shell_forced_singletons_for_pinned_cluster():
    shape = frozenset(next(c for c in pinned_clusters(TEMPLATES["fig3b"]) if len(c) == 3))
    forced = ll._forced_singletons(shape, shell(shape))
    assert forced == {Vertex(-1, 3, 0), Vertex(2, 3, 0)}


def test_shell_bound_straight_four_cluster():
    verts = [Vertex(0, 2, 0), Vertex(0, 2, 1), Vertex(1, 2, 0), Vertex(1, 2, 1)]
    size, parts = shell_partition_bound(None, _cluster(verts))
    assert size == 22
    assert parts <= 4 + 8


def _exact_min_parts(shape, shell, forced):
    """Exhaustive minimum cover by adjacent pairs and singletons."""
    order = sorted(shell)

    @functools.lru_cache(maxsize=None)
    def go(remaining):
        if not remaining:
            return 0
        rest = set(remaining)
        v = min(rest)
        rest.discard(v)
        best = 1 + go(frozenset(rest))
        if v not in forced:
            for w in neighbors(v):
                if w in rest and w not in forced:
                    best = min(best, 1 + go(frozenset(rest - {w})))
        return best

    return go(frozenset(order))


@pytest.mark.parametrize(
    "verts",
    [
        [(0, 0, 0)],
        [(0, 0, 1)],
        [(0, 1, 1), (1, 1, 0), (1, 1, 1)],
    ],
)
def test_shell_bound_matches_exact_cover(verts):
    shape = frozenset(Vertex(*t) for t in verts)
    around = shell(shape)
    forced = ll._forced_singletons(shape, around)
    size, parts = ll._shell_bound(shape)
    assert size == len(around)
    assert parts == _exact_min_parts(shape, around, forced)


def _ref_forced_singletons(verts, shell):
    """The forced shell vertices as first written: collect every length-3
    path to each cluster vertex and look for two with no inner vertex in
    common."""
    forced = set()
    for v in shell:
        paths_by_target = {}
        for a in neighbors(v):
            if a in verts:
                continue
            for b in neighbors(a):
                if b == v or b in verts:
                    continue
                for u in neighbors(b):
                    if u in verts:
                        paths_by_target.setdefault(u, []).append((a, b))
        for paths in paths_by_target.values():
            if any(not set(paths[x]) & set(paths[y])
                   for x in range(len(paths)) for y in range(x + 1, len(paths))):
                forced.add(v)
                break
    return frozenset(forced)


def test_forced_singletons_match_disjoint_path_search():
    shapes = ll._connected_shapes(8)
    assert len(shapes) == 1080
    for shape in shapes:
        around = shell(shape)
        assert ll._forced_singletons(shape, around) == _ref_forced_singletons(shape, around)


def test_partition_sweep_small_sizes():
    v = check_lemma("L5partition", radius=4)
    assert v.result == VERIFIED
    assert v.configs_explored > 0
