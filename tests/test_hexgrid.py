import itertools

import pytest
from hypothesis import example, given, strategies as st

from hexident.cluster import Classification
from hexident.code import PeriodicCode, clause_pattern
from hexident.hexgrid import (
    PeriodLattice,
    Vertex,
    all_lattices,
    ball,
    closed_neighborhood,
    layers,
    lattices_of_size,
    neighbors,
)

verts = st.builds(
    Vertex,
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(0, 1),
)


def test_adjacency_convention_is_fixed():
    assert neighbors(Vertex(0, 0, 0)) == (
        Vertex(0, 0, 1),
        Vertex(-1, 0, 1),
        Vertex(0, -1, 1),
    )
    assert neighbors(Vertex(0, 0, 1)) == (
        Vertex(0, 0, 0),
        Vertex(1, 0, 0),
        Vertex(0, 1, 0),
    )


@given(verts)
def test_adjacency_is_symmetric_and_3_regular(v):
    ns = neighbors(v)
    assert len(set(ns)) == 3
    for u in ns:
        assert v in neighbors(u)
        assert u.s != v.s  # bipartite by the s coordinate


@given(verts, st.integers(0, 5))
def test_sphere_sizes_are_3k(v, k):
    # the sphere of radius k, the last distance layer, has 3k vertices
    # for 1 <= k; balls are 1, 4, 10, 19, ...
    expect = 1 if k == 0 else 3 * k
    assert len(layers((v,), k)[-1]) == expect


def test_ball_sizes():
    v = Vertex(2, -1, 1)
    assert len(ball(v, 0)) == 1
    assert len(ball(v, 1)) == 4
    assert len(ball(v, 2)) == 10
    assert len(ball(v, 3)) == 19


def test_girth_is_six():
    # shortest cycle through (0,0,0): no cycle of length < 6, one of length 6
    v0 = Vertex(0, 0, 0)
    cycle = [
        Vertex(0, 0, 0),
        Vertex(0, 0, 1),
        Vertex(1, 0, 0),
        Vertex(1, -1, 1),
        Vertex(1, -1, 0),
        Vertex(0, -1, 1),
    ]
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        assert y in neighbors(x)
    # no two distinct neighbors of v0 share another common neighbor (girth > 4)
    for u, w in itertools.combinations(neighbors(v0), 2):
        assert set(neighbors(u)) & set(neighbors(w)) == {v0}


def faces_through(v):
    """The three hexagonal faces (6-cycles) containing v, the reference
    for clause_pattern's face positions.

    Face F(a, b) is the 6-cycle
        (a,b,0) (a,b,1) (a+1,b,0) (a+1,b-1,1) (a+1,b-1,0) (a,b-1,1).
    Since the grid has girth 6, these faces are exactly its 6-cycles.
    """
    a, b, s = v
    if s == 0:
        cells = ((a, b), (a - 1, b), (a - 1, b + 1))
    else:
        cells = ((a, b), (a, b + 1), (a - 1, b + 1))
    return tuple(_face(ca, cb) for ca, cb in cells)


def _face(a, b):
    return frozenset(
        (
            Vertex(a, b, 0),
            Vertex(a, b, 1),
            Vertex(a + 1, b, 0),
            Vertex(a + 1, b - 1, 1),
            Vertex(a + 1, b - 1, 0),
            Vertex(a, b - 1, 1),
        )
    )


@given(verts)
def test_faces_are_6_cycles_containing_v(v):
    fs = faces_through(v)
    assert len(fs) == 3
    assert len(set(fs)) == 3
    for f in fs:
        assert v in f
        assert len(f) == 6
        for u in f:
            assert len(set(neighbors(u)) & f) == 2  # cycle


@given(verts)
def test_adjacent_vertices_share_two_faces(v):
    for u in neighbors(v):
        assert len([f for f in faces_through(v) if u in f]) == 2
        assert len([f for f in faces_through(u) if v in f]) == 2


@pytest.mark.parametrize("s", [0, 1])
def test_pattern_face_positions_are_the_faces_through_u(s):
    pattern = clause_pattern(s)
    u = pattern.ball[0]
    on_face = set().union(*faces_through(u))
    assert pattern.face == tuple(t for t, w in enumerate(pattern.ball) if w in on_face)
    # no vertex beyond the pattern's ball shares a face with u
    assert not (ball(u, 5) - set(pattern.ball)) & on_face


def test_canonical_examples():
    lat = PeriodLattice(p=7, q=1, shear=3)
    assert lat.canonical(Vertex(0, 1, 1)) == Vertex(4, 0, 1)
    lat2 = PeriodLattice(p=2, q=3)
    assert lat2.canonical(Vertex(-1, -1, 0)) == Vertex(1, 2, 0)
    assert lat2.canonical(Vertex(0, 0, 1)) == Vertex(0, 0, 1)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 5), verts, st.integers(-3, 3), st.integers(-3, 3))
def test_canonical_translation_invariant(p, q, shear, v, k1, k2):
    if shear >= p:
        shear %= p
    lat = PeriodLattice(p, q, shear)
    c = lat.canonical(v)
    assert lat.canonical(c) == c
    assert 0 <= c.a < p and 0 <= c.b < q
    # v shifted by k1*(p, 0) + k2*(shear, q) in cell space
    assert lat.canonical(Vertex(v.a + k1 * p + k2 * shear, v.b + k2 * q, v.s)) == c


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 4))
def test_index_bijective_on_domain(p, q, shear):
    lat = PeriodLattice(p, q, shear % p)
    idx = [lat.index(v) for v in lat.domain()]
    assert sorted(idx) == list(range(lat.domain_size))
    for v in lat.domain():
        assert lat.vertex_at(lat.index(v)) == v


def test_table_rows_match_canonical_neighbors():
    lattices = list(all_lattices(48))
    assert len(lattices) == 491
    for lat in lattices:
        assert len(lat.table) == lat.domain_size
        for i, row in enumerate(lat.table):
            want = []
            for w in neighbors(lat.vertex_at(i)):
                c = lat.canonical(w)
                want.append((lat.index(c), w.a - c.a, w.b - c.b))
            assert list(row) == want, (lat, i)


def test_lattice_validation():
    with pytest.raises(ValueError):
        PeriodLattice(0, 1)
    with pytest.raises(ValueError):
        PeriodLattice(2, 1, shear=2)


def test_all_lattices_counts():
    # sum over pq <= 6 of (number of shears) = sum of p over all (p, q) pairs
    lats = list(all_lattices(12))
    assert len(lats) == sum(p for p in range(1, 7) for q in range(1, 7) if p * q <= 6)
    assert len(set(lats)) == len(lats)
    doms = [l.domain_size for l in lats]
    assert doms == sorted(doms)
    assert all(l.domain_size <= 12 for l in lats)


def _double_loop_lattices(max_domain, p_max=None):
    # the original enumeration: every (p, q) pair up to max_domain/2, sorted
    sizes = sorted(
        {(p * q, p, q) for p in range(1, max_domain // 2 + 1) for q in range(1, max_domain // 2 + 1) if 2 * p * q <= max_domain}
    )
    for _, p, q in sizes:
        if p_max is not None and p > p_max:
            continue
        for shear in range(p):
            yield PeriodLattice(p, q, shear)


def test_all_lattices_matches_double_loop():
    for n in range(65):
        assert list(all_lattices(n)) == list(_double_loop_lattices(n))
    for p_max in (1, 3, 7):
        assert list(all_lattices(40, p_max)) == list(_double_loop_lattices(40, p_max))


def test_lattices_of_size_partitions_all_lattices():
    lats = list(all_lattices(48, p_max=5))
    assert [lat for size in range(49) for lat in lattices_of_size(size, 5)] == lats
    assert list(lattices_of_size(7)) == []


def test_all_lattices_is_lazy_for_huge_domains():
    first = next(l for l in all_lattices(10**9) if l.domain_size > 32)
    assert first == PeriodLattice(1, 17)
    assert next(lattices_of_size(10**9)) == PeriodLattice(1, 5 * 10**8)


def _reference_layers(sources, radius):
    # plain breadth-first distances, kept apart from the kernel under test
    dist = {v: 0 for v in sources}
    frontier = list(dist)
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return [{v for v, d in dist.items() if d == k} for k in range(radius + 1)]


@given(st.lists(verts, min_size=1, max_size=4), st.integers(0, 4))
def test_layers_match_reference_bfs(sources, radius):
    got = layers(sources, radius)
    assert [set(layer) for layer in got] == _reference_layers(sources, radius)
    assert sum(len(layer) for layer in got) == len(set().union(*got))


lattices = st.builds(
    lambda p, q, k: PeriodLattice(p, q, k % p), st.integers(1, 5), st.integers(1, 5), st.integers(0, 4)
)


@given(lattices, verts)
@example(PeriodLattice(1, 1), Vertex(0, 0, 0))
@example(PeriodLattice(5, 3, 4), Vertex(-7, 11, 1))
def test_pattern_ball_walks_the_table_as_the_grid(lat, v):
    # a node (j, a, b) is vertex_at(j) shifted by (a, b); small periods put
    # one orbit at several distinct positions of the ball
    def node(w):
        c = lat.vertex_at(lat.index(w))
        return (lat.index(w), w.a - c.a, w.b - c.b)

    pattern = clause_pattern(v.s)
    rings = Classification(PeriodicCode(lat, frozenset()))._ball(node(v))
    assert [n for ring in rings for n in ring] == [node(Vertex(v.a + w.a, v.b + w.b, w.s)) for w in pattern.ball]
    assert [len(ring) for ring in rings] == [hi - lo for lo, hi in zip((0,) + pattern.ends, pattern.ends)]
    assert [set(ring) for ring in rings] == [{node(w) for w in layer} for layer in layers((v,), 3)]
