"""Infinite hexagonal grid model and periodic translation lattices.

Vertices are triples (a, b, s): (a, b) indexes a two-vertex cell and
s in {0, 1} picks the vertex inside the cell.  Adjacency:

    (a, b, 0) ~ (a, b, 1), (a-1, b, 1), (a, b-1, 1)
    (a, b, 1) ~ (a, b, 0), (a+1, b, 0), (a, b+1, 0)

which yields the 3-regular bipartite honeycomb with girth 6.  All
distances are graph distances, and one kernel computes them: layers()
runs a multi-source breadth-first search and returns the distance
layers around a vertex set, up to an optional radius or until a stop
predicate first holds.  ball, distance and set_distance are thin calls
to it, and so is code.clause_pattern, whose radius-3 ball gives the
window engine its distance masks and the cluster labels their
neighbourhoods.  The scales in this package (radius <= 10) make that
exact and cheap.

A PeriodLattice describes the translation group generated by (p, 0)
and (shear, q) acting on cells.  Its fundamental domain holds the
2*p*q vertices with 0 <= a < p, 0 <= b < q, numbered by index(); the
orbit of a vertex is the domain vertex it translates onto.  Every vertex
of the infinite grid is then one pair (orbit index, cell offset): the
domain vertex of that index shifted by the offset.  The lattice's table,
compiled once on first use, lists the three neighbours of each orbit in
that form, so code that walks the grid of a periodic set follows integer
lookups instead of canonicalising every vertex it meets: the clause
compile and the cluster labels walk clause_pattern's steps through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple


def set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Vertex(NamedTuple):
    a: int
    b: int
    s: int


_new = tuple.__new__


def neighbors(v: Vertex) -> tuple[Vertex, ...]:
    """The three neighbors of v, in a fixed deterministic order."""
    a, b, s = v
    # tuple.__new__ skips the Python-level Vertex.__new__: this is the
    # innermost call of every breadth-first search
    if s == 0:
        return (_new(Vertex, (a, b, 1)), _new(Vertex, (a - 1, b, 1)), _new(Vertex, (a, b - 1, 1)))
    return (_new(Vertex, (a, b, 0)), _new(Vertex, (a + 1, b, 0)), _new(Vertex, (a, b + 1, 0)))


def closed_neighborhood(v: Vertex) -> tuple[Vertex, ...]:
    return (v,) + neighbors(v)


def layers(
    sources: Iterable[Vertex],
    radius: int | None = None,
    stop: Callable[[Vertex], bool] | None = None,
) -> list[list[Vertex]]:
    """Distance layers around a vertex set, by multi-source breadth-first search.

    out[d] lists the vertices at distance exactly d from the sources, in
    discovery order; out[0] holds the distinct sources.  The search ends
    after layer radius when one is given.  With stop, it also ends at the
    first vertex w outside the sources with stop(w) true: the last layer
    is cut right after w, so len(out) - 1 is the distance to w.  Without
    a radius, stop must hit somewhere, since the grid is infinite.
    """
    seen = set(sources)
    frontier = list(seen)
    out = [frontier]
    while frontier and (radius is None or len(out) <= radius):
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if stop is not None and stop(w):
                        out.append(nxt)
                        return out
        out.append(nxt)
        frontier = nxt
    return out


def ball(v: Vertex, radius: int) -> set[Vertex]:
    """All vertices at distance <= radius from v."""
    return set().union(*layers((v,), radius))


def _hit_distance(src: Iterable[Vertex], hit: Callable[[Vertex], bool], cap: int | None) -> int:
    # src must hold no hit: the last vertex found is then a hit exactly
    # when the search stopped on one rather than at the cap
    out = layers(src, cap, hit)
    return len(out) - 1 if hit(out[-1][-1]) else cap + 1


def distance(u: Vertex, v: Vertex, cap: int | None = None) -> int:
    """Graph distance between u and v.

    With cap set, returns cap + 1 as soon as the distance is known to
    exceed cap (the search stops instead of flooding outward).
    """
    if u == v:
        return 0
    return _hit_distance((u,), v.__eq__, cap)


def set_distance(src: Iterable[Vertex], dst: Iterable[Vertex], cap: int | None = None) -> int:
    """Minimum distance between two nonempty vertex sets."""
    dst = set(dst)
    src = set(src)
    if src & dst:
        return 0
    return _hit_distance(src, dst.__contains__, cap)


def faces_through(v: Vertex) -> tuple[frozenset[Vertex], ...]:
    """The three hexagonal faces (6-cycles) containing v.

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


def _face(a: int, b: int) -> frozenset[Vertex]:
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


def share_face(u: Vertex, v: Vertex) -> bool:
    """True when u and v lie on a common hexagonal face."""
    return any(v in f for f in faces_through(u))


# ---------------------------------------------------------------------------
# periodic lattices


@dataclass(frozen=True)
class PeriodLattice:
    """Translations generated by (p, 0) and (shear, q) in cell space.

    Constraint: p >= 1, q >= 1, 0 <= shear < p, so every lattice
    appears exactly once and the fundamental domain has 2*p*q vertices.
    """

    p: int
    q: int
    shear: int = 0

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("period must be positive")
        if not 0 <= self.shear < self.p:
            raise ValueError("shear must satisfy 0 <= shear < p")

    @property
    def domain_size(self) -> int:
        return 2 * self.p * self.q

    def canonical(self, v: Vertex) -> Vertex:
        """Orbit representative of v with 0 <= a < p and 0 <= b < q."""
        a, b, s = v
        k = b // self.q
        b -= k * self.q
        a = (a - k * self.shear) % self.p
        return Vertex(a, b, s)

    def index(self, v: Vertex) -> int:
        """Dense index of v's orbit in [0, 2*p*q)."""
        a, b, s = self.canonical(v)
        return (a * self.q + b) * 2 + s

    def vertex_at(self, index: int) -> Vertex:
        cell, s = divmod(index, 2)
        a, b = divmod(cell, self.q)
        return Vertex(a, b, s)

    def domain(self) -> Iterator[Vertex]:
        for a in range(self.p):
            for b in range(self.q):
                yield Vertex(a, b, 0)
                yield Vertex(a, b, 1)

    @cached_property
    def table(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """The neighbours of every orbit, built on first use.

        table[i] holds one (j, da, db) per neighbour w of vertex_at(i), in
        neighbors() order: j is w's orbit index and (da, db) the cell
        offset of w from vertex_at(j).  All three entries are kept when
        two neighbours share an orbit.  Translating, the vertex of orbit i
        at offset (a, b) has its neighbours at (j, a + da, b + db).
        """
        p, q, shear = self.p, self.q, self.shear

        def entry(a: int, b: int, s: int) -> tuple[int, int, int]:
            # canonical() inline, for one step outside the domain
            k = b // q
            ca = (a - k * shear) % p
            return ((ca * q + b - k * q) * 2 + s, a - ca, k * q)

        rows = []
        for a in range(p):
            for b in range(q):
                # neighbors() of (a, b, 0) and (a, b, 1), in its order
                rows.append((entry(a, b, 1), entry(a - 1, b, 1), entry(a, b - 1, 1)))
                rows.append((entry(a, b, 0), entry(a + 1, b, 0), entry(a, b + 1, 0)))
        return tuple(rows)

    def translate(self, v: Vertex, k1: int, k2: int) -> Vertex:
        """v shifted by k1*(p, 0) + k2*(shear, q) in cell space."""
        a, b, s = v
        return Vertex(a + k1 * self.p + k2 * self.shear, b + k2 * self.q, s)


def lattices_of_size(size: int, p_max: int | None = None) -> Iterator[PeriodLattice]:
    """Every PeriodLattice with 2*p*q == size, ordered by p, then shear."""
    if size % 2:
        return
    m = size // 2
    for p in range(1, (m if p_max is None else min(m, p_max)) + 1):
        if m % p == 0:
            for shear in range(p):
                yield PeriodLattice(p, m // p, shear)


def all_lattices(max_domain: int, p_max: int | None = None) -> Iterator[PeriodLattice]:
    """Every PeriodLattice with 2*p*q <= max_domain, all shears.

    Ordered by domain size, then p, then shear, so scans are stable.
    Lazy by size: a consumer that stops early never enumerates the larger
    domains.
    """
    for size in range(2, max_domain + 1, 2):
        yield from lattices_of_size(size, p_max)
