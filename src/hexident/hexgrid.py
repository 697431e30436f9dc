"""Infinite hexagonal grid model and periodic translation lattices.

Vertices are triples (a, b, s): (a, b) indexes a two-vertex cell and
s in {0, 1} picks the vertex inside the cell.  Adjacency:

    (a, b, 0) ~ (a, b, 1), (a-1, b, 1), (a, b-1, 1)
    (a, b, 1) ~ (a, b, 0), (a+1, b, 0), (a, b+1, 0)

which yields the 3-regular bipartite honeycomb with girth 6.  All
distances are graph distances, and one kernel computes them: layers()
runs a multi-source breadth-first search and returns the distance
layers around a vertex set up to a radius.  ball is a thin call to it,
and so is code.clause_pattern, whose radius-3 ball gives the window
engine its distance masks and the cluster labels their neighbourhoods
and faces.  The scales in this package (radius <= 10) make that exact
and cheap.

A PeriodLattice describes the translation group generated by (p, 0)
and (shear, q) acting on cells.  Its fundamental domain holds the
2*p*q vertices with 0 <= a < p, 0 <= b < q, numbered by index(); the
orbit of a vertex is the domain vertex it translates onto.  Every vertex
of the infinite grid is then one pair (orbit index, cell offset): the
domain vertex of that index shifted by the offset.  index() defines
domain order and vertex_at() inverts it; vertices caches vertex_at() in
that order, domain() iterates it, and codes, cluster labels and ledgers
index it.  The lattice's table, compiled once on first use, lists the
three neighbours of each orbit in that form, so code that walks the grid
of a periodic set follows integer lookups instead of canonicalising
every vertex it meets: the clause compile and the cluster labels walk
clause_pattern's steps through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple


def set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bitmask(indices: Iterable[int]) -> int:
    """The mask with the given bits set: the inverse of set_bits."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


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


def layers(sources: Iterable[Vertex], radius: int) -> list[list[Vertex]]:
    """Distance layers around a vertex set, by multi-source breadth-first search.

    out[d] lists the vertices at distance exactly d from the sources, in
    discovery order, for d up to radius; out[0] holds the distinct sources.
    """
    seen = set(sources)
    out = [list(seen)]
    for _ in range(radius):
        nxt = []
        for u in out[-1]:
            for w in neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        out.append(nxt)
    return out


def ball(v: Vertex, radius: int) -> set[Vertex]:
    """All vertices at distance <= radius from v."""
    return set().union(*layers((v,), radius))


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
        """Dense index of v's orbit in [0, 2*p*q): domain order."""
        a, b, s = self.canonical(v)
        return (a * self.q + b) * 2 + s

    def vertex_at(self, index: int) -> Vertex:
        """The domain vertex of an orbit index: the inverse of index()."""
        cell, s = divmod(index, 2)
        a, b = divmod(cell, self.q)
        return Vertex(a, b, s)

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The domain vertices in index order, built on first use:
        vertices[i] is vertex_at(i), one shared object per orbit."""
        return tuple(map(self.vertex_at, range(self.domain_size)))

    def domain(self) -> Iterator[Vertex]:
        """The domain vertices in index order."""
        return iter(self.vertices)

    @cached_property
    def table(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """The neighbours of every orbit, built on first use.

        table[i] holds one (j, da, db) per neighbour w of vertices[i], in
        neighbors() order: j is w's orbit index and (da, db) the cell
        offset of w from vertices[j].  All three entries are kept when
        two neighbours share an orbit.  Translating, the vertex of orbit i
        at offset (a, b) has its neighbours at (j, a + da, b + db).
        """
        p, q, shear = self.p, self.q, self.shear

        def entry(a: int, b: int, s: int) -> tuple[int, int, int]:
            # canonical() inline, for one step outside the domain
            k = b // q
            ca = (a - k * shear) % p
            return ((ca * q + b - k * q) * 2 + s, a - ca, k * q)

        # neighbors() of each domain vertex, in its order
        return tuple(
            (entry(a, b, 0), entry(a + 1, b, 0), entry(a, b + 1, 0))
            if s
            else (entry(a, b, 1), entry(a - 1, b, 1), entry(a, b - 1, 1))
            for a, b, s in self.vertices
        )


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
