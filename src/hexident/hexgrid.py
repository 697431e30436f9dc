"""Infinite hexagonal grid model and periodic translation lattices.

Vertices are triples (a, b, s): (a, b) indexes a two-vertex cell and
s in {0, 1} picks the vertex inside the cell.  Adjacency:

    (a, b, 0) ~ (a, b, 1), (a-1, b, 1), (a, b-1, 1)
    (a, b, 1) ~ (a, b, 0), (a+1, b, 0), (a, b+1, 0)

which yields the 3-regular bipartite honeycomb with girth 6.  All
distances are graph distances computed by breadth-first search; the
scales in this package (radius <= 10) make that exact and cheap.

A PeriodLattice describes the translation group generated by (p, 0)
and (shear, q) acting on cells.  Its fundamental domain holds the
2*p*q vertices with 0 <= a < p, 0 <= b < q.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


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


def neighbors(v: Vertex) -> tuple[Vertex, ...]:
    """The three neighbors of v, in a fixed deterministic order."""
    a, b, s = v
    if s == 0:
        return (Vertex(a, b, 1), Vertex(a - 1, b, 1), Vertex(a, b - 1, 1))
    return (Vertex(a, b, 0), Vertex(a + 1, b, 0), Vertex(a, b + 1, 0))


def closed_neighborhood(v: Vertex) -> tuple[Vertex, ...]:
    return (v,) + neighbors(v)


def ball(v: Vertex, radius: int) -> set[Vertex]:
    """All vertices at distance <= radius from v."""
    seen = {v}
    frontier = [v]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def sphere(v: Vertex, radius: int) -> set[Vertex]:
    """All vertices at distance exactly radius from v."""
    if radius == 0:
        return {v}
    seen = {v}
    frontier = [v]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return set(frontier)


def distance(u: Vertex, v: Vertex, cap: int | None = None) -> int:
    """Graph distance between u and v by BFS.

    With cap set, returns cap + 1 as soon as the distance is known to
    exceed cap (the search stops instead of flooding outward).
    """
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    d = 0
    while frontier:
        d += 1
        if cap is not None and d > cap:
            return cap + 1
        nxt = []
        for x in frontier:
            for w in neighbors(x):
                if w == v:
                    return d
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    raise AssertionError("hex grid is connected")


def set_distance(src: Iterable[Vertex], dst: Iterable[Vertex], cap: int | None = None) -> int:
    """Minimum distance between two nonempty vertex sets."""
    dst = set(dst)
    src = set(src)
    if src & dst:
        return 0
    seen = set(src)
    frontier = list(src)
    d = 0
    while frontier:
        d += 1
        if cap is not None and d > cap:
            return cap + 1
        nxt = []
        for x in frontier:
            for w in neighbors(x):
                if w in dst:
                    return d
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    raise AssertionError("hex grid is connected")


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

    def translate(self, v: Vertex, k1: int, k2: int) -> Vertex:
        """v shifted by k1*(p, 0) + k2*(shear, q) in cell space."""
        a, b, s = v
        return Vertex(a + k1 * self.p + k2 * self.shear, b + k2 * self.q, s)

    def translations(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.p, 0), (self.shear, self.q))


def all_lattices(max_domain: int, p_max: int | None = None) -> Iterator[PeriodLattice]:
    """Every PeriodLattice with 2*p*q <= max_domain, all shears.

    Ordered by domain size, then p, then shear, so scans are stable.
    """
    sizes = sorted(
        {(p * q, p, q) for p in range(1, max_domain // 2 + 1) for q in range(1, max_domain // 2 + 1) if 2 * p * q <= max_domain}
    )
    for _, p, q in sizes:
        if p_max is not None and p > p_max:
            continue
        for shear in range(p):
            yield PeriodLattice(p, q, shear)
