"""Periodic vertex sets and the identifying-code verifier.

A PeriodicCode is a lattice-periodic subset D of the infinite grid,
stored as one mask over the orbit indices of a fundamental domain; its
canonical members are read off the mask when asked for.  Text parses
refuse a period above CODE_FILE_CAP at its line.  All predicates
are evaluated on the infinite grid: a vertex is looked up by its orbit,
and the clauses below are walked out on infinite vertices before they
are read as orbits.  Nothing here quotients the grid to a torus, so
tiny periods behave correctly (orbit-mates at distance <= 2 are
genuinely distinct vertices and must carry distinct identifiers).

The verifier compiles, once per lattice, a list of positive clauses
over orbit classes:

  * for each domain class u: some class of N[u] is in D
    (nonempty identifier), and
  * for each unordered pair {u, v} at distance <= 2 (v ranging over
    the infinite ball around a domain representative, deduplicated up
    to translation): some class of N[u] symmetric-difference N[v],
    computed on infinite vertex sets, is in D.

Vertices at distance >= 3 have disjoint closed neighborhoods, so once
identifiers are nonempty those pairs are automatically distinguished;
the clause list is therefore complete.  The same clauses drive the
minimum-code search.

The clauses of one domain vertex are a fixed pattern on the infinite
grid, the same for every vertex of a sublattice up to translation.
clause_pattern works the two patterns out once, as positions in the
radius-3 ball around (0, 0, s) reached by walking neighbor slots; the
compile and the cluster labels translate them to a vertex by the same
walk through the lattice's neighbour table.  Each clause keeps its
orbits as a short sorted tuple, so a clause list costs memory in
proportion to its length, not to the square of the domain.  The window
engine of lemma_lab builds its distance masks and clauses from it too.
The pattern also marks the ball positions on a hexagonal face through
u, which rule 4's face test reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from hexident.hexgrid import PeriodLattice, Vertex, bitmask, closed_neighborhood, layers, neighbors

EMPTY_IDENTIFIER = "EmptyIdentifier"
INDISTINGUISHABLE_PAIR = "IndistinguishablePair"

# largest domain (2pq) a code file may declare: the mask, the clause
# compile and the domain loops grow with it, so every parse refuses a
# bigger period at its period line, before any row is read
CODE_FILE_CAP = 20000


def _refuse_over_cap(lattice: PeriodLattice) -> None:
    """Raise ValueError for a period that no code file may declare."""
    if lattice.domain_size > CODE_FILE_CAP:
        raise ValueError(f"domain size {lattice.domain_size} exceeds cap {CODE_FILE_CAP}")


@dataclass(frozen=True, slots=True)
class Constraint:
    """Positive clause: at least one of its orbits belongs to the code."""

    orbits: tuple[int, ...]  # ascending, distinct
    kind: str
    u: Vertex
    v: Vertex | None

    @property
    def mask(self) -> int:
        """The orbits as a bitmask over orbit indices, built on each call so
        a clause stores only its orbits.  optimize reads it once per clause
        for its mask searches, and perfbench's tracer for clause sizes."""
        return bitmask(self.orbits)


@dataclass(frozen=True)
class Violation:
    kind: str
    vertices: tuple[Vertex, ...]

    def __str__(self):
        vs = " ".join(f"({v.a},{v.b},{v.s})" for v in self.vertices)
        return f"{self.kind} {vs}"


class ClausePattern(NamedTuple):
    """The clause geometry of the vertex u = (0, 0, s), on infinite vertices."""

    ball: tuple[Vertex, ...]  # the radius-3 ball around u, breadth-first, u first
    ends: tuple[int, ...]  # ends[r]: how many positions lie within distance r
    walk: tuple[tuple[int, int], ...]  # per position t >= 1, (parent, slot)
    partners: tuple[tuple[int, Vertex, bool, tuple[int, ...]], ...]
    # the positions on a hexagonal face through u, ascending: the ball
    # within distance 2 and the 3 distance-3 positions opposite u
    face: tuple[int, ...]


@functools.cache
def clause_pattern(s: int) -> ClausePattern:
    """The clauses of u = (0, 0, s), for the compile and the window engine.

    The radius-3 ball around u is numbered in breadth-first order, u first
    and its neighbors next; walk[t - 1] is (parent, slot): position t is
    neighbors() entry slot of position parent.  partners lists, for each v
    within distance 2 of u in sorted order, (position of v, v, mirrored,
    positions of N[u] ^ N[v]), where mirrored says v is greater than its
    mirror through u, the same pair translated by u - v.
    identifying_constraints walks the pattern through a lattice's
    neighbour table; lemma_lab's window engine translates it by offsets.
    """
    u = Vertex(0, 0, s)
    pos = {u: 0}
    walk = []
    ends = [1]
    for layer in layers((u,), 2):
        for w in layer:
            for slot, x in enumerate(neighbors(w)):
                if x not in pos:
                    pos[x] = len(pos)
                    walk.append((pos[w], slot))
        # a layer's new neighbours are exactly the next layer
        ends.append(len(pos))
    ball = tuple(pos)
    nu = set(closed_neighborhood(u))
    partners = []
    for v in sorted(ball[1:ends[2]]):
        diff = nu ^ set(closed_neighborhood(v))
        # girth 6 leaves no twin vertices, so the difference is nonempty
        assert diff, "closed neighborhoods of distinct vertices differ"
        mirrored = v > Vertex(-v.a, -v.b, v.s)
        partners.append((pos[v], v, mirrored, tuple(sorted(pos[w] for w in diff))))
    # two shortest paths from u to a distance-3 vertex close a 6-cycle, which
    # at girth 6 is a face; and every vertex within distance 2 is on a face
    ring2 = set(ball[ends[1]:ends[2]])
    face = tuple(t for t, w in enumerate(ball) if t < ends[2] or len(ring2.intersection(neighbors(w))) == 2)
    return ClausePattern(ball, tuple(ends), tuple(walk), tuple(partners), face)


@functools.lru_cache(maxsize=256)
def identifying_constraints(lattice: PeriodLattice) -> tuple[Constraint, ...]:
    """The complete clause list for codes on this lattice.

    Identifier clauses first, then pair clauses, each in domain order;
    the pairs of one vertex u in sorted order of v.  Cached per lattice,
    for up to 256 lattices.
    """
    table = lattice.table
    empties, pairs = [], []
    for i, u in enumerate(lattice.domain()):
        _, _, walk, partners, _ = clause_pattern(u.s)
        at = [i]
        for parent, slot in walk:
            at.append(table[at[parent]][slot][0])
        empties.append(Constraint(tuple(sorted(set(at[:4]))), EMPTY_IDENTIFIER, u, None))
        for t, v, mirrored, diff in partners:
            # each pair once up to translation: at the end of lesser orbit
            # index, and within one orbit at the lesser of v and its mirror
            j = at[t]
            if j < i or (j == i and mirrored):
                continue
            orbits = tuple(sorted({at[x] for x in diff}))
            pairs.append(Constraint(orbits, INDISTINGUISHABLE_PAIR, u, Vertex(u.a + v.a, u.b + v.b, v.s)))
    return tuple(empties + pairs)


@dataclass(frozen=True, init=False)
class PeriodicCode:
    """Lattice-periodic vertex set, stored as its orbit mask.

    Bit i of `bits` says whether the orbit of lattice.vertices[i] is in
    the code.  PeriodicCode(lattice, members) sets the bit of each
    member's orbit, so a member may be any translate of its domain
    vertex; from_bits takes a mask.  Equality and hashing
    read (lattice, bits).  Everything else a code holds is a cache of
    what it derived from the mask: the orbit indices, the canonical
    members (built only when read, by to_text for one) and the
    violations.
    """

    lattice: PeriodLattice
    bits: int

    def __init__(self, lattice: PeriodLattice, members: Iterable[Vertex]):
        vars(self).update(lattice=lattice, bits=bitmask(map(lattice.index, members)))

    @classmethod
    def from_bits(cls, lattice: PeriodLattice, bits: int) -> "PeriodicCode":
        """The code of a mask; bits at or above the domain size are ignored."""
        code = object.__new__(cls)
        vars(code).update(lattice=lattice, bits=bits & ((1 << lattice.domain_size) - 1))
        return code

    @functools.cached_property
    def _orbits(self) -> frozenset[int]:
        # one pass over the binary digits, lowest first
        return frozenset(i for i, digit in enumerate(bin(self.bits)[:1:-1]) if digit == "1")

    def orbits(self) -> frozenset[int]:
        """The orbit indices of the members, built on the first call and
        shared by every later one."""
        return self._orbits

    @functools.cached_property
    def members(self) -> frozenset[Vertex]:
        """The canonical members, built on first use from the lattice's own
        domain vertices, so all the codes on one lattice share one set of
        Vertex objects."""
        return frozenset(map(self.lattice.vertices.__getitem__, self.orbits()))

    def contains(self, v: Vertex) -> bool:
        return self.lattice.index(v) in self.orbits()

    def identifier(self, v: Vertex) -> frozenset[Vertex]:
        """N[v] intersected with the code, as infinite-grid vertices."""
        return frozenset(w for w in closed_neighborhood(v) if self.contains(w))

    def density(self) -> Fraction:
        return Fraction(self.size(), self.lattice.domain_size)

    def size(self) -> int:
        return self.bits.bit_count()

    def verify(self) -> list[Violation]:
        """All violations of the identifying-code property, or [] if valid.

        Reported pairs are translation-canonical and the list order is
        deterministic.  The clauses are tested on the first call only;
        every call returns a new list.
        """
        return list(self._violations)

    @functools.cached_property
    def _violations(self) -> tuple[Violation, ...]:
        inside = self.orbits()
        out = []
        for c in identifying_constraints(self.lattice):
            if not inside.isdisjoint(c.orbits):
                continue
            if c.kind == EMPTY_IDENTIFIER:
                out.append(Violation(c.kind, (c.u,)))
            else:
                out.append(Violation(c.kind, (c.u, c.v)))
        out.sort(key=lambda x: (x.kind, x.vertices))
        return tuple(out)

    def is_identifying(self) -> bool:
        return not self.verify()

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"period {self.lattice.p} {self.lattice.q} {self.lattice.shear}"]
        for v in sorted(self.members):
            lines.append(f"{v.a} {v.b} {v.s}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PeriodicCode":
        return cls._read((text,))

    @classmethod
    def _read(cls, chunks: Iterable[str]) -> "PeriodicCode":
        """The code of a 'period p q shear' line and one 'a b s' row per
        member, from text given as chunks of whole lines: an open file, or
        one string.  Blank lines and '#' comments are skipped.  A period
        whose domain exceeds CODE_FILE_CAP is refused at its line, before
        any row is read.  Each row goes into a set as its orbit index as
        soon as it is read, so repeated rows cost no memory, and the mask
        is built once at the end."""
        lattice = None
        orbits = set()
        for raw in (line for chunk in chunks for line in chunk.splitlines()):
            ln = raw.strip()
            if not ln or ln.startswith("#"):
                continue
            parts = ln.split()
            if lattice is None:
                if len(parts) != 4 or parts[0] != "period":
                    raise ValueError("first line must be 'period p q shear'")
                try:
                    p, q, shear = map(int, parts[1:])
                    lattice = PeriodLattice(p, q, shear)
                except ValueError as e:
                    raise ValueError(f"bad period line: {e}") from None
                _refuse_over_cap(lattice)
                continue
            if len(parts) != 3:
                raise ValueError(f"bad vertex row: {ln!r}")
            try:
                a, b, s = map(int, parts)
            except ValueError:
                raise ValueError(f"bad vertex row: {ln!r}") from None
            if s not in (0, 1):
                raise ValueError(f"vertex sublattice must be 0 or 1: {ln!r}")
            orbits.add(lattice.index(Vertex(a, b, s)))
        if lattice is None:
            raise ValueError("empty code file")
        return cls.from_bits(lattice, bitmask(orbits))

    def save(self, path) -> None:
        """Write the code file that load reads back.  A period that load
        would refuse is refused here, before the file is opened."""
        _refuse_over_cap(self.lattice)
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "PeriodicCode":
        with open(path) as fh:
            return cls._read(fh)


def full_code(lattice: PeriodLattice) -> PeriodicCode:
    """D = V; always identifying (closed neighborhoods are distinct)."""
    return PeriodicCode.from_bits(lattice, (1 << lattice.domain_size) - 1)


def tile(code: PeriodicCode, m1: int, m2: int) -> PeriodicCode:
    """The same infinite set presented on an (m1, m2)-fold larger domain."""
    if m1 < 1 or m2 < 1:
        raise ValueError("tile factors must be positive")
    old, inside = code.lattice, code.orbits()
    big = PeriodLattice(old.p * m1, old.q * m2, (old.shear * m2) % (old.p * m1))
    return PeriodicCode.from_bits(big, bitmask(i for i, v in enumerate(big.vertices) if old.index(v) in inside))


def thin_code(code: PeriodicCode, removals: Iterable[Vertex]) -> PeriodicCode:
    removed = bitmask(map(code.lattice.index, removals))
    return PeriodicCode.from_bits(code.lattice, code.bits & ~removed)
