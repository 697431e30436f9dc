"""Periodic vertex sets and the identifying-code verifier.

A PeriodicCode is a lattice-periodic subset D of the infinite grid,
stored as the set of orbit representatives inside one fundamental
domain.  All predicates are evaluated on the infinite grid through
canonical() membership lookups; nothing here quotients the grid to a
torus, so tiny periods behave correctly (orbit-mates at distance <= 2
are genuinely distinct vertices and must carry distinct identifiers).

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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from hexident.hexgrid import PeriodLattice, Vertex, ball, closed_neighborhood

EMPTY_IDENTIFIER = "EmptyIdentifier"
INDISTINGUISHABLE_PAIR = "IndistinguishablePair"


@dataclass(frozen=True)
class Constraint:
    """Positive clause: at least one class in mask belongs to the code."""

    mask: int
    kind: str
    u: Vertex
    v: Vertex | None


@dataclass(frozen=True)
class Violation:
    kind: str
    vertices: tuple[Vertex, ...]

    def __str__(self):
        vs = " ".join(f"({v.a},{v.b},{v.s})" for v in self.vertices)
        return f"{self.kind} {vs}"


@functools.lru_cache(maxsize=None)
def identifying_constraints(lattice: PeriodLattice) -> tuple[Constraint, ...]:
    """The complete clause list for codes on this lattice."""
    out = []
    for u in lattice.domain():
        mask = 0
        for w in closed_neighborhood(u):
            mask |= 1 << lattice.index(w)
        out.append(Constraint(mask, EMPTY_IDENTIFIER, u, None))

    for i, u in enumerate(lattice.domain()):
        nu = set(closed_neighborhood(u))
        for v in sorted(ball(u, 2) - {u}):
            # each pair once up to translation: at the end of lesser orbit
            # index, and within one orbit at the lesser of v and its mirror
            # through u (the same pair, translated by u - v)
            j = lattice.index(v)
            if j < i or (j == i and v > Vertex(2 * u.a - v.a, 2 * u.b - v.b, v.s)):
                continue
            diff = nu ^ set(closed_neighborhood(v))
            # girth 6 leaves no twin vertices, so the difference is nonempty
            assert diff, "closed neighborhoods of distinct vertices differ"
            mask = 0
            for w in diff:
                mask |= 1 << lattice.index(w)
            out.append(Constraint(mask, INDISTINGUISHABLE_PAIR, u, v))
    return tuple(out)


@dataclass(frozen=True)
class PeriodicCode:
    """Lattice-periodic vertex set given by canonical members."""

    lattice: PeriodLattice
    members: frozenset[Vertex]

    def __post_init__(self):
        canon = frozenset(self.lattice.canonical(v) for v in self.members)
        object.__setattr__(self, "members", canon)
        bits = 0
        for v in canon:
            bits |= 1 << self.lattice.index(v)
        object.__setattr__(self, "_bits", bits)

    @property
    def bits(self) -> int:
        return self._bits

    @classmethod
    def from_bits(cls, lattice: PeriodLattice, bits: int) -> "PeriodicCode":
        members = frozenset(
            lattice.vertex_at(i) for i in range(lattice.domain_size) if bits >> i & 1
        )
        return cls(lattice, members)

    def contains(self, v: Vertex) -> bool:
        return self.lattice.canonical(v) in self.members

    def identifier(self, v: Vertex) -> frozenset[Vertex]:
        """N[v] intersected with the code, as infinite-grid vertices."""
        return frozenset(w for w in closed_neighborhood(v) if self.contains(w))

    def density(self) -> Fraction:
        return Fraction(len(self.members), self.lattice.domain_size)

    def size(self) -> int:
        return len(self.members)

    def verify(self) -> list[Violation]:
        """All violations of the identifying-code property, or [] if valid.

        Reported pairs are translation-canonical and the list order is
        deterministic.
        """
        bits = self._bits
        out = []
        for c in identifying_constraints(self.lattice):
            if bits & c.mask:
                continue
            if c.kind == EMPTY_IDENTIFIER:
                out.append(Violation(c.kind, (c.u,)))
            else:
                out.append(Violation(c.kind, (c.u, c.v)))
        out.sort(key=lambda x: (x.kind, x.vertices))
        return out

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
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise ValueError("empty code file")
        head = lines[0].split()
        if len(head) != 4 or head[0] != "period":
            raise ValueError("first line must be 'period p q shear'")
        try:
            p, q, shear = (int(x) for x in head[1:])
            lattice = PeriodLattice(p, q, shear)
        except ValueError as e:
            raise ValueError(f"bad period line: {e}") from None
        members = set()
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"bad vertex row: {ln!r}")
            try:
                a, b, s = (int(x) for x in parts)
            except ValueError:
                raise ValueError(f"bad vertex row: {ln!r}") from None
            if s not in (0, 1):
                raise ValueError(f"vertex sublattice must be 0 or 1: {ln!r}")
            members.add(Vertex(a, b, s))
        return cls(lattice, frozenset(members))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "PeriodicCode":
        with open(path) as fh:
            return cls.from_text(fh.read())


def full_code(lattice: PeriodLattice) -> PeriodicCode:
    """D = V; always identifying (closed neighborhoods are distinct)."""
    return PeriodicCode(lattice, frozenset(lattice.domain()))


def tile(code: PeriodicCode, m1: int, m2: int) -> PeriodicCode:
    """The same infinite set presented on an (m1, m2)-fold larger domain."""
    if m1 < 1 or m2 < 1:
        raise ValueError("tile factors must be positive")
    old = code.lattice
    big = PeriodLattice(old.p * m1, old.q * m2, (old.shear * m2) % (old.p * m1))
    members = frozenset(v for v in big.domain() if code.contains(v))
    return PeriodicCode(big, members)


def thin_code(code: PeriodicCode, removals: Iterable[Vertex]) -> PeriodicCode:
    members = set(code.members)
    for v in removals:
        members.discard(code.lattice.canonical(v))
    return PeriodicCode(code.lattice, frozenset(members))
