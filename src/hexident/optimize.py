"""Exact minimum-size search over periodic codes with a fixed period.

One fundamental domain is a bit vector, and the identifying conditions
of the infinite lift are positive clauses over those bits (each clause:
at least one of these orbits is in the code).  Minimizing the code is
then a minimum hitting set, solved here by branch and bound with unit
propagation, a disjoint-clause lower bound, and translation symmetry
breaking.  minimum_code and random_code build their clause masks and
per-orbit clause lists once per call, from each clause's orbits.

Domains of at most 16 vertices can also be enumerated outright, through
truth tables: one big integer per clause holds, at bit k, whether the
mask k hits it, and their AND holds the codes.  brute_force_minimum
stays the plain loop over all 2^n masks, the independent check the
search is tested against.

The module also carries two code generators used for corpus building:
a seeded random minimal identifying code, and a deliberately broken
code built around an adjacent pair isolated within distance two (such
a pair shares its identifier, so verification must always reject it).
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

from hexident.code import PeriodicCode, full_code, identifying_constraints
from hexident.hexgrid import PeriodLattice, Vertex, ball, set_bits

# Proved bracket on the minimum density of an identifying code of the
# grid: no code is sparser than 12/29, and explicit periodic codes
# reach 3/7.  Scan rows below the floor indicate a bug somewhere.
DENSITY_FLOOR = Fraction(12, 29)
DENSITY_CEILING = Fraction(3, 7)

DOMAIN_CAP = 32
BRUTE_FORCE_CAP = 16
INFEASIBLE = "INFEASIBLE"


class DomainTooLarge(ValueError):
    """Fundamental domain exceeds the cap for exhaustive work."""


@dataclass(frozen=True)
class SearchSpec:
    """What to search: the period, an optional size budget, and whether to
    break translation symmetry."""

    lattice: PeriodLattice
    budget: int | None = None
    symmetry_reduction: bool = True


@dataclass
class SearchResult:
    """Outcome of one search.

    min_size is an integer, or INFEASIBLE when a budget rules every
    code out.  The witness always passes verify() when present.
    proof_of_optimality is False only when a node cap stopped the
    search early; the witness is then just the best one found.
    """

    min_size: int | str
    witness: PeriodicCode | None
    nodes_explored: int
    proof_of_optimality: bool


# ---------------------------------------------------------------------------
# clause plumbing


def _clauses(lattice: PeriodLattice) -> tuple[tuple[int, ...], list[list[int]]]:
    """The clause masks in clause order, and per orbit the masks of the
    clauses that hold it, read off Constraint.orbits."""
    masks = []
    by_orbit: list[list[int]] = [[] for _ in range(lattice.domain_size)]
    for c in identifying_constraints(lattice):
        m = c.mask
        masks.append(m)
        for i in c.orbits:
            by_orbit[i].append(m)
    return tuple(masks), by_orbit


class _Stop(Exception):
    pass


class _Search:
    """Branch and bound over one clause system.

    Clauses are numbered by their position in masks, and sets of
    clauses are bitmasks over those positions.  Built once per search:
    occ[i], the clauses that contain orbit i, and orbits[c], the orbits
    of clause c in ascending order.  Each node carries in_bits (members),
    out_bits (exclusions) and unsat, the clauses no member hits yet.  An
    orbit is free when it is neither a member nor excluded, and its
    cover is the number of unsat clauses that contain it,
    (occ[i] & unsat).bit_count(); one cover table per node serves both
    the lower bound and the branch pick.

    Propagation invariant: every state handed to _node is a unit
    propagation fixpoint, so each unsat clause keeps at least two free
    orbits.  Propagation only adds members and out_bits stays fixed
    while it runs, so a single pass reaches the fixpoint.  A membership
    branch only shrinks unsat and needs no propagation; an exclusion
    branch leaves at most the clauses in unsat & occ[bit] with a single
    free orbit, and none with none.

    bound is one more than the largest size still worth recording, so
    any completion of size < bound improves the incumbent.
    """

    def __init__(self, masks, n: int, limit: int, node_cap: int | None):
        self.masks = masks
        self.orbits = [tuple(set_bits(m)) for m in masks]
        self.occ = [0] * n
        for c, orbits in enumerate(self.orbits):
            for i in orbits:
                self.occ[i] |= 1 << c
        self.bound = limit + 1
        self.node_cap = node_cap
        self.best: int | None = None
        self.nodes = 0

    def seed(self, bits: int) -> None:
        size = bits.bit_count()
        if size < self.bound:
            self.bound = size
            self.best = bits

    def run(self, in_bits: int, out_bits: int) -> None:
        # tiers[k]: the clauses with exactly k orbits outside out_bits
        tiers = [0] * (max(map(len, self.orbits)) + 1)
        unsat = 0
        for c, m in enumerate(self.masks):
            tiers[(m & ~out_bits).bit_count()] |= 1 << c
            if not m & in_bits:
                unsat |= 1 << c
        state = self._propagate(in_bits, out_bits, unsat, tiers)
        if state is not None:
            # occ with the excluded orbits zeroed; members need no
            # zeroing, as every clause holding one is hit
            free_occ = [0 if out_bits >> i & 1 else o for i, o in enumerate(self.occ)]
            self._node(*state, tiers, free_occ)

    def _propagate(self, in_bits: int, out_bits: int, unsat: int, tiers: list[int]):
        # an unsat clause with no orbit left fails; one with a single
        # orbit left forces it in
        if unsat & tiers[0]:
            return None
        for c in set_bits(unsat & tiers[1]):
            i = (self.masks[c] & ~out_bits).bit_length() - 1
            in_bits |= 1 << i
            unsat &= ~self.occ[i]
        return in_bits, out_bits, unsat

    def _node(self, in_bits: int, out_bits: int, unsat: int, tiers: list[int], free_occ: list[int]) -> None:
        self.nodes += 1
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise _Stop
        size = in_bits.bit_count()
        if not unsat:
            if size < self.bound:
                self.bound = size
                self.best = in_bits
            return
        room = self.bound - size
        cover = list(map(int.bit_count, map(unsat.__and__, free_occ)))
        # each new member hits at most the widest cover of clauses
        if -(-unsat.bit_count() // max(cover)) >= room:
            return
        # pairwise disjoint clauses each need their own new member; take
        # them greedily by tier, then in clause order
        tightest = 0
        blocked = 0
        disjoint = 0
        for tier in tiers:
            cand = tier & unsat
            if cand and not tightest:
                tightest = cand
            while cand := cand & ~blocked:
                disjoint += 1
                if disjoint >= room:
                    return
                for i in self.orbits[(cand & -cand).bit_length() - 1]:
                    blocked |= free_occ[i]
        # branch inside the tightest clause (lowest tier, then smallest
        # free mask), on its busiest orbit (the lowest index on a tie),
        # membership before exclusion; excluded orbits have cover 0
        live = ~out_bits
        clause = min(set_bits(tightest), key=lambda c: self.masks[c] & live)
        pick = max(self.orbits[clause], key=cover.__getitem__)
        bit = 1 << pick
        hit = self.occ[pick]
        self._node(in_bits | bit, out_bits, unsat & ~hit, tiers, free_occ)
        # excluding pick moves every clause that holds it down one tier
        tiers = [t & ~hit | u & hit for t, u in zip(tiers, tiers[1:])] + [tiers[-1] & ~hit]
        state = self._propagate(in_bits, out_bits | bit, unsat, tiers)
        if state is not None:
            free_occ = free_occ.copy()
            free_occ[pick] = 0
            self._node(*state, tiers, free_occ)


def minimum_code(spec: SearchSpec, node_cap: int | None = None) -> SearchResult:
    """Smallest identifying code with exactly the period of spec.lattice.

    Exhaustive and provably optimal when it runs to completion; a node
    cap turns the result into a best-known incumbent instead.
    """
    lattice = spec.lattice
    n = lattice.domain_size
    if n > DOMAIN_CAP:
        raise DomainTooLarge(f"domain size {n} exceeds cap {DOMAIN_CAP}")
    masks, by_orbit = _clauses(lattice)
    limit = spec.budget if spec.budget is not None else n
    search = _Search(masks, n, limit, node_cap)
    for seed in (0, 1, 2):
        search.seed(_random_bits(n, by_orbit, random.Random(seed)))
    complete = True
    try:
        if spec.symmetry_reduction:
            # every nonempty code translates onto one that contains the
            # origin of whichever sublattice it meets; orbit i lies on
            # sublattice i & 1, so orbits 0 and 1 are the two origins and
            # the even bits, ((1 << n) - 1) // 3, are sublattice 0
            search.run(1, 0)
            search.run(2, ((1 << n) - 1) // 3)
        else:
            search.run(0, 0)
    except _Stop:
        complete = False
    if search.best is None:
        return SearchResult(INFEASIBLE, None, search.nodes, complete)
    witness = PeriodicCode.from_bits(lattice, search.best)
    return SearchResult(search.best.bit_count(), witness, search.nodes, complete)


# ---------------------------------------------------------------------------
# brute force and enumeration


def enumerate_codes(lattice: PeriodLattice) -> Iterator[PeriodicCode]:
    """Every identifying code with this period, in ascending order of bits.

    One truth table decides all 2^n masks at once: bit k of column[i] is
    bit i of k, a clause's table is the OR of its orbits' columns, and
    the codes are the set bits of the AND over all clauses.
    """
    n = lattice.domain_size
    if n > BRUTE_FORCE_CAP:
        raise DomainTooLarge(f"domain size {n} exceeds cap {BRUTE_FORCE_CAP}")
    full = (1 << (1 << n)) - 1
    # full // (2^(2^i) + 1) repeats 2^i ones and 2^i zeros from bit 0 up:
    # it marks the k whose bit i is clear
    columns = [full ^ full // ((1 << (1 << i)) + 1) for i in range(n)]
    table = full
    for c in identifying_constraints(lattice):
        hit = 0
        for i in c.orbits:
            hit |= columns[i]
        table &= hit
    # character k of the reversed binary string is bit k of the table
    keep = bin(table)[:1:-1]
    k = keep.find("1")
    while k >= 0:
        yield PeriodicCode.from_bits(lattice, k)
        k = keep.find("1", k + 1)


def brute_force_minimum(lattice: PeriodLattice) -> Tuple[int, PeriodicCode]:
    """Independent minimum for small domains, no pruning cleverness."""
    n = lattice.domain_size
    if n > BRUTE_FORCE_CAP:
        raise DomainTooLarge(f"domain size {n} exceeds cap {BRUTE_FORCE_CAP}")
    masks = [c.mask for c in identifying_constraints(lattice)]
    best_bits = full_code(lattice).bits
    best_size = n
    for bits in range(1 << n):
        if bits.bit_count() >= best_size:
            continue
        if all(bits & m for m in masks):
            best_bits = bits
            best_size = bits.bit_count()
    return best_size, PeriodicCode.from_bits(lattice, best_bits)


# ---------------------------------------------------------------------------
# code generators


def _random_bits(n: int, by_orbit: list[list[int]], rng: random.Random) -> int:
    bits = (1 << n) - 1
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        thinned = bits & ~(1 << i)
        if all(m & thinned for m in by_orbit[i]):
            bits = thinned
    return bits


def random_code(lattice: PeriodLattice, seed=None) -> PeriodicCode:
    """Random minimal identifying code of the given period.

    Starts from the full code and drops vertices in shuffled order
    whenever the result stays identifying, so every kept vertex is
    necessary.  Deterministic for a fixed seed.
    """
    _, by_orbit = _clauses(lattice)
    bits = _random_bits(lattice.domain_size, by_orbit, random.Random(seed))
    return PeriodicCode.from_bits(lattice, bits)


def plant_isolated_pair(lattice: PeriodLattice, seed=None):
    """A code built around an adjacent pair with nothing else within
    distance two of it.

    The two planted vertices then share {both} as identifier, so the
    result can never verify.  Returns (code, u, v).  Raises ValueError
    when the period is too small to keep the pair's surroundings clear
    of its own translates.
    """
    u = Vertex(0, 0, 0)
    v = Vertex(0, 0, 1)
    zone = ball(u, 2) | ball(v, 2)
    orbit_ids = {lattice.index(w) for w in zone}
    if len(orbit_ids) != len(zone):
        raise ValueError("period too small to isolate an adjacent pair")
    rng = random.Random(seed)
    bits = 1 << lattice.index(u) | 1 << lattice.index(v)
    for i in range(lattice.domain_size):
        if i not in orbit_ids and rng.random() < 0.5:
            bits |= 1 << i
    return PeriodicCode.from_bits(lattice, bits), u, v


# ---------------------------------------------------------------------------
# density scans


@dataclass(frozen=True)
class ScanRow:
    lattice: PeriodLattice
    min_size: int | str
    density: Optional[Fraction]
    nodes_explored: int
    optimal: bool

    @property
    def critical(self) -> bool:
        """True when the row contradicts the proved density floor."""
        return self.density is not None and self.density < DENSITY_FLOOR


def density_scan(family: Iterable[PeriodLattice], node_cap: int | None = None) -> List[ScanRow]:
    """Minimum size and density per lattice, sorted sparsest first.

    Raises DomainTooLarge before any search when a lattice of the
    family exceeds DOMAIN_CAP.  The family is read only up to the first
    such lattice, so a lazy size-ordered family stops right there.
    """
    lattices = []
    for lattice in family:
        if lattice.domain_size > DOMAIN_CAP:
            raise DomainTooLarge(f"domain size {lattice.domain_size} exceeds cap {DOMAIN_CAP}")
        lattices.append(lattice)
    rows = []
    for lattice in lattices:
        result = minimum_code(SearchSpec(lattice), node_cap=node_cap)
        density = None if result.witness is None else result.witness.density()
        rows.append(
            ScanRow(lattice, result.min_size, density, result.nodes_explored, result.proof_of_optimality)
        )
    rows.sort(
        key=lambda r: (
            r.density is None,
            r.density if r.density is not None else Fraction(0),
            r.lattice.domain_size,
            r.lattice.p,
            r.lattice.q,
            r.lattice.shear,
        )
    )
    return rows


def scan_csv(rows: Iterable[ScanRow]) -> str:
    """Scan table as CSV with exact num/den densities."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["p", "q", "shear", "minSize", "density", "nodesExplored", "optimal"])
    for r in rows:
        density = "" if r.density is None else f"{r.density.numerator}/{r.density.denominator}"
        writer.writerow([r.lattice.p, r.lattice.q, r.lattice.shear, r.min_size, density, r.nodes_explored, r.optimal])
    return buf.getvalue()
