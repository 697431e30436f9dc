"""Finite-window verification of the cluster-structure lemmas.

The discharging argument leans on a few structural facts about clusters in an
identifying code.  Each fact is local: it only talks about vertices within
distance three or so of a small cluster.  This module checks such facts
mechanically.  A window is a finite set of grid vertices, some pinned IN
(code vertex) or OUT (non-code vertex); the rest are enumerated.  The engine
enumerates every total assignment of the window that passes the local
feasibility rules of identifying codes, and for each one asks whether the
lemma's conclusion is forced no matter how the pattern continues outside the
window.

Feasibility is an over-approximation.  Every restriction of a genuine
identifying code passes the checks, but some feasible windows extend to no
code at all.  That is the safe direction: a lemma reported VERIFIED holds
for every identifying code on the grid, since a true counterexample would
restrict to some feasible window whose conclusion could not be certified.

Three verdicts are possible.  VERIFIED means every feasible window either
contradicts the hypothesis outright or forces the conclusion in all
completions.  COUNTEREXAMPLE means some feasible window refutes the
conclusion using decided vertices only; the check stops on the first one and
reports it.  It is advisory (the window may not extend to a code) and
suggests re-running with a larger window.
INCONCLUSIVE means neither: some window left the conclusion open.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .cluster import UnsupportedKind
from .code import clause_pattern
from .hexgrid import Vertex, bitmask, layers, neighbors, set_bits

IN = "IN"
OUT = "OUT"
UNKNOWN = "UNKNOWN"

VERIFIED = "VERIFIED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
INCONCLUSIVE = "INCONCLUSIVE"

# at most this many undecided window vertices may be enumerated (2^48 guard)
ENUMERATION_CAP = 48

# the largest cluster shape the L5partition sweep builds; the number of
# shapes grows about 2.8 times per size (7971 at size 10)
SHAPE_CAP = 10

# at most this many vertices in the engine's universe (the window, its pins
# and GROWTH_MARGIN rings); the distance masks grow as its square
UNIVERSE_CAP = 2048

# the farthest grid distance any certainty rule reads
REACH = 3

# how far past the window and its pins the engine reasons about cluster
# growth; beyond this margin everything is permanently unknown.  An anchor's
# neighbors are pinned seeds, so REACH - 1 rings are the least margin that
# keeps each anchor's distance-REACH ball, its reach3 and every zone cut from
# it, inside the universe
GROWTH_MARGIN = REACH - 1

_STATUSES = (IN, OUT, UNKNOWN)


class RegionTooLarge(ValueError):
    """The window exceeds the universe cap or the enumeration cap."""


# ---------------------------------------------------------------------------
# window configurations and templates


class WindowConfig:
    """A total IN/OUT status assignment on a finite vertex set.

    region is sorted; status is aligned with it.  The assignment is held as
    a mask: region[k] is IN when bit slots[k] of the mask is set.  The
    configurations of one enumeration share region and slots, so each keeps
    one int of its own, and status is built from the mask on each read.
    Immutable; equality, hashing and repr read (region, status), so
    configurations from different enumerations compare equal.
    """

    __slots__ = ("region", "_slots", "_mask")

    def __new__(cls, region: Tuple[Vertex, ...], status: Tuple[str, ...]) -> "WindowConfig":
        if len(status) != len(region) or not set(status) <= {IN, OUT}:
            raise ValueError("a window status is IN or OUT per region vertex")
        slots = tuple(1 << k for k in range(len(region)))
        return cls._of(region, slots, sum(b for b, st in zip(slots, status) if st == IN))

    @classmethod
    def _of(cls, region: Tuple[Vertex, ...], slots: Tuple[int, ...], mask: int) -> "WindowConfig":
        """The configuration whose IN vertices are the region vertices with
        their slot bit set in mask; bits outside the slots are ignored."""
        cfg = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(cfg, "region", region)
        setattr_(cfg, "_slots", slots)
        setattr_(cfg, "_mask", mask)
        return cfg

    @property
    def status(self) -> Tuple[str, ...]:
        mask = self._mask
        return tuple([IN if mask & b else OUT for b in self._slots])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.region, self.status) == (other.region, other.status)

    def __hash__(self):
        return hash((self.region, self.status))

    def __repr__(self):
        return f"{type(self).__qualname__}(region={self.region!r}, status={self.status!r})"

    def __reduce__(self):
        return type(self), (self.region, self.status)

    def as_mapping(self) -> Dict[Vertex, str]:
        return dict(zip(self.region, self.status))

    def to_json(self) -> dict:
        return {"window": [[v.a, v.b, v.s, st] for v, st in zip(self.region, self.status)]}


@dataclass(frozen=True)
class Template:
    """A named window with pinned statuses.

    Rows keep load order.  Rows pinned IN or OUT are hypothesis forcings;
    UNKNOWN rows are the vertices the engine enumerates.  Pinned rows may
    lie outside the enumerated window proper (a halo): they still
    constrain feasibility and growth reasoning.
    """

    name: str
    rows: Tuple[Tuple[Vertex, str], ...]

    def region(self) -> Tuple[Vertex, ...]:
        return tuple(v for v, _ in self.rows)

    def constraints(self) -> Dict[Vertex, str]:
        return {v: st for v, st in self.rows if st != UNKNOWN}


def parse_template(text: str, name: str = "window") -> Template:
    """Parse the window text format: one "a b s STATUS" row per line.

    '#' starts a comment; blank lines are skipped.  Every row seeds the
    engine's universe, so a window of more than UNIVERSE_CAP rows raises
    RegionTooLarge as soon as the parse reaches one row too many.
    """
    return _parse_rows(text.splitlines(), name)


def _parse_rows(lines: Iterable[str], name: str) -> Template:
    # reads one line at a time, so a refused window holds at most
    # UNIVERSE_CAP rows whatever its length
    rows = []
    seen = set()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(rows) == UNIVERSE_CAP:
            raise RegionTooLarge("window rows exceed the universe cap of %d" % UNIVERSE_CAP)
        parts = line.split()
        if len(parts) != 4:
            raise ValueError("expected 'a b s STATUS', got %r" % raw)
        try:
            a, b, s = map(int, parts[:3])
        except ValueError:
            raise ValueError("expected integer coordinates in 'a b s STATUS', got %r" % raw) from None
        if s not in (0, 1):
            raise ValueError("vertex sublattice must be 0 or 1: %r" % raw)
        st = parts[3].upper()
        if st not in _STATUSES:
            raise ValueError("bad status %r" % parts[3])
        v = Vertex(a, b, s)
        if v in seen:
            raise ValueError("duplicate vertex %r" % (v,))
        seen.add(v)
        rows.append((v, st))
    if not rows:
        raise ValueError("empty window")
    return Template(name, tuple(rows))


def template_text(template: Template) -> str:
    lines = ["# window: %s" % template.name]
    for v, st in template.rows:
        lines.append("%d %d %d %s" % (v.a, v.b, v.s, st))
    return "\n".join(lines) + "\n"


def load_template(path, name: Optional[str] = None) -> Template:
    with open(path, "r", encoding="utf-8") as fh:
        # the lines text.splitlines() would give, one file line at a time
        return _parse_rows((row for line in fh for row in line.splitlines()), name or str(path))


def save_template(template: Template, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(template_text(template))


# The built-in windows.  Names are the opaque identifiers the command line
# accepts; each text describes its content.  Coordinates are (a, b, s).

_TEMPLATE_TEXTS = {
    # A lone code vertex (a 1-cluster) at (1,1,1): its whole neighborhood is
    # pinned OUT, and two of its distance-two code vertices are pinned IN.
    # Any identifying code admits this normalization: each neighbor of the
    # 1-cluster needs a second code vertex at distance two, and the symmetry
    # group fixing the 1-cluster can always move two of those witnesses onto
    # the chosen pair of slots.
    "fig3a": """
-1 4 0 UNKNOWN
 0 4 0 UNKNOWN
-1 3 1 UNKNOWN
 0 3 0 UNKNOWN
 0 3 1 UNKNOWN
-1 2 1 UNKNOWN
 0 2 0 UNKNOWN
 0 2 1 UNKNOWN
 1 2 0 OUT
 1 2 1 IN
 0 1 1 IN
 1 1 0 OUT
 1 1 1 IN          # the 1-cluster
 2 1 0 OUT         # halo: third neighbor of the 1-cluster
""",
    # A 3-cluster (0,2,1)-(1,2,0)-(1,2,1) with its boundary pinned OUT.  The
    # center's outside neighbor (1,1,1) is pinned OUT (it would otherwise
    # join the cluster); whether the cluster is closed is left to the
    # enumeration, as are all twenty vertices at distance two or three.
    "fig3b": """
 0 5 0 UNKNOWN
-1 4 0 UNKNOWN
-1 4 1 UNKNOWN
 0 4 0 UNKNOWN
 0 4 1 UNKNOWN
 1 4 0 UNKNOWN
 1 4 1 UNKNOWN
-1 3 0 UNKNOWN
-1 3 1 UNKNOWN
 0 3 0 OUT
 0 3 1 UNKNOWN
 1 3 0 OUT
 1 3 1 UNKNOWN
 2 3 0 UNKNOWN
-1 2 0 UNKNOWN
-1 2 1 UNKNOWN
 0 2 0 OUT
 0 2 1 IN          # leaf
 1 2 0 IN          # center
 1 2 1 IN          # leaf
 2 2 0 OUT
 2 2 1 UNKNOWN
 3 2 0 UNKNOWN
 0 1 0 UNKNOWN
 0 1 1 UNKNOWN
 1 1 0 UNKNOWN
 1 1 1 OUT         # center's outside neighbor
 2 1 0 UNKNOWN
 2 1 1 UNKNOWN
 3 1 0 UNKNOWN
 1 0 1 UNKNOWN
 2 0 1 UNKNOWN
""",
    # An open 3-cluster (0,2,1)-(1,2,0)-(1,2,1) pinned exactly, openness
    # forced by pinning the center's outside neighbor (1,1,1) and both of
    # that vertex's other neighbors OUT (halo rows).  The window covers the
    # whole distance-3 ball of the cluster.
    "fig4": """
 0 5 0 UNKNOWN
-1 4 0 UNKNOWN
 0 4 0 UNKNOWN
 0 4 1 UNKNOWN
 1 4 0 UNKNOWN
 1 4 1 UNKNOWN
 2 4 0 UNKNOWN
-1 3 0 UNKNOWN
-1 3 1 UNKNOWN
 0 3 1 UNKNOWN
 1 3 0 OUT
 1 3 1 UNKNOWN
 2 3 0 UNKNOWN
 2 3 1 UNKNOWN
 3 3 0 UNKNOWN
-1 2 0 UNKNOWN
-1 2 1 UNKNOWN
 0 2 1 IN          # leaf
 1 2 0 IN          # center
 1 2 1 IN          # leaf
 2 2 0 OUT
 2 2 1 UNKNOWN
 3 2 0 UNKNOWN
-1 1 1 UNKNOWN
 0 1 0 UNKNOWN
 0 1 1 UNKNOWN
 2 1 1 UNKNOWN
 3 1 0 UNKNOWN
 3 1 1 UNKNOWN
 1 0 1 UNKNOWN
 2 0 0 UNKNOWN
 2 0 1 UNKNOWN
 0 2 0 OUT         # halo: leaf boundary
 0 3 0 OUT         # halo: leaf boundary
 1 1 1 OUT         # halo: center's outside neighbor
 1 1 0 OUT         # halo: openness
 2 1 0 OUT         # halo: openness
""",
    # Two open 3-clusters paired with each other: (0,3,0)-(0,3,1)-(1,3,0)
    # and (1,1,1)-(2,1,0)-(2,1,1).  Each leaf of either cluster is at
    # distance exactly three from the other cluster.  Boundaries and
    # openness are pinned; everything else is enumerated.
    "fig5": """
-1 5 0 UNKNOWN
-1 5 1 UNKNOWN
 0 5 0 UNKNOWN
 0 5 1 UNKNOWN
 1 5 0 UNKNOWN
 1 5 1 UNKNOWN
-2 4 0 UNKNOWN
-2 4 1 UNKNOWN
-1 4 0 UNKNOWN
-1 4 1 OUT         # openness of the upper cluster
 0 4 0 OUT         # center's outside neighbor, upper cluster
 0 4 1 OUT         # openness of the upper cluster
 1 4 0 UNKNOWN
 1 4 1 UNKNOWN
 2 4 0 UNKNOWN
 2 4 1 UNKNOWN
 3 4 0 UNKNOWN
-2 3 1 UNKNOWN
-1 3 0 UNKNOWN
-1 3 1 OUT
 0 3 0 IN          # leaf, upper cluster
 0 3 1 IN          # center, upper cluster
 1 3 0 IN          # leaf, upper cluster
 1 3 1 OUT
 2 3 0 UNKNOWN
 2 3 1 UNKNOWN
 3 3 0 UNKNOWN
 3 3 1 UNKNOWN
 4 3 0 UNKNOWN
 0 2 0 UNKNOWN
 0 2 1 OUT
 1 2 0 OUT
 1 2 1 OUT
 2 2 0 OUT
 2 2 1 UNKNOWN
 3 2 0 UNKNOWN
 3 2 1 UNKNOWN
 4 2 0 UNKNOWN
 1 1 1 IN          # leaf, lower cluster
 2 1 0 IN          # center, lower cluster
 2 1 1 IN          # leaf, lower cluster
 3 1 0 OUT
 3 1 1 UNKNOWN
 4 1 0 UNKNOWN
 1 0 1 UNKNOWN
 3 0 1 UNKNOWN
 1 1 0 OUT         # halo: leaf boundary, lower cluster
 2 0 1 OUT         # halo: center's outside neighbor, lower cluster
 2 0 0 OUT         # halo: openness
 3 0 0 OUT         # halo: openness
""",
}

# The widened variant of the paired window: same pinned clusters, five more
# free vertices below.
_TEMPLATE_TEXTS["fig6"] = _TEMPLATE_TEXTS["fig5"].replace(
    " 1 1 0 OUT",
    """ 4 0 0 UNKNOWN
 4 0 1 UNKNOWN
 2 -1 1 UNKNOWN
 3 -1 0 UNKNOWN
 3 -1 1 UNKNOWN
 1 1 0 OUT""",
    1,
)

TEMPLATES: Dict[str, Template] = {
    name: parse_template(text, name) for name, text in _TEMPLATE_TEXTS.items()
}


# ---------------------------------------------------------------------------
# the three-valued search engine


class _Comp(NamedTuple):
    """The geometry of a decided-IN component in the engine's universe.

    Every field is fixed by the members alone, so one record serves every
    search state in which the component appears.  The masks are universe
    index bitmasks; the certainty rules combine them with the engine's
    decided and IN masks.
    """

    members: Tuple[int, ...]  # sorted universe indices
    mask: int
    center: Optional[int]  # the middle vertex of a 3-path (girth six), else None
    shut: int  # the center's outside neighbor's other in-universe neighbors
    closable: bool  # that outside neighbor has its whole neighborhood in the universe
    rim: int  # in-universe neighbors outside the component: the frontier
    edge: bool  # some member has a neighbor beyond the universe
    reach2: int  # universe vertices within distance two
    reach3: int  # universe vertices within distance three
    witness: Tuple[int, ...]  # per member: the distance-two slots outside the component


class _Shape(NamedTuple):
    """The engine tables that a window's shape alone fixes: its universe
    and the universe index masks built on it.  Every field is a tuple, so
    the engines that share a record cannot change each other's tables."""

    verts: Tuple[Vertex, ...]  # the universe in (a, b, s) order
    within: Tuple[Tuple[int, ...], ...]  # within[r][i]: the vertices at distance <= r from i
    ring2: Tuple[int, ...]  # the vertices at distance exactly two
    nbmask: Tuple[int, ...]  # the closed in-universe neighborhoods, within[1]
    nb_full: Tuple[bool, ...]  # all three neighbors lie in the universe
    clauses: Tuple[Tuple[int, ...], ...]  # per vertex, every clause through it


@lru_cache(maxsize=8)
def _shape(seeds: Tuple[Vertex, ...]) -> _Shape:
    """The tables of the window whose region and pinned vertices are seeds,
    given sorted and translated so that the least has a = b = 0.  Every
    engine on a translate of the window shares them.

    The universe is the seeds grown by GROWTH_MARGIN rings.  An entry grows
    with the square of the universe: about 23 KiB at a radius-3 window (46
    vertices), 58 KiB at fig6 (102), 0.4 MiB at 460 vertices and 3.7 MiB at
    1999, near UNIVERSE_CAP.  So the cache keeps the 8 shapes used last,
    under about 32 MiB in the worst case.  Raises RegionTooLarge past
    UNIVERSE_CAP, and then caches nothing.
    """
    universe = set().union(*layers(seeds, GROWTH_MARGIN))
    if len(universe) > UNIVERSE_CAP:
        raise RegionTooLarge(
            "%d universe vertices exceed the universe cap of %d" % (len(universe), UNIVERSE_CAP)
        )
    verts = tuple(sorted(universe))
    index = dict(zip(verts, range(len(verts))))

    # grid distances as masks: within[r][i] holds the universe vertices at
    # distance <= r from vertex i, and ring2[i] those at exactly two.  A
    # shortest path may leave the universe, so the balls come from the grid:
    # at[i] is the clause pattern's radius-REACH ball translated to vertex i,
    # a universe index or None per position.
    patterns = [clause_pattern(s) for s in (0, 1)]
    at = [[index.get((a + w.a, b + w.b, w.s)) for w in patterns[s].ball] for a, b, s in verts]
    bits = [[0 if j is None else 1 << j for j in row] for row in at]
    # both sublattices have the same layer ends
    within = tuple(tuple([sum(row[:end]) for row in bits]) for end in patterns[0].ends[:REACH + 1])
    ring2 = tuple([m2 & ~m1 for m1, m2 in zip(within[1], within[2])])
    # the closed in-universe neighborhoods; a full vertex has all three
    # neighbors in the universe
    nbmask = within[1]
    nb_full = tuple([m.bit_count() == 4 for m in nbmask])

    # the clauses under each of their vertices, each pair once, from its
    # lesser vertex
    upper = [[t for t, v, _, _ in p.partners if v > p.ball[0]] for p in patterns]
    clauses: List[List[int]] = [[] for _ in verts]
    for i, row in zip(range(len(verts)), at):
        if not nb_full[i]:
            continue
        own = [nbmask[i]]
        own += [nbmask[i] ^ nbmask[row[t]] for t in upper[verts[i].s] if row[t] is not None and nb_full[row[t]]]
        for clause in own:
            for t in set_bits(clause):
                clauses[t].append(clause)
    return _Shape(verts, within, ring2, nbmask, nb_full, tuple(map(tuple, clauses)))


class _Engine:
    """Bitmask DFS over the IN/OUT assignments of a window.

    The universe extends the window by GROWTH_MARGIN rings so that growth of
    decided clusters just past the window can be reasoned about.  The
    feasibility rules are the clauses of code.clause_pattern, which
    identifying_constraints compiles for periodic codes, translated to every
    universe vertex u: N[u] when it lies in the universe, and N[u] ^ N[v]
    when N[u] and N[v] both do.  Dropping the others keeps the enumeration
    an over-approximation of restrictions of identifying codes.  A clause
    propagates: its last undecided vertex, with no IN elsewhere, is forced IN.

    The engine is the only reader of a window's pins, each IN or OUT: it
    keeps them as the masks pinned_in and pinned_out, and assigns them
    first.  Every other window vertex is enumerated.  The clauses that the
    pins and their propagation satisfy are then dropped (restrict_clauses).

    Every engine on a translate of one window shape (region and pinned
    vertices) shares that shape's tables, built once by _shape: within,
    ring2, nbmask and nb_full, read-only tuples over the universe indices,
    and the unrestricted clause lists.  Translation keeps the order of the
    universe, so the indices are the same on every translate.  An engine
    builds its own verts and index, its pin masks, and its clause lists,
    which restrict_clauses copies from the shared ones.
    """

    def __init__(self, region: Iterable[Vertex], constraints: Optional[Mapping[Vertex, str]] = None):
        constraints = dict(constraints or {})
        region = tuple(sorted(set(region)))
        for st in constraints.values():
            if st not in (IN, OUT):
                raise ValueError("bad constraint status %r" % (st,))

        # the shape's tables are those of its translate whose least seed has
        # a = b = 0; a translation keeps the (a, b, s) order of the universe,
        # so every universe index, and every mask over them, is the same
        seeds = sorted(set(region).union(constraints))
        da, db = (seeds[0].a, seeds[0].b) if seeds else (0, 0)
        shape = _shape(tuple([Vertex(a - da, b - db, s) for a, b, s in seeds]))

        self.verts: Tuple[Vertex, ...] = tuple([Vertex(a + da, b + db, s) for a, b, s in shape.verts])
        self.index: Dict[Vertex, int] = dict(zip(self.verts, range(len(self.verts))))
        self.n = len(self.verts)
        self.region = region
        self.region_idx: Tuple[int, ...] = tuple(self.index[v] for v in region)

        # the pins as universe masks: the only copy of a window's pinned
        # statuses that anything past this point reads
        pinned = {IN: 0, OUT: 0}
        for v, st in constraints.items():
            pinned[st] |= 1 << self.index[v]
        self.pinned_in: int = pinned[IN]
        self.pinned_out: int = pinned[OUT]

        self.within = shape.within
        self.ring2 = shape.ring2
        self.nbmask = shape.nbmask
        self.nb_full = shape.nb_full
        # the unrestricted lists, until restrict_clauses below
        self.clauses: Sequence[Sequence[int]] = shape.clauses

        self._records: Dict[Tuple[int, ...], _Comp] = {}
        # (IN mask, its components) along the current search path
        self._comp_stack: List[Tuple[int, List[_Comp]]] = [(0, [])]

        self.dec = 0
        self.mem = 0
        self.nodes = 0
        self.aborted = False

        pins = self.pinned_in | self.pinned_out
        self.base_ok = all(self.assign(i, bool(self.pinned_in >> i & 1)) for i in set_bits(pins))
        self.free_idx: Tuple[int, ...] = tuple(i for i in self.region_idx if not self.dec >> i & 1)
        # an infeasible window enumerates nothing, however large
        if self.base_ok and len(self.free_idx) > ENUMERATION_CAP:
            raise RegionTooLarge(
                "%d undecided vertices exceed the cap of %d" % (len(self.free_idx), ENUMERATION_CAP)
            )
        self._free_mask = bitmask(self.free_idx)
        self._region_bits = tuple(1 << i for i in self.region_idx)
        self._region_mask = bitmask(self.region_idx)
        # a vertex not IN at the root may go OUT below it
        self.restrict_clauses(~self.mem)

    # -- state -------------------------------------------------------------

    def restrict_clauses(self, out_ok: int) -> None:
        """Keep only the clauses that can still fail, or force IN a vertex
        the search reads, when assignments below the root set OUT only
        vertices of out_ok.

        A clause with a vertex IN at the root is satisfied for good.  An
        undecided vertex outside out_ok never goes OUT: a clause holding
        two of them never fails or forces, and a clause holding one can
        only force that one IN.  Such a clause is kept only when its vertex
        neighbors a free window vertex, whose _pick score counts it.  So
        every assign result, and every vertex state that _pick, snapshot or
        a kept clause reads, stay as they are with the full lists.
        """
        stuck = ~out_ok & ~self.dec & ((1 << self.n) - 1)
        read = bitmask(i for i in set_bits(stuck) if self.nbmask[i] & self._free_mask)
        mem = self.mem
        # s: the clause's stuck vertices; keep none, or one that is read
        self.clauses = [[c for c in row if not c & mem and (not (s := c & stuck) or not s & (s - 1) and s & read)]
                        for row in self.clauses]

    def mark(self) -> Tuple[int, int]:
        """The current state, as a token for undo."""
        return self.dec, self.mem

    def undo(self, state: Tuple[int, int]) -> None:
        """Restore a state that mark() returned."""
        self.dec, self.mem = state

    def assign(self, i: int, val: bool) -> bool:
        """Decide a vertex and propagate; False on contradiction.

        Setting a vertex OUT forces IN the last undecided vertex of every
        clause through it that has no IN vertex yet.  Forced vertices only
        satisfy clauses, so nothing propagates past them.  Only loading the
        pins at the root can fail, and leaves the state unchanged: a clause
        starts with four or more vertices, and in a propagated state one with
        no IN vertex keeps two undecided, so deciding one more cannot fail.
        """
        b = 1 << i
        dec = self.dec
        if dec & b:
            return bool(self.mem & b) == val
        dec |= b
        if val:
            self.dec = dec
            self.mem |= b
            return True
        mem = self.mem
        forced = 0
        for clause in self.clauses[i]:
            if not clause & mem:
                und = clause & ~dec
                if not und:
                    return False
                if not und & (und - 1):
                    forced |= und
        self.dec = dec | forced
        self.mem = mem | forced
        return True

    # -- search ------------------------------------------------------------

    def _pick(self, cands: int) -> int:
        """The branch rule of the window search and the certify search: of
        a mask of undecided vertices, the one with the most decided
        neighbors, the least index on a tie; -1 when the mask is empty."""
        best = -1
        best_score = -1
        dec = self.dec
        nbmask = self.nbmask
        # visited lowest bit first, so only a higher score replaces best
        while cands:
            low = cands & -cands
            i = low.bit_length() - 1
            score = (nbmask[i] & dec).bit_count()
            if score > best_score:
                if score == 3:  # all three neighbors of an undecided vertex
                    return i
                best = i
                best_score = score
            cands ^= low
        return best

    def search(self, on_leaf, try_prune=None, node_cap: Optional[int] = None) -> None:
        """DFS over feasible total assignments of the window.

        Each node branches on the first undecided window vertex, in region
        order, with the most decided neighbors, IN before OUT.  on_leaf(engine) is called at each
        feasible total assignment, where every window vertex is decided;
        try_prune(engine), if given, may return True at an internal node to
        settle the whole subtree.  Either callback may set engine.aborted,
        and the search stops past node_cap nodes.  The state is the root's
        again on return.
        """
        self.aborted = False
        if not self.base_ok:
            return
        root = self.mark()
        for _ in self._walk(try_prune, node_cap):
            on_leaf(self)
            if self.aborted:
                break
        self.undo(root)

    def _walk(self, try_prune=None, node_cap: Optional[int] = None):
        """The search as a generator: it stops at each feasible leaf with the
        leaf's state in place.  The stack holds, for each IN branch on the
        path, its vertex and the state before it, whose OUT branch is still
        to try.  Ends without restoring the root state."""
        stack: List[Tuple[int, Tuple[int, int]]] = []
        while True:
            # a node: count it, then descend into its IN child (see assign)
            self.nodes += 1
            if node_cap is not None and self.nodes > node_cap:
                self.aborted = True
                return
            settled = try_prune is not None and try_prune(self)
            if self.aborted:
                return
            if not settled:
                # region order is index order, so a tie goes to the first
                i = self._pick(self._free_mask & ~self.dec)
                if i < 0:
                    yield
                else:
                    stack.append((i, (self.dec, self.mem)))
                    self.assign(i, True)
                    continue
            # backtrack to the OUT branch of the deepest IN branch
            if not stack:
                return
            i, state = stack.pop()
            self.dec, self.mem = state
            self.assign(i, False)

    def snapshot(self) -> WindowConfig:
        """The window's assignment at a leaf."""
        # every snapshot shares the region and its bit slots and keeps only
        # the window's part of mem, so a caller of enumerate may keep many
        return WindowConfig._of(self.region, self._region_bits, self.mem & self._region_mask)

    # -- decided components ------------------------------------------------

    def split(self, mask: int) -> List[_Comp]:
        """The connected components of a mask of universe indices, as
        records ordered by least member."""
        comps = []
        while mask:
            comp = grow = mask & -mask
            while grow:
                reach = 0
                for i in set_bits(grow):
                    reach |= self.nbmask[i]
                grow = reach & mask & ~comp
                comp |= grow
            mask &= ~comp
            comps.append(self.comp(tuple(set_bits(comp))))
        return comps

    def components(self) -> List[_Comp]:
        """Decided-IN components of the universe, ordered by least member:
        the records split(self.mem) gives, in its order.

        A stack keeps (IN mask, components) for IN masks the search passed
        through.  Components depend on the IN mask alone, so an entry whose
        mask is a subset of the current one extends soundly, one new IN
        vertex at a time: the components with the vertex on their frontier
        merge with it into one record, and every other component stays as
        it is.  Entries that are not subsets belong to undone branches and
        are dropped.  Callers must not modify the list.
        """
        stack = self._comp_stack
        mem = self.mem
        while stack[-1][0] & ~mem:
            stack.pop()
        base, comps = stack[-1]
        new = mem & ~base
        if new:
            for i in set_bits(new):
                bit = 1 << i
                members = [i]
                keep = []
                for c in comps:
                    if c.rim & bit:
                        members += c.members
                    else:
                        keep.append(c)
                insort(keep, self.comp(tuple(sorted(members))), key=lambda c: c.members[0])
                comps = keep
            stack.append((mem, comps))
        return comps

    def comp(self, members: Tuple[int, ...]) -> _Comp:
        """The record of a connected set of universe indices, given sorted;
        records are kept for the engine's lifetime."""
        rec = self._records.get(members)
        if rec is not None:
            return rec
        mask = bitmask(members)
        rim = reach2 = reach3 = 0
        for i in members:
            rim |= self.nbmask[i]
            reach2 |= self.within[2][i]
            reach3 |= self.within[3][i]
        center = None
        shut = 0
        closable = False
        if len(members) == 3:
            # the member adjacent to both others (its closed neighborhood
            # holds all three)
            center = next(i for i in members if (self.nbmask[i] & mask).bit_count() == 3)
            if self.nb_full[center]:
                w = (self.nbmask[center] & ~mask).bit_length() - 1
                shut = self.nbmask[w] & ~(1 << w | 1 << center)
                closable = self.nb_full[w]
        rec = self._records[members] = _Comp(
            members, mask, center, shut, closable, rim & ~mask,
            not all(self.nb_full[i] for i in members), reach2, reach3,
            tuple(self.ring2[i] & ~mask for i in members),
        )
        return rec


def enumerate(region, constraints=None):
    """Yield every feasible total status assignment of the region.

    constraints maps vertices to pinned statuses, IN or OUT; keys outside
    the region act as halo literals (they constrain feasibility but are not
    part of the yielded configurations).  Every other region vertex is
    enumerated.  Deterministic order; each assignment is yielded as the
    search reaches it.  Raises RegionTooLarge past the enumeration cap, and
    ValueError on any other pinned status.
    """
    eng = _Engine(region, constraints)
    if not eng.base_ok:
        return
    # the walk sets only free window vertices OUT
    eng.restrict_clauses(eng.pinned_out | eng._free_mask)
    for _ in eng._walk():
        yield eng.snapshot()


# ---------------------------------------------------------------------------
# certainty rules shared by the lemma checkers
#
# All rules quantify over completions of the current partial assignment: a
# rule may only fire when its conclusion holds in EVERY completion.  The key
# background facts are that a decided-IN component K always sits inside one
# actual cluster X with X containing K, and that no identifying code has a
# cluster of size exactly two (the two members' identifiers would coincide).


def _sealed(eng: _Engine, c: _Comp) -> bool:
    """No completion can grow the component: its frontier is decided OUT
    and lies inside the universe."""
    return not c.edge and not c.rim & ~eng.dec


def _closed(eng: _Engine, c: _Comp) -> bool:
    """Certainly closed while it stays a 3-path: the center's outside
    neighbor w has a second neighbor decided IN."""
    return c.closable and bool(c.shut & eng.mem)


def _open(eng: _Engine, c: _Comp) -> bool:
    """Certainly open while it stays a 3-path: every other neighbor of the
    center's outside neighbor w is decided OUT."""
    return c.closable and not c.shut & (eng.mem | ~eng.dec)


def _cert_big(eng: _Engine, c: _Comp) -> bool:
    """Certainly a closed 3-cluster or a 4+-cluster in every completion.

    Size four or more is immediate.  A closed 3-path either stays at three
    (then w keeps its other code neighbor, so the cluster is closed) or
    grows (then it is a 4+-cluster).
    """
    return len(c.members) >= 4 or _closed(eng, c)


def _cert_crowded(eng: _Engine, c: _Comp) -> bool:
    """The cluster through c is certainly crowded if it has exactly the
    members of c, and in every completion it certainly fails 'uncrowded
    1-cluster or uncrowded open 3-cluster'.

    1-cluster: some neighbor u, decided OUT, has its other two neighbors
    decided IN.  Staying a 1-cluster it is crowded; growing to a 3-cluster
    it keeps both distance-two code witnesses outside itself (absorbing
    either would need a second common neighbor, impossible at girth six),
    so it is a crowded 3-cluster; growing further it is a 4+.  3-cluster:
    some member has two decided-IN vertices at distance exactly two outside
    the component.  Staying it is crowded (a witness absorbed into a grown
    cluster means size 4+ anyway).
    """
    if len(c.members) == 1:
        for u in set_bits(c.rim & eng.dec & ~eng.mem):
            others = eng.nbmask[u] & ~(1 << u | c.mask)
            if eng.nb_full[u] and not others & ~eng.mem:
                return True
        return False
    if len(c.members) == 3:
        return any((slots & eng.mem).bit_count() >= 2 for slots in c.witness)
    return False


def _singleton_geom_unqual(eng: _Engine, x: int, center_reach: int, balls: Sequence[int]) -> bool:
    """No completion can make the singleton's cluster count: out of reach as
    a 1-cluster (its vertex misses every pinned center's ball), and no way
    to sit in a 3-cluster whose position would count (as a leaf it would
    need a path x - m - y with the far leaf y inside a pinned cluster's
    ball; as a center it would need two usable neighbors inside one).
    center_reach is the union of the centers' balls, and balls holds the
    pinned clusters' balls, all as universe masks."""
    if center_reach >> x & 1:
        return False
    out = eng.dec & ~eng.mem
    for ball in balls:
        if ball >> x & 1:
            for y in set_bits(eng.ring2[x] & ball & ~out):
                # girth six: x and y share exactly one neighbor m; one
                # beyond the universe is undecided
                if not eng.nbmask[x] & eng.nbmask[y] & out:
                    return False
    usable = eng.nbmask[x] & ~(1 << x) & ~out
    return not any((usable & ball).bit_count() >= 2 for ball in balls)


def _comp_geom_unqual(eng: _Engine, c: _Comp, balls: Sequence[int]) -> bool:
    """A size-2 or size-3 component that can never count as a nearby
    threatened 3-cluster, by position alone.  A 3-cluster's leaves are the
    ends of its path; staying at three keeps them fixed, and growing gives
    an unqualifying 4+-cluster.  For a pair, every completion to three
    appends one vertex next to either end, so the possible leaf pairs are
    known; if none lands both leaves in a single pinned cluster's ball, no
    completion counts."""
    if len(c.members) == 3:
        ends = c.mask & ~(1 << c.center)
        return all(ends & ~ball for ball in balls)
    if len(c.members) == 2:
        for m, far in (c.members, c.members[::-1]):
            for ball in balls:
                if ball >> far & 1 and eng.nbmask[m] & ~eng.dec & ball:
                    return False
        return True
    return False


def _cert_unthreat(eng: _Engine, c: _Comp, comps: Sequence[_Comp]) -> bool:
    """The cluster through c is certainly not threatened, whatever its
    final size.

    A component that is certainly closed-or-4+ within distance three kills
    threatened-ness of both candidate kinds: a 1-cluster would be within
    three of a 4+-cluster or nearby an unthreatened (closed) 3-cluster; an
    open 3-cluster would have a closed 3-cluster or 4+-cluster within
    distance three.  When c cannot end up a 1-cluster (size two or three),
    any other component of size two or more within distance two also kills
    it: a bare pair is never a cluster (the two would share an identifier),
    so the other's cluster lands as an open 3-cluster within two, as a
    closed 3-cluster or 4+-cluster within three, or merges with c's own
    cluster into an unqualifying 4+-cluster.
    """
    others = [o for o in comps if o is not c]
    if any(c.reach3 & o.mask and _cert_big(eng, o) for o in others):
        return True
    return 2 <= len(c.members) <= 3 and any(
        len(o.members) >= 2 and c.reach2 & o.mask for o in others
    )


# ---------------------------------------------------------------------------
# per-lemma checkers


class _LemmaState:
    """Base for per-lemma evaluation over engine states.  anchors are the
    records of the pinned clusters, as _make_state picked and checked them;
    the universe holds each one's whole distance-3 ball, its reach3, and
    each lemma cuts zone_mask, where candidate clusters are counted, from
    those balls."""

    def __init__(self, eng: _Engine, anchors: Sequence[_Comp]):
        self.eng = eng
        self.anchors = tuple(anchors)
        self.anchor_mask = bitmask(i for a in self.anchors for i in a.members)
        # one side of the bipartite grid: every edge joins s = 0 to s = 1
        self.side = bitmask(i for i in range(eng.n) if eng.verts[i].s == 0)

    # hypothesis certainly false on the current (partial) assignment
    def hyp_false(self) -> bool:
        raise NotImplementedError

    # conclusion certainly true, by rules alone (no branching)
    def concl_certain(self) -> bool:
        raise NotImplementedError

    # conclusion certainly false using decided vertices only
    def refuted(self) -> bool:
        return False

    def influence(self) -> int:
        """Branch candidates for the certify search, as a mask: the
        undecided zone vertices, the frontier and closure slots of every
        component, and the distance-two slots of the pinned clusters."""
        eng = self.eng
        cands = self.zone_mask
        for c in eng.components():
            cands |= c.rim | c.shut
        for a in self.anchors:
            for slots in a.witness:
                cands |= slots
        return cands & ~eng.dec

    def prune(self, eng: _Engine) -> bool:
        """Internal-node settlement: the whole subtree is fine."""
        return self.hyp_false() or self.concl_certain()

    def _floor(self, comps: Sequence[_Comp], limit: Optional[int] = None) -> int:
        """An upper bound on the candidate clusters holding no IN vertex of a
        component that meets the zone: the independence number of the free
        set, the undecided zone vertices off the rim of every component that
        meets the zone or holds an anchor vertex.

        Sound: such a candidate meets the zone only at undecided vertices
        (an IN one would join a zone-meeting component), none on those rims
        (the IN neighbor would join it), and distinct clusters are never
        adjacent.  Rims of components outside the zone stay free, since
        those may grow into it.  The grid is bipartite, so the number is
        the free count minus a maximum matching (König).  Past a limit it
        may stop early at the larger side, itself independent."""
        eng = self.eng
        free = self.zone_mask & ~eng.dec
        hold = self.zone_mask | self.anchor_mask
        for c in comps:
            if c.mask & hold:
                free &= ~c.rim
        left = free & self.side
        right = free & ~left
        big = max(left.bit_count(), right.bit_count())
        if limit is not None and big > limit:
            return big
        return free.bit_count() - len(self._matching(left, right))

    def _matching(self, left: int, right: int) -> Dict[int, int]:
        """A maximum matching between two masks of vertices, as a map from
        each matched vertex of right to its partner in left: one augmenting
        path search per left vertex (Kuhn), over the neighbor masks."""
        nbmask = self.eng.nbmask
        match: Dict[int, int] = {}
        matched = seen = 0

        def augment(a: int) -> bool:
            nonlocal matched, seen
            opts = nbmask[a] & right & ~seen
            spare = opts & ~matched
            if spare:
                low = spare & -spare
                match[low.bit_length() - 1] = a
                matched |= low
                return True
            # every option is matched: try to move each partner elsewhere
            seen |= opts
            for b in set_bits(opts):
                if augment(match[b]):
                    match[b] = a
                    return True
            return False

        for a in set_bits(left):
            seen = 0
            augment(a)
        return match

    def _support(self, comps: Sequence[_Comp], limit: int) -> int:
        """An upper bound on the candidate clusters the zone can still hold:
        the floor, plus one per component that meets the zone, avoids the
        pinned clusters and is not certainly unqualified.  The count stops
        once it passes limit, so a result above limit says only that."""
        total = self._floor(comps, limit)
        for c in comps:
            if total > limit:
                break
            if not c.mask & self.anchor_mask and c.mask & self.zone_mask and not self._unqual(c, comps):
                total += 1
        return total

    # the cluster through c certainly cannot be a counted candidate
    def _unqual(self, c, comps) -> bool:
        raise NotImplementedError


_CERTIFY_DEPTH = 14
_CERTIFY_NODES = 6000


def _certify(state: _LemmaState, depth: int = _CERTIFY_DEPTH,
             budget: Optional[List[int]] = None) -> bool:
    """True when every completion of the current assignment satisfies the
    lemma (hypothesis fails or conclusion holds).  Branches on one
    influence vertex, chosen by the window search's own rule
    (_Engine._pick), each branch feasible (see _Engine.assign); not
    certified when no candidate is left."""
    eng = state.eng
    if budget is None:
        budget = [_CERTIFY_NODES]
    budget[0] -= 1
    if budget[0] < 0:
        return False
    if state.hyp_false():
        return True
    if state.concl_certain():
        return True
    if depth <= 0:
        return False
    f = eng._pick(state.influence())
    if f < 0:
        return False
    for val in (True, False):
        m = eng.mark()
        eng.assign(f, val)
        sub = _certify(state, depth - 1, budget)
        eng.undo(m)
        if not sub:
            return False
    return True


class _L1State(_LemmaState):
    """A lone uncrowded code vertex is nearby a 3+-cluster: within distance
    three of a 4+-cluster or closed 3-cluster, or within distance three of
    the open center of a 3-cluster."""

    def __init__(self, eng, anchors):
        super().__init__(eng, anchors)
        self.zone_mask = self.anchors[0].reach3
        self.near_mask = self.zone_mask & ~self.anchor_mask

    def hyp_false(self) -> bool:
        return _cert_crowded(self.eng, self.anchors[0])

    def _nearby(self):
        """The components other than the lone vertex that reach its
        distance-three ball."""
        return [c for c in self.eng.components()
                if not c.mask & self.anchor_mask and c.mask & self.near_mask]

    def concl_certain(self) -> bool:
        eng = self.eng
        if not eng.mem & self.near_mask:
            return False
        for c in self._nearby():
            if _cert_big(eng, c):
                return True
            if c.center is not None and self.near_mask >> c.center & 1:
                return True  # a 3-path's center in reach, open or closed
            if len(c.members) == 2 and self._n4(c):
                return True
        return False

    def _n4(self, c) -> bool:
        # a size-2 component must grow to three or more; whichever frontier
        # vertex joins, the result is certainly nearby
        eng = self.eng
        und = c.rim & ~eng.dec
        if c.edge or not und:
            return False
        for f in set_bits(und):
            if eng.nbmask[f] & eng.mem & ~c.mask:
                continue  # merging makes a 4+-cluster within three
            grown = eng.comp(tuple(sorted(c.members + (f,))))
            if self.near_mask >> grown.center & 1:
                continue  # grown path's center in reach, open or closed
            if not _closed(eng, grown):
                return False
        return True

    def refuted(self) -> bool:
        eng = self.eng
        if self.zone_mask & ~eng.dec:
            return False
        for c in self._nearby():
            if not _sealed(eng, c) or len(c.members) >= 4:
                return False  # still growing, or a 4+-cluster, which qualifies
            if c.center is not None and (not _open(eng, c) or self.near_mask >> c.center & 1):
                return False
        return True


class _L2State(_LemmaState):
    """A closed 3-cluster has at most ten nearby 1-clusters and open
    3-clusters, and exactly ten forces it to be crowded."""

    def __init__(self, eng, anchors):
        super().__init__(eng, anchors)
        self.anchor = self.anchors[0]
        self.zone_mask = self.anchor.reach3 & ~(self.anchor.mask | self.anchor.rim)

    def hyp_false(self) -> bool:
        return _open(self.eng, self.anchor)

    def _unqual(self, c, comps) -> bool:
        return _cert_big(self.eng, c) or _cert_crowded(self.eng, c)

    def concl_certain(self) -> bool:
        u = self._support(self.eng.components(), 10)
        if u <= 9:
            return True
        return u <= 10 and _cert_crowded(self.eng, self.anchor)

    def refuted(self) -> bool:
        eng = self.eng
        if self.zone_mask & ~eng.dec:
            return False
        exact = 0
        for c in eng.components():
            if c.mask & self.anchor_mask or not c.mask & self.zone_mask:
                continue
            if not _sealed(eng, c):
                return False
            q = self._qual_exact(c)
            if q is None:
                return False
            exact += q
        uncrowded = self._uncrowded_exact()
        if uncrowded is None:
            return False
        return exact > 10 or (exact == 10 and uncrowded)

    def _uncrowded_exact(self) -> Optional[bool]:
        # None at the first member with an undecided distance-two slot; the
        # universe reaches GROWTH_MARGIN past the pinned cluster, so all its
        # slots lie inside
        eng = self.eng
        for slots in self.anchor.witness:
            if slots & ~eng.dec:
                return None
            if (slots & eng.mem).bit_count() >= 2:
                return False
        return True

    def _qual_exact(self, c) -> Optional[bool]:
        # sealed component: is it exactly an uncrowded 1-cluster or
        # uncrowded open 3-cluster?  None when not decidable.
        eng = self.eng
        if len(c.members) == 3 and not (_sealed(eng, c) and _open(eng, c)):
            # closed, hence not an open 3-cluster, once the closure is decided
            return None if not c.closable or c.shut & ~eng.dec else False
        if len(c.members) not in (1, 3):
            return False  # a 4+-cluster, or a sealed pair (no feasible state has one)
        # every distance-two slot must lie in the universe and be decided
        if c.edge or not all(eng.nb_full[u] for u in set_bits(c.rim)):
            return None
        if any(slots & ~eng.dec for slots in c.witness):
            return None
        return not _cert_crowded(eng, c)


class _ThreatState(_LemmaState):
    """Base for the lemmas that count threatened 1-clusters and threatened
    3-clusters nearby pinned clusters (L3 and L4).  center_reach is the
    union of the pinned centers' distance-three balls, and balls are the
    pinned clusters' distance-three balls."""

    def __init__(self, eng, anchors):
        super().__init__(eng, anchors)
        self.center_reach = 0
        for a in self.anchors:
            self.center_reach |= eng.within[3][a.center]
        self.balls = [a.reach3 for a in self.anchors]

    def _unqual(self, c, comps) -> bool:
        eng = self.eng
        if _cert_big(eng, c) or _cert_crowded(eng, c) or _cert_unthreat(eng, c, comps):
            return True
        if len(c.members) == 1:
            return _singleton_geom_unqual(eng, c.members[0], self.center_reach, self.balls)
        return _comp_geom_unqual(eng, c, self.balls)


class _L3State(_ThreatState):
    """A needy 3-cluster has both leaves within distance three of a
    3+-cluster.  Needy: threatened, with at least four nearby threatened
    1-clusters and threatened 3-clusters."""

    def __init__(self, eng, anchors):
        super().__init__(eng, anchors)
        self.anchor = self.anchors[0]
        leaves = [i for i in self.anchor.members if i != self.anchor.center]
        self.zone_mask = self.anchor.reach3 & ~self.anchor.mask
        self.near_masks = [eng.within[3][l] & ~self.anchor_mask for l in leaves]

    def hyp_false(self) -> bool:
        eng = self.eng
        if _cert_crowded(eng, self.anchor):
            return True
        # a sealed anchor is its own component's record
        comps = eng.components()
        if _cert_unthreat(eng, self.anchor, comps):
            return True
        return self._support(comps, 3) < 4

    def concl_certain(self) -> bool:
        eng = self.eng
        near1, near2 = self.near_masks
        if not eng.mem & near1 or not eng.mem & near2:
            return False
        return any(
            len(c.members) >= 2 and not c.mask & self.anchor_mask and c.mask & near1 and c.mask & near2
            for c in eng.components()
        )

    def refuted(self) -> bool:
        # a helping cluster must put decided vertices inside a leaf ball, so
        # every component touching either ball has to be sealed; a sealed
        # non-singleton reaching both leaves would actually qualify
        eng = self.eng
        near1, near2 = self.near_masks
        if (near1 | near2) & ~eng.dec:
            return False
        for c in eng.components():
            if c.mask & self.anchor_mask or not c.mask & (near1 | near2):
                continue
            if not _sealed(eng, c):
                return False
            if len(c.members) >= 2 and c.mask & near1 and c.mask & near2:
                return False
        return True


class _L4State(_ThreatState):
    """Two paired uncrowded open 3-clusters have at most seven nearby
    threatened 1-clusters and threatened 3-clusters; exactly seven forces a
    nearby closed 3-cluster or 4+-cluster.  It claims no refutation: showing
    that seven candidates are all genuinely threatened would need their
    surroundings decided out to distance six, which no window provides."""

    def __init__(self, eng, anchors):
        super().__init__(eng, anchors)
        for a, other in zip(self.anchors, reversed(self.anchors)):
            if any(not eng.within[3][l] & other.mask for l in a.members if l != a.center):
                raise ValueError("pinned clusters are not paired")
        self.zone_mask = (self.balls[0] | self.balls[1]) & ~self.anchor_mask

    def hyp_false(self) -> bool:
        return any(_cert_crowded(self.eng, a) for a in self.anchors)

    def _big_nearby_certain(self, comps) -> bool:
        return any(
            not c.mask & self.anchor_mask and c.reach3 & self.anchor_mask and _cert_big(self.eng, c)
            for c in comps
        )

    def concl_certain(self) -> bool:
        comps = self.eng.components()
        u = self._support(comps, 7)
        if u <= 6:
            return True
        return u <= 7 and self._big_nearby_certain(comps)


# ---------------------------------------------------------------------------
# the public checker


@dataclass(frozen=True)
class LemmaVerdict:
    lemma_id: str
    result: str
    radius: Optional[int]
    template: Optional[str]
    configs_explored: int
    counterexample: Optional[WindowConfig] = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "lemmaId": self.lemma_id,
            "result": self.result,
            "radius": self.radius,
            "template": self.template,
            "configsExplored": self.configs_explored,
            "counterexample": self.counterexample.to_json() if self.counterexample else None,
            "note": self.note,
        }


class _Lemma(NamedTuple):
    """One window lemma: its state class, default window, and the number,
    size and description of the pinned clusters it is about."""

    state: type
    template: str
    anchors: int
    size: int
    wanted: str


_LEMMAS = {
    "L1": _Lemma(_L1State, "fig3a", 1, 1, "one sealed lone code vertex"),
    "L2": _Lemma(_L2State, "fig3b", 1, 3, "one 3-cluster with its neighbors pinned OUT"),
    "L3": _Lemma(_L3State, "fig4", 1, 3, "one 3-cluster with its neighbors pinned OUT"),
    "L4": _Lemma(_L4State, "fig5", 2, 3, "two 3-clusters with their neighbors pinned OUT"),
}

LEMMA_IDS = tuple(_LEMMAS) + ("L5partition",)

_DEFAULT_TEMPLATE = {lemma_id: row.template for lemma_id, row in _LEMMAS.items()}


def _radius_window(lemma_id: str, radius: int) -> Template:
    """A ball window around the pinned hypothesis of the lemma's default
    template; pins beyond the ball stay as halo rows."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    # the window holds the ball of this radius around a pinned vertex, which
    # has 1 + 3r(r+1)/2 vertices; refuse a large one before building it
    size = 1 + 3 * radius * (radius + 1) // 2
    if size > UNIVERSE_CAP:
        raise RegionTooLarge(
            "a radius-%d window holds at least %d vertices, over the universe cap of %d"
            % (radius, size, UNIVERSE_CAP)
        )
    pins = TEMPLATES[_DEFAULT_TEMPLATE[lemma_id]].constraints()
    if lemma_id == "L1":
        # the lone vertex and its neighborhood, without the two normalized
        # distance-two witnesses
        lone = Vertex(1, 1, 1)
        pins = {v: pins[v] for v in (lone,) + neighbors(lone)}
    region = set().union(*layers([v for v, st in pins.items() if st == IN], radius))
    rows = [(v, pins.get(v, UNKNOWN)) for v in sorted(region)]
    rows += [(v, pins[v]) for v in sorted(pins) if v not in region]
    return Template("ball-r%d" % radius, tuple(rows))


def _resolve_template(lemma_id: str, radius, template) -> Template:
    if template is not None and radius is not None:
        raise ValueError("give either a radius or a template, not both")
    if template is None and radius is None:
        template = _DEFAULT_TEMPLATE[lemma_id]
    if template is not None:
        if isinstance(template, Template):
            return template
        if template in TEMPLATES:
            return TEMPLATES[template]
        raise ValueError("unknown template %r" % (template,))
    return _radius_window(lemma_id, radius)


def check_lemma(lemma_id: str, radius: Optional[int] = None,
                template=None, node_cap: Optional[int] = None) -> LemmaVerdict:
    """Check one structural lemma over every feasible window assignment.

    With a template (default: the built-in window for the lemma) the pinned
    window is enumerated; with a radius, a ball window around the pins of
    the default window is used instead.  Either must seal the lemma's
    clusters (see _make_state).  L5partition sweeps cluster shapes up to
    the size given as radius (default 8, at most SHAPE_CAP); it has no
    window, so it refuses a template and a node cap.
    """
    if lemma_id not in LEMMA_IDS:
        raise ValueError("unknown lemma %r" % (lemma_id,))
    if lemma_id == "L5partition":
        if template is not None or node_cap is not None:
            raise ValueError("L5partition sweeps cluster shapes; it takes no template or node cap")
        size = 8 if radius is None else radius
        if not 1 <= size <= SHAPE_CAP:
            raise ValueError("L5partition sweeps shape sizes 1 to %d, not %d" % (SHAPE_CAP, size))
        return _check_partition(size)

    tpl = _resolve_template(lemma_id, radius, template)
    eng = _Engine(tpl.region(), tpl.constraints())
    state = _make_state(lemma_id, eng)

    settled = [0]
    open_configs = [0]
    counterexample: List[WindowConfig] = []

    def try_prune(e):
        if state.prune(e):
            settled[0] += 1
            return True
        return False

    def on_leaf(e):
        settled[0] += 1
        outcome = _settle(state)
        if outcome == COUNTEREXAMPLE:
            counterexample.append(e.snapshot())
            e.aborted = True
        elif outcome == INCONCLUSIVE:
            open_configs[0] += 1

    eng.search(on_leaf, try_prune=try_prune, node_cap=node_cap)

    result, note = VERIFIED, ""
    if not eng.base_ok:
        note = "the pinned window admits no feasible assignment at all"
    elif counterexample:
        result = COUNTEREXAMPLE
        note = ("advisory: the window refutes the conclusion with decided "
                "vertices only; re-run with a larger window")
    elif eng.aborted:
        result, note = INCONCLUSIVE, "node cap reached after %d search nodes" % eng.nodes
    elif open_configs[0]:
        result, note = INCONCLUSIVE, "%d window assignments left the conclusion open" % open_configs[0]
    return LemmaVerdict(lemma_id, result, radius, tpl.name, settled[0],
                        counterexample[0] if counterexample else None, note)


def _settle(state: _LemmaState) -> str:
    """The verdict on one feasible total assignment: VERIFIED when every
    completion satisfies the lemma, COUNTEREXAMPLE when decided vertices
    refute it, INCONCLUSIVE otherwise."""
    if _certify(state):
        return VERIFIED
    return COUNTEREXAMPLE if state.refuted() else INCONCLUSIVE


def _make_state(lemma_id: str, eng: _Engine) -> _LemmaState:
    """The lemma's state on the engine.  Its anchors are the pinned-IN
    clusters the lemma's row in _LEMMAS asks for, each a component of
    pinned-IN vertices whose neighbors are all pinned OUT.  The pinned
    neighbors are seeds of the universe, which reaches GROWTH_MARGIN past
    them, so every zone and ball the lemma reads lies inside it."""
    row = _LEMMAS[lemma_id]
    anchors = [a for a in eng.split(eng.pinned_in)
               if len(a.members) == row.size and not a.rim & ~eng.pinned_out]
    if len(anchors) != row.anchors:
        raise ValueError("window must pin exactly " + row.wanted)
    return row.state(eng, anchors)


# ---------------------------------------------------------------------------
# cluster-shape sweep: the shell partition bound


def _connected_shapes(max_size: int) -> List[frozenset]:
    """Connected vertex sets up to translation, sizes 1..max_size."""

    def canon(shape):
        m = min(shape)
        return frozenset(Vertex(v.a - m.a, v.b - m.b, v.s) for v in shape)

    seen = set()
    order = []
    frontier = []
    for seed in (Vertex(0, 0, 0), Vertex(0, 0, 1)):
        c = canon({seed})
        if c not in seen:
            seen.add(c)
            order.append(c)
            frontier.append(c)
    for _ in range(1, max_size):
        nxt = []
        for shape in frontier:
            grow = set()
            for v in shape:
                for w in neighbors(v):
                    if w not in shape:
                        grow.add(w)
            for w in grow:
                c = canon(shape | {w})
                if c not in seen:
                    seen.add(c)
                    order.append(c)
                    nxt.append(c)
        frontier = nxt
    return order


def _forced_singletons(verts: frozenset, shell: frozenset) -> frozenset:
    """Shell vertices with two internally disjoint length-3 paths to a
    single cluster vertex: their part of the cover must be a singleton.

    Only paths whose inner vertices avoid the cluster count.  Two distinct
    length-3 paths from v to one end never share an inner vertex, since
    that would close a cycle shorter than the grid's girth of six, so v is
    forced exactly when some cluster vertex ends two such paths."""
    forced = set()
    for v in shell:
        ends = Counter(u for a in neighbors(v) if a not in verts
                       for b in neighbors(a) if b != v and b not in verts
                       for u in neighbors(b) if u in verts)
        if any(k >= 2 for k in ends.values()):
            forced.add(v)
    return frozenset(forced)


def _max_matching(shell: frozenset, blocked: frozenset) -> int:
    """Maximum matching of the shell-induced subgraph avoiding blocked
    vertices.  The grid is bipartite by the s coordinate, so alternating
    path augmentation is exact."""
    avail = sorted(v for v in shell if v not in blocked)
    left = [v for v in avail if v.s == 0]
    adj = {
        v: sorted(w for w in neighbors(v) if w in shell and w not in blocked)
        for v in left
    }
    match: Dict[Vertex, Vertex] = {}

    def augment(v, visited):
        for w in adj[v]:
            if w in visited:
                continue
            visited.add(w)
            if w not in match or augment(match[w], visited):
                match[w] = v
                return True
        return False

    size = 0
    for v in left:
        if augment(v, set()):
            size += 1
    return size


def _shell_bound(verts: frozenset) -> Tuple[int, int]:
    shell = frozenset().union(*layers(verts, 3)[2:])
    forced = _forced_singletons(verts, shell)
    matching = _max_matching(shell, forced)
    return len(shell), len(shell) - matching


def shell_partition_bound(code, cluster) -> Tuple[int, int]:
    """(shellSize, minParts) for a finite cluster of the code.

    The shell is the set of vertices at distance two or three from the
    cluster; minParts is the least number of parts in a cover of the shell
    by adjacent pairs and singletons, where a vertex with two internally
    disjoint length-3 paths to a single cluster vertex must be a singleton.
    Each part meets at most one nearby cluster, so minParts bounds the
    number of distinct nearby clusters.
    """
    if cluster.infinite:
        raise UnsupportedKind("shell bound needs a finite cluster")
    del code  # the bound is geometric; the code fixes only the cluster
    return _shell_bound(frozenset(cluster.vertices))


def _check_partition(max_size: int) -> LemmaVerdict:
    """Sweep every cluster shape up to max_size: the shell always covers
    with at most size + 8 parts under the forced-singleton constraint."""
    shapes = _connected_shapes(max_size)
    worst = None
    for shape in shapes:
        size, parts = _shell_bound(shape)
        if parts > len(shape) + 8:
            worst = shape
            break
    if worst is not None:
        region = tuple(sorted(worst))
        cfg = WindowConfig(region, tuple(IN for _ in region))
        return LemmaVerdict(
            "L5partition", COUNTEREXAMPLE, max_size, None, len(shapes), cfg,
            note="shape of size %d needs more than size + 8 parts" % len(worst),
        )
    return LemmaVerdict("L5partition", VERIFIED, max_size, None, len(shapes))
