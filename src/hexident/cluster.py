"""Clusters of a periodic code and their structural labels.

A cluster is a connected component of the subgraph induced by the code
on the infinite grid.  For a periodic code the components fall into
orbits under the period lattice; each orbit is reported once, anchored
at a concrete position (the component instance reached from the least
unassigned domain representative).  A component that connects a vertex
to a nontrivial translate of itself is INFINITE and is represented by
its set of orbit classes instead of a materialized vertex set.

Other instances of any orbit (its lattice translates) are genuine
distinct clusters of the infinite graph.  All proximity predicates
below (nearby, threatened, needy, paired) therefore quantify over
instances, never just over reported orbits: a cluster can be nearby a
translate of itself.

Labels follow the taxonomy used by the discharging engine:

  * 1-cluster v is crowded when some neighbor u of v has all three of
    its neighbors in the code.
  * a 3-cluster is a path; its center is the degree-2 vertex.  It is
    open when the center's outside neighbor has no second code
    neighbor, else closed.  It is crowded when some cluster vertex has
    at least two code vertices at distance exactly two outside the
    cluster instance.
  * nearby is directional, from an uncrowded 1-cluster or uncrowded
    open 3-cluster toward a 3+-cluster: every 4+-cluster and closed
    3-cluster within distance three, and each open 3-cluster whose
    center is within three of the 1-cluster, or that is within three of
    both leaves of the open 3-cluster.
  * threatened and needy refine open 3-clusters and 1-clusters; all
    3-cluster threat labels are fixed before any 1-cluster is judged.

Every one of these labels, and every rescue rule and claim of the
discharging engine, reads one relation: reach(cl), the instances within
distance three of a finite cluster with their distances.  nearby(cl) is
the only definition of nearby and filters reach.  A query in the other
direction (is cl nearby from an instance X + d of another finite
cluster X?) reads nearby(X) with cl seen from X's frame, as the
instance of cl at offset -d.

The labels, reach and rule 4's face test read the radius-3 ball of
code.clause_pattern around each cluster vertex, the last through the
pattern's face positions.  The ball is walked through the lattice's
neighbour table as nodes (j, a, b): the domain vertex of orbit j
shifted by the cell offset (a, b).  One map sends each code orbit j to (cid, da, db),
its cluster and the offset at which the cluster's anchored instance
holds it, so a code node (j, a, b) lies in the instance at offset
(a - da, b - db), the anchored one exactly when the map gives (cid, a, b).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from hexident.hexgrid import Vertex
from hexident.code import PeriodicCode, clause_pattern


class UnsupportedKind(ValueError):
    """A cluster predicate was asked about a kind it is not defined for."""


class Instance(NamedTuple):
    """A concrete component of the infinite graph: orbit id + cell offset.

    Offsets are relative to the orbit's anchored vertex set.  Instances
    of INFINITE orbits are collapsed to offset (0, 0); no predicate in
    this package needs to tell translates of an infinite component
    apart.
    """

    cid: int
    da: int
    db: int


@dataclass(frozen=True)
class Cluster:
    cid: int
    vertices: frozenset[Vertex]  # anchored instance; orbit classes if infinite
    classes: frozenset[Vertex]
    infinite: bool

    @property
    def size(self) -> int | None:
        return None if self.infinite else len(self.vertices)

    @property
    def anchored(self) -> Instance:
        return Instance(self.cid, 0, 0)


class Classification:
    """Clusters of one code plus every label the discharge rules read."""

    def __init__(self, code: PeriodicCode):
        self.code = code
        self.clusters: list[Cluster] = []
        self._place: dict[int, tuple[int, int, int]] = {}
        # per cluster, its orbits with their offsets, as _component found them
        self._members: list[dict[int, tuple[int, int]]] = []
        self._build_clusters()
        self._reach: dict[int, dict[Instance, int]] = {}
        self._nearby: dict[int, frozenset[Instance]] = {}

    # -- component extraction --------------------------------------------

    def _build_clusters(self):
        domain = self.code.lattice.vertices
        inside = self.code.orbits()
        place = self._place
        # ascending orbit index is domain order
        for rep in sorted(inside):
            if rep in place:
                continue
            at, infinite = self._component(rep, inside)
            cid = len(self.clusters)
            # each class with the vertex at which the search met it
            placed = {}
            for j, (da, db) in at.items():
                c = domain[j]
                placed[c] = Vertex(c.a + da, c.b + db, c.s)
                place[j] = (cid, da, db)
            classes = frozenset(placed)
            vertices = classes if infinite else frozenset(placed.values())
            self.clusters.append(Cluster(cid, vertices, classes, infinite))
            self._members.append(at)

    def _component(self, rep: int, inside: set[int]) -> tuple[dict[int, tuple[int, int]], bool]:
        """The orbits of the component through domain vertex rep, each
        with the cell offset at which the component first meets it, and
        whether the component is infinite.

        One breadth-first search over (orbit, offset) pairs through the
        lattice's neighbour table, expanding one vertex per orbit:
        translates have translated neighbors, so that reaches every orbit
        of the component.  The component is infinite exactly when it
        reaches one orbit at two different offsets (it then joins a vertex
        to a nontrivial translate of itself).
        """
        table = self.code.lattice.table
        at = {rep: (0, 0)}
        infinite = False
        queue = deque([rep])
        while queue:
            i = queue.popleft()
            a, b = at[i]
            for j, da, db in table[i]:
                if j not in inside:
                    continue
                off = (a + da, b + db)
                prev = at.get(j)
                if prev is None:
                    at[j] = off
                    queue.append(j)
                elif prev != off:
                    infinite = True
        return at, infinite

    def cluster_orbits(self, cid: int) -> Iterable[int]:
        """The orbit indices of a cluster's classes."""
        return self._members[cid].keys()

    # -- instances --------------------------------------------------------

    def _nodes(self, cid: int, da: int = 0, db: int = 0) -> list[tuple[int, int, int]]:
        """The nodes of a finite cluster's instance at offset (da, db)."""
        return [(j, a + da, b + db) for j, (a, b) in self._members[cid].items()]

    def _instance(self, j: int, a: int, b: int) -> Instance:
        """The instance holding the code node (j, a, b)."""
        cid, da, db = self._place[j]
        if self.clusters[cid].infinite:
            return Instance(cid, 0, 0)
        return Instance(cid, a - da, b - db)

    def instance_of(self, w: Vertex) -> Instance:
        """The component instance containing w, which must be a code vertex."""
        lat = self.code.lattice
        j = lat.index(w)
        if j not in self._place:
            raise ValueError(f"({w.a},{w.b},{w.s}) is not a code vertex")
        c = lat.vertices[j]
        return self._instance(j, w.a - c.a, w.b - c.b)

    def instance_vertices(self, inst: Instance) -> frozenset[Vertex]:
        cluster = self.clusters[inst.cid]
        if cluster.infinite or inst.da == inst.db == 0:
            return cluster.vertices
        return frozenset(Vertex(v.a + inst.da, v.b + inst.db, v.s) for v in cluster.vertices)

    def _ball(self, node: tuple[int, int, int]) -> list[list[tuple[int, int, int]]]:
        """The radius-3 ball around a node (j, a, b) by distance, as layers()
        gives it: clause_pattern(j & 1) walked through the lattice's table."""
        pattern, table, at = clause_pattern(node[0] & 1), self.code.lattice.table, [node]
        for parent, slot in pattern.walk:
            j, a, b = at[parent]
            k, da, db = table[j][slot]
            at.append((k, a + da, b + db))
        return [at[lo:hi] for lo, hi in zip((0,) + pattern.ends, pattern.ends)]

    def _center_node(self, inst: Instance) -> tuple[int, int, int]:
        j = self._center(inst.cid)
        _, a, b = self._place[j]
        return (j, a + inst.da, b + inst.db)

    def instance_center(self, inst: Instance) -> Vertex:
        """The degree-2 vertex of a 3-cluster instance (a path by girth 6)."""
        j, a, b = self._center_node(inst)
        c = self.code.lattice.vertices[j]
        return Vertex(c.a + a, c.b + b, c.s)

    # -- shape labels ------------------------------------------------------

    # Both shape label maps are computed on first use, like the threat
    # labels below: a caller that reads only the clusters skips them.

    @cached_property
    def crowded(self) -> dict[int, bool]:
        out = {}
        for cl in self.clusters:
            if cl.size == 1:
                out[cl.cid] = self._crowded1(cl)
            elif cl.size == 3:
                out[cl.cid] = self._crowded3(cl)
        return out

    @cached_property
    def open_(self) -> dict[int, bool]:
        return {cl.cid: self._open3(cl) for cl in self.clusters if cl.size == 3}

    def _code_degree(self, j: int) -> int:
        """How many neighbours of a vertex of orbit j are code vertices."""
        place = self._place
        return sum(k in place for k, _, _ in self.code.lattice.table[j])

    def _crowded1(self, cl: Cluster) -> bool:
        (j,) = self._members[cl.cid]
        return any(self._code_degree(k) == 3 for k, _, _ in self.code.lattice.table[j])

    def _center(self, cid: int) -> int:
        """The orbit of a 3-cluster's center, its member with two code neighbours."""
        return next(j for j in self._members[cid] if self._code_degree(j) == 2)

    def _open3(self, cl: Cluster) -> bool:
        c = self._center(cl.cid)
        (w,) = [k for k, _, _ in self.code.lattice.table[c] if k not in self._place]
        # the center is one code neighbour of w; open when it is the only one
        return self._code_degree(w) == 1

    def _crowded3(self, cl: Cluster) -> bool:
        place = self._place
        for node in self._nodes(cl.cid):
            near = 0
            for j, a, b in self._ball(node)[2]:
                # a code vertex counts unless it belongs to this instance
                near += j in place and place[j] != (cl.cid, a, b)
            if near >= 2:
                return True
        return False

    def is_big(self, cid: int) -> bool:
        """4+-cluster for rule purposes: size >= 4 or infinite."""
        cl = self.clusters[cid]
        return cl.infinite or len(cl.vertices) >= 4

    def is_closed3(self, cid: int) -> bool:
        cl = self.clusters[cid]
        return cl.size == 3 and not self.open_[cid]

    def is_open3(self, cid: int) -> bool:
        cl = self.clusters[cid]
        return cl.size == 3 and self.open_[cid]

    # -- the distance-three relation ---------------------------------------

    def reach(self, cl: Cluster) -> dict[Instance, int]:
        """Every other instance within distance three of a finite cluster.

        Maps each instance to its distance from cl's anchored instance,
        the least over the members' balls.  A code vertex outside the
        cluster is never adjacent to it, so every distance is two or three.
        """
        got = self._reach.get(cl.cid)
        if got is None:
            got = {}
            place = self._place
            for ball in map(self._ball, self._nodes(cl.cid)):
                for d in (2, 3):
                    for j, a, b in ball[d]:
                        # the members' balls also meet cl's own instance
                        if j in place and (inst := self._instance(j, a, b)) != cl.anchored:
                            got[inst] = min(d, got.get(inst, d))
            self._reach[cl.cid] = got
        return got

    def nearby(self, cl: Cluster) -> frozenset[Instance]:
        """The instances a 1-cluster or an open 3-cluster is nearby, as
        the module docstring defines it; a subset of reach(cl)."""
        got = self._nearby.get(cl.cid)
        if got is None:
            if cl.size == 1:
                near = set().union(*self._ball(self._nodes(cl.cid)[0]))
                hits = lambda i: self._center_node(i) in near
            elif self.is_open3(cl.cid):
                c = self._center(cl.cid)
                balls = [set().union(*self._ball(n)) for n in self._nodes(cl.cid) if n[0] != c]
                hits = lambda i: all(not b.isdisjoint(self._nodes(*i)) for b in balls)
            else:
                raise UnsupportedKind("nearby is defined from 1-clusters and open 3-clusters")
            got = frozenset(
                i
                for i in self.reach(cl)
                if self.is_big(i.cid) or self.is_closed3(i.cid) or (self.is_open3(i.cid) and hits(i))
            )
            self._nearby[cl.cid] = got
        return got

    def shares_face(self, cl: Cluster, inst: Instance) -> bool:
        """Whether a 3-cluster instance's center lies on a hexagonal face
        through the vertex of the 1-cluster cl: rule 4's face test."""
        (node,) = self._nodes(cl.cid)
        at = [n for ring in self._ball(node) for n in ring]
        return self._center_node(inst) in {at[t] for t in clause_pattern(node[0] & 1).face}

    # -- threatened / needy ------------------------------------------------

    # Both label maps are computed on first use, so callers that read only
    # clusters and shape labels skip the distance-three searches.

    @cached_property
    def threatened(self) -> dict[int, bool]:
        # 3-clusters first; 1-cluster threat reads their labels
        labels = {cl.cid: self._threatened3(cl) for cl in self.clusters if cl.size == 3}
        for cl in self.clusters:
            if cl.size == 1:
                labels[cl.cid] = self._threatened1(cl, labels)
        return labels

    @cached_property
    def needy(self) -> dict[int, bool]:
        return {
            cl.cid: self.threatened[cl.cid] and self.needy_support(cl) >= 4
            for cl in self.clusters
            if cl.size == 3
        }

    def _threatened3(self, cl: Cluster) -> bool:
        if self.crowded[cl.cid] or not self.open_[cl.cid]:
            return False
        for inst, d in self.reach(cl).items():
            if self.is_big(inst.cid) or self.is_closed3(inst.cid):
                return False
            if d == 2 and self.is_open3(inst.cid):
                return False
        return True

    def _threatened1(self, cl: Cluster, threatened3: dict[int, bool]) -> bool:
        if self.crowded[cl.cid]:
            return False
        reach = self.reach(cl)
        if any(self.is_big(inst.cid) for inst in reach):
            return False
        # nearby only when an unthreatened 3-cluster is within reach at all
        safe3 = [i for i in reach if self.clusters[i.cid].size == 3 and not threatened3[i.cid]]
        return not (safe3 and self.nearby(cl).intersection(safe3))

    def needy_support(self, cl: Cluster) -> int:
        """Distinct threatened 1-/3-cluster instances that are nearby cl."""
        if not self.is_open3(cl.cid):
            raise UnsupportedKind("needy support is defined for open 3-clusters")
        # a threatened cluster is uncrowded, and open when it is a 3-cluster
        return sum(
            1
            for inst in self.reach(cl)
            if self.threatened.get(inst.cid)
            and Instance(cl.cid, -inst.da, -inst.db) in self.nearby(self.clusters[inst.cid])
        )

    # -- pairing -----------------------------------------------------------

    def paired(self, c1: Cluster, inst: Instance) -> bool:
        """Mutual both-leaves-within-three between uncrowded open 3-clusters."""
        if not (self.is_open3(c1.cid) and self.is_open3(inst.cid)):
            return False
        if self.crowded[c1.cid] or self.crowded[inst.cid]:
            return False
        back = Instance(c1.cid, -inst.da, -inst.db)
        return inst in self.nearby(c1) and back in self.nearby(self.clusters[inst.cid])

    def pairs(self) -> list[tuple[Instance, Instance]]:
        """All paired instances, one entry per pair up to translation."""
        return sorted(
            (cl.anchored, inst)
            for cl in self.clusters
            if self.is_open3(cl.cid) and not self.crowded[cl.cid]
            for inst in self.nearby(cl)
            # pairing is symmetric: keep the side with the lower cluster id,
            # or between two instances of one orbit, the lesser offset
            if (cl.cid, inst.da, inst.db) < (inst.cid, -inst.da, -inst.db)
            and self.paired(cl, inst)
        )

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """Deterministic JSON-ready description of clusters and labels."""
        lat = self.code.lattice
        clusters = []
        for cl in self.clusters:
            entry = {
                "id": cl.cid,
                "size": "INFINITE" if cl.infinite else cl.size,
                "vertices": [list(v) for v in sorted(cl.vertices)],
                "crowded": self.crowded.get(cl.cid),
                "open": self.open_.get(cl.cid),
                "threatened": self.threatened.get(cl.cid),
                "needy": self.needy.get(cl.cid),
                "nearby": self._nearby_report(cl),
            }
            if cl.size == 3:
                entry["center"] = list(self.instance_center(cl.anchored))
            clusters.append(entry)
        return {
            "lattice": {"p": lat.p, "q": lat.q, "shear": lat.shear},
            "codeSize": self.code.size(),
            "density": f"{self.code.density().numerator}/{self.code.density().denominator}",
            "clusters": clusters,
            "pairs": [
                [self._inst_json(a), self._inst_json(b)] for a, b in self.pairs()
            ],
        }

    def _nearby_report(self, cl: Cluster):
        if self.crowded.get(cl.cid) is False and (cl.size == 1 or self.open_[cl.cid]):
            return [self._inst_json(i) for i in sorted(self.nearby(cl))]
        return None

    def _inst_json(self, inst: Instance):
        if self.clusters[inst.cid].infinite:
            return {"cluster": inst.cid, "offset": None}
        return {"cluster": inst.cid, "offset": [inst.da, inst.db]}

