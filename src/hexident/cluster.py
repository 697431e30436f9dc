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
distance three of a finite cluster with their distances, from one search
per cluster.  nearby(cl) is the only definition of nearby and filters
reach.  A query in the other direction (is cl nearby from an instance
X + d of another finite cluster X?) reads nearby(X) with cl seen from
X's frame, as the instance of cl at offset -d.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from hexident.hexgrid import Vertex, ball, layers, neighbors, sphere
from hexident.code import PeriodicCode


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

    def center(self) -> Vertex:
        """Degree-2 vertex of a 3-cluster (a path by girth 6)."""
        assert self.size == 3
        for v in self.vertices:
            if sum(1 for w in neighbors(v) if w in self.vertices) == 2:
                return v

    def leaves(self) -> tuple[Vertex, Vertex]:
        c = self.center()
        return tuple(sorted(self.vertices - {c}))


class Classification:
    """Clusters of one code plus every label the discharge rules read."""

    def __init__(self, code: PeriodicCode):
        self.code = code
        self.clusters: list[Cluster] = []
        self._class_to_cid: dict[Vertex, int] = {}
        self._anchor_by_class: dict[Vertex, Vertex] = {}
        self._build_clusters()
        self._reach: dict[int, dict[Instance, int]] = {}
        self._nearby: dict[int, frozenset[Instance]] = {}

    # -- component extraction --------------------------------------------

    def _build_clusters(self):
        lat = self.code.lattice
        inside = self.code.orbits()
        assigned: set[int] = set()
        # ascending orbit index is domain order
        for rep in sorted(inside):
            if rep in assigned:
                continue
            at, infinite = self._component(rep, inside)
            cid = len(self.clusters)
            # each class with the vertex at which the search met it
            placed = {}
            for j, (da, db) in at.items():
                c = lat.vertex_at(j)
                placed[c] = Vertex(c.a + da, c.b + db, c.s)
            classes = frozenset(placed)
            if infinite:
                cluster = Cluster(cid, classes, classes, True)
            else:
                self._anchor_by_class.update(placed)
                cluster = Cluster(cid, frozenset(placed.values()), classes, False)
            self.clusters.append(cluster)
            for cls in classes:
                self._class_to_cid[cls] = cid
            assigned.update(at)

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

    # -- instances --------------------------------------------------------

    def cluster_of_class(self, cls: Vertex) -> int:
        return self._class_to_cid[cls]

    def instance_of(self, w: Vertex) -> Instance:
        """The component instance containing code vertex w."""
        cls = self.code.lattice.canonical(w)
        cid = self._class_to_cid[cls]
        if self.clusters[cid].infinite:
            return Instance(cid, 0, 0)
        u0 = self._anchor_by_class[cls]
        return Instance(cid, w.a - u0.a, w.b - u0.b)

    def instance_vertices(self, inst: Instance) -> frozenset[Vertex]:
        cluster = self.clusters[inst.cid]
        if cluster.infinite:
            return cluster.vertices
        if inst.da == 0 and inst.db == 0:
            return cluster.vertices
        return frozenset(Vertex(v.a + inst.da, v.b + inst.db, v.s) for v in cluster.vertices)

    def instance_center(self, inst: Instance) -> Vertex:
        c = self.clusters[inst.cid].center()
        return Vertex(c.a + inst.da, c.b + inst.db, c.s)

    def cluster_distance(self, c1: Cluster, c2: Cluster) -> int:
        """Min distance between an instance of c1 and a distinct instance of c2.

        Minimized over translates: the search runs from c1.vertices (the
        anchored instance, or the class representatives when c1 is
        infinite) until it reaches any vertex in an orbit class of c2.
        Orbits are translation invariant, so that is the min over
        translates either way.  The sources never count as a hit, so for
        c1 = c2 only other instances are reached; the instances of an
        infinite orbit are not told apart, so that case is refused.
        """
        if c1.infinite and c1.cid == c2.cid:
            raise ValueError("instances of one infinite orbit are not separable")
        canonical = self.code.lattice.canonical
        targets = c2.classes
        # no radius: the search ends on the first hit
        return len(layers(c1.vertices, stop=lambda w: canonical(w) in targets)) - 1

    # -- shape labels ------------------------------------------------------

    # Both shape label maps are computed on first use, like the threat
    # labels below: a caller that reads only the clusters skips them.

    @cached_property
    def crowded(self) -> dict[int, bool]:
        out = {}
        for cl in self.clusters:
            if cl.size == 1:
                out[cl.cid] = self._crowded1(next(iter(cl.vertices)))
            elif cl.size == 3:
                out[cl.cid] = self._crowded3(cl)
        return out

    @cached_property
    def open_(self) -> dict[int, bool]:
        return {cl.cid: self._open3(cl) for cl in self.clusters if cl.size == 3}

    def _crowded1(self, v: Vertex) -> bool:
        code = self.code
        for u in neighbors(v):
            if all(code.contains(x) for x in neighbors(u)):
                return True
        return False

    def _open3(self, cl: Cluster) -> bool:
        center = cl.center()
        (w,) = [x for x in neighbors(center) if x not in cl.vertices]
        return not any(self.code.contains(y) for y in neighbors(w) if y != center)

    def _crowded3(self, cl: Cluster) -> bool:
        for v in cl.vertices:
            near = sum(
                1
                for w in sphere(v, 2)
                if w not in cl.vertices and self.code.contains(w)
            )
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
        from one breadth-first search.  A code vertex outside the cluster
        is never adjacent to it, so every distance is two or three.
        """
        got = self._reach.get(cl.cid)
        if got is None:
            got = {}
            contains = self.code.contains
            for d, layer in enumerate(layers(cl.vertices, 3)[2:], 2):
                for w in layer:
                    if contains(w):
                        got.setdefault(self.instance_of(w), d)
            self._reach[cl.cid] = got
        return got

    def nearby(self, cl: Cluster) -> frozenset[Instance]:
        """The instances a 1-cluster or an open 3-cluster is nearby, as
        the module docstring defines it; a subset of reach(cl)."""
        got = self._nearby.get(cl.cid)
        if got is None:
            if cl.size == 1:
                (v,) = cl.vertices
                near = ball(v, 3)
                hits = lambda i: self.instance_center(i) in near
            elif self.is_open3(cl.cid):
                balls = [ball(leaf, 3) for leaf in cl.leaves()]
                hits = lambda i: all(not b.isdisjoint(self.instance_vertices(i)) for b in balls)
            else:
                raise UnsupportedKind("nearby is defined from 1-clusters and open 3-clusters")
            got = frozenset(
                i
                for i in self.reach(cl)
                if self.is_big(i.cid) or self.is_closed3(i.cid) or (self.is_open3(i.cid) and hits(i))
            )
            self._nearby[cl.cid] = got
        return got

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
                entry["center"] = list(cl.center())
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


def clusters(code: PeriodicCode) -> list[Cluster]:
    return Classification(code).clusters
