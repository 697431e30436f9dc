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
    open 3-cluster toward a 3+-cluster; see nearby_from_1cluster and
    nearby_from_open3.
  * threatened and needy refine open 3-clusters and 1-clusters; all
    3-cluster threat labels are fixed before any 1-cluster is judged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from hexident.hexgrid import Vertex, ball, distance, layers, neighbors, set_distance, sphere
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
        raise AssertionError("3-cluster is not a path")

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

        self.crowded: dict[int, bool] = {}
        self.open_: dict[int, bool] = {}
        self._label_shapes()

        self.threatened: dict[int, bool] = {}
        self.needy: dict[int, bool] = {}
        self._label_threats()

    # -- component extraction --------------------------------------------

    def _build_clusters(self):
        code = self.code
        lat = code.lattice
        assigned: set[Vertex] = set()
        for rep in lat.domain():
            if rep not in code.members or rep in assigned:
                continue
            classes, inst = self._component(rep)
            cid = len(self.clusters)
            if inst is None:
                cluster = Cluster(cid, frozenset(classes), frozenset(classes), True)
            else:
                cluster = Cluster(cid, frozenset(inst), frozenset(classes), False)
                for v in inst:
                    self._anchor_by_class[lat.canonical(v)] = v
            self.clusters.append(cluster)
            for cls in classes:
                self._class_to_cid[cls] = cid
            assigned |= classes

    def _component(self, rep: Vertex) -> tuple[set[Vertex], set[Vertex] | None]:
        """The orbit classes of rep's component, and its instance through
        rep, or None when the component is infinite.

        One breadth-first search in infinite coordinates that expands one
        vertex per orbit class: translates have translated neighbors, so
        that reaches every class of the component.  The component is
        infinite exactly when it reaches two distinct vertices in one class
        (it then joins a vertex to a nontrivial translate of itself).
        """
        lat = self.code.lattice
        members = self.code.members
        by_class = {rep: rep}
        infinite = False
        queue = deque([rep])
        while queue:
            u = queue.popleft()
            for w in neighbors(u):
                c = lat.canonical(w)
                if c not in members:
                    continue
                prev = by_class.get(c)
                if prev is None:
                    by_class[c] = w
                    queue.append(w)
                elif prev != w:
                    infinite = True
        return set(by_class), None if infinite else set(by_class.values())

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

    def instance_leaves(self, inst: Instance) -> tuple[Vertex, Vertex]:
        return tuple(
            Vertex(v.a + inst.da, v.b + inst.db, v.s) for v in self.clusters[inst.cid].leaves()
        )

    def instances_within(
        self, around: frozenset[Vertex] | set[Vertex], radius: int, exclude: Instance | None = None
    ) -> list[Instance]:
        """Component instances with a vertex within radius of the given set."""
        found: set[Instance] = set()
        for v in around:
            for w in ball(v, radius):
                if self.code.contains(w):
                    found.add(self.instance_of(w))
        if exclude is not None:
            found.discard(exclude)
        return sorted(found)

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

    def _label_shapes(self):
        for cl in self.clusters:
            if cl.infinite:
                continue
            if cl.size == 1:
                self.crowded[cl.cid] = self._crowded1(next(iter(cl.vertices)))
            elif cl.size == 3:
                self.crowded[cl.cid] = self._crowded3(cl)
                self.open_[cl.cid] = self._open3(cl)

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

    # -- nearby -----------------------------------------------------------

    def nearby_from_1cluster(self, v: Vertex, inst: Instance) -> bool:
        """nearby(v -> inst) for an uncrowded 1-cluster v.

        Within distance three of a 4+-cluster or a closed 3-cluster, or
        within distance three of the open center of an open 3-cluster.
        """
        cid = inst.cid
        if self.is_big(cid):
            return self._inst_within({v}, inst, 3)
        if self.is_closed3(cid):
            return self._inst_within({v}, inst, 3)
        if self.is_open3(cid):
            return distance(v, self.instance_center(inst), cap=3) <= 3
        return False

    def nearby_from_open3(self, c1: Cluster, inst: Instance) -> bool:
        """nearby(C1 -> inst) for an uncrowded open 3-cluster C1 (anchored).

        Within distance three of a 4+-cluster or closed 3-cluster, or
        both leaves of C1 within distance three of an open 3-cluster.
        """
        cid = inst.cid
        if self.is_big(cid) or self.is_closed3(cid):
            return self._inst_within(c1.vertices, inst, 3)
        if self.is_open3(cid):
            tv = self.instance_vertices(inst)
            return all(set_distance({leaf}, tv, cap=3) <= 3 for leaf in c1.leaves())
        return False

    def _inst_within(self, src, inst: Instance, radius: int) -> bool:
        if self.clusters[inst.cid].infinite:
            lat = self.code.lattice
            targets = self.clusters[inst.cid].classes
            return any(
                lat.canonical(w) in targets
                for v in src
                for w in ball(v, radius)
            )
        return set_distance(src, self.instance_vertices(inst), cap=radius) <= radius

    # -- threatened / needy ------------------------------------------------

    def _label_threats(self):
        # 3-clusters first; 1-cluster threat reads their labels
        for cl in self.clusters:
            if cl.size == 3:
                self.threatened[cl.cid] = self._threatened3(cl)
        for cl in self.clusters:
            if cl.size == 1:
                self.threatened[cl.cid] = self._threatened1(cl)
        for cl in self.clusters:
            if cl.size == 3 and self.threatened[cl.cid]:
                self.needy[cl.cid] = self._needy(cl)
            elif cl.size == 3:
                self.needy[cl.cid] = False

    def _threatened3(self, cl: Cluster) -> bool:
        if self.crowded[cl.cid] or not self.open_[cl.cid]:
            return False
        for inst in self.instances_within(cl.vertices, 3, exclude=cl.anchored):
            if self.is_big(inst.cid) or self.is_closed3(inst.cid):
                return False
        for inst in self.instances_within(cl.vertices, 2, exclude=cl.anchored):
            if self.is_open3(inst.cid):
                return False
        return True

    def _threatened1(self, cl: Cluster) -> bool:
        if self.crowded[cl.cid]:
            return False
        (v,) = cl.vertices
        for inst in self.instances_within({v}, 3, exclude=cl.anchored):
            if self.is_big(inst.cid):
                return False
            if self.clusters[inst.cid].size == 3 and not self.threatened[inst.cid]:
                if self.nearby_from_1cluster(v, inst):
                    return False
        return True

    def _needy(self, cl: Cluster) -> bool:
        return self.needy_support(cl) >= 4

    def needy_support(self, cl: Cluster) -> int:
        """Distinct threatened 1-/3-cluster instances that are nearby cl."""
        if not self.is_open3(cl.cid):
            raise UnsupportedKind("needy support is defined for open 3-clusters")
        count = 0
        # radius 3 covers both directions: a nearby 1-cluster sits within
        # three of the center, a nearby 3-cluster has a leaf within three
        for inst in self.instances_within(cl.vertices, 3, exclude=cl.anchored):
            tgt = self.clusters[inst.cid]
            if tgt.size not in (1, 3) or not self.threatened[inst.cid]:
                continue
            if tgt.size == 1:
                (v,) = self.instance_vertices(inst)
                if self.nearby_from_1cluster(v, cl.anchored):
                    count += 1
            else:
                leaves = self.instance_leaves(inst)
                if all(set_distance({lf}, cl.vertices, cap=3) <= 3 for lf in leaves):
                    count += 1
        return count

    # -- pairing -----------------------------------------------------------

    def paired(self, c1: Cluster, inst: Instance) -> bool:
        """Mutual both-leaves-within-three between uncrowded open 3-clusters."""
        if not (self.is_open3(c1.cid) and self.is_open3(inst.cid)):
            return False
        if self.crowded[c1.cid] or self.crowded[inst.cid]:
            return False
        if inst == c1.anchored:
            return False
        tv = self.instance_vertices(inst)
        if not all(set_distance({lf}, tv, cap=3) <= 3 for lf in c1.leaves()):
            return False
        return all(
            set_distance({lf}, c1.vertices, cap=3) <= 3 for lf in self.instance_leaves(inst)
        )

    def pairs(self) -> list[tuple[Instance, Instance]]:
        """All paired instances, one entry per pair up to translation."""
        seen = set()
        out = []
        for cl in self.clusters:
            if not self.is_open3(cl.cid) or self.crowded[cl.cid]:
                continue
            for inst in self.instances_within(cl.vertices, 3, exclude=cl.anchored):
                if not self.paired(cl, inst):
                    continue
                if cl.cid < inst.cid:
                    key = (cl.cid, inst.cid, inst.da, inst.db)
                elif cl.cid > inst.cid:
                    key = (inst.cid, cl.cid, -inst.da, -inst.db)
                else:
                    key = (cl.cid, cl.cid) + min(
                        (inst.da, inst.db), (-inst.da, -inst.db)
                    )
                if key in seen:
                    continue
                seen.add(key)
                out.append((cl.anchored, inst))
        return sorted(out)

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
        if cl.size == 1 and not self.crowded[cl.cid]:
            (v,) = cl.vertices
            insts = [
                i
                for i in self.instances_within({v}, 3, exclude=cl.anchored)
                if self.nearby_from_1cluster(v, i)
            ]
        elif cl.size == 3 and self.open_[cl.cid] and not self.crowded[cl.cid]:
            insts = [
                i
                for i in self.instances_within(cl.vertices, 3, exclude=cl.anchored)
                if self.nearby_from_open3(cl, i)
            ]
        else:
            return None
        return [self._inst_json(i) for i in insts]

    def _inst_json(self, inst: Instance):
        if self.clusters[inst.cid].infinite:
            return {"cluster": inst.cid, "offset": None}
        return {"cluster": inst.cid, "offset": [inst.da, inst.db]}


def clusters(code: PeriodicCode) -> list[Cluster]:
    return Classification(code).clusters
