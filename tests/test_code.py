import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest

from hexident.cluster import Classification
from hexident.code import (
    CODE_FILE_CAP,
    EMPTY_IDENTIFIER,
    INDISTINGUISHABLE_PAIR,
    Constraint,
    PeriodicCode,
    full_code,
    identifying_constraints,
    thin_code,
    tile,
)
from hexident.discharge import audit, claims_report, run_main, run_prop1
from hexident.hexgrid import PeriodLattice, Vertex, all_lattices, ball, closed_neighborhood, neighbors
from hexident.optimize import SearchSpec, brute_force_minimum, enumerate_codes, minimum_code, random_code

# the 8400-vertex lattice of the 3/7 witness tiled 20 x 30 times
TILED_WITNESS = PeriodLattice(140, 30, 30)


def brute_force_ok(code):
    """Independent identifying-code check via identifier() comparisons.

    Every infinite pair at distance <= 2 is a translate of one with its
    first vertex in the fundamental domain, so checking those suffices.
    Distance >= 3 pairs have disjoint closed neighborhoods and are
    distinguished as soon as identifiers are nonempty.
    """
    for u in code.lattice.domain():
        iu = code.identifier(u)
        if not iu:
            return False
        for v in ball(u, 2) - {u}:
            if iu == code.identifier(v):
                return False
    return True


def sub0_code(p=4, q=4, shear=0):
    lat = PeriodLattice(p, q, shear)
    return PeriodicCode(lat, frozenset(Vertex(a, b, 0) for a in range(p) for b in range(q)))


def test_full_code_verifies_everywhere():
    for lat in [PeriodLattice(1, 1), PeriodLattice(1, 1, 0), PeriodLattice(2, 3, 1), PeriodLattice(5, 1, 2)]:
        c = full_code(lat)
        assert c.verify() == []
        assert c.density() == 1


def test_sublattice_code_has_density_one_half():
    c = sub0_code()
    assert c.verify() == []
    assert c.density() == Fraction(1, 2)
    assert brute_force_ok(c)


def test_identifier_uses_infinite_coordinates():
    # p = q = 1: every vertex of one sublattice shares an orbit, yet
    # identifiers are sets of distinct infinite vertices
    c = full_code(PeriodLattice(1, 1))
    ident = c.identifier(Vertex(0, 0, 0))
    assert len(ident) == 4
    assert Vertex(-1, 0, 1) in ident


def test_two_cluster_is_indistinguishable():
    lat = PeriodLattice(4, 4)
    pair = {Vertex(0, 0, 0), Vertex(0, 0, 1)}
    c = PeriodicCode(lat, frozenset(pair))
    kinds = {(v.kind, v.vertices) for v in c.verify()}
    assert (INDISTINGUISHABLE_PAIR, (Vertex(0, 0, 0), Vertex(0, 0, 1))) in kinds


def test_empty_code_reports_empty_identifiers():
    lat = PeriodLattice(2, 2, 1)
    c = PeriodicCode(lat, frozenset())
    empties = [v for v in c.verify() if v.kind == EMPTY_IDENTIFIER]
    assert len(empties) == lat.domain_size


def test_text_round_trip(tmp_path):
    c = sub0_code(3, 2, 1)
    path = tmp_path / "code.txt"
    c.save(path)
    c2 = PeriodicCode.load(path)
    assert c2 == c
    assert c2.to_text() == c.to_text()
    assert c2.to_text().splitlines()[0] == "period 3 2 1"


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        PeriodicCode.from_text("perod 1 1 0\n")
    with pytest.raises(ValueError):
        PeriodicCode.from_text("period 1 1 0\n0 0 2\n")
    with pytest.raises(ValueError):
        PeriodicCode.from_text("period 2 1 3\n")  # shear out of range
    with pytest.raises(ValueError):
        PeriodicCode.from_text("")


def test_code_file_streams_its_rows(tmp_path):
    # 200000 rows of one orbit: each row goes into the orbit set as it is
    # read, so memory does not grow with the file
    path = tmp_path / "long.txt"
    rows = "".join("%d 0 0\n" % k for k in range(200000))
    path.write_text("period 1 1 0\n" + rows)
    tracemalloc.start()
    try:
        c = PeriodicCode.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == PeriodicCode(PeriodLattice(1, 1), frozenset({Vertex(0, 0, 0)}))
    assert peak < 4 << 20


def test_members_canonicalized_on_build():
    lat = PeriodLattice(2, 2)
    c = PeriodicCode(lat, frozenset({Vertex(5, -3, 1)}))
    assert c.members == {lat.canonical(Vertex(5, -3, 1))}
    assert c.contains(Vertex(5, -3, 1))


def test_tile_preserves_density_and_validity():
    c = sub0_code(2, 3, 1)
    big = tile(c, 3, 2)
    assert big.lattice.domain_size == 6 * c.lattice.domain_size
    assert big.density() == c.density()
    assert big.verify() == []
    # membership agrees pointwise on the infinite grid
    for v in [Vertex(7, -9, 0), Vertex(-2, 5, 1), Vertex(0, 0, 0)]:
        assert big.contains(v) == c.contains(v)


def test_tile_of_invalid_code_stays_invalid():
    lat = PeriodLattice(3, 3)
    c = PeriodicCode(lat, frozenset({Vertex(0, 0, 0), Vertex(0, 0, 1)}))
    assert not c.is_identifying()
    assert not tile(c, 2, 2).is_identifying()


def test_verify_matches_brute_force_on_random_subsets():
    rng = random.Random(20260822)
    lattices = [
        PeriodLattice(1, 1),
        PeriodLattice(2, 1, 1),
        PeriodLattice(2, 2, 0),
        PeriodLattice(3, 2, 2),
        PeriodLattice(4, 2, 1),
        PeriodLattice(8, 1, 5),
    ]
    for _ in range(60):
        lat = rng.choice(lattices)
        bits = rng.getrandbits(lat.domain_size)
        c = PeriodicCode.from_bits(lat, bits)
        assert (c.verify() == []) == brute_force_ok(c)


def test_from_bits_keeps_the_domain_part_of_its_mask():
    rng = random.Random(15)
    for lat in [PeriodLattice(1, 1), PeriodLattice(3, 2, 1), PeriodLattice(8, 1, 5)]:
        full_mask = (1 << lat.domain_size) - 1
        for _ in range(20):
            bits = rng.getrandbits(lat.domain_size + 8)
            c = PeriodicCode.from_bits(lat, bits)
            assert c.bits == bits & full_mask == PeriodicCode(lat, c.members).bits
            assert c.orbits() == {lat.index(v) for v in c.members}


def test_from_bits_shares_the_lattice_vertices():
    rng = random.Random(19)
    for lat in [PeriodLattice(1, 1), PeriodLattice(3, 2, 1), PeriodLattice(8, 1, 5)]:
        assert all(lat.index(v) == i for i, v in enumerate(lat.vertices))
        assert list(lat.vertices) == sorted(lat.vertices) and len(lat.vertices) == lat.domain_size
        assert lat.vertices is lat.vertices
        for _ in range(20):
            bits = rng.getrandbits(lat.domain_size)
            c = PeriodicCode.from_bits(lat, bits)
            slow = PeriodicCode(lat, frozenset(lat.vertex_at(i) for i in range(lat.domain_size) if bits >> i & 1))
            assert c == slow and hash(c) == hash(slow)
            assert c.members == slow.members and c.bits == slow.bits
            # every member is the lattice's own vertex object for its orbit
            assert all(v is lat.vertices[lat.index(v)] for v in c.members)


def test_from_bits_builds_members_on_first_read():
    rng = random.Random(22)
    for lat in [PeriodLattice(1, 1), PeriodLattice(3, 2, 1), PeriodLattice(8, 1, 5)]:
        for _ in range(20):
            c = PeriodicCode.from_bits(lat, rng.getrandbits(lat.domain_size + 3))
            assert set(vars(c)) == {"lattice", "bits"}
            members = c.members
            assert members == {lat.vertices[i] for i in c.orbits()}
            assert vars(c)["members"] is members and c.members is members
    with pytest.raises(AttributeError, match="no attribute 'member'"):
        PeriodicCode.from_bits(PeriodLattice(1, 1), 1).member


def test_enumerated_corpus_holds_only_masks():
    # every identifying code with 2pq <= 12, held at once as the acceptance
    # corpus holds them: 17.1 MiB when each code kept a member frozenset
    tracemalloc.start()
    try:
        codes = [code for lat in all_lattices(12) for code in enumerate_codes(lat)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(codes) == 18014
    assert held < 8 << 20
    assert not any("members" in vars(c) for c in codes)
    # the same (lattice, bits, members) in the same order as when each code
    # was built with its members
    digest = hashlib.sha256()
    for c in codes:
        digest.update(repr((c.lattice, c.bits, sorted(c.members))).encode())
    assert digest.hexdigest() == "89bff32e431a5ef74f1efb71ac3ae23c5ac791160dfe76c89a64ec7eb42f0d3e"
    assert all(v is c.lattice.vertices[c.lattice.index(v)] for c in codes for v in c.members)


def test_ledgers_leave_members_unbuilt():
    lat = PeriodLattice(7, 1, 3)
    codes = [
        random_code(lat, seed=1),
        random_code(PeriodLattice(5, 2, 4), seed=2),
        minimum_code(SearchSpec(lat)).witness,
        brute_force_minimum(PeriodLattice(3, 2, 1))[1],
        *islice(enumerate_codes(PeriodLattice(2, 3, 1)), 0, None, 7),
    ]
    for c in codes:
        assert "members" not in vars(c)
        assert c.verify() == []
        prop1 = run_prop1(c)
        assert audit(prop1, Fraction(2, 5)).ok
        ledger = run_main(c)
        assert audit(ledger, Fraction(12, 29)).ok
        assert claims_report(ledger)["ok"]
        assert "members" not in vars(c), c.lattice
        # every reading of the code but its text comes off the mask
        assert c.size() == c.bits.bit_count()
        assert c.density() == Fraction(c.size(), c.lattice.domain_size)
        u = c.lattice.vertices[min(c.orbits())]
        assert c.contains(u) and u in c.identifier(u)
        Classification(c).report()
        assert "members" not in vars(c), c.lattice
        assert c.to_text().count("\n") == c.size() + 1 and "members" in vars(c)


def test_member_and_mask_codes_of_one_set_are_equal():
    lat = PeriodLattice(7, 1, 3)
    # (-2, -3) = (7, 0) - 3 (3, 1) is a lattice vector
    assert lat.canonical(Vertex(-2, -3, 0)) == Vertex(0, 0, 0)
    for seed in range(4):
        masked = random_code(lat, seed=seed)
        moved = PeriodicCode(lat, [Vertex(v.a - 2, v.b - 3, v.s) for v in masked.members])
        assert set(vars(moved)) == {"lattice", "bits"}
        assert moved == masked and hash(moved) == hash(masked)
        assert moved.members == masked.members and moved.verify() == masked.verify() == []
        # beyond its two fields a code holds only caches of what it derived
        for c in (moved, masked):
            assert set(vars(c)) == {"lattice", "bits", "_orbits", "members", "_violations"}
    assert PeriodicCode(lat, []) == PeriodicCode.from_bits(lat, 0) != full_code(lat)


def test_library_parse_refuses_an_oversized_period_at_its_line(tmp_path):
    # a member at a huge orbit index would need a 100 MB mask
    text = "period 20000 20000 0\n19999 19999 1\n"
    path = tmp_path / "huge.txt"
    path.write_text(text)
    for parse in (lambda: PeriodicCode.from_text(text), lambda: PeriodicCode.load(path)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^domain size 800000000 exceeds cap {CODE_FILE_CAP}$"):
                parse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
    # the refusal comes before any row is read, even a malformed one
    with pytest.raises(ValueError, match="exceeds cap"):
        PeriodicCode.from_text("period 20000 20000 0\nnot a row\n")


def test_save_refuses_what_load_refuses(tmp_path):
    witness = minimum_code(SearchSpec(PeriodLattice(7, 1, 1))).witness
    # at the cap, and just below it with the tiled witness, a code
    # round-trips through its file
    at_cap = PeriodicCode.from_bits(PeriodLattice(100, 100, 0), random.Random(20000).getrandbits(20000))
    for code in (at_cap, tile(witness, 20, 71)):
        assert code.lattice.domain_size <= CODE_FILE_CAP
        path = tmp_path / "code.txt"
        code.save(path)
        assert PeriodicCode.load(path) == code
    # above it, save raises the parse's error and writes no file
    big = tile(witness, 20, 80)
    assert big.lattice.domain_size == 22400
    path = tmp_path / "big.txt"
    with pytest.raises(ValueError, match=f"^domain size 22400 exceeds cap {CODE_FILE_CAP}$"):
        big.save(path)
    assert not path.exists()
    with pytest.raises(ValueError, match=f"^domain size 22400 exceeds cap {CODE_FILE_CAP}$"):
        PeriodicCode.from_text(big.to_text())


def test_constraint_masks_are_nonempty_and_within_domain():
    for lat in [PeriodLattice(1, 1), PeriodLattice(3, 2, 1), PeriodLattice(2, 2, 1)]:
        full_mask = (1 << lat.domain_size) - 1
        cons = identifying_constraints(lat)
        assert all(c.mask and c.mask & full_mask == c.mask for c in cons)
        empties = [c for c in cons if c.kind == EMPTY_IDENTIFIER]
        assert len(empties) == lat.domain_size


def _ref_pair_key(lattice, u, v):
    """Canonical form of the unordered pair {u, v} under translation."""
    cu = lattice.canonical(u)
    v1 = Vertex(v.a + cu.a - u.a, v.b + cu.b - u.b, v.s)
    cv = lattice.canonical(v)
    u2 = Vertex(u.a + cv.a - v.a, u.b + cv.b - v.b, u.s)
    return min((cu, v1), (cv, u2))


def _ref_pair_constraints(lattice):
    """The pair clauses as the compile once built them: every pair at
    distance <= 2 around a domain vertex, deduplicated by a set of
    translation-canonical pair keys."""
    out = []
    seen_pairs = set()
    for u in lattice.domain():
        nu = set(closed_neighborhood(u))
        for v in sorted(ball(u, 2) - {u}):
            key = _ref_pair_key(lattice, u, v)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            orbits = tuple(sorted({lattice.index(w) for w in nu ^ set(closed_neighborhood(v))}))
            out.append(Constraint(orbits, INDISTINGUISHABLE_PAIR, *key))
    return out


def test_pair_dedup_by_orbit_index_matches_pair_keys():
    # same clauses in the same order, on every lattice with 2pq <= 48
    lattices = list(all_lattices(48))
    assert len(lattices) == 491
    for lat in lattices:
        pairs = [c for c in identifying_constraints(lat) if c.kind == INDISTINGUISHABLE_PAIR]
        assert pairs == _ref_pair_constraints(lat), lat


def _ref_constraints(lattice):
    """The clause list as the compile once built it, on Vertex sets with
    canonical() lookups: (orbits, kind, u, v) per clause, in order."""
    out = []
    for u in lattice.domain():
        orbits = {lattice.index(w) for w in closed_neighborhood(u)}
        out.append((orbits, EMPTY_IDENTIFIER, u, None))
    for i, u in enumerate(lattice.domain()):
        nu = set(closed_neighborhood(u))
        for v in sorted(ball(u, 2) - {u}):
            j = lattice.index(v)
            if j < i or (j == i and v > Vertex(2 * u.a - v.a, 2 * u.b - v.b, v.s)):
                continue
            orbits = {lattice.index(w) for w in nu ^ set(closed_neighborhood(v))}
            out.append((orbits, INDISTINGUISHABLE_PAIR, u, v))
    return out


def test_pattern_compile_matches_vertex_set_compile():
    lattices = list(all_lattices(48))
    assert len(lattices) == 491
    for lat in lattices + [TILED_WITNESS]:
        got = identifying_constraints(lat)
        assert [(set(c.orbits), c.kind, c.u, c.v) for c in got] == _ref_constraints(lat), lat
        assert all(list(c.orbits) == sorted(set(c.orbits)) for c in got), lat


def test_clauses_store_sparse_orbit_tuples():
    # on a domain this large the orbits of any clause are distinct, so
    # each clause holds exactly its vertex count: 4 for N[u] and for a
    # distance-1 pair, 6 for a distance-2 pair, and no per-clause n-bit mask
    for c in identifying_constraints(TILED_WITNESS):
        width = 6 if c.v is not None and c.v not in neighbors(c.u) else 4
        assert type(c.orbits) is tuple and len(c.orbits) == width, c
        assert not hasattr(c, "__dict__")
        assert c.mask.bit_count() == len(c.orbits)


def test_orbits_built_once_per_code():
    c = thin_code(full_code(PeriodLattice(3, 2)), [Vertex(1, 0, 1)])
    got = c.orbits()
    assert got is c.orbits()
    assert got == frozenset(c.lattice.index(v) for v in c.members)
    assert c == PeriodicCode(c.lattice, c.members)


def test_thin_code_removes_orbits():
    c = full_code(PeriodLattice(2, 2))
    c2 = thin_code(c, [Vertex(2, 2, 0)])  # canonicalizes to (0, 0, 0)
    assert not c2.contains(Vertex(0, 0, 0))
    assert c2.size() == c.size() - 1
