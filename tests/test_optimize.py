import csv
import io
from fractions import Fraction

import pytest

from hexident import optimize
from hexident.code import identifying_constraints, thin_code
from hexident.hexgrid import PeriodLattice, Vertex, all_lattices, ball, neighbors
from hexident.optimize import (
    DENSITY_CEILING,
    DENSITY_FLOOR,
    INFEASIBLE,
    DomainTooLarge,
    SearchSpec,
    brute_force_minimum,
    density_scan,
    enumerate_codes,
    minimum_code,
    plant_isolated_pair,
    random_code,
    scan_csv,
)


# ---------------------------------------------------------------------------
# minimum_code against independent oracles


def test_one_cell_lattice_minimum_is_one_sublattice():
    result = minimum_code(SearchSpec(PeriodLattice(1, 1, 0)))
    assert result.min_size == 1
    assert result.witness.is_identifying()
    assert result.witness.density() == Fraction(1, 2)
    assert result.proof_of_optimality


def test_minimum_matches_brute_force_on_small_domains():
    for lat in all_lattices(12):
        size, _ = brute_force_minimum(lat)
        result = minimum_code(SearchSpec(lat))
        assert result.min_size == size, lat
        assert result.witness.is_identifying()
        assert result.proof_of_optimality


def test_minimum_matches_brute_force_on_spot_16_bit_domains():
    for lat in (PeriodLattice(2, 4, 1), PeriodLattice(4, 2, 3), PeriodLattice(8, 1, 5)):
        size, witness = brute_force_minimum(lat)
        assert witness.is_identifying()
        result = minimum_code(SearchSpec(lat))
        assert result.min_size == size, lat


def test_known_minima():
    # frozen from the brute-force oracle
    expected = {
        (1, 1, 0): 1,
        (1, 2, 0): 2,
        (2, 1, 0): 2,
        (2, 1, 1): 2,
        (1, 3, 0): 3,
        (3, 1, 2): 3,
        (2, 2, 0): 4,
        (1, 7, 0): 7,
        (7, 1, 1): 6,
    }
    for pqs, size in expected.items():
        assert minimum_code(SearchSpec(PeriodLattice(*pqs))).min_size == size, pqs


def test_symmetry_reduction_does_not_change_the_minimum():
    for pqs in ((2, 2, 0), (2, 3, 1), (3, 2, 2)):
        lat = PeriodLattice(*pqs)
        with_sym = minimum_code(SearchSpec(lat))
        without = minimum_code(SearchSpec(lat, symmetry_reduction=False))
        assert with_sym.min_size == without.min_size


def test_budget_below_minimum_is_infeasible_with_proof():
    result = minimum_code(SearchSpec(PeriodLattice(2, 2, 0), budget=2))
    assert result.min_size == INFEASIBLE
    assert result.witness is None
    assert result.proof_of_optimality


def test_budget_at_minimum_finds_it():
    result = minimum_code(SearchSpec(PeriodLattice(2, 2, 0), budget=4))
    assert result.min_size == 4
    assert result.witness.size() == 4


def test_node_cap_returns_valid_incumbent_without_proof():
    result = minimum_code(SearchSpec(PeriodLattice(2, 7, 0)), node_cap=50)
    assert not result.proof_of_optimality
    assert result.witness.is_identifying()
    assert isinstance(result.min_size, int)
    # the true minimum for this domain is 12, so the incumbent cannot beat it
    assert result.min_size >= 12


def test_domain_cap_enforced():
    with pytest.raises(DomainTooLarge):
        minimum_code(SearchSpec(PeriodLattice(6, 3, 0)))


def test_search_is_deterministic():
    spec = SearchSpec(PeriodLattice(2, 3, 1))
    a = minimum_code(spec)
    b = minimum_code(spec)
    assert a.min_size == b.min_size
    assert a.witness.members == b.witness.members
    assert a.nodes_explored == b.nodes_explored


# ---------------------------------------------------------------------------
# the search against its original implementation


def _seed_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _SeedSearch:
    """The first implementation of optimize._Search, kept as reference:
    propagation rescans every clause until nothing changes, and the
    lower bound rebuilds the cover of each orbit per node.  Node counts
    and witnesses of the search must match it exactly."""

    def __init__(self, masks, n, limit, node_cap):
        self.masks = masks
        self.bound = limit + 1
        self.node_cap = node_cap
        self.best = None
        self.nodes = 0

    def seed(self, bits):
        size = bits.bit_count()
        if size < self.bound:
            self.bound = size
            self.best = bits

    def run(self, in_bits, out_bits):
        state = self._propagate(in_bits, out_bits)
        if state is not None:
            self._node(*state)

    def _propagate(self, in_bits, out_bits):
        changed = True
        while changed:
            changed = False
            for m in self.masks:
                if m & in_bits:
                    continue
                avail = m & ~out_bits
                if not avail:
                    return None
                if avail & (avail - 1) == 0:
                    in_bits |= avail
                    changed = True
        return in_bits, out_bits

    def _node(self, in_bits, out_bits):
        self.nodes += 1
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise optimize._Stop
        unsat = [m & ~out_bits for m in self.masks if not m & in_bits]
        size = in_bits.bit_count()
        if not unsat:
            if size < self.bound:
                self.bound = size
                self.best = in_bits
            return
        if size + self._lower(unsat) >= self.bound:
            return
        clause = min(unsat, key=lambda a: (a.bit_count(), a))
        pick, pick_cover = -1, -1
        for i in _seed_bits(clause):
            cover = sum(1 for a in unsat if a >> i & 1)
            if cover > pick_cover:
                pick, pick_cover = i, cover
        bit = 1 << pick
        state = self._propagate(in_bits | bit, out_bits)
        if state is not None:
            self._node(*state)
        state = self._propagate(in_bits, out_bits | bit)
        if state is not None:
            self._node(*state)

    def _lower(self, unsat):
        taken = 0
        disjoint = 0
        for a in sorted(unsat, key=int.bit_count):
            if not a & taken:
                disjoint += 1
                taken |= a
        cover = {}
        for a in unsat:
            for i in _seed_bits(a):
                cover[i] = cover.get(i, 0) + 1
        widest = max(cover.values())
        return max(disjoint, -(-len(unsat) // widest))


def _outcome(result):
    bits = None if result.witness is None else result.witness.bits
    return result.min_size, result.nodes_explored, bits, result.proof_of_optimality


@pytest.mark.parametrize(
    "spec, node_cap",
    [pytest.param(SearchSpec(lat), None, id=f"{lat.p},{lat.q},{lat.shear}") for lat in all_lattices(20)]
    + [
        pytest.param(SearchSpec(PeriodLattice(2, 2, 0), budget=2), None, id="2,2,0-budget2"),
        pytest.param(SearchSpec(PeriodLattice(2, 2, 0), budget=4), None, id="2,2,0-budget4"),
        pytest.param(SearchSpec(PeriodLattice(2, 7, 0)), 50, id="2,7,0-cap50"),
        pytest.param(SearchSpec(PeriodLattice(2, 3, 1), symmetry_reduction=False), None, id="2,3,1-nosym"),
    ],
)
def test_search_matches_seed_implementation(monkeypatch, spec, node_cap):
    got = _outcome(minimum_code(spec, node_cap=node_cap))
    monkeypatch.setattr(optimize, "_Search", _SeedSearch)
    assert got == _outcome(minimum_code(spec, node_cap=node_cap))


# ---------------------------------------------------------------------------
# exhaustive enumeration


def test_enumerate_counts_tiny_lattices():
    # frozen counts: all subsets checked against the full clause system
    assert sum(1 for _ in enumerate_codes(PeriodLattice(1, 1, 0))) == 3
    assert sum(1 for _ in enumerate_codes(PeriodLattice(1, 2, 0))) == 9
    assert sum(1 for _ in enumerate_codes(PeriodLattice(2, 1, 0))) == 9


def _reference_codes(lattice):
    """The first enumeration, kept as reference: every mask of the domain
    tested against every clause mask, members built from vertex_at."""
    masks = [c.mask for c in identifying_constraints(lattice)]
    for bits in range(1 << lattice.domain_size):
        if all(bits & m for m in masks):
            members = frozenset(lattice.vertex_at(i) for i in range(lattice.domain_size) if bits >> i & 1)
            yield members, bits


def test_enumerate_matches_the_mask_loop():
    # the truth-table enumeration yields the same codes in the same order
    for lat in list(all_lattices(12)) + [PeriodLattice(2, 4, 1)]:
        got = [(c.members, c.bits) for c in enumerate_codes(lat)]
        assert got == list(_reference_codes(lat)), lat


def test_enumerate_yields_only_verified_codes():
    for code in enumerate_codes(PeriodLattice(1, 2, 0)):
        assert code.is_identifying()
        assert code.size() >= 1


def test_enumerate_respects_brute_force_cap():
    with pytest.raises(DomainTooLarge):
        next(enumerate_codes(PeriodLattice(3, 3, 0)))
    with pytest.raises(DomainTooLarge):
        brute_force_minimum(PeriodLattice(3, 3, 0))


# ---------------------------------------------------------------------------
# density scans


def test_scan_small_family_respects_floor():
    family = [lat for lat in all_lattices(18) if lat.p <= 3 and lat.q <= 3]
    rows = density_scan(family)
    assert len(rows) == len(family)
    for row in rows:
        assert row.density >= DENSITY_FLOOR
        assert not row.critical
        assert row.optimal
    one_cell = [r for r in rows if (r.lattice.p, r.lattice.q, r.lattice.shear) == (1, 1, 0)]
    assert one_cell[0].density == Fraction(1, 2)


def test_scan_sorted_sparsest_first():
    rows = density_scan([PeriodLattice(1, 1, 0), PeriodLattice(7, 1, 1), PeriodLattice(1, 3, 0)])
    densities = [r.density for r in rows]
    assert densities == sorted(densities)
    assert rows[0].density == Fraction(3, 7)


def test_scan_empty_family_is_empty():
    assert density_scan([]) == []


def test_scan_stops_at_first_over_cap_lattice(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("searched before the whole family was checked against the cap")

    def family():
        yield PeriodLattice(2, 2)
        yield PeriodLattice(17, 1)
        raise AssertionError("family pulled past the first over-cap lattice")

    monkeypatch.setattr(optimize, "minimum_code", never)
    with pytest.raises(DomainTooLarge):
        density_scan(family())
    with pytest.raises(DomainTooLarge):
        density_scan(all_lattices(10**9))


def test_scan_reaches_best_known_density():
    rows = density_scan([PeriodLattice(7, 1, s) for s in range(7)])
    best = rows[0].density
    assert best == DENSITY_CEILING
    assert DENSITY_FLOOR <= best <= DENSITY_CEILING


def test_scan_monotone_under_lattice_doubling():
    pairs = [
        ((1, 1, 0), (2, 1, 0)),
        ((2, 1, 0), (4, 1, 0)),
        ((1, 2, 0), (1, 4, 0)),
        ((2, 2, 0), (4, 2, 0)),
    ]
    for small, large in pairs:
        d_small = minimum_code(SearchSpec(PeriodLattice(*small))).witness.density()
        d_large = minimum_code(SearchSpec(PeriodLattice(*large))).witness.density()
        assert d_large <= d_small


def test_scan_with_node_cap_marks_rows_not_optimal():
    rows = density_scan([PeriodLattice(2, 7, 0)], node_cap=1)
    assert not rows[0].optimal
    assert rows[0].density is not None


def test_scan_csv_shape_and_exact_fractions():
    rows = density_scan([PeriodLattice(1, 1, 0), PeriodLattice(2, 1, 0)])
    text = scan_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["p", "q", "shear", "minSize", "density", "nodesExplored", "optimal"]
    assert len(parsed) == 1 + len(rows)
    for line in parsed[1:]:
        num, den = line[4].split("/")
        assert Fraction(int(num), int(den)) >= DENSITY_FLOOR
        assert line[6] in ("True", "False")


# ---------------------------------------------------------------------------
# generators


def test_random_code_is_verified_and_deterministic():
    lat = PeriodLattice(3, 3, 0)
    first = random_code(lat, seed=3)
    again = random_code(lat, seed=3)
    assert first.members == again.members
    assert first.is_identifying()


def test_random_code_is_minimal():
    code = random_code(PeriodLattice(3, 3, 0), seed=5)
    for member in code.members:
        assert not thin_code(code, [member]).is_identifying()


def test_random_code_varies_with_seed():
    lat = PeriodLattice(3, 3, 0)
    distinct = {random_code(lat, seed=s).members for s in range(8)}
    assert len(distinct) >= 2


def test_random_code_on_one_cell_lattice():
    code = random_code(PeriodLattice(1, 1, 0), seed=0)
    assert code.is_identifying()
    assert code.size() == 1


def test_planted_pair_always_fails_verification_on_that_pair():
    for pqs in ((3, 3, 0), (4, 4, 0), (5, 3, 0)):
        for seed in range(5):
            code, u, v = plant_isolated_pair(PeriodLattice(*pqs), seed=seed)
            assert v in neighbors(u)
            assert code.contains(u) and code.contains(v)
            violations = {(w.kind, w.vertices) for w in code.verify()}
            assert ("IndistinguishablePair", (u, v)) in violations


def test_planted_pair_is_isolated_within_two():
    code, u, v = plant_isolated_pair(PeriodLattice(4, 4, 0), seed=2)
    for w in code.members:
        if w in (u, v):
            continue
        assert w not in ball(u, 2)
        assert w not in ball(v, 2)


def test_planted_pair_needs_room():
    with pytest.raises(ValueError):
        plant_isolated_pair(PeriodLattice(2, 2, 0), seed=0)


def test_planted_pair_fails_even_with_full_surroundings():
    # seed-independent core: the pair itself is indistinguishable no
    # matter what the far part of the domain looks like
    code, u, v = plant_isolated_pair(PeriodLattice(4, 4, 0), seed=11)
    assert not code.is_identifying()
