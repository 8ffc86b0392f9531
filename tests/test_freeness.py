import random

import pytest

from knvex import freeness
from knvex.constructions import star_family, threshold_family
from knvex.freeness import (
    IncrementalChecker,
    InducedKneser,
    check_witness,
    contains_subgraph,
    is_free,
)
from knvex.patterns import PatternGraph, parse_pattern
from knvex.sets import Family, level_slice, mask_of

from oracles import automorphism_orbit_minima, disjointness_edges, subgraph_copy_exists

NAMED = {
    "K2": parse_pattern("K2"),
    "P3": parse_pattern("S2"),
    "M2": parse_pattern("M2"),
    "K3": parse_pattern("K3"),
    "C5": parse_pattern("C5"),
}

# a triangle with pendant paths of lengths 2 and 1: no automorphism but the identity
ASYMMETRIC = PatternGraph.make(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)])


def F(n, *sets):
    return Family.of(n, [mask_of(s, n) for s in sets])


class TestInducedKneser:
    def test_single_edge(self):
        g = InducedKneser(F(2, [1], [2], [1, 2]))
        assert disjointness_edges(g.vertices.members) == [(0, 1)]
        assert g.neighbor_mask(0) == 0b010

    def test_star_is_edgeless(self):
        fam = star_family(3, 1)
        g = InducedKneser(fam)
        assert all(g.neighbor_mask(i) == 0 for i in range(len(fam)))

    def test_middle_level_is_perfect_matching(self):
        # frozen from the disjointness enumeration oracle: 3 complement pairs
        fam = level_slice(4, 2, 2)
        edges = disjointness_edges(fam.members)
        assert len(edges) == 3
        g = InducedKneser(fam)
        assert all(g.neighbor_mask(i).bit_count() == 1 for i in range(len(fam)))

    def test_neighbor_mask_agrees_with_oracle(self):
        fam = level_slice(5, 0, 5)
        g = InducedKneser(fam)
        edges = set(disjointness_edges(fam.members))
        for i in range(len(fam)):
            row = g.neighbor_mask(i)
            for j in range(len(fam)):
                expected = (min(i, j), max(i, j)) in edges
                assert bool(row >> j & 1) == expected


class TestContainsSubgraph:
    def test_triangle_of_singletons(self):
        fam = F(3, [1], [2], [3])
        w = contains_subgraph(fam, NAMED["K3"])
        assert w is not None
        assert check_witness(fam, NAMED["K3"], w)

    def test_path_center_is_forced(self):
        w = contains_subgraph(F(4, [1], [2, 3], [1, 4]), NAMED["P3"])
        assert w is not None
        # the only degree-2 vertex is {2,3}; star labeling has the center at 0
        assert w[0] == mask_of([2, 3], 4)

    def test_intersecting_family_has_no_edge(self):
        assert contains_subgraph(star_family(4, 1), NAMED["K2"]) is None

    def test_pattern_larger_than_host(self):
        assert contains_subgraph(F(3, [1], [2]), NAMED["C5"]) is None

    def test_witnesses_are_deterministic(self):
        fam = level_slice(4, 1, 3)
        a = contains_subgraph(fam, NAMED["M2"])
        b = contains_subgraph(fam, NAMED["M2"])
        assert a == b


class TestCheckWitness:
    # {1}, {2}, {3} carry a triangle; each copy below breaks one condition
    FAM = F(4, [1], [2], [3], [1, 2])

    @pytest.mark.parametrize(
        "copy",
        [
            {0: 0b0001, 1: 0b0010},  # vertex 2 is missing
            {0: 0b0001, 1: 0b0010, 2: 0b0001},  # vertices 0 and 2 on one set
            {0: 0b0001, 1: 0b0010, 2: 0b1000},  # {4} is not in the family
            {0: 0b0001, 1: 0b0010, 2: 0b0011},  # the edge 0-2 on an intersecting pair
        ],
        ids=["missing-vertex", "shared-set", "outside-family", "intersecting-edge"],
    )
    def test_rejects(self, copy):
        assert check_witness(self.FAM, NAMED["K3"], {0: 0b0001, 1: 0b0010, 2: 0b0100})
        assert not check_witness(self.FAM, NAMED["K3"], copy)


class TestIsFree:
    def test_threshold_family_has_no_triangle(self):
        assert is_free(threshold_family(5, 1), NAMED["K3"])

    def test_upper_levels_have_no_triangle(self):
        # three pairwise disjoint sets of size >= 2 cannot fit in [4]
        assert subgraph_copy_exists(level_slice(4, 2, 4).members, NAMED["K3"]) is False
        assert is_free(level_slice(4, 2, 4), NAMED["K3"])

    def test_whole_cube_has_an_edge(self):
        assert not is_free(level_slice(3, 0, 3), NAMED["K2"])


class TestOracleAgreement:
    def test_all_families_n3_two_patterns(self):
        # the full five-pattern sweep runs in the acceptance suite
        ground = list(range(8))
        for bits in range(256):
            masks = [m for m in ground if bits >> m & 1]
            fam = Family.of(3, masks)
            for name in ("M2", "K3"):
                got = contains_subgraph(fam, NAMED[name])
                assert (got is not None) == subgraph_copy_exists(masks, NAMED[name])
                if got is not None:
                    assert check_witness(fam, NAMED[name], got)

    def test_random_families_n4_all_patterns(self):
        rng = random.Random(11)
        path4 = PatternGraph.make(4, [(0, 1), (1, 2), (2, 3)])
        for _ in range(40):
            masks = [m for m in range(16) if rng.random() < 0.4]
            fam = Family.of(4, masks)
            for pattern in [*NAMED.values(), path4, parse_pattern("K2,3"), ASYMMETRIC]:
                got = contains_subgraph(fam, pattern)
                assert (got is not None) == subgraph_copy_exists(masks, pattern)


class TestMonotonicity:
    def test_growing_host_keeps_copies(self):
        rng = random.Random(5)
        for _ in range(30):
            masks = {m for m in range(16) if rng.random() < 0.3}
            extra = masks | {m for m in range(16) if rng.random() < 0.3}
            for pattern in NAMED.values():
                if not is_free(Family.of(4, masks), pattern):
                    assert not is_free(Family.of(4, extra), pattern)

    def test_subpattern_freeness_implication(self):
        # a copy of the bigger pattern contains a copy of its subgraph
        chains = [("K2", "P3"), ("P3", "K3"), ("K2", "M2"), ("K2", "K3")]
        rng = random.Random(9)
        for _ in range(30):
            fam = Family.of(4, {m for m in range(16) if rng.random() < 0.4})
            for small, big in chains:
                if is_free(fam, NAMED[small]):
                    assert is_free(fam, NAMED[big])


class TestIncrementalChecker:
    def test_push_pop_example(self):
        chk = IncrementalChecker(NAMED["K2"], 2)
        chk.push(mask_of([1], 2))
        chk.push(mask_of([2], 2))
        assert not chk.currently_free()
        chk.pop()
        assert chk.currently_free()

    def test_pop_empty_raises(self):
        chk = IncrementalChecker(NAMED["K2"], 2)
        with pytest.raises(IndexError):
            chk.pop()

    def test_replay_agrees_with_is_free(self):
        rng = random.Random(3)
        relabelled_k23 = PatternGraph.make(5, [(u, v) for u in (1, 4) for v in (0, 2, 3)])
        for pattern in [*NAMED.values(), relabelled_k23, ASYMMETRIC]:
            chk = IncrementalChecker(pattern, 4)
            stack = []
            for _ in range(120):
                if stack and rng.random() < 0.4:
                    chk.pop()
                    stack.pop()
                else:
                    remaining = [m for m in range(16) if m not in stack]
                    if not remaining:
                        continue
                    mask = rng.choice(remaining)
                    chk.push(mask)
                    stack.append(mask)
                assert chk.currently_free() == is_free(Family.of(4, stack), pattern)


class TestOrbitRepresentatives:
    def test_named_patterns(self):
        cases = {"C5": (0,), "K4": (0,), "K2,3": (0, 2), "S3": (0, 1), "M2": (0,)}
        for name, reps in cases.items():
            assert IncrementalChecker(parse_pattern(name), 3).orbit_reps == reps

    def test_trivial_group_forces_every_vertex(self):
        # highest degree first, ties by label
        assert IncrementalChecker(ASYMMETRIC, 3).orbit_reps == (2, 4, 1, 3, 0, 5)

    def test_agrees_with_brute_force_automorphisms(self):
        rng = random.Random(21)
        for _ in range(40):
            size = rng.randint(1, 6)
            edges = [(u, v) for u in range(size) for v in range(u + 1, size) if rng.random() < 0.4]
            pattern = PatternGraph.make(size, edges)
            arcs = [(u, v) for u, v in pattern.edges] + [(v, u) for u, v in pattern.edges]
            expected = automorphism_orbit_minima(size, arcs)
            assert tuple(sorted(IncrementalChecker(pattern, 3).orbit_reps)) == expected


def test_size_limit(monkeypatch):
    fam = level_slice(4, 0, 4)
    kneser = InducedKneser(fam)
    assert len(kneser.vertices) == 16
    monkeypatch.setattr(freeness, "MAX_VERTICES", 15)
    with pytest.raises(ValueError, match="family too large"):
        InducedKneser(fam)
