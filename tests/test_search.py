from itertools import combinations

import pytest

from knvex import freeness
from knvex.constructions import (
    bip_lower,
    clique_threshold_family,
    e2_two_level,
    star_family,
    threshold_family,
)
from knvex.freeness import incremental_checker, is_free
from knvex.patterns import PatternGraph, bipartition, make_pattern, odd_girth, parse_pattern
from knvex.posets import e_of_poset, poset_from_bipartite
from knvex.search import _lower_bound, max_family_avoiding, vex_bounds, vex_exact
from knvex.sets import level_slice

from oracles import max_family_size, subgraph_copy_exists

SMALL_PATTERNS = ["K3", "S2", "S3", "C5", "K2,3", "K4", "P4"]


def pattern_of(name: str) -> PatternGraph:
    if name == "P4":
        return PatternGraph.make(4, [(0, 1), (1, 2), (2, 3)])
    return parse_pattern(name)


def plain_search(n: int, pattern: PatternGraph) -> int:
    value, _, exact, _ = max_family_avoiding(level_slice(n, 0, n), incremental_checker(pattern, n))
    assert exact
    return value


class TestVexExact:
    @pytest.mark.parametrize("name", SMALL_PATTERNS)
    def test_agrees_with_oracle_up_to_n3(self, name):
        pattern = pattern_of(name)
        for n in (1, 2, 3):
            res = vex_exact(n, pattern)
            expected = max_family_size(n, lambda fam: not subgraph_copy_exists(fam, pattern))
            assert res.exact
            assert res.value == expected
            assert len(res.witness) == res.value
            assert not subgraph_copy_exists(res.witness.members, pattern)

    @pytest.mark.parametrize(
        "name, value", [("C5", 12), ("K3", 12), ("S3", 11), ("K2,3", 13), ("K4", 14)]
    )
    def test_frozen_values_at_n4(self, name, value):
        pattern = pattern_of(name)
        res = vex_exact(4, pattern)
        assert res.exact
        assert res.value == value
        assert not subgraph_copy_exists(res.witness.members, pattern)
        # the value is maximal: every family one larger contains a copy
        assert all(subgraph_copy_exists(fam, pattern) for fam in combinations(range(16), value + 1))

    def test_budgeted_run_at_n10_is_a_verified_lower_bound(self):
        # 2^10 ground sets: a recursive search driver overflows the stack here
        pattern = parse_pattern("C5")
        res = vex_exact(10, pattern, max_nodes=2000)
        assert not res.exact
        assert res.upper_bound_source is None
        assert len(res.witness) == res.value
        assert is_free(res.witness, pattern)

    def test_n6_needs_a_budget(self):
        with pytest.raises(ValueError):
            vex_exact(6, parse_pattern("C5"))


class TestSeedWork:
    @pytest.fixture
    def is_free_calls(self, monkeypatch):
        calls = []
        real = freeness.is_free

        def counting(fam, pattern):
            calls.append(len(fam))
            return real(fam, pattern)

        monkeypatch.setattr(freeness, "is_free", counting)
        return calls

    def test_seed_witness_is_certified_once(self, is_free_calls):
        res = vex_exact(8, parse_pattern("C5"), max_nodes=10)
        assert res.lower_bound_source == "construction:threshold"
        # threshold (163 sets) is the largest candidate and passes; star is never certified
        assert is_free_calls == [163]

    def test_found_witness_is_rechecked(self, is_free_calls):
        res = vex_exact(4, parse_pattern("C5"))
        assert res.lower_bound_source == "search:branch-and-bound"
        # the threshold seed (11 sets), then the found witness
        assert is_free_calls == [11, 12]

    def test_seeds_are_not_pushed(self):
        class CountingChecker:
            def __init__(self, inner):
                self.inner = inner
                self.pushes = 0

            def push(self, mask):
                self.pushes += 1
                self.inner.push(mask)

            def pop(self):
                return self.inner.pop()

            def currently_free(self):
                return self.inner.currently_free()

        checker = CountingChecker(incremental_checker(parse_pattern("C5"), 4))
        seed = level_slice(4, 2, 4)
        result = max_family_avoiding(level_slice(4, 0, 4), checker, seed=seed, max_nodes=0)
        assert result == (11, seed, False, 0)
        assert checker.pushes == 0

    def test_seed_outside_the_ground_is_rejected(self):
        checker = incremental_checker(parse_pattern("C5"), 4)
        with pytest.raises(ValueError):
            max_family_avoiding(level_slice(4, 1, 4), checker, seed=level_slice(4, 0, 1))

    def test_symmetric_seed_must_be_complement_closed(self):
        checker = incremental_checker(parse_pattern("C5"), 4)
        seed = level_slice(4, 1, 2)  # complements land in levels 2..3
        with pytest.raises(ValueError):
            max_family_avoiding(level_slice(4, 0, 4), checker, symmetric=True, seed=seed)


def first_maximal_certified(n: int, pattern: PatternGraph) -> tuple:
    """Certify every candidate construction and keep the first of maximal size."""
    candidates = [(star_family(n, 1), "construction:star")]
    if bipartition(pattern) is not None:
        candidates.append((bip_lower(n), "construction:bip_lower"))
        if n >= 3 and e_of_poset(poset_from_bipartite(pattern), 6).value >= 2:
            candidates.append((e2_two_level(n), "construction:e2_two_level"))
    else:
        k = (odd_girth(pattern) - 1) // 2
        candidates.append((threshold_family(n, k), "construction:threshold"))
        r = pattern.vertex_count - 1
        if r >= 2 and pattern.edge_count == r * (r + 1) // 2:
            candidates.append((clique_threshold_family(n, r), "construction:clique_threshold"))
    certified = [pair for pair in candidates if is_free(pair[0], pattern)]
    return max(certified, key=lambda pair: len(pair[0]))


class TestLowerBound:
    @pytest.mark.parametrize("name", ["C5", "K3", "K4", "S3", "S4", "K2,3", "C4", "P4"])
    def test_agrees_with_certifying_every_candidate(self, name):
        pattern = pattern_of(name)
        for n in range(2, 10):
            assert _lower_bound(n, pattern) == first_maximal_certified(n, pattern)

    def test_ties_keep_the_build_order(self):
        # equal sizes: star before threshold for C5, threshold before clique_threshold for K4
        assert _lower_bound(5, parse_pattern("C5"))[1] == "construction:star"
        assert _lower_bound(5, parse_pattern("K4"))[1] == "construction:threshold"


class TestShortcuts:
    @pytest.mark.parametrize("count", [1, 2, 3, 6])
    def test_edgeless_matches_search(self, count):
        pattern = PatternGraph.make(count, [])
        for n in (1, 2, 3):
            res = vex_exact(n, pattern)
            assert res.value == plain_search(n, pattern)
            assert res.lower_bound_source == "trivial:edgeless"
            assert res.nodes == 0
            assert vex_bounds(n, pattern).lower == vex_bounds(n, pattern).upper == res.value

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matching_matches_search(self, k):
        pattern = make_pattern("matching", k)
        for n in (1, 2, 3, 4):
            res = vex_exact(n, pattern)
            assert res.exact
            assert res.value == plain_search(n, pattern)
            assert is_free(res.witness, pattern)
            bounds = vex_bounds(n, pattern)
            assert bounds.lower == bounds.upper == res.value


class TestVexBounds:
    @pytest.mark.parametrize("name", ["K3", "C5", "S3", "K2,3", "K4", "M2", "P4"])
    def test_sandwich_exact_values(self, name):
        pattern = pattern_of(name)
        for n in (2, 3, 4):
            bounds = vex_bounds(n, pattern)
            exact = vex_exact(n, pattern).value
            assert bounds.lower <= exact
            assert len(bounds.lower_witness) == bounds.lower
            assert is_free(bounds.lower_witness, pattern)
            if bounds.upper is not None:
                assert exact <= bounds.upper

    def test_odd_cycles_get_an_upper_bound(self):
        for name in ("K3", "C5"):
            assert vex_bounds(6, parse_pattern(name)).upper_source == "formula:cycle-tail"
