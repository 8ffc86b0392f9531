import random
import time
from itertools import combinations
from types import SimpleNamespace

import pytest

from knvex import freeness, search
from knvex.constructions import (
    bip_lower,
    build_construction,
    clique_threshold_family,
    e2_two_level,
    star_family,
    threshold_family,
)
from knvex.freeness import IncrementalChecker, is_free
from knvex.patterns import PatternGraph, bipartition, make_pattern, odd_girth, parse_pattern
from knvex.posets import e_of_poset, poset_from_bipartite
from knvex.search import (
    _core_upper_bound,
    _lower_bound,
    max_family_avoiding,
    vex_bounds,
    vex_exact,
)
from knvex.sets import Family, level_slice

from oracles import max_family_size, subgraph_copy_exists

SMALL_PATTERNS = ["K3", "S2", "S3", "C5", "K2,3", "K4", "P4"]


def pattern_of(name: str) -> PatternGraph:
    if name == "P4":
        return PatternGraph.make(4, [(0, 1), (1, 2), (2, 3)])
    return parse_pattern(name)


def plain_search(n: int, pattern: PatternGraph) -> int:
    value, _, exact, _ = max_family_avoiding(IncrementalChecker(pattern, n))
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
        assert (res.upper, res.upper_bound_source) == (None, None)
        # no core search at n = 10: the main search gets the whole budget
        assert res.value == 772
        assert (res.core_value, res.core_nodes, res.nodes) == (None, 0, 2000)
        assert len(res.witness) == res.value
        assert is_free(res.witness, pattern)

    def test_n6_needs_a_budget(self):
        # a matching plus an isolated vertex is not resolved structurally
        for pattern in (parse_pattern("C5"), PatternGraph.make(5, [(0, 1), (2, 3)])):
            with pytest.raises(ValueError):
                vex_exact(6, pattern)


class TestComplementCore:
    @pytest.mark.parametrize("name", SMALL_PATTERNS)
    def test_upper_bound_covers_the_oracle_up_to_n3(self, name):
        pattern = pattern_of(name)
        for n in (1, 2, 3):
            core, _, exact, _ = max_family_avoiding(IncrementalChecker(pattern, n), symmetric=True)
            assert exact
            upper = _core_upper_bound(n, core)
            assert upper >= max_family_size(n, lambda fam: not subgraph_copy_exists(fam, pattern))

    @pytest.mark.parametrize("n, max_nodes", [(3, None), (3, 1000), (7, 1000)])
    def test_no_core_search_outside_its_ground_sizes(self, monkeypatch, n, max_nodes):
        budgets = []
        real = search.max_family_avoiding

        def recording(*args, **kwargs):
            budgets.append((kwargs.get("symmetric", False), kwargs["max_nodes"], kwargs["stop"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "max_family_avoiding", recording)
        res = vex_exact(n, parse_pattern("C5"), max_nodes=max_nodes)
        # one main search with the whole budget and no stop value
        assert budgets == [(False, max_nodes, None)]
        assert (res.core_value, res.core_nodes) == (None, 0)
        assert res.upper_bound_source != "search:complement-core"

    # core nodes of vex_exact's core search, which prunes by orbits
    CORE_NODES = {
        ("C5", 4): 62,
        ("K2,3", 4): 55,
        ("K4", 4): 37,
        ("S3", 4): 32,
        ("C4", 4): 53,
        ("C5", 5): 1196,
        ("K2,3", 5): 792,
        ("K4", 5): 1104,
        ("S3", 5): 167,
        ("C4", 5): 748,
    }

    @pytest.mark.parametrize(
        "name, n, value, core_value, nodes, plain_core_nodes",
        [
            ("C5", 4, 12, 8, 17, 136),
            ("K2,3", 4, 13, 10, 17, 100),
            ("K4", 4, 14, 12, 17, 57),
            ("S3", 4, 11, 6, 0, 82),
            ("C4", 4, 12, 8, 0, 104),
            ("C5", 5, 24, 16, 33, 6700),
            ("K2,3", 5, 26, 20, 0, 3147),
            ("K4", 5, 28, 24, 33, 2507),
            ("S3", 5, 22, 12, 33, 1600),
            ("C4", 5, 26, 20, 0, 2980),
        ],
    )
    def test_frozen_values_at_the_core_bound(
        self, name, n, value, core_value, nodes, plain_core_nodes
    ):
        pattern = pattern_of(name)
        res = vex_exact(n, pattern)
        assert res.exact
        assert res.upper_bound_source == "search:complement-core"
        assert (res.value, res.core_value) == (value, core_value)
        assert (res.nodes, res.core_nodes) == (nodes, self.CORE_NODES[name, n])
        assert res.value == _core_upper_bound(n, core_value)
        # the plain core search, as la runs its searches, keeps its node count
        plain = max_family_avoiding(IncrementalChecker(pattern, n), symmetric=True)
        assert (plain[0], plain[3]) == (core_value, plain_core_nodes)

    @pytest.mark.parametrize("name", SMALL_PATTERNS)
    def test_witness_is_the_full_search_witness(self, name):
        pattern = pattern_of(name)
        for n in (1, 2, 3, 4):
            res = vex_exact(n, pattern)
            seed, _ = _lower_bound(n, pattern)
            full = max_family_avoiding(IncrementalChecker(pattern, n), seed=seed)
            assert (res.value, res.witness, res.exact) == full[:3]

    def test_an_unfinished_core_search_gives_no_stop_value(self):
        # one core node finds only the empty core, whose bound 16 the star seed meets
        res = vex_exact(5, parse_pattern("C5"), max_nodes=2)
        assert not res.exact
        assert (res.upper, res.upper_bound_source) == (None, None)
        assert (res.core_value, res.core_nodes, res.nodes) == (None, 1, 1)

    def test_budgets_split_between_the_searches(self, monkeypatch):
        budgets = []
        real = search.max_family_avoiding

        def recording(*args, **kwargs):
            budgets.append((kwargs["max_nodes"], kwargs["deadline"]))
            return real(*args, **kwargs)

        # the clock reads 100 when the deadline is set and 104 from then on
        readings = iter([100.0])
        clock = SimpleNamespace(monotonic=lambda: next(readings, 104.0))
        monkeypatch.setattr(search, "max_family_avoiding", recording)
        monkeypatch.setattr(search, "time", clock)
        res = vex_exact(4, parse_pattern("C5"), max_nodes=1001, timeout=10.0)
        assert res.exact and res.core_nodes == 62
        # the core search: half the nodes, half the 6 s left; the main search: the rest
        assert budgets == [(500, 107.0), (1001 - 62, 110.0)]

    def test_a_past_deadline_visits_no_node(self):
        checker = IncrementalChecker(parse_pattern("C5"), 4)
        _, _, exact, nodes = max_family_avoiding(checker, deadline=time.monotonic() - 1)
        assert (exact, nodes) == (False, 0)

    def test_a_zero_timeout_returns_the_seed(self):
        res = vex_exact(4, parse_pattern("C5"), timeout=0)
        assert (res.value, res.lower_bound_source) == (11, "construction:threshold")
        assert (res.upper, res.nodes, res.core_nodes) == (None, 0, 0)

    def test_a_seed_meeting_stop_takes_no_nodes(self):
        checker = IncrementalChecker(parse_pattern("C5"), 4)
        seed = level_slice(4, 2, 4)
        for stop in (11, 5):
            result = max_family_avoiding(checker, seed=seed, stop=stop)
            assert result == (11, seed, True, 0)

    def test_budgeted_s3_closes_at_n6(self):
        res = vex_exact(6, parse_pattern("S3"), max_nodes=400_000)
        # vex_sym = 20, so the upper bound 32 + 10 is the bip_lower seed's size
        assert res.exact
        assert (res.value, res.core_value, res.nodes, res.core_nodes) == (42, 20, 0, 6_941)
        assert res.lower_bound_source == "construction:bip_lower"
        assert res.upper_bound_source == "search:complement-core"

    def test_budgeted_c4_closes_at_n6(self):
        res = vex_exact(6, parse_pattern("C4"), max_nodes=400_000)
        # vex_sym = 30, so the upper bound 32 + 15 is the e2_two_level seed's size
        assert res.exact
        assert (res.value, res.core_value, res.nodes, res.core_nodes) == (47, 30, 0, 178_314)
        assert res.lower_bound_source == "construction:e2_two_level"
        assert res.upper_bound_source == "search:complement-core"


def random_pattern(rng: random.Random) -> PatternGraph:
    count = rng.randint(2, 5)
    pairs = list(combinations(range(count), 2))
    return PatternGraph.make(count, rng.sample(pairs, rng.randint(1, len(pairs))))


def relabelled(fam: Family, perm: list[int]) -> Family:
    """The image of the family when element i + 1 of [n] becomes perm[i] + 1."""
    return Family.of(fam.n, (sum(1 << perm[b] for b in range(fam.n) if m >> b & 1) for m in fam))


def both_searches(n: int, pattern: PatternGraph, **kwargs) -> tuple:
    """(plain, orbital) results of max_family_avoiding, each with a fresh checker."""
    return tuple(
        max_family_avoiding(IncrementalChecker(pattern, n), relabel_invariant=flag, **kwargs)
        for flag in (False, True)
    )


def assert_same_search(plain: tuple, orbital: tuple) -> None:
    assert orbital[:3] == plain[:3]
    assert orbital[3] <= plain[3]


class TestOrbitalPruning:
    @pytest.mark.parametrize("name", SMALL_PATTERNS + ["C4"])
    def test_same_results_in_no_more_nodes(self, name):
        pattern = pattern_of(name)
        for n in range(1, 6):
            assert_same_search(*both_searches(n, pattern, symmetric=True))
            if n <= 4:
                assert_same_search(*both_searches(n, pattern))

    def test_random_patterns(self):
        rng = random.Random(11)
        for _ in range(40):
            pattern = random_pattern(rng)
            n = rng.randint(1, 5)
            assert_same_search(*both_searches(n, pattern, symmetric=True))
            if n <= 4:
                assert_same_search(*both_searches(n, pattern))

    @pytest.mark.parametrize("name", SMALL_PATTERNS + ["C4"])
    def test_vex_exact_matches_the_plain_searches(self, monkeypatch, name):
        # the seeded core and stopped main searches of vex_exact, with and without orbits
        real = search.max_family_avoiding
        pattern = pattern_of(name)
        for n in (4, 5):
            monkeypatch.setattr(
                search,
                "max_family_avoiding",
                lambda *a, **k: real(*a, **{**k, "relabel_invariant": False}),
            )
            plain = vex_exact(n, pattern)
            monkeypatch.setattr(search, "max_family_avoiding", real)
            orbital = vex_exact(n, pattern)
            assert (orbital.value, orbital.witness, orbital.exact, orbital.core_value) == (
                plain.value,
                plain.witness,
                plain.exact,
                plain.core_value,
            )
            assert orbital.upper_bound_source == plain.upper_bound_source
            assert orbital.lower_bound_source == plain.lower_bound_source
            assert orbital.nodes <= plain.nodes and orbital.core_nodes <= plain.core_nodes

    @pytest.mark.parametrize("name", ["C5", "K2,3", "S3", "K4"])
    def test_a_budget_never_lowers_the_value(self, name):
        pattern = pattern_of(name)
        for n, symmetric in ((5, False), (6, False), (6, True)):
            for max_nodes in (5, 100, 1500):
                plain, orbital = both_searches(n, pattern, symmetric=symmetric, max_nodes=max_nodes)
                assert orbital[0] >= plain[0]
                assert is_free(orbital[1], pattern)

    def test_the_checker_verdict_is_relabel_invariant(self):
        # the premise of the pruning, checked rather than assumed
        rng = random.Random(5)
        for _ in range(150):
            pattern = random_pattern(rng)
            n = rng.randint(2, 5)
            fam = Family.of(n, rng.sample(range(1 << n), rng.randint(1, 1 << (n - 1))))
            perm = rng.sample(range(n), n)
            verdicts = []
            for members in (fam.members, relabelled(fam, perm).members):
                checker = IncrementalChecker(pattern, n)
                for m in members:
                    checker.push(m)
                verdicts.append(checker.currently_free())
            assert verdicts[0] == verdicts[1] == is_free(fam, pattern)


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
                self.n = inner.n
                self.pushes = 0

            def push(self, mask):
                self.pushes += 1
                self.inner.push(mask)

            def pop(self):
                return self.inner.pop()

            def currently_free(self):
                return self.inner.currently_free()

        checker = CountingChecker(IncrementalChecker(parse_pattern("C5"), 4))
        seed = level_slice(4, 2, 4)
        result = max_family_avoiding(checker, seed=seed, max_nodes=0)
        assert result == (11, seed, False, 0)
        assert checker.pushes == 0

    def test_a_seed_on_another_n_is_rejected(self):
        checker = IncrementalChecker(parse_pattern("C5"), 4)
        with pytest.raises(ValueError):
            max_family_avoiding(checker, seed=level_slice(5, 2, 3))

    def test_symmetric_seed_must_be_complement_closed(self):
        checker = IncrementalChecker(parse_pattern("C5"), 4)
        seed = level_slice(4, 1, 2)  # complements land in levels 2..3
        with pytest.raises(ValueError):
            max_family_avoiding(checker, symmetric=True, seed=seed)


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

    @pytest.mark.parametrize("name", ["C5", "K3", "K4", "S3", "K2,3", "C4", "P4"])
    def test_source_names_a_built_construction_equal_to_the_witness(self, name):
        # (name, params, smallest n) of every construction these patterns can take
        named = [
            ("star", {}, 1),
            ("threshold", {"k": 1}, 1),
            ("threshold", {"k": 2}, 1),
            ("clique_threshold", {"r": 2}, 1),
            ("clique_threshold", {"r": 3}, 1),
            ("bip_lower", {}, 2),
            ("e2_two_level", {}, 3),
        ]
        pattern = pattern_of(name)
        for n in range(1, 9):
            witness, source = _lower_bound(n, pattern)
            built = [build_construction(c, n, **kw) for c, kw, first in named if n >= first]
            assert any(
                nc.family == witness and source == "construction:" + nc.name for nc in built
            )

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
            assert vex_bounds(n, pattern).value == vex_bounds(n, pattern).upper == res.value

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matching_matches_search(self, k):
        pattern = make_pattern("matching", k)
        for n in (1, 2, 3, 4):
            res = vex_exact(n, pattern)
            assert res.exact
            assert res.value == plain_search(n, pattern)
            assert is_free(res.witness, pattern)
            bounds = vex_bounds(n, pattern)
            assert bounds.value == bounds.upper == res.value

    @pytest.mark.parametrize(
        "pattern",
        [make_pattern("matching", k) for k in (1, 2, 3)]
        + [PatternGraph.make(count, []) for count in (1, 3, 6)],
    )
    def test_no_budget_at_larger_n(self, pattern):
        for n in (6, 7, 8):
            res = vex_exact(n, pattern)
            assert res.exact and res.nodes == 0
            assert res == vex_bounds(n, pattern)


class TestVexBounds:
    @pytest.mark.parametrize("name", ["K3", "C5", "S3", "K2,3", "K4", "M2", "P4"])
    def test_sandwich_exact_values(self, name):
        pattern = pattern_of(name)
        for n in (2, 3, 4):
            bounds = vex_bounds(n, pattern)
            exact = vex_exact(n, pattern).value
            assert bounds.value <= exact
            assert len(bounds.witness) == bounds.value
            assert is_free(bounds.witness, pattern)
            if bounds.upper is not None:
                assert exact <= bounds.upper

    def test_odd_cycles_get_an_upper_bound(self):
        for name in ("K3", "C5"):
            assert vex_bounds(6, parse_pattern(name)).upper_bound_source == "formula:cycle-tail"

    def test_odd_girth_is_computed_once_per_pattern(self):
        odd_girth.cache_clear()
        pattern = parse_pattern("C5")
        for n in range(5, 9):
            vex_bounds(n, pattern)
        assert odd_girth.cache_info().misses == 1

    @pytest.mark.parametrize("name", SMALL_PATTERNS)
    def test_seeds_the_searches_of_vex_exact(self, name):
        # with no nodes to spend, vex_exact returns the vex_bounds witness
        pattern = pattern_of(name)
        for n in range(1, 7):
            bounds = vex_bounds(n, pattern)
            res = vex_exact(n, pattern, max_nodes=0)
            assert (res.value, res.witness, res.lower_bound_source) == (
                bounds.value,
                bounds.witness,
                bounds.lower_bound_source,
            )
