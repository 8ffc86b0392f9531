import random
from itertools import combinations, product

import pytest

from knvex import freeness
from knvex.constructions import (
    CONSTRUCTION_PARAMETERS,
    bip_lower,
    build_construction,
    clique_threshold_family,
    e2_two_level,
    star_family,
    threshold_family,
)
from knvex.freeness import (
    IncrementalChecker,
    InducedKneser,
    _embed,
    _graph_plan,
    _quotient_contains,
    _quotient_verdict,
    _symmetry_blocks,
    check_witness,
    contains_subgraph,
    is_free,
)
from knvex.patterns import PatternGraph, parse_pattern, pattern_from_text
from knvex.sets import Family, level_slice, mask_of, young_classes

from oracles import automorphism_orbit_minima, disjointness_edges, subgraph_copy_exists, two_block_masks

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

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_on_sparse_and_dense_families(self, seed):
        # rows by submask enumeration, checked far below the 2^(n-1) sets of any host
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        sparse = Family.of(n, rng.sample(range(1 << n), rng.randint(1, min(10, 1 << n))))
        dense = Family.of(n, (m for m in range(1 << n) if rng.random() < 0.75))
        for fam in (sparse, dense):
            g = InducedKneser(fam)
            rows = [0] * len(fam)
            for i, j in disjointness_edges(fam.members):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            assert [g.neighbor_mask(i) for i in range(len(fam))] == rows


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


def good_transpositions(fam: Family) -> list[tuple[int, int]]:
    """Every (i, j) whose swap maps the family onto itself, by mapping it whole."""
    pairs = []
    for i in range(fam.n):
        for j in range(i + 1, fam.n):
            swapped = {m ^ (1 << i | 1 << j) if (m >> i ^ m >> j) & 1 else m for m in fam}
            if swapped == fam.member_set:
                pairs.append((i, j))
    return pairs


def orbit_by_swaps(fam: Family, mask: int) -> set[int]:
    """Closure of one member under the good transpositions, swap by swap."""
    swaps = [1 << i | 1 << j for i, j in good_transpositions(fam)]
    orbit, frontier = {mask}, [mask]
    while frontier:
        m = frontier.pop()
        for both in swaps:
            image = m ^ both if 0 != m & both != both else m
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def block_invariant_family(rng: random.Random, n: int) -> tuple[Family, list[int]]:
    """A random union of classes under a random block partition of [n], and its blocks."""
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    planted = [sum(1 << e for e in range(n) if labels[e] == b) for b in sorted(set(labels))]
    keys = {tuple((m & b).bit_count() for b in planted) for m in range(1 << n)}
    kept = {key for key in keys if rng.random() < 0.4}
    masks = [m for m in range(1 << n) if tuple((m & b).bit_count() for b in planted) in kept]
    return Family.of(n, masks), planted


def blocks_by_brute_force(fam: Family) -> list[int]:
    """The classes of [n] joined by good_transpositions, by smallest element."""
    block_of = [1 << e for e in range(fam.n)]
    for i, j in good_transpositions(fam):
        joined = block_of[i] | block_of[j]
        for e in range(fam.n):
            if joined >> e & 1:
                block_of[e] = joined
    return sorted(set(block_of), key=lambda b: b & -b)


class TestHostSymmetry:
    def test_blocks_of_the_constructions(self):
        for n in range(1, 9):
            full = (1 << n) - 1
            assert _symmetry_blocks(threshold_family(n, 1)) == [full]
            assert _symmetry_blocks(threshold_family(n, 2)) == [full]
            assert _symmetry_blocks(clique_threshold_family(n, 3)) == [full]
            star = [1, full ^ 1] if n > 1 else [1]
            assert _symmetry_blocks(star_family(n, 1)) == star
            if n >= 2:
                assert _symmetry_blocks(bip_lower(n)) == ([full] if n % 2 == 0 else star)

    def test_a_removed_member_leaves_no_false_block(self):
        # only the swaps inside the removed set or inside its complement keep the rest
        for n in range(2, 8):
            fam = threshold_family(n, 2)
            for removed in fam.members[:: max(1, len(fam) // 5)]:
                rest = Family.of(n, (m for m in fam if m != removed))
                parts = [b for b in (removed, ((1 << n) - 1) ^ removed) if b]
                expected = sorted(parts, key=lambda b: b & -b)
                assert _symmetry_blocks(rest) == expected
                pairs = combinations(range(n), 2)
                inside = {(i, j) for i, j in pairs if any(b >> i & b >> j & 1 for b in parts)}
                assert set(good_transpositions(rest)) == inside

    def test_bitmap_blocks_match_brute_force(self):
        # random families, perturbed block-invariant ones, and ones holding the empty set and [n]
        rng = random.Random(5)
        fams = [F(1, []), F(1, [1]), F(1, [], [1]), Family.of(3, []), Family.of(3, range(8))]
        for _ in range(240):
            n = rng.randint(1, 8)
            kind = rng.randrange(3)
            if kind == 0:
                density = rng.random()
                masks = {m for m in range(1 << n) if rng.random() < density}
            else:
                masks = set(block_invariant_family(rng, n)[0].members)
                masks ^= {rng.randrange(1 << n) for _ in range(rng.randint(0, 2))}
            if kind == 2:
                masks |= {0, (1 << n) - 1}
            fams.append(Family.of(n, masks))
        nontrivial = 0
        for fam in fams:
            blocks = _symmetry_blocks(fam)
            assert blocks == blocks_by_brute_force(fam)
            nontrivial += 1 < len(blocks) < fam.n
            pairs = combinations(range(fam.n), 2)
            inside = [(i, j) for i, j in pairs if any(b >> i & b >> j & 1 for b in blocks)]
            assert good_transpositions(fam) == inside
        assert nontrivial > 40

    def test_no_quotient_past_the_memory_bound(self, monkeypatch):
        # the bitmap block test holds n * 2^n bits, so the quotient stops at 2^n > 2 * MAX_VERTICES
        monkeypatch.setattr(freeness, "MAX_VERTICES", 16)
        plan = _graph_plan(NAMED["K2"])
        assert _quotient_verdict(level_slice(5, 0, 1), plan) is True
        fam = level_slice(6, 0, 1)
        assert _quotient_verdict(fam, plan) is None
        rows = (InducedKneser(fam).neighbor_mask,)
        for pattern in NAMED.values():
            plain = _embed(_graph_plan(pattern), len(fam), rows)
            got = contains_subgraph(fam, pattern)
            assert got == {v: fam.members[i] for v, i in plain.items()}
            assert not is_free(fam, pattern)

    @pytest.mark.parametrize(
        "name, n, params, pattern, free",
        [
            ("bip_lower", 14, {}, "S2", True),
            ("threshold", 13, {"k": 2}, "C5", True),
            ("clique_threshold", 12, {"r": 3}, "K4", True),
            ("e2_two_level", 12, {}, "C4", True),
            ("bip_lower", 14, {}, "K2", False),
            ("clique_threshold", 12, {"r": 3}, "K3", False),
            ("threshold", 7, {"k": 2}, "S3", False),
        ],
    )
    def test_verdicts_build_no_rows(self, monkeypatch, name, n, params, pattern, free):
        # block-symmetric hosts, decided on atom counts with or without a copy
        # in them; with one row per host class the embedder built 8, 232, 172
        # and 56 rows to certify the four free ones
        def refuse(kneser, i):
            raise AssertionError("an adjacency row was built")

        fam = build_construction(name, n, **params).family
        assert len(_symmetry_blocks(fam)) <= 2
        monkeypatch.setattr(InducedKneser, "neighbor_mask", refuse)
        assert is_free(fam, parse_pattern(pattern)) is free
        if free:
            assert contains_subgraph(fam, parse_pattern(pattern)) is None

    def test_trivial_symmetry_gives_none(self):
        chain = F(3, [1], [1, 2], [1, 2, 3])
        assert good_transpositions(chain) == []
        assert _symmetry_blocks(chain) == [1, 2, 4]
        k2 = _graph_plan(NAMED["K2"])
        assert _quotient_verdict(chain, k2) is None
        # one block, so the quotient decides it: {} and {1} are disjoint
        assert _quotient_verdict(F(1, [], [1]), k2) is True

    def test_classes_are_the_orbits_of_the_good_transpositions(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 5)
            fam, planted = block_invariant_family(rng, n)
            blocks = _symmetry_blocks(fam)
            classes = young_classes(fam.members, blocks)
            # a planted block lies inside one found block
            assert all(any(p & b == p for b in blocks) for p in planted)
            for i, m in enumerate(fam.members):
                row = classes[i]
                mates = {fam.members[j] for j in range(len(fam)) if row >> j & 1}
                assert mates == orbit_by_swaps(fam, m)

    def test_pruned_search_returns_the_plain_copy(self):
        # a host with one or two blocks is pruned to its quotient, and a copy
        # found there is still the plain embedder's
        rng = random.Random(13)
        patterns = [*NAMED.values(), parse_pattern("K2,3"), parse_pattern("S3"), ASYMMETRIC]
        symmetric = 0
        for _ in range(150):
            n = rng.randint(2, 6)
            fam, _ = block_invariant_family(rng, n)
            symmetric += len(_symmetry_blocks(fam)) <= 2
            rows = (InducedKneser(fam).neighbor_mask,)
            for pattern in patterns:
                got = contains_subgraph(fam, pattern)
                plain = _embed(_graph_plan(pattern), len(fam), rows)
                if plain is not None:
                    plain = {v: fam.members[i] for v, i in plain.items()}
                assert got == plain
                if got is not None:
                    assert check_witness(fam, pattern, got)
                if len(fam) <= 8:
                    assert (got is not None) == subgraph_copy_exists(fam.members, pattern)
        assert symmetric > 80


# the patterns the quotient search is checked on: a triangle with three
# isolated vertices, from a pattern file, besides the named ones
QUOTIENT_PATTERNS = {
    **{
        name: parse_pattern(name)
        for name in ("C3", "C5", "C7", "K4", "K2,3", "C4", "S3", "K3,3", "S2", "M2")
    },
    "K3+3": pattern_from_text("p 6\n0 1\n1 2\n0 2\n"),
}


def embedder_finds(fam: Family, pattern: PatternGraph) -> bool:
    """Whether the embedder finds a copy with the first vertex of the plan
    pinned to the smallest member of some Young class of the family's blocks:
    a relabelling of [n] that keeps the family keeps disjointness, and moves
    the first image of a copy anywhere in its class."""
    plan = _graph_plan(pattern)
    rows = (InducedKneser(fam).neighbor_mask,)
    classes = young_classes(fam.members, _symmetry_blocks(fam))
    reps = sorted({(c & -c).bit_length() - 1 for c in classes})
    return any(_embed(plan, len(fam), rows, (plan.route[0][0], h)) for h in reps)


def quotient_agrees(fam: Family, pattern: PatternGraph) -> bool:
    """The quotient search decides the host and agrees with the embedder."""
    found = _quotient_contains(fam, _symmetry_blocks(fam), _graph_plan(pattern))
    assert found is not None
    assert found == embedder_finds(fam, pattern)
    return found


def two_block_family(rng: random.Random, n: int) -> Family:
    return Family.of(n, two_block_masks(rng, n))


class TestQuotient:
    def test_level_windows(self):
        found = 0
        for n in range(1, 9):
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    fam = level_slice(n, lo, hi)
                    for pattern in QUOTIENT_PATTERNS.values():
                        found += quotient_agrees(fam, pattern)
        assert 0 < found < 164 * len(QUOTIENT_PATTERNS)

    def test_constructions(self):
        params = {"x": (1, 2), "k": (1, 2, 3), "r": (2, 3, 4)}
        for name, keys in CONSTRUCTION_PARAMETERS.items():
            for n in range(3, 13):
                for values in product(*(params[key] for key in keys)):
                    fam = build_construction(name, n, **dict(zip(keys, values))).family
                    if len(_symmetry_blocks(fam)) <= 2:
                        for pattern in QUOTIENT_PATTERNS.values():
                            quotient_agrees(fam, pattern)

    def test_random_two_block_families(self):
        rng = random.Random(7)
        for _ in range(60):
            fam = two_block_family(rng, rng.randint(1, 8))
            assert len(_symmetry_blocks(fam)) <= 2
            for pattern in QUOTIENT_PATTERNS.values():
                quotient_agrees(fam, pattern)

    def test_relabelling_keeps_the_verdict(self):
        rng = random.Random(17)
        hosts = [two_block_family(rng, rng.randint(3, 7)) for _ in range(15)]
        hosts += [level_slice(6, 2, 4), e2_two_level(8)]
        for pattern in QUOTIENT_PATTERNS.values():
            size = pattern.vertex_count
            for _ in range(3):
                perm = rng.sample(range(size), size)
                relabelled = PatternGraph.make(size, [(perm[u], perm[v]) for u, v in pattern.edges])
                for fam in hosts:
                    blocks = _symmetry_blocks(fam)
                    expected = _quotient_contains(fam, blocks, _graph_plan(pattern))
                    assert _quotient_contains(fam, blocks, _graph_plan(relabelled)) == expected

    def test_host_smaller_than_the_pattern(self):
        # isolated vertices still need members of their own
        fam = level_slice(3, 1, 1)
        blocks = _symmetry_blocks(fam)
        assert _quotient_contains(fam, blocks, _graph_plan(QUOTIENT_PATTERNS["C3"])) is True
        assert _quotient_contains(fam, blocks, _graph_plan(QUOTIENT_PATTERNS["K3+3"])) is False

    def test_which_hosts_reach_the_embedder(self, monkeypatch):
        calls = {}
        for attr in ("_quotient_contains", "_embedded_copy"):
            def counted(*args, attr=attr, fn=getattr(freeness, attr)):
                calls[attr] += 1
                return fn(*args)
            monkeypatch.setattr(freeness, attr, counted)

        def check(ask, fam, pattern, quotient, embedder):
            calls.update(_quotient_contains=0, _embedded_copy=0)
            got = ask(fam, pattern)
            assert calls == {"_quotient_contains": quotient, "_embedded_copy": embedder}
            return got

        c5 = QUOTIENT_PATTERNS["C5"]
        assert check(is_free, threshold_family(10, 2), c5, 1, 0)
        # at any size: the 64-member threshold family, free and holding a copy
        assert check(is_free, threshold_family(7, 2), c5, 1, 0)
        assert not check(is_free, threshold_family(7, 2), QUOTIENT_PATTERNS["S3"], 1, 0)
        # a copy that is asked for comes from the embedder
        copy = check(contains_subgraph, threshold_family(7, 2), QUOTIENT_PATTERNS["S3"], 1, 1)
        assert check_witness(threshold_family(7, 2), QUOTIENT_PATTERNS["S3"], copy)
        assert check(contains_subgraph, threshold_family(7, 2), c5, 1, 0) is None
        # the three blocks {1}, {2}, {3..9}
        three = Family.of(9, (m for m in range(1 << 9) if m & 1 and not m & 2 or m.bit_count() > 4))
        assert len(_symmetry_blocks(three)) == 3
        assert check(is_free, three, c5, 0, 1) == (contains_subgraph(three, c5) is None)
        # a search past QUOTIENT_STATES
        monkeypatch.setattr(freeness, "QUOTIENT_STATES", 3)
        assert check(is_free, threshold_family(10, 2), c5, 1, 1)

    @pytest.mark.parametrize(
        "name, n, params, pattern, states",
        [
            ("threshold", 13, {"k": 2}, "C5", 24),
            ("clique_threshold", 12, {"r": 3}, "K4", 18),
            ("bip_lower", 14, {}, "S2", 8),
            ("e2_two_level", 12, {}, "C4", 28),
            ("e2_two_level", 12, {}, "K2,3", 97),
            ("e2_two_level", 12, {}, "K3,3", 97),
            ("threshold", 17, {"k": 2}, "C5", 353),
        ],
    )
    def test_states_tried(self, monkeypatch, name, n, params, pattern, states):
        # a deterministic count; without the twin order the K2,3 and K3,3
        # checks tried 224 and 878 states
        fam = build_construction(name, n, **params).family
        blocks = _symmetry_blocks(fam)
        plan = _graph_plan(parse_pattern(pattern))
        monkeypatch.setattr(freeness, "QUOTIENT_STATES", states)
        assert _quotient_contains(fam, blocks, plan) is False
        monkeypatch.setattr(freeness, "QUOTIENT_STATES", states - 1)
        assert _quotient_contains(fam, blocks, plan) is None

    @pytest.mark.parametrize(
        "name, params, pattern", [("threshold", {"k": 2}, "C5"), ("e2_two_level", {}, "K2,3")]
    )
    def test_n17_without_rows(self, monkeypatch, name, params, pattern):
        # the embedder took 53 s and 367 MB, and 4.3 s and 279 MB, on these
        def refuse(kneser, i):
            raise AssertionError("an adjacency row was built")

        fam = build_construction(name, 17, **params).family
        monkeypatch.setattr(InducedKneser, "neighbor_mask", refuse)
        assert is_free(fam, parse_pattern(pattern))


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
