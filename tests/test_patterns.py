import random
from itertools import combinations

import pytest

from knvex.patterns import (
    PatternGraph,
    bipartition,
    is_matching,
    make_pattern,
    odd_girth,
    parse_pattern,
    pattern_from_text,
    pattern_to_text,
)


class TestMakePattern:
    def test_matching(self):
        m2 = make_pattern("matching", 2)
        assert m2.vertex_count == 4
        assert m2.edges == frozenset({(0, 1), (2, 3)})

    def test_cycle(self):
        c5 = make_pattern("cycle", 5)
        assert c5.vertex_count == 5
        assert all(d == 2 for d in c5.degrees)

    def test_complete_bipartite_one_side_is_star(self):
        assert make_pattern("complete_bipartite", 1, 3) == make_pattern("star", 3)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            make_pattern("cycle", 2)
        with pytest.raises(ValueError):
            make_pattern("matching", 0)
        with pytest.raises(ValueError):
            make_pattern("nonsense", 1)

    def test_parse_names(self):
        assert parse_pattern("M2") == make_pattern("matching", 2)
        assert parse_pattern("S3") == make_pattern("star", 3)
        assert parse_pattern("C5") == make_pattern("cycle", 5)
        assert parse_pattern("K4") == make_pattern("clique", 4)
        assert parse_pattern("K2,3") == make_pattern("complete_bipartite", 2, 3)
        with pytest.raises(ValueError):
            parse_pattern("Q7")


class TestBipartition:
    def test_even_cycle(self):
        bip = bipartition(make_pattern("cycle", 4))
        assert bip.side_a == frozenset({0, 2})
        assert bip.side_b == frozenset({1, 3})

    def test_odd_cycle_has_none(self):
        assert bipartition(make_pattern("cycle", 5)) is None

    def test_matching_canonical_sides(self):
        bip = bipartition(make_pattern("matching", 2))
        assert bip.side_a == frozenset({0, 2})
        assert bip.side_b == frozenset({1, 3})

    def test_isolated_vertices_go_to_side_a(self):
        g = PatternGraph.make(3, [])
        bip = bipartition(g)
        assert bip.side_a == frozenset({0, 1, 2})
        assert bip.side_b == frozenset()


class TestOddGirth:
    def test_examples(self):
        assert odd_girth(make_pattern("clique", 4)) == 3
        assert odd_girth(make_pattern("cycle", 5)) == 5
        assert odd_girth(make_pattern("cycle", 4)) is None

    def test_odd_cycles(self):
        for k in range(1, 7):
            assert odd_girth(make_pattern("cycle", 2 * k + 1)) == 2 * k + 1

    def test_bipartite_iff_no_odd_girth(self):
        # exhaustive on <= 5 vertices, random sample at 6 and 7
        for nv in range(1, 6):
            pairs = list(combinations(range(nv), 2))
            for bits in range(1 << len(pairs)):
                g = PatternGraph.make(nv, [p for i, p in enumerate(pairs) if bits >> i & 1])
                assert (bipartition(g) is None) == (odd_girth(g) is not None)
        rng = random.Random(7)
        for nv in (6, 7):
            pairs = list(combinations(range(nv), 2))
            for _ in range(400):
                chosen = [p for p in pairs if rng.random() < 0.3]
                g = PatternGraph.make(nv, chosen)
                assert (bipartition(g) is None) == (odd_girth(g) is not None)


class TestIsMatching:
    def test_examples(self):
        assert is_matching(make_pattern("matching", 3))
        assert not is_matching(make_pattern("star", 2))
        assert is_matching(PatternGraph.make(1, []))


class TestTextFormat:
    def test_round_trip(self):
        g = make_pattern("complete_bipartite", 2, 2)
        text = pattern_to_text(g)
        assert text.startswith("p 4")
        assert pattern_from_text(text) == g

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            pattern_from_text("4\n0 1\n")
        with pytest.raises(ValueError):
            pattern_from_text("p 3\n0 0\n")
