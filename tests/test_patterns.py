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

from oracles import shortest_odd_cycle


def random_graph(rng, nv, density):
    return PatternGraph.make(nv, [p for p in combinations(range(nv), 2) if rng.random() < density])


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

    @pytest.mark.parametrize("name", ["C5\n", "C\u0665", "K\u0662,3"])
    def test_names_are_ascii_digits_to_the_end(self, name):
        with pytest.raises(ValueError) as caught:
            parse_pattern(name)
        assert str(caught.value) == f"unknown pattern name {name!r}"


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

    def test_sides_split_every_edge_with_each_smallest_vertex_on_side_a(self):
        rng = random.Random(13)
        for _ in range(300):
            nv = rng.randint(1, 7)
            g = random_graph(rng, nv, 0.3)
            bip = bipartition(g)
            if bip is None:
                continue
            assert bip.side_a | bip.side_b == frozenset(range(nv))
            assert not bip.side_a & bip.side_b
            assert all((u in bip.side_a) != (v in bip.side_a) for u, v in g.edges)
            # the smallest vertex of each component: no path reaches a smaller one
            for v in range(nv):
                reach, frontier = {v}, [v]
                while frontier:
                    frontier = [u for w in frontier for u in g.neighbors(w) if u not in reach]
                    reach.update(frontier)
                if min(reach) == v:
                    assert v in bip.side_a


class TestOddGirth:
    def test_examples(self):
        assert odd_girth(make_pattern("clique", 4)) == 3
        assert odd_girth(make_pattern("cycle", 5)) == 5
        assert odd_girth(make_pattern("cycle", 4)) is None

    def test_odd_cycles(self):
        for k in range(1, 7):
            assert odd_girth(make_pattern("cycle", 2 * k + 1)) == 2 * k + 1

    def test_matches_the_shortest_odd_cycle(self):
        # exhaustive on <= 5 vertices; at 6 and 7, a random odd cycle plus sparse random edges
        for nv in range(1, 6):
            pairs = list(combinations(range(nv), 2))
            for bits in range(1 << len(pairs)):
                g = PatternGraph.make(nv, [p for i, p in enumerate(pairs) if bits >> i & 1])
                assert odd_girth(g) == shortest_odd_cycle(g)
        rng = random.Random(19)
        for _ in range(200):
            nv = rng.randint(6, 7)
            cycle = rng.sample(range(nv), rng.choice(range(3, nv + 1, 2)))
            edges = [(cycle[k - 1], cycle[k]) for k in range(len(cycle))]
            g = PatternGraph.make(nv, edges + list(random_graph(rng, nv, 0.1).edges))
            assert odd_girth(g) == shortest_odd_cycle(g)

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p 3 9\n0 1\n", "line 1: expected a 'p <count>' header, got 'p 3 9'"),
            ("p 3\n\n0 1 2\n", "line 3: cannot read '0 1 2'"),
            ("p 3\n0 x\n", "line 2: cannot read '0 x'"),
            ("p 3\n0 3\n", "line 2: '0 3' has a value outside 0..2"),
            ("p 3\n0 1\n\n0 0\n", "line 4: loop at vertex 0"),
            ("\np 0\n", "line 2: vertex count must be 1..16"),
            ("p 17\n0 1\n", "line 1: vertex count must be 1..16"),
        ],
        ids=["header", "width", "token", "range", "loop", "count", "count-before-edges"],
    )
    def test_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError) as info:
            pattern_from_text(text)
        assert str(info.value) == message
