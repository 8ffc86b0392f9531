import re
from math import comb

import pytest

from knvex import constructions, freeness
from knvex.constructions import (
    NamedConstruction,
    bip_lower,
    build_construction,
    clique_threshold_family,
    e2_two_level,
    matching_extremal,
    star_family,
    threshold_family,
    verify_construction,
)
from knvex.freeness import InducedKneser, is_free
from knvex.patterns import make_pattern, parse_pattern
from knvex.sets import Family, binom_tail, elements_of, level_slice, mask_of, upset

from oracles import disjointness_edges, e2_core


class TestStarFamily:
    def test_example(self):
        assert star_family(3, 1) == Family.of(
            3, [mask_of(s, 3) for s in ([1], [1, 2], [1, 3], [1, 2, 3])]
        )

    def test_sizes(self):
        for n in range(1, 11):
            for x in (1, n):
                assert len(star_family(n, x)) == 1 << (n - 1)

    def test_is_the_sets_through_x(self):
        for n in range(1, 11):
            for x in range(1, n + 1):
                through_x = [m for m in range(1 << n) if x in elements_of(m)]
                assert list(star_family(n, x)) == through_x

    def test_edgeless(self):
        for n in range(2, 9):
            assert is_free(star_family(n, 1), parse_pattern("K2"))

    def test_rejects_bad_element(self):
        with pytest.raises(ValueError):
            star_family(4, 5)


class TestMatchingExtremal:
    def test_zero_doubles_is_star(self):
        assert matching_extremal(3, 0) == star_family(3, 1)

    def test_one_double_gives_one_edge(self):
        fam = matching_extremal(3, 1)
        assert len(fam) == 5
        assert len(disjointness_edges(fam.members)) == 1

    def test_k2_at_n4(self):
        fam = matching_extremal(4, 2)
        assert len(fam) == 10
        assert not is_free(fam, parse_pattern("M2"))
        assert is_free(fam, parse_pattern("M3"))

    def test_contains_mk_and_avoids_next(self):
        for n in range(2, 6):
            for k in range(0, min(4, (1 << (n - 1)) + 1)):
                fam = matching_extremal(n, k)
                assert len(fam) == (1 << (n - 1)) + k
                if k >= 1:
                    assert not is_free(fam, make_pattern("matching", k))
                assert is_free(fam, make_pattern("matching", k + 1))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            matching_extremal(3, 5)


class TestBipLower:
    def test_sizes(self):
        assert len(bip_lower(4)) == 8 + 3
        assert len(bip_lower(5)) == 16 + 4
        for n in range(2, 10):
            expected = (1 << (n - 1)) + (
                comb(n, n // 2) // 2 if n % 2 == 0 else comb(n - 1, n // 2 - 1)
            )
            assert len(bip_lower(n)) == expected

    def test_is_the_upper_half_with_the_middle_sets_through_1(self):
        for n in range(2, 11):
            # even n: sizes >= n/2; odd n: sizes > n/2, or floor(n/2) through element 1
            upper = [
                m for m in range(1 << n)
                if 2 * len(elements_of(m)) >= n
                or len(elements_of(m)) == n // 2 and 1 in elements_of(m)
            ]
            assert list(bip_lower(n)) == upper

    def test_max_degree_at_most_one(self):
        for n in range(4, 8):
            assert is_free(bip_lower(n), parse_pattern("S2"))


class TestThresholdFamily:
    def test_size_example(self):
        fam = threshold_family(5, 1)
        assert len(fam) == 32 - 6
        assert len(fam) == binom_tail(5, 2)

    def test_triangle_freeness(self):
        for n in range(3, 9):
            assert is_free(threshold_family(n, 1), parse_pattern("C3"))

    def test_five_cycle_freeness(self):
        for n in range(5, 9):
            assert is_free(threshold_family(n, 2), parse_pattern("C5"))


class TestCliqueThresholdFamily:
    def test_size_example(self):
        assert len(clique_threshold_family(5, 1)) == 16

    def test_k2_freeness_small(self):
        # two disjoint sets of size >= 3 cannot fit in [5]
        assert is_free(clique_threshold_family(5, 1), parse_pattern("K2"))

    def test_k3_freeness(self):
        assert is_free(clique_threshold_family(7, 2), parse_pattern("K3"))


class TestE2TwoLevel:
    def test_odd_is_upper_half(self):
        fam = e2_two_level(5)
        assert fam == level_slice(5, 2, 5)
        assert len(fam) == 26 == (1 << 4) + comb(5, 2)

    def test_even_generator_count(self):
        fam = e2_two_level(4)
        assert len(fam) == 12

    def test_c4_freeness(self):
        for n in (4, 5, 6, 7):
            assert is_free(e2_two_level(n), parse_pattern("C4"))

    def test_core_is_the_documented_base(self):
        for n in range(3, 13):
            half = n // 2
            if n % 2:
                base = [m for m in range(1 << n) if m.bit_count() in (half, half + 1)]
                closure = [m for m in range(1 << n) if m.bit_count() >= half]
            else:
                base = [
                    m
                    for m in range(1 << n)
                    if m.bit_count() in ((half - 1, half) if m & 1 else (half, half + 1))
                ]
                closure = [
                    m for m in range(1 << n) if m.bit_count() >= (half - 1 if m & 1 else half)
                ]
            assert e2_core(n) == base
            assert e2_two_level(n) == upset(Family.of(n, e2_core(n))) == Family.of(n, closure)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_core_and_upset_need_n_at_least_3(self, n):
        for generator in (e2_core, e2_two_level):
            with pytest.raises(ValueError):
                generator(n)

    def test_vertices_outside_core_are_isolated(self):
        for n in (4, 5, 6, 7):
            fam = e2_two_level(n)
            core = set(e2_core(n))
            kneser = InducedKneser(fam)
            for i, mask in enumerate(fam):
                if mask not in core:
                    assert kneser.neighbor_mask(i) == 0


class TestNamedConstructions:
    # (name, params, smallest n the generator accepts)
    CASES = [
        ("star", {}, 1),
        ("matching_extremal", {"k": 1}, 1),
        ("matching_extremal", {"k": 2}, 2),
        ("bip_lower", {}, 2),
        ("threshold", {"k": 1}, 1),
        ("threshold", {"k": 2}, 1),
        ("clique_threshold", {"r": 2}, 1),
        ("clique_threshold", {"r": 3}, 1),
        ("e2_two_level", {}, 3),
    ]

    def test_formula_matches_generator_everywhere(self):
        for name, params, first in self.CASES:
            for n in range(first, 13):
                nc = build_construction(name, n, **params)
                assert len(nc.family) == nc.claimed_size
                # past n = 21 that is more than the embedder's 2^20 rows, so
                # build_construction may refuse it by its ground size alone
                assert nc.claimed_size >= 1 << (n - 1)

    def test_size_mismatch_is_fatal(self):
        fam = star_family(3, 1)
        with pytest.raises(ValueError):
            NamedConstruction("star", {}, fam, 5, "K2")

    def test_verify_reports(self):
        report = verify_construction(build_construction("threshold", 8, k=1))
        assert report["pass"] and report["size_ok"] and report["free_ok"]
        report = verify_construction(build_construction("matching_extremal", 4, k=2))
        assert report["pass"]
        assert report["free_of"] == "M3"

    def test_doubling_construction_is_verified_by_its_cover(self, monkeypatch):
        # its three Young blocks would send is_free to the embedder's rows
        def refuse(*args):
            raise AssertionError("is_free called")

        monkeypatch.setattr(freeness, "is_free", refuse)
        for n in range(1, 9):
            for k in range(min(5, 1 << (n - 1)) + 1):
                report = verify_construction(build_construction("matching_extremal", n, k=k))
                assert report["pass"] and report["free_of"] == f"M{k + 1}", (n, k)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_construction("pentagon", 4)

    @pytest.mark.parametrize(
        "name, params, named",
        [
            ("threshold", {}, "'k'"),
            ("matching_extremal", {}, "'k'"),
            ("clique_threshold", {}, "'r'"),
            ("star", {"k": 3}, "'k'"),
            ("bip_lower", {"x": 1}, "'x'"),
            ("threshold", {"k": 1, "r": 2}, "'r'"),
        ],
    )
    def test_parameter_errors_name_the_parameter(self, name, params, named):
        with pytest.raises(ValueError, match=named):
            build_construction(name, 6, **params)

    @pytest.mark.parametrize(
        "name, n, params, message",
        [
            ("e2_two_level", 2, {}, "needs n >= 3"),
            ("bip_lower", 1, {}, "needs n >= 2"),
            ("star", 4, {"x": 5}, "element 5 outside 1..4"),
            ("matching_extremal", 3, {"k": 5}, "k=5 outside 0..2^2"),
            ("threshold", 6, {"k": 0}, "k must be at least 1"),
            ("clique_threshold", 6, {"r": 0}, "r must be at least 1"),
            ("star", 0, {}, "ground size must be in 1..30, got 0"),
            # values are checked before the size, also where the size is too large
            ("threshold", 21, {"k": 0}, "k must be at least 1"),
            ("star", 22, {"x": 23}, "element 23 outside 1..22"),
        ],
    )
    def test_parameter_value_errors_keep_their_messages(self, name, n, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_construction(name, n, **params)

    def test_large_n_is_refused_before_any_generator_runs(self, monkeypatch):
        # the ground size is checked against the n <= 21 the freeness check
        # takes: every construction is built at n = 21 and none at n = 22
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built

        for generator in (
            "star_family",
            "matching_extremal",
            "bip_lower",
            "threshold_family",
            "clique_threshold_family",
            "e2_two_level",
        ):
            monkeypatch.setattr(constructions, generator, refuse)
        for name, params, _ in self.CASES:
            with pytest.raises(Built):
                build_construction(name, 21, **params)
            with pytest.raises(ValueError, match="at n=22: the freeness check takes n <= 21$"):
                build_construction(name, 22, **params)

    def test_star_defaults_to_element_1(self):
        assert build_construction("star", 5).params == {"x": 1}
