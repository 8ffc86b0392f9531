import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knvex.sets import (
    Family,
    binom_tail,
    complement,
    elements_of,
    family_complement,
    family_from_text,
    family_texts,
    family_to_text,
    kneser_adjacent,
    level_slice,
    mask_of,
    random_family,
    set_to_text,
    symmetric_chains,
    upset,
    young_classes,
)

from oracles import block_orbit_classes, level_masks


def F(n, *sets):
    return Family.of(n, [mask_of(s, n) for s in sets])


class TestComplement:
    def test_examples(self):
        assert complement(mask_of([1], 3), 3) == mask_of([2, 3], 3)
        assert complement(0, 4) == mask_of([1, 2, 3, 4], 4)

    def test_involution_and_level_map(self):
        n = 8
        for mask in range(1 << n):
            twice = complement(complement(mask, n), n)
            assert twice == mask
            assert complement(mask, n).bit_count() == n - mask.bit_count()

    def test_rejects_bad_mask(self):
        with pytest.raises(ValueError):
            complement(1 << 5, 4)


class TestKneserAdjacent:
    def test_examples(self):
        assert kneser_adjacent(mask_of([1, 2], 3), mask_of([3], 3))
        assert kneser_adjacent(0, mask_of([1], 3))
        assert not kneser_adjacent(0, 0)

    def test_symmetric_irreflexive_characterization(self):
        n = 4
        for a in range(1 << n):
            assert not kneser_adjacent(a, a)
            for b in range(1 << n):
                assert kneser_adjacent(a, b) == kneser_adjacent(b, a)
                expected = a != b and b & complement(a, n) == b
                assert kneser_adjacent(a, b) == expected


class TestFamily:
    def test_canonical_order_and_dedup(self):
        fam = Family.of(3, [5, 1, 5, 3])
        assert fam.members == (1, 3, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Family.of(3, [1 << 3])

    def test_contains_and_index(self):
        fam = F(3, [1], [1, 2])
        assert mask_of([1], 3) in fam


class TestFamilyComplement:
    def test_examples(self):
        assert family_complement(F(2, [1], [1, 2])) == F(2, [2], [])
        assert family_complement(Family.of(4, [])) == Family.of(4, [])

    @given(st.sets(st.integers(0, 31)))
    @settings(max_examples=60)
    def test_involution(self, masks):
        fam = Family.of(5, masks)
        assert family_complement(family_complement(fam)) == fam
        assert len(family_complement(fam)) == len(fam)


class TestLevelSlice:
    def test_examples(self):
        assert level_slice(3, 1, 1) == F(3, [1], [2], [3])
        assert len(level_slice(4, 0, 4)) == 16
        assert len(level_slice(5, 3, 5)) == 16

    def test_size_matches_binomial_sums(self):
        for n in range(1, 13):
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    expected = sum(comb(n, i) for i in range(lo, hi + 1))
                    assert len(level_slice(n, lo, hi)) == expected

    def test_matches_the_combinations_oracle(self):
        for n in range(1, 11):
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    assert list(level_slice(n, lo, hi)) == level_masks(n, lo, hi)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            level_slice(4, 3, 2)
        with pytest.raises(ValueError):
            level_slice(4, 0, 5)


class TestSymmetricChains:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_symmetric_chain_decomposition(self, n):
        chains = symmetric_chains(n)
        assert len(chains) == comb(n, n // 2)
        # every set of 2^[n] lies on exactly one chain
        assert sorted(m for c in chains for m in c) == list(range(1 << n))
        for c in chains:
            low = c[0].bit_count()
            assert [m.bit_count() for m in c] == list(range(low, n - low + 1))
            assert all(a & b == a for a, b in zip(c, c[1:]))


class TestYoungClasses:
    def test_matches_the_block_permutations(self):
        rng = random.Random(5)
        for n in range(1, 6):
            for _ in range(30):
                # a random partition of [n] into blocks
                labels = [rng.randrange(n) for _ in range(n)]
                blocks = [sum(1 << e for e in range(n) if labels[e] == lab) for lab in set(labels)]
                masks = rng.sample(range(1 << n), rng.randint(1, 1 << n))
                assert young_classes(masks, blocks) == block_orbit_classes(masks, blocks, n)

    def test_one_block_groups_by_size(self):
        masks = [0, 1, 2, 3, 4, 7]
        assert young_classes(masks, [7]) == [0b1, 0b10110, 0b10110, 0b1000, 0b10110, 0b100000]


class TestBinomTail:
    def test_examples(self):
        assert binom_tail(5, 2) == 26
        assert binom_tail(6, 0) == 64
        # frozen from the direct-summation oracle
        assert binom_tail(15, 2) == sum(comb(15, i) for i in range(2, 16)) == 32752

    def test_counts_the_sets_of_at_least_m_elements(self):
        for n in range(1, 13):
            for m in range(n + 1):
                assert binom_tail(n, m) == sum(x.bit_count() >= m for x in range(1 << n))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binom_tail(5, 6)


class TestUpset:
    def test_examples(self):
        assert upset(F(3, [1, 2])) == F(3, [1, 2], [1, 2, 3])
        assert upset(level_slice(4, 0, 0)) == level_slice(4, 0, 4)

    @given(st.sets(st.integers(0, 31)), st.sets(st.integers(0, 31)))
    @settings(max_examples=60)
    def test_monotone_extensive_idempotent(self, small, extra):
        fam = Family.of(5, small)
        bigger = Family.of(5, small | extra)
        up = upset(fam)
        assert set(fam.members) <= set(up.members)
        assert set(up.members) <= set(upset(bigger).members)
        assert upset(up) == up


class TestTextFormat:
    def test_round_trip(self):
        fam = F(4, [1, 3, 4], [], [2])
        text = family_to_text(fam)
        assert text.splitlines()[0] == "n=4"
        assert "-" in text.splitlines()
        assert family_from_text(text) == fam

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            family_from_text("1,2\n")
        with pytest.raises(ValueError):
            family_from_text("n=3\n1,9\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=3\n1,2\n3\n2,1\n", "line 4: the set '2,1' is listed twice"),
            ("n=3\n-\n\n-\n", "line 4: the set '-' is listed twice"),
            ("n=3\n1,1\n", "line 2: an element is repeated in '1,1'"),
            ("n=3\n2,3,2\n", "line 2: an element is repeated in '2,3,2'"),
        ],
        ids=["set", "empty-set", "element", "element-apart"],
    )
    def test_repeats_are_errors(self, text, message):
        with pytest.raises(ValueError) as info:
            family_from_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=3 4\n", "line 1: expected a 'n=<count>' header, got 'n=3 4'"),
            ("\nn=3\n1,x\n", "line 3: cannot read '1,x'"),
            ("n=3\n1,9\n", "line 2: '1,9' has a value outside 1..3"),
            ("n=0\n", "line 1: ground size must be in 1..30, got 0"),
            ("\n\nn=31\n1\n", "line 3: ground size must be in 1..30, got 31"),
        ],
        ids=["header", "token", "range", "ground-zero", "ground-too-large"],
    )
    def test_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError) as info:
            family_from_text(text)
        assert str(info.value) == message

    def test_empty_family(self):
        fam = Family.of(6, [])
        assert family_from_text(family_to_text(fam)) == fam

    @pytest.mark.parametrize("n", range(1, 22))
    def test_family_texts_follow_set_to_text(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        masks = rng.sample(range(1 << n), min(1 << n, 3000)) + [0, full]
        fam = Family.of(n, masks)
        assert family_texts(fam) == [set_to_text(m) for m in fam]

    def test_round_trip_at_16(self):
        fam = random_family(16, seed=3)
        fam = Family.of(16, fam.members + (0, (1 << 16) - 1))
        assert family_from_text(family_to_text(fam)) == fam


def test_elements_round_trip():
    for mask in range(64):
        assert mask_of(elements_of(mask), 6) == mask
