import math
import random
from fractions import Fraction

import pytest

from knvex.cycle import (
    CycleConstructionError,
    CyclicPerm,
    IntervalSpec,
    certified_log_ceil,
    cycle_upper_bound,
    cyclic_perms,
    double_count_check,
    interval_spec_of,
    is_interval,
    m_of_j,
    missing_image_check,
    restrict_to_intervals,
    shift_constant,
    shift_image,
    weight,
)
from knvex.freeness import IncrementalChecker, contains_subgraph
from knvex.patterns import make_pattern
from knvex.sets import Family, binom_tail, level_slice, mask_of, random_family

from oracles import is_cyclic_interval, m_by_scan


class TestCyclicPerm:
    def test_canonical_rotation(self):
        assert CyclicPerm((2, 3, 1)).order == (1, 2, 3)
        assert CyclicPerm((3, 1, 2)) == CyclicPerm((1, 2, 3))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            CyclicPerm((1, 1, 2))

    def test_canonical_count(self):
        for n in range(2, 6):
            assert len(set(cyclic_perms(n))) == math.factorial(n - 1)

    def test_interval_masks_count(self):
        for n in range(2, 7):
            perm = CyclicPerm.identity(n)
            assert len(perm.interval_masks) == n * (n - 1) + 1


class TestIsInterval:
    def test_examples(self):
        perm = CyclicPerm((1, 3, 2))
        assert is_interval(mask_of([3, 1], 3), perm)
        assert is_interval(mask_of([1, 2], 3), perm)  # wraps around
        assert not is_interval(mask_of([1, 3], 4), CyclicPerm.identity(4))
        # a singleton has no break between positions but is an interval
        assert is_interval(mask_of([2], 3), perm)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            is_interval(0, CyclicPerm.identity(3))

    def test_full_set_is_interval(self):
        assert is_interval((1 << 4) - 1, CyclicPerm.identity(4))

    def test_agrees_with_rotation_oracle(self):
        rng = random.Random(2)
        for n in range(2, 7):
            for _ in range(20):
                order = list(range(1, n + 1))
                rng.shuffle(order)
                perm = CyclicPerm(tuple(order))
                for mask in range(1, 1 << n):
                    assert is_interval(mask, perm) == is_cyclic_interval(mask, perm.order)

    def test_interval_count_per_set(self):
        # a set with 0 < |S| < n is an interval of exactly |S|! (n-|S|)!
        # canonical cyclic permutations
        for n in range(2, 6):
            perms = list(cyclic_perms(n))
            for mask in range(1, (1 << n) - 1):
                count = sum(1 for p in perms if mask in p.interval_masks)
                s = mask.bit_count()
                assert count == math.factorial(s) * math.factorial(n - s)


class TestRestrictToIntervals:
    def test_all_small_sets_are_intervals(self):
        fam = level_slice(3, 1, 3)
        for perm in cyclic_perms(3):
            assert restrict_to_intervals(fam, perm) == fam

    def test_middle_level_identity(self):
        got = restrict_to_intervals(level_slice(4, 2, 2), CyclicPerm.identity(4))
        expected = Family.of(4, [mask_of(s, 4) for s in ([1, 2], [2, 3], [3, 4], [1, 4])])
        assert got == expected

    def test_star_on_identity(self):
        from knvex.constructions import star_family

        got = restrict_to_intervals(star_family(4, 1), CyclicPerm.identity(4))
        expected = [s for s in star_family(4, 1) if is_cyclic_interval(s, (1, 2, 3, 4))]
        assert got == Family.of(4, expected)


class TestWeight:
    def test_examples(self):
        assert weight(3, mask_of([1], 3)) == 3
        assert weight(4, mask_of([1, 2], 4)) == 6
        assert weight(5, 0) == 1

    def test_ratio_identity(self):
        for n in range(1, 31):
            for h in range(1, n + 1):
                lhs = Fraction(math.comb(n, h), math.comb(n, h - 1))
                assert lhs == Fraction(n - h + 1, h)

    def test_ratio_exceeds_slope_below_threshold(self):
        for k in (1, 2, 3):
            for n in range(1, 31):
                for h in range(1, n + 1):
                    if h * (2 * k + 1) < k * n:
                        assert Fraction(n - h + 1, h) > Fraction(k + 1, k)


class TestDoubleCount:
    def test_two_set_example(self):
        fam = Family.of(3, [mask_of([1], 3), mask_of([1, 2], 3)])
        assert double_count_check(fam) == (12, 12, True)

    def test_middle_level(self):
        assert double_count_check(level_slice(4, 2, 2)) == (144, 144, True)

    def test_empty_family(self):
        assert double_count_check(Family.of(4, [])) == (0, 0, True)

    def test_boundary_sets_rejected(self):
        with pytest.raises(ValueError):
            double_count_check(Family.of(3, [0]))
        with pytest.raises(ValueError):
            double_count_check(Family.of(3, [(1 << 3) - 1]))

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            double_count_check(Family.of(8, [1]))

    def test_singletons_all_pass(self):
        for n in range(2, 7):
            for mask in range(1, (1 << n) - 1):
                assert double_count_check(Family.of(n, [mask])).equal


class TestMOfJ:
    def test_examples(self):
        assert m_of_j(7, 1, 0) == 2
        assert m_of_j(7, 1, 1) == 3
        assert m_of_j(7, 1, 2) == 3

    def test_matches_linear_scan(self):
        for n in range(1, 31):
            for k in (1, 2, 3):
                top = k * n // (2 * k + 1)
                for j in range(top + 1):
                    assert m_of_j(n, k, j) == m_by_scan(n, k, j)

    def test_monotone_and_recurrence(self):
        for n in range(1, 31):
            for k in (1, 2, 3):
                top = k * n // (2 * k + 1)
                values = [m_of_j(n, k, j) for j in range(top + 1)]
                assert values == sorted(values)
                for j in range(top + 1 - 2 * k):
                    assert m_of_j(n, k, j + 2 * k) == values[j] + 1

    def test_lower_bound_from_tail_shift(self):
        for k in (1, 2, 3):
            cut = certified_log_ceil(k + 1, 2 * k)
            for n in range(1, 31):
                top = k * n // (2 * k + 1)
                ceil_share = -(-k * n // (2 * k + 1))
                for j in range(top + 1):
                    assert m_of_j(n, k, j) >= ceil_share - cut

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            m_of_j(7, 1, 3)  # 3 > 7/3
        with pytest.raises(ValueError):
            m_of_j(7, 1, -1)


class TestShiftImage:
    def test_triangle_at_n7(self):
        perm = CyclicPerm.identity(7)
        images = shift_image(IntervalSpec(1, 2), perm, 1)
        assert images == [mask_of([3, 4], 7), mask_of([5, 6], 7)]

    def test_five_cycle_at_n10(self):
        perm = CyclicPerm.identity(10)
        images = shift_image(IntervalSpec(1, 4), perm, 2)
        fam = Family.of(10, [perm.interval_mask(1, 4)] + images)
        assert len(fam) == 5
        assert contains_subgraph(fam, make_pattern("cycle", 5)) is not None

    def test_too_small_ground_fails(self):
        with pytest.raises(CycleConstructionError):
            shift_image(IntervalSpec(1, 1), CyclicPerm.identity(4), 2)

    def test_non_identity_permutation(self):
        perm = CyclicPerm((1, 3, 5, 7, 2, 4, 6))
        spec = IntervalSpec(2, 2)
        images = shift_image(spec, perm, 1)
        base = spec.realize(perm)
        ring = [base] + images
        for a, b in zip(ring, ring[1:] + [base]):
            assert a & b == 0


class TestIntervalSpecOf:
    def test_round_trip(self):
        rng = random.Random(13)
        for n in (5, 6, 7):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            perm = CyclicPerm(tuple(order))
            for mask in perm.interval_masks:
                spec = interval_spec_of(mask, perm)
                assert spec.realize(perm) == mask

    def test_rejects_non_interval(self):
        with pytest.raises(ValueError):
            interval_spec_of(mask_of([1, 3], 4), CyclicPerm.identity(4))
        # n bits set, but not all inside [n]
        with pytest.raises(ValueError):
            interval_spec_of(0b1110, CyclicPerm.identity(3))


class TestCycleUpperBound:
    def test_shift_constants(self):
        assert shift_constant(1) == 3
        assert shift_constant(2) == 9

    def test_certified_ceil_matches_float(self):
        for mult in range(1, 12):
            for x in range(2, 12):
                assert certified_log_ceil(mult, x) == math.ceil(mult * math.log(x))

    def test_n15_example(self):
        assert cycle_upper_bound(15, 1) == 32752

    def test_sandwich(self):
        for k in (1, 2, 3):
            for n in range(1, 31):
                lower = (1 << n) - binom_tail(n, k * n // (2 * k + 1), "le")
                assert lower <= cycle_upper_bound(n, k)


class TestMissingImageCheck:
    def test_vacuous_when_all_members_large(self):
        n = 9
        perm = CyclicPerm.identity(n)
        fam = Family.of(
            n, [m for m in perm.interval_masks if m.bit_count() >= n // 3 + 1]
        )
        assert missing_image_check(fam, perm, 1)

    def test_greedy_triangle_free_family(self):
        n, k = 7, 1
        perm = CyclicPerm.identity(n)
        checker = IncrementalChecker(make_pattern("cycle", 3), n)
        kept = []
        for mask in sorted(perm.interval_masks):
            checker.push(mask)
            if checker.currently_free():
                kept.append(mask)
            else:
                checker.pop()
        fam = Family.of(n, kept)
        assert missing_image_check(fam, perm, k)

    def test_full_image_violates_freeness(self):
        perm = CyclicPerm.identity(7)
        base = perm.interval_mask(1, 2)
        fam = Family.of(7, [base] + shift_image(IntervalSpec(1, 2), perm, 1))
        with pytest.raises(ValueError):
            missing_image_check(fam, perm, 1)

    def test_non_interval_member_rejected(self):
        perm = CyclicPerm.identity(4)
        with pytest.raises(ValueError):
            missing_image_check(Family.of(4, [mask_of([1, 3], 4)]), perm, 1)


def test_random_families_double_count(seeded=range(30)):
    for seed in seeded:
        for n in (4, 5):
            fam = random_family(n, seed=seed)
            assert double_count_check(fam).equal
