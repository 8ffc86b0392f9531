import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from knvex.cycle import (
    certified_log_ceil,
    cycle_upper_bound,
    double_count_check,
    interval_masks,
    shift_constant,
    weight,
)
from knvex.sets import Family, binom_tail, level_slice, mask_of, random_family

from oracles import interval_sets, is_cyclic_interval


class TestIntervalMasks:
    def test_interval_masks_count(self):
        for n in range(1, 7):
            assert len(interval_masks(tuple(range(1, n + 1)))) == n * (n - 1) + 1

    def test_canonical_count(self):
        # one entry per cyclic permutation: the (n-1)! orders that start at 1
        for n in range(1, 8):
            orders = interval_sets(n)
            assert len(orders) == math.factorial(n - 1)
            assert orders == [interval_masks((1, *rest)) for rest in permutations(range(2, n + 1))]

    def test_examples(self):
        masks = interval_masks((1, 3, 2))
        assert mask_of([3, 1], 3) in masks
        assert mask_of([1, 2], 3) in masks  # wraps around
        assert mask_of([1, 3], 4) not in interval_masks((1, 2, 3, 4))
        # a singleton has no break between positions but is an interval
        assert mask_of([2], 3) in masks

    def test_empty_set_is_not_an_interval(self):
        for n in range(1, 8):
            assert 0 not in interval_masks(tuple(range(1, n + 1)))

    def test_full_set_is_an_interval(self):
        assert (1 << 4) - 1 in interval_masks((1, 2, 3, 4))

    def test_agrees_with_rotation_oracle(self):
        rng = random.Random(2)
        for n in range(1, 8):
            for _ in range(20):
                order = list(range(1, n + 1))
                rng.shuffle(order)
                masks = interval_masks(tuple(order))
                for mask in range(1, 1 << n):
                    assert (mask in masks) == is_cyclic_interval(mask, order)

    def test_interval_count_per_set(self):
        # a set with 0 < |S| < n is an interval of exactly |S|! (n-|S|)!
        # cyclic permutations
        for n in range(1, 8):
            orders = interval_sets(n)
            for mask in range(1, (1 << n) - 1):
                count = sum(1 for masks in orders if mask in masks)
                s = mask.bit_count()
                assert count == math.factorial(s) * math.factorial(n - s)


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

    def test_agrees_with_the_interval_sets(self):
        # lhs as the sum of the weights of the members each interval set holds
        rng = random.Random(4)
        for n in (6, 7):
            orders = interval_sets(n)
            for _ in range(3):
                fam = Family.of(n, rng.sample(range(1, (1 << n) - 1), 1 << (n - 1)))
                lhs = sum(weight(n, m) for masks in orders for m in fam if m in masks)
                assert double_count_check(fam) == (lhs, len(fam) * math.factorial(n), True)

    def test_singletons_all_pass(self):
        for n in range(2, 7):
            for mask in range(1, (1 << n) - 1):
                assert double_count_check(Family.of(n, [mask])).equal


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
                lower = binom_tail(n, k * n // (2 * k + 1) + 1)
                assert lower <= cycle_upper_bound(n, k)


def test_random_families_double_count(seeded=range(30)):
    for seed in seeded:
        for n in (4, 5):
            fam = random_family(n, seed=seed)
            assert double_count_check(fam).equal
