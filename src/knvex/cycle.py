"""Cyclic permutations, intervals, and the cycle method for odd-cycle bounds.

A cyclic permutation of [n] is a sequence read around a circle; its n
rotations are the same permutation, so the (n-1)! sequences that start at 1
list each exactly once.  An interval is a run of cyclically consecutive
entries, lengths 1..n; the empty set is not an interval, which is why the
double-counting identity excludes the boundary sets: [n] is an interval of
every cyclic permutation rather than of n! * 0! of them.

The level-compensating weight of a set is C(n, |F|).  Summing the weight of
the interval subfamily over all cyclic permutations counts each admissible
set |F|! (n-|F|)! times, giving lhs = |F| * n! exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import ceil, comb, factorial
from typing import NamedTuple

from .sets import Family, binom_tail, validate_ground, validate_mask


def interval_masks(order: tuple[int, ...]) -> frozenset[int]:
    """All n(n-1)+1 interval masks of the cyclic permutation order of 1..n."""
    n = len(order)
    out = set()
    for start in range(n):
        mask = 0
        for off in range(n):  # grow the run from its start, [n] included
            mask |= 1 << (order[(start + off) % n] - 1)
            out.add(mask)
    return frozenset(out)


def weight(n: int, mask: int) -> int:
    """Level-compensating weight C(n, |F|)."""
    validate_mask(mask, n)
    return comb(n, mask.bit_count())


def _check_ground(n: int) -> None:
    """Double counting enumerates (n-1)! permutations, so n is capped at 7."""
    validate_ground(n)
    if n > 7:
        raise ValueError("double counting enumerates (n-1)! permutations; n <= 7 only")


class DoubleCount(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


def double_count_check(fam: Family) -> DoubleCount:
    """Sum interval weights over all cyclic permutations against |F| * n!.

    Requires 0 < |F| < n for every member: the boundary sets do not satisfy
    the |F|! (n-|F|)! interval count.  Enumerates all (n-1)! cyclic
    permutations, so n is capped at 7.
    """
    n = fam.n
    _check_ground(n)
    full = (1 << n) - 1
    if 0 in fam or full in fam:
        raise ValueError("family must avoid the empty set and [n]")
    weights = {m: weight(n, m) for m in fam}
    get = weights.get
    lhs = 0
    # each of the (n-1)! cyclic permutations starting at 1, as bits read twice
    # round; a proper interval (length 1..n-1) has one start, so each is
    # counted once, and the boundary sets are not members
    for rest in permutations(range(1, n)):
        doubled = (1, *(1 << e for e in rest)) * 2
        for start in range(n):
            mask = 0
            for bit in doubled[start:start + n - 1]:
                mask |= bit
                lhs += get(mask, 0)
    rhs = len(fam) * factorial(n)
    return DoubleCount(lhs, rhs, lhs == rhs)


def _ln_enclosure(x: int, terms: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on ln(x) from the atanh series."""
    t = Fraction(x - 1, x + 1)
    lo = Fraction(0)
    power = t
    tsq = t * t
    for i in range(terms):
        lo += power / (2 * i + 1)
        power *= tsq
    lo *= 2
    tail = 2 * power / ((2 * terms + 1) * (1 - tsq))
    return lo, lo + tail


def certified_log_ceil(mult: int, x: int) -> int:
    """ceil(mult * ln(x)) with the ceiling provably correct.

    The enclosure is tightened until both rational endpoints agree on the
    ceiling; mult * ln(x) is irrational for integer x >= 2, so this ends.
    """
    if x < 2 or mult < 1:
        raise ValueError("needs x >= 2 and mult >= 1")
    terms = 4
    while True:
        lo, hi = _ln_enclosure(x, terms)
        lo_ceil, hi_ceil = ceil(mult * lo), ceil(mult * hi)
        if lo_ceil == hi_ceil:
            return lo_ceil
        terms *= 2


def shift_constant(k: int) -> int:
    """The certified ceiling ceil(2(k+1) ln(2k)) used by the tail bound."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return certified_log_ceil(2 * (k + 1), 2 * k)


def cycle_upper_bound(n: int, k: int) -> int:
    """Binomial tail bounding the largest family free of the (2k+1)-cycle."""
    validate_ground(n)
    if k < 1:
        raise ValueError("k must be at least 1")
    top = -(-k * n // (2 * k + 1))  # ceil(kn/(2k+1))
    cut = max(0, top - shift_constant(k))
    return binom_tail(n, cut)
