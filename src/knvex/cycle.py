"""Cyclic permutations, intervals, and the cycle method for odd-cycle bounds.

A cyclic permutation of [n] is kept in canonical rotation (first entry 1),
so there are exactly (n-1)! of them.  An interval is a run of cyclically
consecutive entries, lengths 1..n; the empty set is not an interval, which
is why the double-counting identity excludes the boundary sets: [n] is an
interval of every cyclic permutation rather than of n! * 0! of them.

The level-compensating weight of a set is C(n, |F|).  Summing the weight of
the interval subfamily over all cyclic permutations counts each admissible
set |F|! (n-|F|)! times, giving lhs = |F| * n! exactly.

The shift schedule works in interval-length space: a set of size
floor(kn/(2k+1)) - j is followed by 2k packed intervals of length m(j),
the largest m with floor(kn/(2k+1)) - j + 2km <= kn.  When the packing
closes up (verified per instance, never assumed), the 2k+1 intervals form
an odd cycle in the Kneser cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import ceil, comb, factorial
from typing import NamedTuple

from . import freeness
from .patterns import make_pattern
from .sets import Family, binom_tail, validate_ground, validate_mask


class CycleConstructionError(ValueError):
    """The packed intervals failed to close into an odd cycle (n too small)."""


@dataclass(frozen=True)
class CyclicPerm:
    """A cyclic permutation of [n]; equal iff equal up to rotation."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        validate_ground(n)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"{self.order} is not a permutation of 1..{n}")
        at = self.order.index(1)
        if at:
            rotated = self.order[at:] + self.order[:at]
            object.__setattr__(self, "order", rotated)

    @classmethod
    def identity(cls, n: int) -> "CyclicPerm":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.order)

    def interval_mask(self, start: int, length: int) -> int:
        """Mask of the interval of given length starting at 1-based position start."""
        n = self.n
        if not 1 <= length <= n:
            raise ValueError(f"interval length must be 1..{n}")
        mask = 0
        for off in range(length):
            mask |= 1 << (self.order[(start - 1 + off) % n] - 1)
        return mask

    @cached_property
    def interval_masks(self) -> frozenset[int]:
        """All n(n-1)+1 interval masks of this permutation."""
        n = self.n
        out = {(1 << n) - 1}
        for length in range(1, n):
            for start in range(1, n + 1):
                out.add(self.interval_mask(start, length))
        return frozenset(out)


def cyclic_perms(n: int):
    """All (n-1)! canonical cyclic permutations of [n]."""
    validate_ground(n)
    for rest in permutations(range(2, n + 1)):
        yield CyclicPerm((1,) + rest)


@dataclass(frozen=True)
class IntervalSpec:
    """Interval as position data: 1-based start index and length."""

    start: int
    length: int

    def realize(self, perm: CyclicPerm) -> int:
        return perm.interval_mask(self.start, self.length)


def is_interval(mask: int, perm: CyclicPerm) -> bool:
    """Whether the set occupies cyclically consecutive positions of the permutation.

    A non-empty set is an interval iff it is one of the n(n-1)+1 masks in
    perm.interval_masks, singletons and [n] included.  Raises ValueError for
    the empty set and for a mask with bits outside [n].
    """
    validate_mask(mask, perm.n)
    if mask == 0:
        raise ValueError("the empty set is not an interval")
    return mask in perm.interval_masks


def interval_spec_of(mask: int, perm: CyclicPerm) -> IntervalSpec:
    """Positional form of an interval mask; spec.realize(perm) == mask.

    Raises ValueError for a mask that is empty, has bits outside [n], or is
    not an interval of the permutation.  [n] starts at position 1.
    """
    if not is_interval(mask, perm):
        raise ValueError("mask is not an interval of this permutation")
    size = mask.bit_count()
    start = next(s for s in range(1, perm.n + 1) if perm.interval_mask(s, size) == mask)
    return IntervalSpec(start, size)


def restrict_to_intervals(fam: Family, perm: CyclicPerm) -> Family:
    """The subfamily of members that are intervals of the permutation."""
    if fam.n != perm.n:
        raise ValueError("family and permutation ground sizes differ")
    masks = perm.interval_masks
    return Family.of(fam.n, (m for m in fam if m in masks))


def weight(n: int, mask: int) -> int:
    """Level-compensating weight C(n, |F|)."""
    validate_mask(mask, n)
    return comb(n, mask.bit_count())


@lru_cache(maxsize=8)
def _interval_sets(n: int) -> tuple[frozenset[int], ...]:
    return tuple(p.interval_masks for p in cyclic_perms(n))


class DoubleCount(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


def double_count_check(fam: Family) -> DoubleCount:
    """Sum interval weights over all cyclic permutations against |F| * n!.

    Requires 0 < |F| < n for every member: the boundary sets do not satisfy
    the |F|! (n-|F|)! interval count.  Enumerates all (n-1)! canonical cyclic
    permutations, so n is capped at 7.
    """
    n = fam.n
    if n > 7:
        raise ValueError("double counting enumerates (n-1)! permutations; n <= 7 only")
    full = (1 << n) - 1
    if 0 in fam or full in fam:
        raise ValueError("family must avoid the empty set and [n]")
    weights = {m: weight(n, m) for m in fam}
    lhs = 0
    for intervals in _interval_sets(n):
        lhs += sum(w for m, w in weights.items() if m in intervals)
    rhs = len(fam) * factorial(n)
    return DoubleCount(lhs, rhs, lhs == rhs)


def m_of_j(n: int, k: int, j: int) -> int:
    """Largest m with floor(kn/(2k+1)) - j + 2km <= kn."""
    validate_ground(n)
    if k < 1:
        raise ValueError("k must be at least 1")
    if j < 0 or j * (2 * k + 1) > k * n:
        raise ValueError(f"j={j} outside 0..kn/(2k+1)")
    z = k * n // (2 * k + 1)
    return (k * n - z + j) // (2 * k)


def shift_image(spec: IntervalSpec, perm: CyclicPerm, k: int) -> list[int]:
    """The 2k intervals of length m(j) packed end-to-end after the given one.

    Verifies that the input interval and its image close into a (2k+1)-cycle
    of the Kneser cube (2k+1 distinct sets, consecutive ones disjoint) and
    raises CycleConstructionError otherwise.
    """
    n = perm.n
    z = k * n // (2 * k + 1)
    j = z - spec.length
    m = m_of_j(n, k, j)  # validates j
    if m < 1:
        raise CycleConstructionError(f"schedule gives empty intervals at n={n}, k={k}, j={j}")
    base = spec.realize(perm)
    images = []
    start = spec.start + spec.length
    for _ in range(2 * k):
        images.append(perm.interval_mask((start - 1) % n + 1, m))
        start += m
    ring = [base] + images
    if len(set(ring)) != 2 * k + 1:
        raise CycleConstructionError(f"packed intervals coincide at n={n}, k={k}, j={j}")
    for i in range(2 * k + 1):
        if ring[i] & ring[(i + 1) % (2 * k + 1)]:
            raise CycleConstructionError(
                f"intervals wrap into each other at n={n}, k={k}, j={j}"
            )
    return images


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
    return binom_tail(n, cut, "ge")


def missing_image_check(fam: Family, perm: CyclicPerm, k: int) -> bool:
    """Whether every small member of an odd-cycle-free interval family has a
    missing set in its shift image.

    This is the combinatorial heart of the tail bound, exposed as a testable
    assertion.  Preconditions are enforced: members must be intervals of the
    permutation and the induced subgraph must be free of the (2k+1)-cycle.
    """
    n = fam.n
    intervals = perm.interval_masks
    for m in fam:
        if m not in intervals:
            raise ValueError(f"member {m:#x} is not an interval of the permutation")
    if not freeness.is_free(fam, make_pattern("cycle", 2 * k + 1)):
        raise ValueError(f"family is not C{2 * k + 1}-free")
    z = k * n // (2 * k + 1)
    for m in fam:
        j = z - m.bit_count()
        if j < 0 or j * (2 * k + 1) > k * n:
            continue
        images = shift_image(interval_spec_of(m, perm), perm, k)
        if all(img in fam for img in images):
            return False
    return True
