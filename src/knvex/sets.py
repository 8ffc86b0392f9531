"""Bitmask arithmetic on subsets of [n] and canonically ordered set families.

A subset of the ground set [n] = {1, ..., n} is an int bitmask: bit i-1 set
means element i is present.  The ground size is capped at 30 so every mask
fits a machine word; counts that can overflow a word (binomial tails, weight
sums) are plain Python ints and therefore exact.

A Family keeps its members strictly sorted by mask value.  That order is the
toolkit-wide tie-breaking convention: searches iterate candidates in it, so
witnesses are reproducible across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

MAX_GROUND = 30


def validate_ground(n: int) -> None:
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground size must be in 1..{MAX_GROUND}, got {n}")


def validate_mask(mask: int, n: int) -> None:
    validate_ground(n)
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {bin(mask)} has bits outside [{n}]")


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bitmask for an iterable of elements from 1..n."""
    validate_ground(n)
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Elements of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def complement(mask: int, n: int) -> int:
    """[n] minus the given set; an involution."""
    validate_mask(mask, n)
    return ((1 << n) - 1) ^ mask


def kneser_adjacent(a: int, b: int) -> bool:
    """Adjacency in the Kneser cube: distinct and disjoint.

    The cube is a simple graph, so the empty set is not adjacent to itself
    even though it is disjoint from itself.
    """
    return a != b and a & b == 0


@dataclass(frozen=True)
class Family:
    """Distinct subsets of [n], sorted ascending by mask value."""

    n: int
    members: tuple[int, ...]

    @classmethod
    def of(cls, n: int, masks: Iterable[int]) -> "Family":
        validate_ground(n)
        members = tuple(sorted(set(masks)))
        if members:
            if members[0] < 0 or members[-1] >> n:
                raise ValueError(f"family contains a mask outside 2^[{n}]")
        return cls(n, members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.member_set

    def index(self, mask: int) -> int:
        """Position of a member in canonical order."""
        return self.members.index(mask)

    def as_sets(self) -> list[tuple[int, ...]]:
        return [elements_of(m) for m in self.members]

    def __str__(self) -> str:
        shown = ", ".join("{" + ",".join(map(str, s)) + "}" for s in self.as_sets())
        return f"Family(n={self.n}: {shown})"


def family_complement(fam: Family) -> Family:
    """Pointwise complement, re-canonicalized; an involution on families."""
    n = fam.n
    return Family.of(n, (complement(m, n) for m in fam))


def level_slice(n: int, lo: int, hi: int) -> Family:
    """All subsets of [n] with lo <= size <= hi."""
    validate_ground(n)
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"invalid level range {lo}..{hi} for n={n}")
    masks = []
    for size in range(lo, hi + 1):
        for bits in combinations(range(n), size):
            masks.append(sum(1 << b for b in bits))
    return Family.of(n, masks)


def symmetric_chains(n: int) -> list[tuple[int, ...]]:
    """Symmetric chain decomposition of 2^[n] (de Bruijn, van Ebbenhorst
    Tengbergen and Kruyswijk, 1951), each chain listed bottom up.

    The standard recursion adds the elements 1..n in turn: adding e, each
    chain C = (c_1, ..., c_k) becomes C + (c_k | {e}) and, when k > 1, also
    (c_1 | {e}, ..., c_{k-1} | {e}).  The chains partition 2^[n], each runs
    through the levels j..n-j one set per level, so there are C(n, n//2).
    """
    validate_ground(n)
    chains = [(0,)]
    for e in range(n):
        bit = 1 << e
        grown = []
        for c in chains:
            grown.append(c + (c[-1] | bit,))
            if len(c) > 1:
                grown.append(tuple(m | bit for m in c[:-1]))
        chains = grown
    return chains


def binom_tail(n: int, m: int, direction: str = "le") -> int:
    """Exact sum of binomials: sum of C(n,i) for i <= m ("le") or i >= m ("ge")."""
    validate_ground(n)
    if not 0 <= m <= n:
        raise ValueError(f"m={m} out of range 0..{n}")
    if direction == "le":
        return sum(comb(n, i) for i in range(0, m + 1))
    if direction == "ge":
        return sum(comb(n, i) for i in range(m, n + 1))
    raise ValueError(f"direction must be 'le' or 'ge', got {direction!r}")


def upset(fam: Family) -> Family:
    """All supersets of members of the family.  Extensive and idempotent."""
    n = fam.n
    seen = set(fam.members)
    queue = list(fam.members)
    while queue:
        mask = queue.pop()
        free = complement(mask, n)
        while free:
            low = free & -free
            free ^= low
            bigger = mask | low
            if bigger not in seen:
                seen.add(bigger)
                queue.append(bigger)
    return Family.of(n, seen)


def random_family(n: int, seed: int = 0) -> Family:
    """Seeded random family: each set other than the empty set and [n] with probability 1/2."""
    validate_ground(n)
    rng = random.Random(seed)
    return Family.of(n, (m for m in range(1, (1 << n) - 1) if rng.random() < 0.5))


def family_to_text(fam: Family) -> str:
    """Serialize: header "n=<k>", then one set per line ("1,3,4"; "-" for the empty set)."""
    lines = [f"n={fam.n}"]
    for mask in fam:
        elems = elements_of(mask)
        lines.append(",".join(map(str, elems)) if elems else "-")
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> Family:
    """Parse the family text format produced by family_to_text."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("family text must start with a 'n=<k>' header line")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad ground size header {lines[0]!r}") from None
    validate_ground(n)
    masks = []
    for ln in lines[1:]:
        if ln == "-":
            masks.append(0)
            continue
        try:
            elems = [int(tok) for tok in ln.split(",")]
        except ValueError:
            raise ValueError(f"bad set line {ln!r}") from None
        masks.append(mask_of(elems, n))
    return Family.of(n, masks)
