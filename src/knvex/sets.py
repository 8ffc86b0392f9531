"""Bitmask arithmetic on subsets of [n] and canonically ordered set families.

A subset of the ground set [n] = {1, ..., n} is an int bitmask: bit i-1 set
means element i is present.  The ground size is capped at 30 so every mask
fits a machine word; counts that can overflow a word (binomial tails, weight
sums) are plain Python ints and therefore exact.

A Family keeps its members strictly sorted by mask value.  That order is the
toolkit-wide tie-breaking convention: searches iterate candidates in it, so
witnesses are reproducible across runs.

family_texts is the one writer of family text: the family file format and
the witness lists of the reports both take their lines from it.  set_to_text
is the rule it follows, for one set.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
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


def family_complement(fam: Family) -> Family:
    """Pointwise complement, re-canonicalized; an involution on families."""
    n = fam.n
    return Family.of(n, (complement(m, n) for m in fam))


def level_slice(n: int, lo: int, hi: int) -> Family:
    """All subsets of [n] with lo <= size <= hi."""
    validate_ground(n)
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"invalid level range {lo}..{hi} for n={n}")
    return Family.of(n, (m for m in range(1 << n) if lo <= m.bit_count() <= hi))


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


def young_classes(masks, blocks) -> list[int]:
    """Per index i, the bitmask of the indices j with |masks[j] & b| =
    |masks[i] & b| for every block b: masks[i]'s class under the Young
    subgroup of the blocks (a partition of [n]), the permutations keeping each."""
    if len(blocks) == 1:
        keys = list(map(int.bit_count, masks))
    else:
        keys = list(zip(*([(m & b).bit_count() for m in masks] for b in blocks)))
    size = len(masks)
    # one bytearray per class: or-ing bits into a big int one at a time is quadratic
    bits: dict[object, bytearray] = {}
    for i, key in enumerate(keys):
        row = bits.get(key)
        if row is None:
            row = bits[key] = bytearray((size + 7) // 8)
        row[i >> 3] |= 1 << (i & 7)
    classes = {key: int.from_bytes(row, "little") for key, row in bits.items()}
    return [classes[key] for key in keys]


def binom_tail(n: int, m: int) -> int:
    """The number of subsets of [n] with at least m elements: the sum of C(n, i) for i >= m."""
    validate_ground(n)
    if not 0 <= m <= n:
        raise ValueError(f"m={m} out of range 0..{n}")
    return sum(comb(n, i) for i in range(m, n + 1))


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


def set_to_text(mask: int) -> str:
    """A set as the text formats and reports write it: "1,3,4", or "-" when empty."""
    return ",".join(map(str, elements_of(mask))) or "-"


def family_texts(fam: Family) -> list[str]:
    """set_to_text of every member, in member order.

    Each text joins two table entries, the text of the member's low n//2
    bits and that of the rest, so a family of 2^n sets costs about 2^(n/2)
    element walks rather than one per member.
    """
    half = fam.n // 2
    low = [",".join(map(str, elements_of(m))) for m in range(1 << half)]
    # each high element carries its comma; lstrip drops it when the low part is empty
    high = ["".join(f",{e + half}" for e in elements_of(m)) for m in range(1 << (fam.n - half))]
    below = (1 << half) - 1
    return [(low[m & below] + high[m >> half]).lstrip(",") or "-" for m in fam.members]


@contextmanager
def naming_line(i: int):
    """Re-raise a ValueError from the block with "line <i>: " in front."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"line {i}: {exc}") from None


def read_numbered(text: str, header: str, sep: str | None, width: int, first: int, check_count):
    """Parse the pattern, poset and family text formats: a header line
    "<header><count>", then one item per line, integers in first..count+first-1
    split by sep ("-" for none); width > 0 fixes how many per line.

    Returns (count, [(line number, line, integers)]).  Lines are stripped,
    blank ones skipped and the rest numbered from 1, the header included.  A
    header other than the header string and a decimal count, a count that
    check_count rejects, or a line that does not parse, is a ValueError
    naming the line.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    i, head = lines[0] if lines else (1, "")
    digits = head[len(header):]
    if not (head.startswith(header) and digits.isascii() and digits.isdigit()):
        raise ValueError(f"line {i}: expected a '{header}<count>' header, got {head!r}")
    count = int(digits)
    with naming_line(i):
        check_count(count)
    items = []
    for i, ln in lines[1:]:
        tokens = [] if ln == "-" else [tok.strip() for tok in ln.split(sep)]
        if width not in (0, len(tokens)) or not all(t.isascii() and t.isdigit() for t in tokens):
            raise ValueError(f"line {i}: cannot read {ln!r}")
        values = [int(tok) for tok in tokens]
        if not all(first <= v < count + first for v in values):
            raise ValueError(f"line {i}: {ln!r} has a value outside {first}..{count + first - 1}")
        items.append((i, ln, values))
    return count, items


def family_to_text(fam: Family) -> str:
    """Serialize: header "n=<k>", then one set per line (family_texts)."""
    return "\n".join([f"n={fam.n}", *family_texts(fam)]) + "\n"


def family_from_text(text: str) -> Family:
    """Parse the family text format produced by family_to_text.

    A ground size outside 1..MAX_GROUND, a set listed twice, or an element
    listed twice on one line, is a ValueError naming the line (numbered from
    1, the header included).
    """
    n, items = read_numbered(text, "n=", ",", 0, 1, validate_ground)
    masks: set[int] = set()
    for i, ln, elems in items:
        mask = mask_of(elems, n)
        if mask.bit_count() != len(elems):
            raise ValueError(f"line {i}: an element is repeated in {ln!r}")
        if mask in masks:
            raise ValueError(f"line {i}: the set {ln!r} is listed twice")
        masks.add(mask)
    return Family.of(n, masks)
