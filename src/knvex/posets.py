"""Forbidden subposet machinery for the bipartite side of the problem.

Bipartite patterns reduce to posets: orienting every edge of a bipartite
graph into one side gives a height-2 poset whose copies inside a set family
obstruct pattern copies in the Kneser cube.  This module owns

  * the Poset type (strict order on <= 16 labeled elements, bitmask rows),
  * weak-copy detection in families (order-preserving injections; an
    injection makes every required inclusion proper automatically), through
    the embedding engine of freeness.py with a linear extension as the
    order, so only "above" is checked along it: a static search builds the
    superset rows alone, the incremental checker also the subset rows its
    pinned pushes read,
  * La(n, *) exact maximization at desk scale via the shared search engine,
  * bounded certification of e(P), the number of consecutive Boolean-cube
    levels that stay P-free,
  * the poset-copy -> graph-copy witness conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .freeness import _CheckerBase, _embed, _Plan, check_witness
from .patterns import Bipartition, PatternGraph, bipartition, make_pattern
from .sets import (
    Family,
    complement,
    family_complement,
    level_slice,
    symmetric_chains,
    validate_ground,
)

MAX_POSET_SIZE = 16


def _check_size(size: int) -> None:
    if not 1 <= size <= MAX_POSET_SIZE:
        raise ValueError(f"poset size must be 1..{MAX_POSET_SIZE}")


class CollisionError(ValueError):
    """A set and its complement straddle the two sides of a poset copy."""


@dataclass(frozen=True)
class Poset:
    """Strict partial order on 0..size-1; above[p] is the bitmask of q with p < q."""

    size: int
    above: tuple[int, ...]

    def __post_init__(self):
        _check_size(self.size)
        if len(self.above) != self.size:
            raise ValueError("relation rows do not match size")
        for p, row in enumerate(self.above):
            if row >> self.size:
                raise ValueError("relation row mentions unknown element")
            if row >> p & 1:
                raise ValueError(f"reflexive relation at {p}")
            rest = row
            while rest:
                low = rest & -rest
                rest ^= low
                q = low.bit_length() - 1
                if self.above[q] >> p & 1:
                    raise ValueError(f"cycle between {p} and {q}")
                if self.above[q] & ~row:
                    raise ValueError("relation not transitively closed")

    @classmethod
    def from_relations(cls, size: int, pairs) -> "Poset":
        """Build from (p, q) pairs meaning p < q; transitive closure applied."""
        _check_size(size)  # before a row is built
        above = [0] * size
        for p, q in pairs:
            if not (0 <= p < size and 0 <= q < size):
                raise ValueError(f"relation ({p},{q}) outside 0..{size - 1}")
            if p == q:
                raise ValueError(f"reflexive relation at {p}")
            above[p] |= 1 << q
        changed = True
        while changed:
            changed = False
            for p in range(size):
                row = above[p]
                rest = row
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row |= above[low.bit_length() - 1]
                if row != above[p]:
                    above[p] = row
                    changed = True
        for p in range(size):
            if above[p] >> p & 1:
                raise ValueError(f"relations are cyclic through {p}")
        return cls(size, tuple(above))

    @cached_property
    def below(self) -> tuple[int, ...]:
        rows = [0] * self.size
        for p in range(self.size):
            rest = self.above[p]
            while rest:
                low = rest & -rest
                rest ^= low
                rows[low.bit_length() - 1] |= 1 << p
        return tuple(rows)

    def less(self, p: int, q: int) -> bool:
        return bool(self.above[p] >> q & 1)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse diagram arcs (p, q): p < q with nothing strictly between."""
        out = []
        for q in range(self.size):
            lower = self.below[q]
            rest = lower
            while rest:
                low = rest & -rest
                rest ^= low
                p = low.bit_length() - 1
                if self.above[p] & lower == 0:
                    out.append((p, q))
        return tuple(sorted(out))

    @cached_property
    def linear_extension(self) -> tuple[int, ...]:
        """Topological order, smallest label first among available minima."""
        remaining = set(range(self.size))
        placed = 0
        order = []
        while remaining:
            v = min(p for p in remaining if self.below[p] & ~placed == 0)
            order.append(v)
            remaining.remove(v)
            placed |= 1 << v
        return tuple(order)


def poset_from_bipartite(graph: PatternGraph, side_a: frozenset[int] | None = None) -> Poset:
    """Height-2 poset on V(G): b < a for every edge with a on side A.

    side_a defaults to the canonical bipartition; an explicit side must be a
    valid 2-coloring class (both orientations of the same graph are useful).
    """
    bip = bipartition(graph)
    if bip is None:
        raise ValueError("graph is not bipartite")
    if side_a is None:
        side_a = bip.side_a
    else:
        side_a = frozenset(side_a)
        for u, v in graph.edges:
            if (u in side_a) == (v in side_a):
                raise ValueError(f"side {sorted(side_a)} does not split edge ({u},{v})")
    pairs = []
    for u, v in graph.edges:
        if u in side_a:
            pairs.append((v, u))
        else:
            pairs.append((u, v))
    return Poset.from_relations(graph.vertex_count, pairs)


def complete_three_level(s: int, t: int) -> Poset:
    """s bottoms under one middle element under t tops, all relations implied."""
    if s < 0 or t < 0:
        raise ValueError("side sizes must be nonnegative")
    size = s + 1 + t
    if size > MAX_POSET_SIZE:
        raise ValueError(f"poset size {size} exceeds {MAX_POSET_SIZE}")
    mid = s
    pairs = [(i, mid) for i in range(s)]
    pairs += [(mid, s + 1 + j) for j in range(t)]
    return Poset.from_relations(size, pairs)


def chain(length: int) -> Poset:
    return Poset.from_relations(length, ((i, i + 1) for i in range(length - 1)))


def antichain(size: int) -> Poset:
    return Poset.from_relations(size, [])


def v_poset() -> Poset:
    """One bottom below two tops."""
    return Poset.from_relations(3, [(0, 1), (0, 2)])


def lambda_poset() -> Poset:
    """Two bottoms below one top."""
    return complete_three_level(2, 0)


def butterfly() -> Poset:
    """Two bottoms each below the same two tops (the 4-cycle oriented alternately)."""
    return poset_from_bipartite(make_pattern("cycle", 4))


def crown(m: int) -> Poset:
    """The height-2 poset whose Hasse diagram is the cycle on m vertices (m even >= 4)."""
    if m < 4 or m % 2:
        raise ValueError("crown needs an even cycle length >= 4")
    return poset_from_bipartite(make_pattern("cycle", m))


def named_poset(name: str) -> Poset:
    """Resolve CLI poset names: butterfly, crown6, chain3, antichain4, V, Lambda, K2,1,3."""
    if name == "butterfly":
        return butterfly()
    if name == "V":
        return v_poset()
    if name == "Lambda":
        return lambda_poset()
    for prefix, builder in (("crown", crown), ("chain", chain), ("antichain", antichain)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return builder(int(name[len(prefix):]))
    parts = name.split(",")
    if len(parts) == 3 and parts[0].startswith("K") and parts[1] == "1":
        return complete_three_level(int(parts[0][1:]), int(parts[2]))
    raise ValueError(f"unknown poset name {name!r}")


def poset_to_text(poset: Poset) -> str:
    """Serialize: "e <size>" then one "u < v" cover line per Hasse arc."""
    lines = [f"e {poset.size}"]
    for p, q in poset.covers:
        lines.append(f"{p} < {q}")
    return "\n".join(lines) + "\n"


def poset_from_text(text: str) -> Poset:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("e "):
        raise ValueError("poset text must start with an 'e <size>' line")
    size = int(lines[0].split()[1])
    pairs = []
    for ln in lines[1:]:
        parts = ln.split("<")
        if len(parts) != 2:
            raise ValueError(f"bad relation line {ln!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return Poset.from_relations(size, pairs)


def _superset_rows(members: tuple[int, ...]) -> list[int]:
    """up[i]: indices of the proper supersets of member i.

    Members ascend by mask and a proper superset has the larger mask, so
    only later members are scanned.
    """
    count = len(members)
    up = [0] * count
    for i, mi in enumerate(members):
        for j in range(i + 1, count):
            if mi & members[j] == mi:
                up[i] |= 1 << j
    return up


def _poset_plan(poset: Poset) -> _Plan:
    """Above/below plan along the linear extension: every later related element lies above."""
    return _Plan((poset.above, poset.below), poset.linear_extension)


def contains_poset_copy(fam: Family, poset: Poset) -> dict[int, int] | None:
    """Search for a weak copy of the poset, element -> member mask; None if absent."""
    members = fam.members
    # an unforced search reads only rows[0], the sets above
    up = _superset_rows(members)
    assign = _embed(_poset_plan(poset), len(members), (up.__getitem__,))
    return None if assign is None else {e: members[i] for e, i in assign.items()}


class IncrementalPosetChecker(_CheckerBase):
    """Freeness from every poset in a forbidden list, for a stack of sets;
    see _CheckerBase.

    orbit_reps[i], the elements a push pins for forbidden[i], holds the
    smallest label of every automorphism orbit of that poset.
    """

    def __init__(self, forbidden: list[Poset], n: int):
        self.forbidden = list(forbidden)
        plans = [_poset_plan(poset) for poset in self.forbidden]
        self.orbit_reps = tuple(tuple(orbit[0] for orbit in plan.orbits) for plan in plans)
        up: list[int] = []
        down: list[int] = []
        searches = tuple(zip(plans, self.orbit_reps))
        super().__init__(n, searches, (up, down), ((down, up), (up, down)))

    def _link(self, mask: int, bit: int) -> None:
        up, down = self._rows
        up_row = down_row = 0
        for j, other in enumerate(self._masks):
            if other == mask:
                continue
            common = other & mask
            if common == other:
                down_row |= 1 << j
                up[j] |= bit
            elif common == mask:
                up_row |= 1 << j
                down[j] |= bit
        up.append(up_row)
        down.append(down_row)

    @property
    def chain_cap(self) -> int | None:
        """Most sets a chain can share with a family free of every forbidden
        poset: min |P| - 1 over the list, None for an empty list.

        A chain c_1 < ... < c_k of k >= |P| sets contains P weakly: place P's
        elements along a linear extension on c_1, ..., c_|P|, so p < q goes
        to an inclusion.  A chain of fewer than |P| sets has no injection
        from P at all, so the cap is attained.
        """
        if not self.forbidden:
            return None
        return min(poset.size for poset in self.forbidden) - 1


@dataclass(frozen=True)
class LaResult:
    value: int
    witness: Family
    exact: bool
    nodes: int


def _rotated_chain_partitions(n: int) -> list[list[int]]:
    """The n cyclic relabellings x -> x + s (mod n) of symmetric_chains(n),
    each as a list mapping a mask to the index of its chain."""
    full = (1 << n) - 1
    chains = symmetric_chains(n)
    partitions = []
    for s in range(n):
        group = [0] * (1 << n)
        for g, chain_sets in enumerate(chains):
            for m in chain_sets:
                group[(m << s | m >> (n - s)) & full] = g
        partitions.append(group)
    return partitions


def la(
    n: int,
    forbidden: list[Poset],
    symmetric: bool = False,
    *,
    max_nodes: int | None = None,
) -> LaResult:
    """Largest family in 2^[n] avoiding weak copies of every forbidden poset.

    Exact for n <= 5 by branch and bound over the 2^n ground elements; with
    an exhausted node budget the value is still a certified lower bound.
    The search is bounded by the chain capacity: a family free of every
    forbidden poset meets each chain in at most chain_cap sets, so each of
    the n cyclic relabellings of the symmetric chain decomposition bounds
    it.  The first free middle-level window (widest first; complement-closed
    ones only, in symmetric mode) seeds the incumbent.  A witness the search
    found, not the seed, is re-checked against every forbidden poset before
    it is returned.  nodes counts the branch-and-bound nodes visited.
    """
    validate_ground(n)
    if n > 5:
        raise ValueError("exact La computation is limited to n <= 5")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"node budget must be >= 0, got {max_nodes}")
    from .search import max_family_avoiding  # deferred: search imports this module

    seed = None
    for width in (2, 1):  # widest first: the width-2 window holds the width-1 one
        window = level_slice(n, (n - width + 1) // 2, (n + width - 1) // 2)
        if symmetric and family_complement(window) != window:
            continue
        if all(contains_poset_copy(window, poset) is None for poset in forbidden):
            seed = window
            break
    checker = IncrementalPosetChecker(forbidden, n)
    cap = checker.chain_cap
    partitions = (cap, _rotated_chain_partitions(n)) if cap is not None else None
    value, witness, exact, nodes = max_family_avoiding(
        checker,
        symmetric=symmetric,
        seed=seed,
        max_nodes=max_nodes,
        partitions=partitions,
    )
    # the seed was certified before the search; only a found witness is re-checked
    if witness != seed and any(contains_poset_copy(witness, p) is not None for p in forbidden):
        raise AssertionError("search produced a witness that fails re-verification")
    return LaResult(value, witness, exact, nodes)


@dataclass(frozen=True)
class LevelCertification:
    """Bounded certification of e(P).

    value: largest k with every k consecutive levels of 2^[n] P-free for all
    n <= n_max.  certificate: a copy of P in k+1 consecutive levels (when one
    exists within the budget), pinning e(P) <= value for every n at once.
    """

    value: int
    certificate: dict[int, int] | None
    certificate_n: int | None
    certificate_lowest_level: int | None


def e_of_poset(poset: Poset, n_max: int) -> LevelCertification:
    """Certify e(P) by exhausting all level windows of 2^[n] for n <= n_max."""
    if n_max > 12:
        raise ValueError("level certification budget is n_max <= 12")
    validate_ground(n_max)

    def find_copy(k: int):
        for n in range(1, n_max + 1):
            for j in range(0, n - k + 2):  # the window of levels j..j+k-1
                fam = level_slice(n, j, j + k - 1)
                copy = contains_poset_copy(fam, poset)
                if copy is not None:
                    return copy, n, j
        return None

    k = 1
    while k <= n_max:
        hit = find_copy(k)
        if hit is not None:
            copy, n, lowest = hit
            return LevelCertification(k - 1, copy, n, lowest)
        k += 1
    return LevelCertification(n_max, None, None, None)


def poset_copy_to_graph_copy(
    copy: dict[int, int],
    graph: PatternGraph,
    bip: Bipartition,
    host: Family,
) -> dict[int, int]:
    """Turn a copy of the oriented poset of a bipartite pattern into a pattern copy.

    Side-B elements keep their sets, side-A elements go to the complements of
    theirs; an inclusion b < a then forces the disjointness edge b, a^c.  The
    host must be complement-closed so the complements are present.  If some
    set sits on side A while its complement sits on side B the two images
    collide; that finite-n artifact is reported as CollisionError.
    """
    n = host.n
    if family_complement(host) != host:
        raise ValueError("host family is not complement-closed")
    poset = poset_from_bipartite(graph, bip.side_a)
    if sorted(copy) != list(range(poset.size)):
        raise ValueError("copy does not cover the poset elements")
    if len(set(copy.values())) != poset.size:
        raise ValueError("copy is not injective")
    if not all(m in host for m in copy.values()):
        raise ValueError("copy uses a set outside the host")
    for p in range(poset.size):
        for q in range(poset.size):
            if poset.less(p, q) and copy[p] & copy[q] != copy[p]:
                raise ValueError("copy does not preserve the order")

    image = {v: complement(m, n) if v in bip.side_a else m for v, m in sorted(copy.items())}
    for a in bip.side_a:
        for b in bip.side_b:
            if image[a] == image[b]:
                raise CollisionError(
                    f"set {copy[b]:#x} and its complement straddle the two sides"
                )

    if not check_witness(host, graph, image):
        raise ValueError("converted map misses a pattern edge")  # unreachable by construction
    return image
