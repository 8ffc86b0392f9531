"""Exact maximization: branch and bound over vertex subsets of the Kneser cube.

The engine maximizes a family subject to any monotone incremental oracle
(push/pop/currently_free); graph-pattern avoidance and poset avoidance both
fit.  The sets of 2^[n] are processed middle levels first (level distance
from n/2, ties by mask), include-branch first.  A node is pruned when a
bound on the families below it is no larger than the incumbent.  The base
bound is current + remaining.  A caller may also pass partitions of 2^[n]
with a cap, such that no feasible family holds more than cap sets of one
group.  Each partition p then gives the bound limit_p = current + the sum
over its groups g of min(undecided_g, cap - chosen_g).  Including a set
leaves limit_p unchanged; excluding one lowers it by one exactly when its
group's undecided count is at most cap - chosen_g.  La passes symmetric
chain decompositions with cap |P| - 1 (Lubell's chain argument).  One seed,
the largest family the caller certified free, is the first incumbent.

Orbital pruning.  Relabelling [n] keeps disjointness and inclusion.  When
the oracle's verdict is invariant under it (the caller asserts so with
relabel_invariant=True), so is the problem over 2^[n].  Along a search path
let C be the chosen sets.  The permutations fixing every set of C form the
Young subgroup of the Venn atoms of C, and Y lies in the orbit of X iff
|Y & a| = |X & a| for every atom a (in symmetric mode the group acts on
complement pairs).  When a unit X takes its exclude branch, every undecided
unit of its orbit is banned for the rest of that subtree: it skips its
include branch and leaves the count + remaining bound.  Nothing is lost.
Order the families by the visit order, include before exclude, and let F be
the first free family of size s.  Suppose a ban in the exclude branch of X
removes a unit Y of F from F's path, where C is F's units before X.  A
permutation fixing C maps Y to X and F to a free family of size s that
holds C and X: it holds a unit before X that F lacks, or agrees with F
before X and holds X, so it comes before F, a contradiction.  So no
ban touches the first family of any size, and no bound below its size
prunes it.  Hence at every node the incumbent is at least the plain
search's while the bounds are no larger: the orbital search visits a
subsequence of the plain search's nodes and returns the same value, witness
and exactness; under a node budget its value is at least as large.  Once
every atom is a singleton the group is trivial and no orbit work is done.

For matchings the complement-pair argument closes the search outright: a
family doubling k+1 complement pairs spans k+1 disjoint edges, so at most
k pairs may be doubled, and the doubling construction meets that cap.
For any pattern, a free family F takes one set from each complement pair
outside its core D = {A in F : complement(A) in F}, which is complement-closed
and free, so vex(n, G) <= 2^(n-1) + vex_sym(n, G)/2: vex_exact's stop value.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from . import constructions, freeness, posets
from .cycle import cycle_upper_bound
from .patterns import PatternGraph, is_matching, odd_girth
from .sets import Family, family_complement, level_slice, validate_ground


@dataclass(frozen=True)
class VexResult:
    """Bounds on vex(n, G): value is the size of witness, a family certified
    G-free, and upper a proved bound or None.  The counts are vex_exact's."""

    value: int
    witness: Family
    lower_bound_source: str
    upper: int | None
    upper_bound_source: str | None
    nodes: int = 0
    core_value: int | None = None
    core_nodes: int = 0

    @property
    def exact(self) -> bool:
        return self.upper == self.value


def max_family_avoiding(
    checker,
    *,
    symmetric: bool = False,
    seed: Family | None = None,
    max_nodes: int | None = None,
    deadline: float | None = None,
    partitions: tuple[int, Sequence[Sequence[object]]] | None = None,
    stop: int | None = None,
    relabel_invariant: bool = False,
) -> tuple[int, Family, bool, int]:
    """Largest family in 2^[n], n = checker.n, that keeps the oracle satisfied.

    The oracle must be monotone: pushing more sets never clears a violation.
    In symmetric mode complement pairs are branched jointly (both or
    neither), so the result is complement-closed.  A seed is a family the
    caller has certified free: the first incumbent, never pushed.  It must
    be a family on n, complement-closed in symmetric mode (else ValueError).

    partitions is None or a pair (cap, maps): each map sends every set of
    2^[n] (indexed by mask) to a group, and no feasible family holds more
    than cap sets of one group; see the module docstring.

    stop is None or an upper bound the caller has proved on the value: the
    search ends, exact, once the incumbent reaches it (with 0 nodes when the
    seed does).  The incumbent changes only on strict improvement, so the
    witness is the one the full search would return.

    relabel_invariant=True asserts that the oracle's verdict is unchanged
    when [n] is relabelled; the search then bans symmetric copies of
    excluded sets (see the module docstring), with the same results in no
    more nodes.

    Returns (value, witness, exact, nodes); with an exhausted budget the
    value is a certified lower bound.
    """
    n = checker.n
    full = (1 << n) - 1
    ordered = sorted(range(full + 1), key=lambda m: (abs(2 * m.bit_count() - n), m))
    if symmetric:
        # complements share a level distance: each pair sits where its smaller set did
        units = [(m, full ^ m) for m in ordered if m < full ^ m]
    else:
        units = [(m,) for m in ordered]

    capacity = [0] * (len(units) + 1)
    for i in range(len(units) - 1, -1, -1):
        capacity[i] = capacity[i + 1] + len(units[i])

    best = 0
    best_masks: list[int] = []
    if seed is not None:
        if seed.n != n:
            raise ValueError(f"the seed family is on n={seed.n}, the search on n={n}")
        if symmetric and family_complement(seed) != seed:
            raise ValueError("symmetric mode needs a complement-closed seed family")
        best = len(seed)
        best_masks = list(seed.members)
    if stop is not None and best >= stop:
        return best, Family.of(n, best_masks), True, 0

    unit_bounds, limits, used = _partition_bounds(units, partitions)
    # Venn atoms of the chosen sets; n singletons (the trivial group) turn
    # orbital pruning off.  unit_of and orbits serve _orbit_units.
    if relabel_invariant:
        atoms: tuple[int, ...] = (full,)
        unit_of = {m: j for j, unit in enumerate(units) for m in unit}
    else:
        atoms = tuple(1 << b for b in range(n))
        unit_of = {}
    orbits: dict[tuple, int] = {}
    nodes = 0
    halted = exhausted = False
    chosen: list[int] = []
    # Explicit stack instead of recursion: the tree is one level per unit,
    # 2^n deep, and visits nodes in the order the recursion did (include
    # branch first).  A frame is (i, count, None, limits, atoms, banned, lost)
    # on entry to a node, or (i, count, unit, ...) once its include branch is
    # done and unit must be undone; limits are the node's partition bounds,
    # banned the bitmask of banned units and lost the sets they hold from
    # unit i on.
    stack: list[tuple] = [(0, 0, None, limits, atoms, 0, 0)]
    while stack:
        i, count, undo, limits, atoms, banned, lost = stack.pop()
        if undo is not None:
            del chosen[len(chosen) - len(undo):]
            for _ in undo:
                checker.pop()
            for _, slot, _ in unit_bounds[i]:
                used[slot] -= 1
        else:
            if halted:
                continue
            if (max_nodes is not None and nodes >= max_nodes) or (
                deadline is not None and nodes & _CHECK_EVERY == 0 and time.monotonic() > deadline
            ):
                halted = exhausted = True
                continue
            nodes += 1
            if count > best:
                best = count
                best_masks = list(chosen)
                if stop is not None and best >= stop:
                    halted = True
                    continue
            if i == len(units):
                continue
            if count + capacity[i] - lost <= best or (limits and min(limits) <= best):
                continue
            unit = units[i]
            if banned >> i & 1:
                lost -= len(unit)
            else:
                for m in unit:
                    checker.push(m)
                if checker.currently_free():
                    chosen.extend(unit)
                    for _, slot, _ in unit_bounds[i]:
                        used[slot] += 1
                    stack.append((i, count, unit, limits, atoms, banned, lost))
                    if len(atoms) < n:
                        m = unit[0]
                        atoms = tuple(sorted(p for a in atoms for p in (a & m, a & ~m) if p))
                    stack.append((i + 1, count + len(unit), None, limits, atoms, banned, lost))
                    continue
                for _ in unit:
                    checker.pop()
        # the exclude branch of node i
        if len(atoms) < n and not banned >> i & 1:
            key = (atoms, i)
            orbit = orbits.get(key)
            if orbit is None:
                orbit = orbits[key] = _orbit_units(atoms, units[i][0], unit_of)
            # the orbit's other units all come later and none is banned yet:
            # an earlier or banned one would have banned unit i with it
            new = orbit ^ (1 << i)
            if new:
                banned |= new
                lost += new.bit_count() * len(units[i])
        if unit_bounds[i]:
            limits = list(limits)
            for p, slot, threshold in unit_bounds[i]:
                if used[slot] <= threshold:
                    limits[p] -= 1
        stack.append((i + 1, count, None, limits, atoms, banned, lost))
    return best, Family.of(n, best_masks), not exhausted, nodes


# Searches with a deadline look at the clock once every 1024 nodes.
_CHECK_EVERY = 1023


def _orbit_units(atoms: tuple[int, ...], mask: int, unit_of: dict[int, int]) -> int:
    """Bitmask of the units holding a set Y with |Y & a| = |mask & a| for
    every atom a: mask's orbit under the permutations fixing every atom."""
    choices = []
    for a in atoms:
        bits = [1 << b for b in range(a.bit_length()) if a >> b & 1]
        choices.append([sum(c) for c in combinations(bits, (mask & a).bit_count())])
    orbit = 0
    for parts in product(*choices):
        orbit |= 1 << unit_of[sum(parts)]
    return orbit


def _partition_bounds(units, partitions):
    """(unit_bounds, limits, used) for the partition bounds of max_family_avoiding.

    Each group of each partition gets a slot; used[slot] counts its chosen
    sets.  unit_bounds[i] lists, for each set of unit i in order and each
    partition p, (p, slot, cap - r), where r is the number of the group's
    sets not decided before that set: excluding the set lowers limit_p by
    one exactly when r <= cap - used[slot].  limits holds limit_p at the
    root.  Without partitions every unit_bounds[i] and limits are empty.
    """
    if partitions is None:
        return [()] * len(units), [], []
    cap, maps = partitions
    slot_of: dict[tuple[int, object], int] = {}
    for p, group in enumerate(maps):
        for unit in units:
            for m in unit:
                slot_of.setdefault((p, group[m]), len(slot_of))
    undecided = [0] * len(slot_of)
    unit_bounds: list[tuple[tuple[int, int, int], ...]] = [()] * len(units)
    for i in range(len(units) - 1, -1, -1):
        entries = []
        for m in reversed(units[i]):
            for p, group in enumerate(maps):
                slot = slot_of[p, group[m]]
                undecided[slot] += 1
                entries.append((p, slot, cap - undecided[slot]))
        unit_bounds[i] = tuple(reversed(entries))
    limits = [0] * len(maps)
    for (p, _), slot in slot_of.items():
        limits[p] += min(undecided[slot], cap)
    return unit_bounds, limits, [0] * len(slot_of)


def _lower_bound(n: int, pattern: PatternGraph) -> tuple[Family, str]:
    """The first construction certified free of a pattern with edges, largest
    claimed size first (a stable sort, so ties keep the order listed here),
    with its source."""
    candidates: list[tuple[str, dict[str, int]]] = [("star", {})]
    girth = odd_girth(pattern)
    if girth is None:  # bipartite
        if not is_matching(pattern) and n >= 2:
            candidates.append(("bip_lower", {}))
            if n >= 3 and _two_levels_free(pattern):
                candidates.append(("e2_two_level", {}))
    else:
        candidates.append(("threshold", {"k": (girth - 1) // 2}))
        r = pattern.vertex_count - 1
        if r >= 2 and pattern.edge_count == r * (r + 1) // 2:
            candidates.append(("clique_threshold", {"r": r}))
    built = [constructions.build_construction(name, n, **params) for name, params in candidates]
    for nc in sorted(built, key=lambda nc: nc.claimed_size, reverse=True):
        if freeness.is_free(nc.family, pattern):
            return nc.family, f"construction:{nc.name}"
    raise AssertionError("no verified lower-bound construction; star should always apply")


@lru_cache(maxsize=None)
def _two_levels_free(pattern: PatternGraph) -> bool:
    """Whether e(P) >= 2, certified up to n = 6, for P = poset_from_bipartite(pattern)."""
    return posets.e_of_poset(posets.poset_from_bipartite(pattern), 6).value >= 2


def _structural_value(n: int, pattern: PatternGraph) -> VexResult | None:
    """The exact answer for edgeless patterns and matchings at any n, else None."""
    if pattern.edge_count == 0:
        value = min(1 << n, pattern.vertex_count - 1)
        edgeless = "trivial:edgeless"
        return VexResult(value, Family.of(n, range(value)), edgeless, value, edgeless)

    if not all(d == 1 for d in pattern.degrees):
        return None
    k = pattern.edge_count - 1
    if k >= 1 << (n - 1):
        # the cube's maximum matching is 2^(n-1), too small for the pattern
        witness, source = level_slice(n, 0, n), "whole-cube"
    else:
        nc = constructions.build_construction("matching_extremal", n, k=k)
        if not freeness.is_free(nc.family, pattern):
            raise AssertionError("doubling construction failed its freeness certificate")
        witness, source = nc.family, f"construction:{nc.name}"
    return VexResult(len(witness), witness, source, len(witness), "complement-pair-bound")


def vex_bounds(n: int, pattern: PatternGraph) -> VexResult:
    """Best construction-backed lower bound and formula upper bound available.

    Matchings are exact; odd cycles get the binomial-tail upper bound; other
    patterns carry only the lower bound (their upper bounds are asymptotic).
    """
    validate_ground(n)
    structural = _structural_value(n, pattern)
    if structural is not None:
        return structural

    witness, source = _lower_bound(n, pattern)
    upper = upper_source = None
    # odd cycles: 2-regular, with the shortest odd cycle through every vertex
    if all(d == 2 for d in pattern.degrees) and odd_girth(pattern) == pattern.vertex_count:
        upper = cycle_upper_bound(n, (pattern.vertex_count - 1) // 2)
        upper_source = "formula:cycle-tail"
    return VexResult(len(witness), witness, source, upper, upper_source)


def vex_exact(
    n: int,
    pattern: PatternGraph,
    *,
    max_nodes: int | None = None,
    timeout: float | None = None,
) -> VexResult:
    """Most Kneser-cube vertices spanning a pattern-free subgraph, with witness.

    The answer of vex_bounds is returned when it is exact: edgeless patterns
    and matchings resolve structurally at any ground size.  Otherwise its
    witness seeds the searches, and a run that does not close has upper None.

    Branch and bound handles n <= 5; larger n requires an explicit
    budget and may come back non-exact (the value then certifies a lower
    bound).  For n in _CORE_SEARCH_NS two searches run: the complement-core
    search for vex_sym (core_value, None if it did not finish; core_nodes),
    then the main search (nodes), which stops at the upper bound
    2^(n-1) + core_value/2.  The core search gets at most half the node
    budget and half the time left at its start, the main search the rest,
    so nodes + core_nodes <= max_nodes.  For other n, and for the
    structural cases, no core search runs (core_value None, core_nodes 0)
    and the main search gets the whole budget.  The timeout bounds the
    searches only: the construction seed is certified before them without
    looking at the clock, which takes seconds at n >= 12, so a run can last
    longer than its timeout.  Both searches prune by orbits
    (relabel_invariant): relabelling [n] keeps disjointness, so it keeps the
    pattern checker's verdict.
    """
    validate_ground(n)
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"node budget must be >= 0, got {max_nodes}")
    if timeout is not None and not timeout >= 0:  # also rejects NaN
        raise ValueError(f"timeout must be >= 0 seconds, got {timeout}")
    # checked before vex_bounds builds a seed; edgeless patterns and matchings need no search
    structural = pattern.edge_count == 0 or all(d == 1 for d in pattern.degrees)
    if n > 5 and max_nodes is None and timeout is None and not structural:
        raise ValueError("n > 5 needs an explicit budget (max_nodes or timeout)")
    deadline = time.monotonic() + timeout if timeout is not None else None
    bounds = vex_bounds(n, pattern)
    if bounds.exact:
        return bounds

    seed, source = bounds.witness, bounds.lower_bound_source
    checker = freeness.IncrementalChecker(pattern, n)
    core_value = stop = None
    core_nodes = 0
    if n in _CORE_SEARCH_NS:
        now = time.monotonic()
        core, _, core_exact, core_nodes = max_family_avoiding(
            checker,
            symmetric=True,
            max_nodes=max_nodes // 2 if max_nodes is not None else None,
            deadline=now + (deadline - now) / 2 if deadline is not None else None,
            relabel_invariant=True,
        )
        if core_exact:
            core_value = core
            stop = _core_upper_bound(n, core)
    value, witness, exact, nodes = max_family_avoiding(
        checker,
        seed=seed,
        max_nodes=max_nodes - core_nodes if max_nodes is not None else None,
        deadline=deadline,
        stop=stop,
        relabel_invariant=True,
    )
    # the seed was certified before the search; only a found witness is re-checked
    if witness != seed:
        if not freeness.is_free(witness, pattern):
            raise AssertionError("search produced a witness that fails re-verification")
        source = "search:branch-and-bound"
    if not exact:
        upper = upper_source = None
    else:
        upper = value
        upper_source = "search:complement-core" if value == stop else "search:branch-and-bound"
    return VexResult(value, witness, source, upper, upper_source, nodes, core_value, core_nodes)


# Ground sizes where vex_exact runs the core search.  At n <= 3 it costs more
# than it saves: the full search of C5 at n = 3 visits 16 nodes, the core and
# stopped searches 8 + 9 (at n = 4: 338 against 62 + 17).  At n >= 7 no core
# search has finished in a usable budget: S3, the smallest measured core search
# at n = 6 (6,941 nodes), was still open after 3,000,000 nodes at n = 7, and
# an unfinished core search gives no stop value, so its nodes would be lost.
_CORE_SEARCH_NS = range(4, 7)


def _core_upper_bound(n: int, core: int) -> int:
    """2^(n-1) + core/2 bounds vex(n, G) when core = vex_sym(n, G); see the
    module docstring."""
    return (1 << (n - 1)) + core // 2
