"""Exact maximization: branch and bound over vertex subsets of the Kneser cube.

The engine maximizes a family subject to any monotone incremental oracle
(push/pop/currently_free); graph-pattern avoidance and poset avoidance both
fit.  Ground elements are processed middle levels first (level distance from
n/2, ties by mask), include-branch first, with the trivial capacity bound
current + remaining.  Construction seeds make the known lower bounds live
pruning devices.

For matchings the complement-pair argument closes the search outright: a
family doubling k+1 complement pairs spans k+1 disjoint edges, so at most
k pairs may be doubled, and the doubling construction meets that cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import constructions, freeness, posets
from .cycle import cycle_upper_bound
from .patterns import PatternGraph, bipartition, is_matching, odd_girth
from .sets import Family, complement, level_slice, validate_ground


@dataclass(frozen=True)
class VexResult:
    value: int
    witness: Family
    exact: bool
    lower_bound_source: str
    upper_bound_source: str | None


@dataclass(frozen=True)
class VexBounds:
    lower: int
    lower_witness: Family
    lower_source: str
    upper: int | None
    upper_source: str | None


def max_family_avoiding(
    ground: Family,
    checker,
    *,
    symmetric: bool = False,
    seeds: tuple[Family, ...] | list[Family] = (),
    max_nodes: int | None = None,
    deadline: float | None = None,
    prune: bool = True,
) -> tuple[int, Family, bool]:
    """Largest subset of the ground family that keeps the oracle satisfied.

    The oracle must be monotone: pushing more sets never clears a violation.
    In symmetric mode complement pairs are branched jointly (both or
    neither), so the result is complement-closed.  Returns (value, witness,
    exact); with an exhausted budget the value is a certified lower bound.
    """
    n = ground.n
    ordered = sorted(ground.members, key=lambda m: (abs(2 * m.bit_count() - n), m))
    if symmetric:
        units = []
        seen = set()
        for m in ordered:
            if m in seen:
                continue
            partner = complement(m, n)
            if partner not in ground.member_set:
                raise ValueError("symmetric mode needs a complement-closed ground family")
            seen.add(m)
            seen.add(partner)
            units.append((m, partner) if m != partner else (m,))
    else:
        units = [(m,) for m in ordered]

    capacity = [0] * (len(units) + 1)
    for i in range(len(units) - 1, -1, -1):
        capacity[i] = capacity[i + 1] + len(units[i])

    best = -1
    best_masks: list[int] = []
    for seed in seeds:
        if len(seed) <= best:
            continue
        if not seed.member_set <= ground.member_set:
            continue
        if symmetric and any(complement(m, n) not in seed.member_set for m in seed):
            continue
        for m in seed:
            checker.push(m)
        ok = checker.currently_free()
        for _ in seed:
            checker.pop()
        if ok:
            best = len(seed)
            best_masks = list(seed.members)
    if best < 0:
        best = 0
        best_masks = []

    nodes = 0
    exhausted = False
    chosen: list[int] = []
    check_every = 1023
    # Explicit stack instead of recursion: the tree is one level per unit,
    # 2^n deep, and visits nodes in the order the recursion did (include
    # branch first).  A frame is (i, count, None) on entry to a node, or
    # (i, count, unit) once its include branch is done and unit must be undone.
    stack: list[tuple[int, int, tuple[int, ...] | None]] = [(0, 0, None)]
    while stack:
        i, count, undo = stack.pop()
        if undo is not None:
            del chosen[len(chosen) - len(undo):]
            for _ in undo:
                checker.pop()
            stack.append((i + 1, count, None))
            continue
        if exhausted:
            continue
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            exhausted = True
            continue
        if deadline is not None and nodes & check_every == 0 and time.monotonic() > deadline:
            exhausted = True
            continue
        if count > best:
            best = count
            best_masks = list(chosen)
        if i == len(units):
            continue
        if prune and count + capacity[i] <= best:
            continue
        unit = units[i]
        for m in unit:
            checker.push(m)
        if checker.currently_free():
            chosen.extend(unit)
            stack.append((i, count, unit))
            stack.append((i + 1, count + len(unit), None))
        else:
            for _ in unit:
                checker.pop()
            stack.append((i + 1, count, None))

    return best, Family.of(n, best_masks), not exhausted


def _verified_lower_candidates(n: int, pattern: PatternGraph) -> list[tuple[Family, str]]:
    """Construction-backed candidates, each certified pattern-free before use."""
    candidates: list[tuple[Family, str]] = []
    if pattern.edge_count >= 1:
        candidates.append((constructions.star_family(n, 1), "construction:star"))
    bip = bipartition(pattern)
    if bip is not None:
        if not is_matching(pattern) and n >= 2:
            candidates.append((constructions.bip_lower(n), "construction:bip_lower"))
            cert = posets.e_of_poset(posets.poset_from_bipartite(pattern), 6)
            if cert.value >= 2 and n >= 3:
                candidates.append((constructions.e2_two_level(n), "construction:e2_two_level"))
    else:
        girth = odd_girth(pattern)
        k = (girth - 1) // 2
        candidates.append((constructions.threshold_family(n, k), "construction:threshold"))
        r = pattern.vertex_count - 1
        if r >= 2 and pattern.edge_count == r * (r + 1) // 2:
            candidates.append(
                (constructions.clique_threshold_family(n, r), "construction:clique_threshold")
            )
    verified = []
    for fam, source in candidates:
        if freeness.is_free(fam, pattern):
            verified.append((fam, source))
    return verified


def _pure_matching_edges(pattern: PatternGraph) -> int | None:
    """Edge count when every vertex has degree exactly 1, else None."""
    if pattern.edge_count >= 1 and all(d == 1 for d in pattern.degrees):
        return pattern.edge_count
    return None


def vex_exact(
    n: int,
    pattern: PatternGraph,
    *,
    max_nodes: int | None = None,
    timeout: float | None = None,
) -> VexResult:
    """Most Kneser-cube vertices spanning a pattern-free subgraph, with witness.

    Matchings resolve structurally at any ground size.  Otherwise branch and
    bound handles n <= 5; larger n requires an explicit budget and may come
    back non-exact (the value then certifies a lower bound).
    """
    validate_ground(n)
    if pattern.edge_count == 0:
        value = min(1 << n, pattern.vertex_count - 1)
        witness = Family.of(n, range(value))
        return VexResult(value, witness, True, "trivial:edgeless", "trivial:edgeless")

    edges = _pure_matching_edges(pattern)
    if edges is not None:
        k = edges - 1
        half = 1 << (n - 1)
        if k >= half:
            # the cube's maximum matching is 2^(n-1), too small for the pattern
            witness = level_slice(n, 0, n)
            return VexResult(1 << n, witness, True, "whole-cube", "complement-pair-bound")
        witness = constructions.matching_extremal(n, k)
        if not freeness.is_free(witness, pattern):
            raise AssertionError("doubling construction failed its freeness certificate")
        return VexResult(
            half + k, witness, True, "construction:matching_extremal", "complement-pair-bound"
        )

    if n > 5 and max_nodes is None and timeout is None:
        raise ValueError("n > 5 needs an explicit budget (max_nodes or timeout)")
    deadline = time.monotonic() + timeout if timeout is not None else None
    seeds = _verified_lower_candidates(n, pattern)
    checker = freeness.incremental_checker(pattern, n)
    value, witness, exact = max_family_avoiding(
        level_slice(n, 0, n),
        checker,
        seeds=[fam for fam, _ in seeds],
        max_nodes=max_nodes,
        deadline=deadline,
    )
    if not freeness.is_free(witness, pattern):
        raise AssertionError("search produced a witness that fails re-verification")
    source = "search:branch-and-bound"
    for fam, label in seeds:
        if witness == fam:
            source = label
            break
    if exact:
        return VexResult(value, witness, True, source, "search:branch-and-bound")
    return VexResult(value, witness, False, source, None)


def vex_bounds(n: int, pattern: PatternGraph) -> VexBounds:
    """Best construction-backed lower bound and formula upper bound available.

    Matchings are exact; odd cycles get the binomial-tail upper bound; other
    patterns carry only the lower bound (their upper bounds are asymptotic).
    """
    validate_ground(n)
    if pattern.edge_count == 0:
        value = min(1 << n, pattern.vertex_count - 1)
        witness = Family.of(n, range(value))
        return VexBounds(value, witness, "trivial:edgeless", value, "trivial:edgeless")

    edges = _pure_matching_edges(pattern)
    if edges is not None:
        k = edges - 1
        half = 1 << (n - 1)
        if k >= half:
            witness = level_slice(n, 0, n)
            return VexBounds(1 << n, witness, "whole-cube", 1 << n, "complement-pair-bound")
        witness = constructions.matching_extremal(n, k)
        if not freeness.is_free(witness, pattern):
            raise AssertionError("doubling construction failed its freeness certificate")
        return VexBounds(
            half + k, witness, "construction:matching_extremal", half + k,
            "complement-pair-bound",
        )

    candidates = _verified_lower_candidates(n, pattern)
    if not candidates:
        raise AssertionError("no verified lower-bound construction; star should always apply")
    lower_fam, lower_source = max(candidates, key=lambda pair: len(pair[0]))

    upper = upper_source = None
    girth = odd_girth(pattern)
    if (
        girth is not None
        and pattern.vertex_count == girth
        and all(d == 2 for d in pattern.degrees)
    ):
        k = (girth - 1) // 2
        upper = cycle_upper_bound(n, k)
        upper_source = "formula:cycle-tail"
    return VexBounds(len(lower_fam), lower_fam, lower_source, upper, upper_source)
