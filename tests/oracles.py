"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates injections or families directly and never calls
the library's search code, so agreement is meaningful.
"""

from itertools import combinations, permutations, product


def subgraph_copy_exists(masks, pattern) -> bool:
    """Any injective map of pattern vertices onto distinct disjoint pairs."""
    masks = list(masks)
    for image in permutations(range(len(masks)), pattern.vertex_count):
        if all(
            masks[image[u]] & masks[image[v]] == 0 and masks[image[u]] != masks[image[v]]
            for u, v in pattern.edges
        ):
            return True
    return False


def poset_copy_exists(masks, poset) -> bool:
    """Any injective order-preserving map of poset elements into the masks."""
    masks = list(masks)
    relations = [
        (p, q) for p in range(poset.size) for q in range(poset.size) if poset.less(p, q)
    ]
    for image in permutations(range(len(masks)), poset.size):
        if all(masks[image[p]] & masks[image[q]] == masks[image[p]] for p, q in relations):
            return True
    return False


def transitive_closure(size: int, pairs) -> list[int]:
    """Row p: the bitmask of q reachable from p along one or more pairs
    (Warshall's algorithm); a cycle shows as p in its own row."""
    less = [[False] * size for _ in range(size)]
    for p, q in pairs:
        less[p][q] = True
    for k in range(size):
        for i in range(size):
            for j in range(size):
                less[i][j] = less[i][j] or (less[i][k] and less[k][j])
    return [sum(1 << q for q in range(size) if less[p][q]) for p in range(size)]


def automorphism_orbit_minima(size: int, relations) -> tuple[int, ...]:
    """Smallest label of each orbit of the permutations of 0..size-1 that map
    the relation (a set of ordered pairs) onto itself, by trying every one.

    v is the smallest label of its orbit iff no automorphism sends v lower.
    """
    relation = set(relations)
    minima = set(range(size))
    for perm in permutations(range(size)):
        if all((perm[a], perm[b]) in relation for a, b in relation):
            minima -= {v for v in range(size) if perm[v] < v}
    return tuple(sorted(minima))


def all_families(n: int):
    """Every subset of 2^[n] as a mask list; 2^(2^n) of them, so n <= 3 only."""
    ground = list(range(1 << n))
    for bits in range(1 << (1 << n)):
        yield [m for m in ground if bits >> m & 1]


def level_masks(n: int, lo: int, hi: int) -> list[int]:
    """The masks of the subsets of [n] with lo <= size <= hi, sorted, built
    size by size from element combinations."""
    masks = []
    for size in range(lo, hi + 1):
        for bits in combinations(range(n), size):
            masks.append(sum(1 << b for b in bits))
    return sorted(masks)


def max_family_size(n: int, keeps) -> int:
    """Largest family passing the predicate, by exhausting all families."""
    best = 0
    for fam in all_families(n):
        if len(fam) > best and keeps(fam):
            best = len(fam)
    return best


def is_cyclic_interval(mask: int, order) -> bool:
    """Rotation-based interval test, independent of the position arithmetic."""
    n = len(order)
    size = mask.bit_count()
    if size == 0 or size == n:
        return size == n
    doubled = list(order) + list(order)
    for start in range(n):
        run = 0
        for e in doubled[start : start + size]:
            run |= 1 << (e - 1)
        if run == mask:
            return True
    return False


def interval_sets(n: int) -> list[frozenset[int]]:
    """The interval masks of each of the (n-1)! cyclic orders of 1..n that
    start at 1: every run of 1..n consecutive entries of the order read twice."""
    out = []
    for rest in permutations(range(2, n + 1)):
        doubled = (1, *rest) * 2
        out.append(frozenset(
            sum(1 << (e - 1) for e in doubled[start:start + size])
            for start in range(n)
            for size in range(1, n + 1)
        ))
    return out


def disjointness_edges(masks):
    """All index pairs of distinct disjoint sets."""
    out = []
    for i, j in combinations(range(len(masks)), 2):
        if masks[i] & masks[j] == 0 and masks[i] != masks[j]:
            out.append((i, j))
    return out


def orbit_units(atoms, mask: int, unit_of) -> int:
    """Bitmask of the units holding a set Y with |Y & a| = |mask & a| for
    every atom a: mask's orbit under the permutations fixing every atom,
    each Y built from one choice of elements per atom.  unit_of maps every
    set to the index of its unit."""
    choices = []
    for a in atoms:
        bits = [1 << b for b in range(a.bit_length()) if a >> b & 1]
        choices.append([sum(c) for c in combinations(bits, (mask & a).bit_count())])
    orbit = 0
    for parts in product(*choices):
        orbit |= 1 << unit_of[sum(parts)]
    return orbit


def block_orbit_classes(masks, blocks, n: int) -> list[int]:
    """Per index i, the bitmask of the indices j such that some permutation
    of [n] keeping every block maps masks[i] to masks[j], by trying every
    permutation of [n]."""
    block_of = [next(k for k, b in enumerate(blocks) if b >> e & 1) for e in range(n)]
    images = [set() for _ in masks]
    for perm in permutations(range(n)):
        if all(block_of[perm[e]] == block_of[e] for e in range(n)):
            for i, m in enumerate(masks):
                images[i].add(sum(1 << perm[e] for e in range(n) if m >> e & 1))
    return [sum(1 << j for j, m in enumerate(masks) if m in image) for image in images]


def shortest_odd_cycle(graph) -> int | None:
    """Length of the shortest odd cycle, by trying every sequence of
    distinct vertices of each odd length in turn; None when there is none."""
    adjacent = set(graph.edges) | {(v, u) for u, v in graph.edges}
    for length in range(3, graph.vertex_count + 1, 2):
        for cycle in permutations(range(graph.vertex_count), length):
            if all((cycle[k - 1], cycle[k]) in adjacent for k in range(length)):
                return length
    return None


def e2_core(n: int) -> list[int]:
    """The two-level base whose upset is e2_two_level, as sorted masks: odd n
    the two middle levels; even n the sets through element 1 of sizes
    n/2 - 1, n/2 and those avoiding it of sizes n/2, n/2 + 1.  ValueError
    below n = 3, where e2_two_level has no base either."""
    if n < 3:
        raise ValueError("needs n >= 3")
    half = n // 2
    if n % 2:
        return level_masks(n, half, half + 1)
    # subsets of {2..n} shifted up from those of [n - 1], with element 1 or without
    through = [m << 1 | 1 for m in level_masks(n - 1, half - 2, half - 1)]
    avoiding = [m << 1 for m in level_masks(n - 1, half, half + 1)]
    return sorted(through + avoiding)


def two_block_masks(rng, n: int) -> list[int]:
    """A random union of Young classes over a random split of [n] into two
    blocks, as sorted masks: each pair of block sizes kept with probability 1/2."""
    first = sum(1 << e for e in rng.sample(range(n), rng.randint(0, n)))
    blocks = (first, ((1 << n) - 1) ^ first)
    kept = {key for key in product(range(n + 1), repeat=2) if rng.random() < 0.5}
    return [m for m in range(1 << n) if tuple((m & b).bit_count() for b in blocks) in kept]
