"""Independent brute-force oracles used to freeze expected test values.

Everything here enumerates injections or families directly and never calls
the library's search code, so agreement is meaningful.
"""

from itertools import combinations, permutations


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


def m_by_scan(n: int, k: int, j: int) -> int:
    """Largest m with floor(kn/(2k+1)) - j + 2km <= kn, by linear scan."""
    z = k * n // (2 * k + 1)
    m = 0
    while z - j + 2 * k * (m + 1) <= k * n:
        m += 1
    return m


def disjointness_edges(masks):
    """All index pairs of distinct disjoint sets."""
    out = []
    for i, j in combinations(range(len(masks)), 2):
        if masks[i] & masks[j] == 0 and masks[i] != masks[j]:
            out.append((i, j))
    return out
