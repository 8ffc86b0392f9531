"""Generators for the extremal families, each with its exact size formula.

build_construction pairs every generator with a closed-form size computed
independently of the enumeration and with the pattern the family avoids; a
mismatch between generator and formula is raised as a hard error, not a
warning.  Freeness claims are certified separately (verify_construction and
the search seeds run the subgraph checker).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import freeness
from .patterns import parse_pattern
from .sets import Family, binom_tail, complement, level_slice, upset, validate_ground

# each construction's parameters; the star's x defaults to 1
CONSTRUCTION_PARAMETERS = {
    "star": ("x",),
    "matching_extremal": ("k",),
    "bip_lower": (),
    "threshold": ("k",),
    "clique_threshold": ("r",),
    "e2_two_level": (),
}


@dataclass(frozen=True)
class NamedConstruction:
    name: str
    params: dict[str, int]
    family: Family
    claimed_size: int
    claimed_free_of: str

    def __post_init__(self):
        if len(self.family) != self.claimed_size:
            raise ValueError(
                f"{self.name}{self.params}: generated {len(self.family)} members, "
                f"formula says {self.claimed_size}"
            )


def star_family(n: int, x: int) -> Family:
    """All sets containing the fixed element x; pairwise intersecting."""
    validate_ground(n)
    if not 1 <= x <= n:
        raise ValueError(f"element {x} outside 1..{n}")
    bit = 1 << (x - 1)
    low_bits = bit - 1
    masks = []
    for rest in range(1 << (n - 1)):  # the other n-1 elements, packed around x
        low = rest & low_bits
        masks.append(low | (rest ^ low) << 1 | bit)
    return Family.of(n, masks)


def matching_extremal(n: int, k: int) -> Family:
    """Star at element 1 plus the complements of its k smallest members.

    Doubles exactly k complement pairs, so the family has 2^(n-1) + k sets;
    every induced edge meets one of the k added complements, which caps any
    induced matching at k edges while the k complement pairs realize one.
    """
    validate_ground(n)
    if not 0 <= k <= 1 << (n - 1):
        raise ValueError(f"k={k} outside 0..2^{n - 1}")
    star = star_family(n, 1)
    doubled = [complement(m, n) for m in star.members[:k]]
    return Family.of(n, list(star.members) + doubled)


def bip_lower(n: int) -> Family:
    """Upper-half family whose induced subgraph has maximum degree at most 1.

    Even n: all sets of size at least n/2.  Odd n: all sets of size above
    n/2 plus the floor(n/2)-sets containing element 1.
    """
    validate_ground(n)
    if n < 2:
        raise ValueError("needs n >= 2")
    if n % 2 == 0:
        return level_slice(n, n // 2, n)
    masks = list(level_slice(n, (n + 1) // 2, n).members)
    masks += [m for m in level_slice(n, n // 2, n // 2) if m & 1]
    return Family.of(n, masks)


def threshold_family(n: int, k: int) -> Family:
    """All sets of size above kn/(2k+1); no odd cycle of length 2k+1 survives.

    Among any 2k+1 such sets some element is covered k+1 times, so they span
    an independent set of size k+1, which the odd cycle does not have.
    """
    validate_ground(n)
    if k < 1:
        raise ValueError("k must be at least 1")
    cut = k * n  # |F| * (2k+1) > kn
    return Family.of(n, (m for m in range(1 << n) if m.bit_count() * (2 * k + 1) > cut))


def clique_threshold_family(n: int, r: int) -> Family:
    """All sets of size above n/(r+1); r+1 pairwise disjoint ones cannot fit."""
    validate_ground(n)
    if r < 1:
        raise ValueError("r must be at least 1")
    return Family.of(n, (m for m in range(1 << n) if m.bit_count() * (r + 1) > n))


def e2_two_level(n: int) -> Family:
    """Upset of a two-level base, e2_core(n), that stays free of width-2 poset patterns.

    Odd n: the two middle levels (upset = everything of size >= floor(n/2)).
    Even n: sets through element 1 of sizes n/2-1, n/2 joined with sets
    avoiding it of sizes n/2, n/2+1; the two halves are never nested and each
    is two consecutive levels of an (n-1)-cube.
    """
    return upset(e2_core(n))


def e2_core(n: int) -> Family:
    """The two-level base of e2_two_level (its non-isolated part)."""
    validate_ground(n)
    if n < 3:
        raise ValueError("needs n >= 3")
    if n % 2:
        return level_slice(n, n // 2, (n + 1) // 2)
    half = n // 2
    sizes = {0: (half, half + 1), 1: (half - 1, half)}  # by m & 1: avoiding element 1, through it
    return Family.of(n, (m for m in range(1 << n) if m.bit_count() in sizes[m & 1]))


def build_construction(name: str, n: int, **params: int) -> NamedConstruction:
    """Instantiate a named family together with its size formula and freeness claim.

    Each construction has one branch: its generator, which validates n and
    the parameters, then its closed-form size, computed independently of the
    enumeration, then the pattern it avoids.  An unknown name, a missing or
    unexpected parameter, or a ground size at which the family (at least
    2^(n-1) sets for every construction) is larger than the freeness check
    takes raises ValueError before any generator runs.
    """
    if name not in CONSTRUCTION_PARAMETERS:
        raise ValueError(f"unknown construction {name!r}")
    if name == "star":
        params.setdefault("x", 1)
    for key in sorted(set(params) ^ set(CONSTRUCTION_PARAMETERS[name])):
        problem = "takes no" if key in params else "needs the"
        raise ValueError(f"construction {name!r} {problem} parameter {key!r}")
    validate_ground(n)  # before the shift, which n < 1 would break
    if 1 << (n - 1) > freeness.MAX_VERTICES:
        raise ValueError(
            f"construction {name!r} at n={n} has at least 2^{n - 1} sets, "
            f"more than the {freeness.MAX_VERTICES} the freeness check takes"
        )
    if name == "star":
        fam = star_family(n, params["x"])
        size, claim = 1 << (n - 1), "K2"
    elif name == "matching_extremal":
        k = params["k"]
        fam = matching_extremal(n, k)
        size, claim = (1 << (n - 1)) + k, f"M{k + 1}"
    elif name == "bip_lower":
        fam = bip_lower(n)
        extra = comb(n, n // 2) // 2 if n % 2 == 0 else comb(n - 1, n // 2 - 1)
        size, claim = (1 << (n - 1)) + extra, "S2"  # max degree <= 1 is 2-star freeness
    elif name == "threshold":
        k = params["k"]
        fam = threshold_family(n, k)
        size, claim = (1 << n) - binom_tail(n, k * n // (2 * k + 1), "le"), f"C{2 * k + 1}"
    elif name == "clique_threshold":
        r = params["r"]
        fam = clique_threshold_family(n, r)
        size, claim = (1 << n) - binom_tail(n, n // (r + 1), "le"), f"K{r + 1}"
    else:  # e2_two_level
        fam = e2_two_level(n)
        if n % 2:
            size = (1 << (n - 1)) + comb(n, n // 2)
        else:
            # sets through 1 of size >= n/2-1, plus sets whose part beyond 1 has size >= n/2
            size = binom_tail(n - 1, n // 2 - 2, "ge") + binom_tail(n - 1, n // 2, "ge")
        claim = "C4"
    return NamedConstruction(name, dict(params), fam, size, claim)


def verify_construction(nc: NamedConstruction) -> dict:
    """Re-check the size formula and the claimed freeness; used by the CLI."""
    pattern = parse_pattern(nc.claimed_free_of)
    size_ok = len(nc.family) == nc.claimed_size
    free_ok = freeness.is_free(nc.family, pattern)
    return {
        "construction": nc.name,
        "params": nc.params,
        "n": nc.family.n,
        "size": len(nc.family),
        "claimed_size": nc.claimed_size,
        "size_ok": size_ok,
        "free_of": nc.claimed_free_of,
        "free_ok": free_ok,
        "pass": size_ok and free_ok,
    }
