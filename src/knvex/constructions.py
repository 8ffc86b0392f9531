"""Generators for the extremal families, each with its exact size formula.

Each generator is its family's membership rule over the masks of 2^[n]
(matching_extremal adds k complements to the star).  build_construction
pairs it with a closed-form size, a binomial count computed apart from the
generator, and with the pattern the family avoids; a mismatch between
generator and formula is a hard error.  Freeness claims are certified
separately: verify_construction and the search seeds run the subgraph
checker, or for matching_extremal its cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import freeness
from .patterns import parse_pattern
from .sets import Family, binom_tail, complement, validate_ground

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


def _check_parameters(name: str, n: int, params: dict[str, int]) -> None:
    """ValueError when the construction does not take this n or these values."""
    validate_ground(n)
    if name == "star" and not 1 <= params["x"] <= n:
        raise ValueError(f"element {params['x']} outside 1..{n}")
    if name == "matching_extremal" and not 0 <= params["k"] <= 1 << (n - 1):
        raise ValueError(f"k={params['k']} outside 0..2^{n - 1}")
    least = {"bip_lower": 2, "e2_two_level": 3}.get(name)
    if least is not None and n < least:
        raise ValueError(f"needs n >= {least}")
    if name in ("threshold", "clique_threshold"):
        ((key, value),) = params.items()
        if value < 1:
            raise ValueError(f"{key} must be at least 1")


def star_family(n: int, x: int) -> Family:
    """All sets containing the fixed element x; pairwise intersecting."""
    _check_parameters("star", n, {"x": x})
    bit = 1 << (x - 1)
    return Family.of(n, (m for m in range(1 << n) if m & bit))


def matching_extremal(n: int, k: int) -> Family:
    """Star at element 1 plus the complements of its k smallest members.

    Doubles exactly k complement pairs, so the family has 2^(n-1) + k sets;
    every induced edge meets one of the k added complements, which caps any
    induced matching at k edges while the k complement pairs realize one.
    """
    _check_parameters("matching_extremal", n, {"k": k})
    star = star_family(n, 1)
    doubled = [complement(m, n) for m in star.members[:k]]
    return Family.of(n, list(star.members) + doubled)


def cover_certifies(fam: Family, k: int) -> bool:
    """Whether at most k members miss element 1, so no k + 1 edges form a matching:
    the rest pairwise intersect, so each edge has one of those k as an end."""
    return sum(1 for m in fam.members if not m & 1) <= k


def bip_lower(n: int) -> Family:
    """Upper-half family whose induced subgraph has maximum degree at most 1.

    Even n: all sets of size at least n/2.  Odd n: all sets of size above
    n/2 plus the floor(n/2)-sets containing element 1.
    """
    _check_parameters("bip_lower", n, {})
    # 2|m| = n - 1 occurs only at odd n, where it marks the floor(n/2)-sets
    return Family.of(n, (m for m in range(1 << n) if 2 * m.bit_count() >= n
                         or 2 * m.bit_count() == n - 1 and m & 1))


def threshold_family(n: int, k: int) -> Family:
    """All sets of size above kn/(2k+1); no odd cycle of length 2k+1 survives.

    Among any 2k+1 such sets some element is covered k+1 times, so they span
    an independent set of size k+1, which the odd cycle does not have.
    """
    _check_parameters("threshold", n, {"k": k})
    cut = k * n  # |F| * (2k+1) > kn
    return Family.of(n, (m for m in range(1 << n) if m.bit_count() * (2 * k + 1) > cut))


def clique_threshold_family(n: int, r: int) -> Family:
    """All sets of size above n/(r+1); r+1 pairwise disjoint ones cannot fit."""
    _check_parameters("clique_threshold", n, {"r": r})
    return Family.of(n, (m for m in range(1 << n) if m.bit_count() * (r + 1) > n))


def e2_two_level(n: int) -> Family:
    """Upset of a two-level base that stays free of width-2 poset patterns.

    Odd n: the two middle levels, so every set of size >= floor(n/2).  Even
    n: the sets through element 1 of sizes n/2-1, n/2 with those avoiding it
    of sizes n/2, n/2+1 (never nested, each two levels of an (n-1)-cube), so
    the sets through 1 of size >= n/2-1 and those avoiding it of size >= n/2.
    """
    _check_parameters("e2_two_level", n, {})
    # m & even is m's bit for element 1 at even n, and 0 at odd n
    even = 1 - n % 2
    return Family.of(n, (m for m in range(1 << n) if m.bit_count() >= n // 2 - (m & even)))


def build_construction(name: str, n: int, **params: int) -> NamedConstruction:
    """Instantiate a named family together with its size formula and freeness claim.

    Each construction has one branch: its closed-form size, computed
    independently of the enumeration, the pattern it avoids and its
    generator.  An unknown name, a missing or unexpected parameter, a ground
    size or parameter value the generator refuses, or a ground size past
    freeness.static_ground_limit(), where the embedder's rows would refuse
    any family of 2^(n-1) sets too, raises ValueError, checked in that order
    and before any generator runs.
    """
    if name not in CONSTRUCTION_PARAMETERS:
        raise ValueError(f"unknown construction {name!r}")
    if name == "star":
        params.setdefault("x", 1)
    for key in sorted(set(params) ^ set(CONSTRUCTION_PARAMETERS[name])):
        problem = "takes no" if key in params else "needs the"
        raise ValueError(f"construction {name!r} {problem} parameter {key!r}")
    _check_parameters(name, n, params)
    limit = freeness.static_ground_limit()
    if n > limit:
        raise ValueError(f"construction {name!r} at n={n}: the freeness check takes n <= {limit}")
    if name == "star":
        size, claim = 1 << (n - 1), "K2"
        generate = lambda: star_family(n, params["x"])
    elif name == "matching_extremal":
        k = params["k"]
        size, claim = (1 << (n - 1)) + k, f"M{k + 1}"
        generate = lambda: matching_extremal(n, k)
    elif name == "bip_lower":
        extra = comb(n, n // 2) // 2 if n % 2 == 0 else comb(n - 1, n // 2 - 1)
        size, claim = (1 << (n - 1)) + extra, "S2"  # max degree <= 1 is 2-star freeness
        generate = lambda: bip_lower(n)
    elif name == "threshold":
        k = params["k"]
        size, claim = binom_tail(n, k * n // (2 * k + 1) + 1), f"C{2 * k + 1}"
        generate = lambda: threshold_family(n, k)
    elif name == "clique_threshold":
        r = params["r"]
        size, claim = binom_tail(n, n // (r + 1) + 1), f"K{r + 1}"
        generate = lambda: clique_threshold_family(n, r)
    else:  # e2_two_level
        if n % 2:
            size = (1 << (n - 1)) + comb(n, n // 2)
        else:
            # sets through 1 of size >= n/2-1, plus sets whose part beyond 1 has size >= n/2
            size = binom_tail(n - 1, n // 2 - 2) + binom_tail(n - 1, n // 2)
        claim = "C4"
        generate = lambda: e2_two_level(n)
    return NamedConstruction(name, dict(params), generate(), size, claim)


def verify_construction(nc: NamedConstruction) -> dict:
    """Re-check the size formula and the claimed freeness; used by the CLI.

    The doubling construction is certified by its cover (cover_certifies), a
    pass over the members; every other one by freeness.is_free.
    """
    size_ok = len(nc.family) == nc.claimed_size
    if nc.name == "matching_extremal":
        free_ok = cover_certifies(nc.family, nc.params["k"])
    else:
        free_ok = freeness.is_free(nc.family, parse_pattern(nc.claimed_free_of))
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
