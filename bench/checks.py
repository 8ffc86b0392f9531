"""Output checks for benchmark ops, made outside the timed region.

Nothing here imports knvex: witnesses are re-verified with a separate
backtracking search, and construction sizes come from their closed formulas,
so agreement with the program is meaningful.
"""

from __future__ import annotations

import csv
import io
import json
from math import comb


# ---- closed size formulas -------------------------------------------------

def _levels(n: int, keep) -> int:
    return sum(comb(n, j) for j in range(n + 1) if keep(j))


def threshold_size(n: int, k: int) -> int:
    """Sets of size above kn/(2k+1)."""
    return _levels(n, lambda j: j * (2 * k + 1) > k * n)


def clique_threshold_size(n: int, r: int) -> int:
    """Sets of size above n/(r+1)."""
    return _levels(n, lambda j: j * (r + 1) > n)


def bip_lower_size(n: int) -> int:
    """Upper half of the cube; for odd n plus the floor(n/2)-sets through 1."""
    if n % 2 == 0:
        return _levels(n, lambda j: 2 * j >= n)
    return _levels(n, lambda j: 2 * j > n) + comb(n - 1, n // 2 - 1)


def e2_two_level_size(n: int) -> int:
    """Odd n: sets of size >= floor(n/2).  Even n: the upset of the two-level core,
    i.e. sets through 1 of size >= n/2 - 1 plus sets avoiding 1 of size >= n/2."""
    if n % 2:
        return _levels(n, lambda j: j >= n // 2)
    half = n // 2
    return _levels(n - 1, lambda j: j >= half - 2) + _levels(n - 1, lambda j: j >= half)


CONSTRUCTION_SIZE = {
    "threshold": lambda n, p: threshold_size(n, p["k"]),
    "clique_threshold": lambda n, p: clique_threshold_size(n, p["r"]),
    "bip_lower": lambda n, p: bip_lower_size(n),
    "e2_two_level": lambda n, p: e2_two_level_size(n),
}


def table_lower(pattern: str, n: int) -> int:
    """Best construction size `table` reports for the two benchmarked patterns."""
    star = 1 << (n - 1)
    if pattern == "K2,3":  # bipartite with e(P) >= 2: bip_lower and e2_two_level apply
        return max(star, bip_lower_size(n), e2_two_level_size(n))
    if pattern == "K4":  # odd girth 3 and a clique: both threshold families apply
        return max(star, threshold_size(n, 1), clique_threshold_size(n, 3))
    raise ValueError(f"no formula for {pattern!r}")


# ---- independent containment searches --------------------------------------

def parse_sets(lines, n: int) -> list[int]:
    """CLI set strings ("1,3" or "-") to bitmasks; raises ValueError on bad input."""
    masks = []
    for text in lines:
        mask = 0
        if text != "-":
            for tok in text.split(","):
                e = int(tok)
                if not 1 <= e <= n:
                    raise ValueError(f"element {e} outside 1..{n}")
                mask |= 1 << (e - 1)
        masks.append(mask)
    if len(set(masks)) != len(masks):
        raise ValueError("repeated set")
    return masks


def _disjoint_sets(masks: list[int], n: int) -> list[set[int]]:
    index = {m: i for i, m in enumerate(masks)}
    full = (1 << n) - 1
    adj = [set() for _ in masks]
    for i, m in enumerate(masks):
        free = full ^ m
        if 1 << free.bit_count() <= len(masks):
            sub = free
            while True:
                j = index.get(sub)
                if j is not None and j != i:
                    adj[i].add(j)
                if sub == 0:
                    break
                sub = (sub - 1) & free
        else:
            adj[i].update(j for j, o in enumerate(masks) if o & m == 0 and j != i)
    return adj


def find_graph_copy(masks: list[int], n: int, pattern) -> dict | None:
    """Injective map of pattern vertices to sets, pattern edges to disjoint pairs."""
    count, edges = pattern
    if count > len(masks):
        return None
    adj = _disjoint_sets(masks, n)
    nbrs = [[] for _ in range(count)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    order, seen = [], set()
    for start in sorted(range(count), key=lambda v: -len(nbrs[v])):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in nbrs[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    placed: dict[int, int] = {}

    def place(k: int) -> bool:
        if k == count:
            return True
        v = order[k]
        rows = [adj[placed[u]] for u in nbrs[v] if u in placed]
        cands = set.intersection(*rows) if rows else range(len(masks))
        used = set(placed.values())
        for h in cands:
            if h in used or len(adj[h]) < len(nbrs[v]):
                continue
            placed[v] = h
            if place(k + 1):
                return True
            del placed[v]
        return False

    return dict(placed) if place(0) else None


def poset_relations(poset) -> set[tuple[int, int]]:
    """Transitive closure of the cover relations."""
    size, covers = poset
    rel = set(covers)
    while True:
        extra = {(p, r) for p, q in rel for q2, r in rel if q == q2} - rel
        if not extra:
            return rel
        rel |= extra


def is_poset_copy(mapping: dict[int, int], poset) -> bool:
    """Injective, and p < q sends p's set strictly inside q's."""
    size, _ = poset
    if sorted(mapping) != list(range(size)) or len(set(mapping.values())) != size:
        return False
    return all(mapping[p] & mapping[q] == mapping[p] for p, q in poset_relations(poset))


def find_poset_copy(masks: list[int], poset) -> dict | None:
    size, _ = poset
    rel = poset_relations(poset)
    placed: dict[int, int] = {}

    def fits(e: int, m: int) -> bool:
        for f, h in placed.items():
            if (f, e) in rel and h & m != h:
                return False
            if (e, f) in rel and h & m != m:
                return False
        return True

    def place(e: int) -> bool:
        if e == size:
            return True
        used = set(placed.values())
        for m in masks:
            if m not in used and fits(e, m):
                placed[e] = m
                if place(e + 1):
                    return True
                del placed[e]
        return False

    return dict(placed) if place(0) else None


# ---- per-kind output checks --------------------------------------------------

def _witness(results: dict, key: str = "witness") -> tuple[int, list[int]]:
    fam = results[key]
    return fam["n"], parse_sets(fam["sets"], fam["n"])


def _check_vex(op, results) -> str | None:
    if results["value"] != op.expect["value"]:
        return f"value {results['value']} != {op.expect['value']}"
    if not results["exact"]:
        return "not exact"
    n, masks = _witness(results)
    if len(masks) != results["value"]:
        return f"witness has {len(masks)} sets, value is {results['value']}"
    if find_graph_copy(masks, n, op.subject) is not None:
        return "witness contains the pattern"
    return None


def _check_vex_bounds(op, results) -> str | None:
    for key in ("lower", "lower_source", "upper"):
        if results[key] != op.expect[key]:
            return f"{key} {results[key]!r} != {op.expect[key]!r}"
    n, masks = _witness(results)
    if len(masks) != results["lower"]:
        return f"witness has {len(masks)} sets, lower is {results['lower']}"
    if find_graph_copy(masks, n, op.subject) is not None:
        return "witness contains the pattern"
    return None


def _check_la(op, results) -> str | None:
    if results["value"] != op.expect["value"]:
        return f"value {results['value']} != {op.expect['value']}"
    if not results["exact"]:
        return "not exact"
    n, masks = _witness(results)
    if len(masks) != results["value"]:
        return f"witness has {len(masks)} sets, value is {results['value']}"
    if op.expect["symmetric"]:
        full = (1 << n) - 1
        if any(full ^ m not in set(masks) for m in masks):
            return "symmetric witness is not complement-closed"
    for poset in op.subject:
        if find_poset_copy(masks, poset) is not None:
            return "witness contains a forbidden poset"
    return None


def _check_eposet(op, results) -> str | None:
    e = op.expect["e"]
    if results["e"] != e:
        return f"e {results['e']} != {e}"
    cert = results["certificate"]
    if cert is None:
        return "no certificate"
    n, lowest = cert["n"], cert["lowest_level"]
    keys = sorted(cert["mapping"], key=int)
    sets = parse_sets([cert["mapping"][k] for k in keys], n)
    mapping = {int(k): m for k, m in zip(keys, sets)}
    if not is_poset_copy(mapping, op.subject):
        return "certificate is not a copy of the poset"
    if any(not lowest <= m.bit_count() <= lowest + e for m in sets):
        return f"certificate leaves levels {lowest}..{lowest + e}"
    return None


def _check_verify(op, results) -> str | None:
    exp = op.expect
    params = {k: v for k, v in exp.items() if k not in ("construction", "n")}
    size = CONSTRUCTION_SIZE[exp["construction"]](exp["n"], params)
    if not (results["pass"] and results["size_ok"] and results["free_ok"]):
        return "verification did not pass"
    if results["size"] != size or results["claimed_size"] != size:
        return f"size {results['size']} / claimed {results['claimed_size']} != formula {size}"
    return None


def _check_cyclecheck(op, results) -> str | None:
    exp = op.expect
    if results["size"] != exp["size"]:
        return f"size {results['size']} != {exp['size']}"
    if not results["equal"] or results["lhs"] != exp["rhs"] or results["rhs"] != exp["rhs"]:
        return f"lhs {results['lhs']} rhs {results['rhs']} != {exp['rhs']}"
    return None


_JSON_CHECKS = {
    "vex": _check_vex,
    "vex_bounds": _check_vex_bounds,
    "la": _check_la,
    "eposet": _check_eposet,
    "verify": _check_verify,
    "cyclecheck": _check_cyclecheck,
}


def check_output(op, code, out: str) -> str | None:
    """None when the op's output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        if op.kind == "table":
            rows = list(csv.reader(io.StringIO(out)))
            if rows[0] != ["n", "lower", "upper", "exact"]:
                return f"table header {rows[0]}"
            if rows[1:] != op.expect["rows"]:
                return f"table rows {rows[1:]} != {op.expect['rows']}"
            return None
        return _JSON_CHECKS[op.kind](op, json.loads(out)["results"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
