"""Pattern containment in the Kneser subgraph induced by a family, and the
one embedding engine that graph and poset searches share.

A family spans a subgraph of the Kneser cube; "contains G" means a not
necessarily induced subgraph copy: an injection of V(G) into the family
sending every pattern edge to a disjoint pair.  Isolated pattern vertices
still consume distinct host vertices.  A weak copy of a poset (posets.py) is
the same kind of object: an injection sending every pattern relation to the
same relation among host sets, proper inclusion instead of disjointness.
Both searches return a copy as a dict, pattern vertex -> member mask.

_embed searches for such an injection, given the pattern's relation rows
and the host's: (adjacency,) for graphs, (above, below) for posets.  It
backtracks over pattern vertices in a fixed order (decreasing degree for
graphs, ties by label; the linear extension for posets) and tries host
candidates in canonical family order, so the first copy found is
deterministic.  Candidate sets are bitmasks over family indices; forward
checking abandons a branch as soon as some unplaced vertex has no candidate
left.  Each placement narrows by relations[0] alone, so the order must place
every vertex related to v in another relation before v: for posets, every
later related element lies above.  _Plan checks that rule and computes the
order, the later related vertices per position and the automorphism orbits
once per pattern.

The incremental checkers decide a push by pinning the pushed set to one
vertex of each automorphism orbit of the pattern, not to every vertex: a new
copy must use the pushed set, and composing it with an automorphism moves the
pinned vertex anywhere in its orbit.  A pinned vertex goes to the front of
the order and narrows by every relation once.  The orbits are found by the
engine itself, so the symmetry is checked, never assumed.  The plain search
uses the same argument: a host that fails for the first vertex leaves the
domains of that vertex's whole orbit.
"""

from __future__ import annotations

from .patterns import PatternGraph
from .sets import Family, complement, kneser_adjacent, validate_ground, validate_mask

MAX_VERTICES = 1 << 20


class InducedKneser:
    """Disjointness graph on a family, adjacency rows built lazily per vertex."""

    def __init__(self, vertices: Family):
        if len(vertices) > MAX_VERTICES:
            raise ValueError(f"family too large: {len(vertices)} > {MAX_VERTICES}")
        self.vertices = vertices
        self.n = vertices.n
        self._index = {m: i for i, m in enumerate(vertices.members)}
        self._rows: dict[int, int] = {}

    def neighbor_mask(self, i: int) -> int:
        """Bitset of family indices disjoint from member i."""
        row = self._rows.get(i)
        if row is not None:
            return row
        members = self.vertices.members
        mask = members[i]
        free = complement(mask, self.n)
        row = 0
        if 1 << free.bit_count() <= 2 * len(members):
            # every neighbor is a subset of the complement: enumerate submasks
            sub = free
            while True:
                j = self._index.get(sub)
                if j is not None and j != i:
                    row |= 1 << j
                if sub == 0:
                    break
                sub = (sub - 1) & free
        else:
            for j, other in enumerate(members):
                if other & mask == 0 and j != i:
                    row |= 1 << j
        self._rows[i] = row
        return row


def check_witness(fam: Family, pattern: PatternGraph, copy: dict[int, int]) -> bool:
    """Soundness of a copy: keys 0..v-1, distinct members of fam, a disjoint pair on every edge."""
    if sorted(copy) != list(range(pattern.vertex_count)):
        return False
    if len(set(copy.values())) != pattern.vertex_count or not all(m in fam for m in copy.values()):
        return False
    return all(kneser_adjacent(copy[u], copy[v]) for u, v in pattern.edges)


def _route(relations, order) -> tuple:
    """(v, need, later) per position of order: later lists the vertices
    placed after v in v's row of relations[0], and need is that row's size.

    The search checks relations[0] alone, from the earlier vertex of each
    related pair, so v's rows in the other relations may only hold vertices
    placed before v.  An order that breaks this rule raises ValueError.
    """
    first, *others = relations
    steps = []
    for pos, v in enumerate(order):
        after = order[pos + 1:]
        if any(rel[v] >> u & 1 for rel in others for u in after):
            raise ValueError(f"vertex {v} is related to a later vertex outside relations[0]")
        steps.append((v, first[v].bit_count(), tuple(u for u in after if first[v] >> u & 1)))
    return tuple(steps)


class _Plan:
    """Per-pattern search routes and symmetry, computed once per pattern.

    relations[r][v] is the bitmask of the pattern vertices that v relates
    to in relation r; a copy sends them into the host row of v's image in
    relation r.  Graphs have (adjacency,), posets (above, below).

    route is (order, steps) with steps from _route.  forced_routes[p] is the
    same with p moved to the front, for searches that pin p: every vertex
    related to p then comes later, so the first step holds (r, need,
    related) for each relation r.  orbits are the automorphism orbits, by
    smallest label; first_orbit is the one holding route's first vertex.
    """

    def __init__(self, relations, order):
        size = len(relations[0])
        order = tuple(order)
        self.size = size
        self.route = (order, _route(relations, order))
        forced_routes = []
        for p in range(size):
            rest = tuple(v for v in order if v != p)
            pinned = tuple(
                (r, rel[p].bit_count(), tuple(u for u in rest if rel[p] >> u & 1))
                for r, rel in enumerate(relations)
            )
            forced_routes.append(((p, *rest), (pinned, *_route(relations, rest))))
        self.forced_routes = tuple(forced_routes)
        # An injective structure-preserving map of a finite pattern into
        # itself is an automorphism, so p and q share an orbit iff the
        # pattern embeds in itself with p pinned to q: every orbit is
        # witnessed by an automorphism actually found, never assumed.
        own_rows = tuple(rel.__getitem__ for rel in relations)
        orbits = []
        for p in range(size):
            if not any(p in orbit for orbit in orbits):
                mates = (q for q in range(p + 1, size) if _embed(self, size, own_rows, (p, q)))
                orbits.append((p, *mates))
        self.orbits = tuple(orbits)
        self.first_orbit = next(orbit for orbit in self.orbits if order[0] in orbit)


def _graph_plan(pattern: PatternGraph) -> _Plan:
    """Adjacency plan in decreasing-degree order, ties by label."""
    degrees = pattern.degrees
    order = sorted(range(pattern.vertex_count), key=lambda v: (-degrees[v], v))
    return _Plan((pattern.adjacency,), order)


def _narrow(domains: list[int], related, row: int) -> bool:
    """domains[u] &= row for each related u; False as soon as one empties."""
    for u in related:
        domains[u] &= row
        if not domains[u]:
            return False
    return True


def _embed(plan: _Plan, host_size: int, rows, forced=None):
    """Injective relation-preserving map of the pattern into an abstract host.

    rows[r](i) is the bitset of host indices that host index i relates to in
    relation r of the plan.  With forced=(p, h) the pattern vertex p is
    pinned to host index h.  An unforced search reads only rows[0], so a
    static host may pass that getter alone.  Unforced, a host that fails for
    the first vertex leaves the domains of that vertex's whole automorphism
    orbit.  Returns the assignment dict or None.
    """
    size = plan.size
    if size > host_size:
        return None
    domains = [(1 << host_size) - 1] * size
    image = [0] * size
    start = used = 0

    if forced is None:
        order, steps = plan.route
    else:
        p, h = forced
        order, steps = plan.forced_routes[p]
        for r, need, related in steps[0]:
            row = rows[r](h)
            if row.bit_count() < need or not _narrow(domains, related, row):
                return None
        image[0] = h
        used = 1 << h
        start = 1
    first = rows[0]

    def place(pos: int, domains: list[int], used: int) -> bool:
        if pos == size:
            return True
        v, need, later = steps[pos]
        cands = domains[v] & ~used
        while cands:
            low = cands & -cands
            cands ^= low
            h = low.bit_length() - 1
            row = first(h)
            # the images of v's related vertices are distinct members of row
            if row.bit_count() < need:
                continue
            new_domains = domains
            if later:
                new_domains = list(domains)
                if not _narrow(new_domains, later, row):
                    continue
            image[pos] = h
            if place(pos + 1, new_domains, used | low):
                return True
            if pos == 0:
                # no copy at all puts h on the first vertex, so by symmetry
                # none puts it on any vertex of that vertex's orbit
                for u in plan.first_orbit:
                    domains[u] &= ~low
        return False

    if place(start, domains, used):
        return dict(zip(order, image))
    return None


def contains_subgraph(fam: Family, pattern: PatternGraph) -> dict[int, int] | None:
    """Exhaustive search for a copy of the pattern, vertex -> member mask; None if absent."""
    members = fam.members
    assign = _embed(_graph_plan(pattern), len(members), (InducedKneser(fam).neighbor_mask,))
    return None if assign is None else {v: members[i] for v, i in assign.items()}


def is_free(fam: Family, pattern: PatternGraph) -> bool:
    """True when the subgraph induced by the family contains no copy of the pattern."""
    return contains_subgraph(fam, pattern) is None


class _CheckerBase:
    """Stack of distinct sets, with freeness from forbidden patterns tracked
    across push/pop.  Freeness is monotone under push, so only the depth of
    the first violation needs to be remembered.

    searches holds (plan, pinned vertices) per forbidden pattern; a push
    pins the new set to each of them in turn (the module docstring says why
    one vertex per automorphism orbit decides it).  rows holds one host row
    list per relation.  A subclass's _link(mask, bit) appends the new set's
    row to each list and sets bit in the rows that row points to; the
    unlink pairs (own rows, converse rows) let pop clear that bit again.
    """

    def __init__(self, n: int, searches, rows, unlink):
        validate_ground(n)
        self.n = n
        self._searches = searches
        self._rows = rows
        self._row_getters = tuple(r.__getitem__ for r in rows)
        self._unlink = unlink
        self._masks: list[int] = []
        self._violated_at: int | None = None

    def __len__(self) -> int:
        return len(self._masks)

    def push(self, mask: int) -> None:
        validate_mask(mask, self.n)
        idx = len(self._masks)
        self._link(mask, 1 << idx)
        self._masks.append(mask)
        if self._violated_at is None and self._completes_copy(idx):
            self._violated_at = len(self._masks)

    def pop(self) -> int:
        if not self._masks:
            raise IndexError("pop from empty checker")
        mask = self._masks.pop()
        bit = 1 << len(self._masks)
        for own, converse in self._unlink:
            marked = own.pop()
            while marked:
                low = marked & -marked
                marked ^= low
                converse[low.bit_length() - 1] ^= bit
        if self._violated_at is not None and self._violated_at > len(self._masks):
            self._violated_at = None
        return mask

    def currently_free(self) -> bool:
        return self._violated_at is None

    def _completes_copy(self, new_index: int) -> bool:
        # any new copy must use the set just pushed
        count = len(self._masks)
        rows = self._row_getters
        for plan, pinned in self._searches:
            if plan.size > count:
                continue
            for p in pinned:
                if _embed(plan, count, rows, (p, new_index)) is not None:
                    return True
        return False


class IncrementalChecker(_CheckerBase):
    """Pattern-freeness of a stack of sets; see _CheckerBase.

    orbit_reps, the vertices a push pins, holds the smallest label of every
    automorphism orbit, highest degree first.
    """

    def __init__(self, pattern: PatternGraph, n: int):
        plan = _graph_plan(pattern)
        # highest degree first: with that order a relabelled K2,3 takes the
        # same time under every labelling, not up to 3x more
        self.orbit_reps = tuple(
            sorted((orbit[0] for orbit in plan.orbits), key=lambda p: -pattern.degrees[p])
        )
        adjacent: list[int] = []
        super().__init__(n, ((plan, self.orbit_reps),), (adjacent,), ((adjacent, adjacent),))

    def _link(self, mask: int, bit: int) -> None:
        (rows,) = self._rows
        row = 0
        for j, other in enumerate(self._masks):
            if mask & other == 0 and mask != other:
                row |= 1 << j
                rows[j] |= bit
        rows.append(row)
