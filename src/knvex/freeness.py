"""Pattern containment in the Kneser subgraph induced by a family.

A family spans a subgraph of the Kneser cube; "contains G" means a not
necessarily induced subgraph copy: an injection of V(G) into the family
sending every pattern edge to a disjoint pair.  Isolated pattern vertices
still consume distinct host vertices.

The search backtracks over pattern vertices in decreasing-degree order
(ties by label) and tries host candidates in canonical family order, so the
first witness found is deterministic.  Candidate sets are bitmasks over
family indices; forward checking abandons a branch as soon as some
unassigned pattern vertex has no remaining candidates.  The vertex order,
and for each vertex its neighbours placed later, are fixed per pattern and
computed once (_GraphPlan).

The incremental checker decides a push by pinning the pushed set to one
vertex of each automorphism orbit of the pattern, not to every vertex: a new
copy must use the pushed set, and composing it with an automorphism moves the
pinned vertex anywhere in its orbit.  The orbits are found by the embedder
itself, so the symmetry is checked, never assumed.  The plain search uses the
same argument: a host that fails for the first vertex leaves the domains of
that vertex's whole orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __len__(self) -> int:
        return len(self.vertices)

    def index_of(self, mask: int) -> int:
        return self._index[mask]

    def is_edge(self, i: int, j: int) -> bool:
        return kneser_adjacent(self.vertices.members[i], self.vertices.members[j])

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

    def degree(self, i: int) -> int:
        return self.neighbor_mask(i).bit_count()

    def max_degree(self) -> int:
        return max((self.degree(i) for i in range(len(self))), default=0)


def induced_kneser(fam: Family) -> InducedKneser:
    return InducedKneser(fam)


@dataclass(frozen=True)
class GraphWitness:
    """Injective map pattern vertex -> family index realizing every pattern edge."""

    mapping: dict[int, int]


def check_witness(host: InducedKneser, pattern: PatternGraph, witness: GraphWitness) -> bool:
    """Soundness: injectivity plus adjacency of every mapped pattern edge."""
    mapping = witness.mapping
    if sorted(mapping) != list(range(pattern.vertex_count)):
        return False
    if len(set(mapping.values())) != pattern.vertex_count:
        return False
    return all(host.is_edge(mapping[u], mapping[v]) for u, v in pattern.edges)


def _graph_route(order, adjacency) -> tuple[tuple[int, ...], tuple]:
    """order, plus (v, neighbours of v placed after it) per position.

    Vertices are placed strictly in order, so the neighbours still to be
    placed at each position are known before the search starts.
    """
    steps = tuple(
        (v, tuple(u for u in order[pos + 1:] if adjacency[v] >> u & 1))
        for pos, v in enumerate(order)
    )
    return tuple(order), steps


class _GraphPlan:
    """Per-pattern search routes and symmetry, computed once per pattern.

    route follows decreasing degree (ties by label); forced_routes[p] is the
    same order with p moved to the front, for searches that pin p.  orbits
    are the automorphism orbits; first_orbit is the one holding route's
    first vertex.
    """

    def __init__(self, pattern: PatternGraph):
        degrees = pattern.degrees
        pv = pattern.vertex_count
        order = sorted(range(pv), key=lambda v: (-degrees[v], v))
        self.pattern = pattern
        self.route = _graph_route(order, pattern.adjacency)
        self.forced_routes = tuple(
            _graph_route([p] + [v for v in order if v != p], pattern.adjacency)
            for p in range(pv)
        )
        self.orbits = automorphism_orbits(
            pv, lambda forced: _embed(self, pv, pattern.adjacency.__getitem__, forced=forced)
        )
        self.first_orbit = next(orbit for orbit in self.orbits if order[0] in orbit)


def _narrow(domains: list[int], related, row: int) -> bool:
    """domains[u] &= row for each related u; False as soon as one empties."""
    for u in related:
        domains[u] &= row
        if not domains[u]:
            return False
    return True


def _embed(plan: _GraphPlan, host_size: int, nbr, forced=None):
    """Injective edge-preserving map of the pattern into an abstract host.

    nbr(i) is the bitset of host indices adjacent to host index i.  With
    forced=(p, h) the pattern vertex p is pinned to host index h.  Unforced,
    a host that fails for the first vertex leaves the domains of that
    vertex's whole automorphism orbit.  Returns the assignment dict or None.
    """
    pattern = plan.pattern
    pv = pattern.vertex_count
    if pv > host_size:
        return None
    pat_deg = pattern.degrees
    domains = [(1 << host_size) - 1] * pv
    image = [0] * pv
    start = used = 0

    if forced is None:
        order, steps = plan.route
    else:
        p, h = forced
        row = nbr(h)
        if row.bit_count() < pat_deg[p]:
            return None
        order, steps = plan.forced_routes[p]
        image[0] = h
        used = 1 << h
        if not _narrow(domains, steps[0][1], row):
            return None
        start = 1

    def place(pos: int, domains: list[int], used: int) -> bool:
        if pos == pv:
            return True
        v, later = steps[pos]
        need = pat_deg[v]
        cands = domains[v] & ~used
        while cands:
            low = cands & -cands
            cands ^= low
            h = low.bit_length() - 1
            row = nbr(h)
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


def contains_subgraph(host: InducedKneser, pattern: PatternGraph) -> GraphWitness | None:
    """Exhaustive search for a subgraph copy of the pattern; None if absent."""
    mapping = _embed(_GraphPlan(pattern), len(host), host.neighbor_mask)
    return GraphWitness(mapping) if mapping is not None else None


def is_free(fam: Family, pattern: PatternGraph) -> bool:
    """True when the subgraph induced by the family contains no copy of the pattern."""
    return contains_subgraph(induced_kneser(fam), pattern) is None


def automorphism_orbits(size: int, embeds) -> tuple[tuple[int, ...], ...]:
    """Automorphism orbits of a pattern on 0..size-1, by smallest label.

    embeds(forced) runs the pattern's own embedder with the pattern itself as
    host and forced=(p, q).  An injective structure-preserving map of a
    finite pattern into itself is an automorphism, so p and q share an orbit
    iff that search succeeds: every orbit is witnessed by an automorphism
    actually found, never assumed.
    """
    orbits = []
    merged = 0
    for p in range(size):
        if merged >> p & 1:
            continue
        orbit = [p]
        for q in range(p + 1, size):
            if not merged >> q & 1 and embeds((p, q)) is not None:
                merged |= 1 << q
                orbit.append(q)
        orbits.append(tuple(orbit))
    return tuple(orbits)


class IncrementalChecker:
    """Stack of vertices with pattern-freeness tracked across push/pop.

    Pushed masks must be distinct (the search engines guarantee this).
    Freeness is monotone under push, so only the depth of the first
    violation needs to be remembered.

    A push pins the pushed set to each vertex of orbit_reps, the smallest
    label of every automorphism orbit (see the module docstring for why
    that decides the push), highest degree first.
    """

    def __init__(self, pattern: PatternGraph, n: int):
        validate_ground(n)
        self.pattern = pattern
        self.n = n
        self._plan = _GraphPlan(pattern)
        # highest degree first: with that order a relabelled K2,3 takes the
        # same time under every labelling, not up to 3x more
        self.orbit_reps = tuple(
            sorted((orbit[0] for orbit in self._plan.orbits), key=lambda p: -pattern.degrees[p])
        )
        self._masks: list[int] = []
        self._rows: list[int] = []
        self._violated_at: int | None = None

    def __len__(self) -> int:
        return len(self._masks)

    def push(self, mask: int) -> None:
        validate_mask(mask, self.n)
        idx = len(self._masks)
        rows = self._rows
        bit = 1 << idx
        row = 0
        for j, other in enumerate(self._masks):
            if mask & other == 0 and mask != other:
                row |= 1 << j
                rows[j] |= bit
        self._masks.append(mask)
        rows.append(row)
        if self._violated_at is None and self._completes_copy(idx):
            self._violated_at = len(self._masks)

    def pop(self) -> int:
        if not self._masks:
            raise IndexError("pop from empty checker")
        mask = self._masks.pop()
        bit = 1 << len(self._masks)
        # push set the popped bit exactly in the rows of the popped set's neighbours
        rows = self._rows
        marked = rows.pop()
        while marked:
            low = marked & -marked
            marked ^= low
            rows[low.bit_length() - 1] ^= bit
        if self._violated_at is not None and self._violated_at > len(self._masks):
            self._violated_at = None
        return mask

    def currently_free(self) -> bool:
        return self._violated_at is None

    def current_family(self) -> Family:
        return Family.of(self.n, self._masks)

    def _completes_copy(self, new_index: int) -> bool:
        # any new copy must use the vertex just pushed
        size = len(self._masks)
        if self.pattern.vertex_count > size:
            return False
        nbr = self._rows.__getitem__
        for p in self.orbit_reps:
            if _embed(self._plan, size, nbr, forced=(p, new_index)) is not None:
                return True
        return False


def incremental_checker(pattern: PatternGraph, n: int) -> IncrementalChecker:
    return IncrementalChecker(pattern, n)
