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
uses the same argument: a host that fails for the first vertex, by its
degree, by forward checking or in its subsearch, leaves the domains of that
vertex's whole orbit (_embed says why each failure proves it).

A static check (_static_copy, _holds_copy; graphs and posets alike) first
reads the host family's own symmetry, found and so checked by
_symmetry_blocks.  Call a transposition (i j) of [n] good when it maps the
family onto itself.  If (i j) and (j k) are good, so is (i k) =
(i j)(j k)(i j); so the good transpositions split [n] into blocks, testing
an element against one element of each block found so far decides where it
goes, and they generate the product of the blocks' symmetric groups.  Under
that group Y lies in X's class iff |Y & b| = |X & b| for every block b.

The transpositions are tested on the family's indicator I = sum of 2^m over
the members, a 2^n-bit int: with has_x the positions whose bit x is set,
(e r) for r < e moves the members holding e but not r down by 2^e - 2^r,
so it keeps the family iff (I & has_e & ~has_r) >> (2^e - 2^r) equals
I & has_r & ~has_e.  The has_x masks take n * 2^n bits: 28 KB at n = 14
and 5.5 MB at n = 21, static_ground_limit(), the largest n with 2^n <= 2 *
MAX_VERTICES.  A family past it gets no blocks, so a library call at n = 30
searches plainly instead of allocating gigabytes.

A host with at most two blocks is decided on counts, with no rows, no index
and no member list (_quotient_contains).  Such a host is a union of whole
classes, so whether a set is a member depends only on its profile, its sizes
in the blocks; one representative per profile reads them all.  Given a copy,
give each element of [n] the set of pattern vertices whose images hold it;
the elements of one block with one such set form a Venn atom, and the copy
fixes each atom's size.  These sizes meet three conditions: the relations
hold (no nonempty atom holds both ends of an edge, or p but not q where
p < q); some nonempty atom holds exactly one of any two vertices; and each
vertex's profile, its atoms' sizes summed per block, is a member's.
Conversely, split each block into atoms of sizes that meet the conditions,
and send each vertex to the union of its atoms: the images are distinct
members, the ends of an edge share no atom, and where p < q every atom of p
is one of q, so p's image lies inside q's, properly as they differ.  So the
search over sizes is exact in both directions, for either relation.

It places the vertices in the embedder's order and spreads each one's
per-block sizes over the atoms it may use: a graph vertex those holding none
of its neighbours; a poset element any part of each atom, but the whole of
each one holding an element below it.  Vertices related to no other need
only |F| >= |V|.  Atoms that every later vertex treats alike are merged, as
nothing still to come tells them apart, and a failed state is remembered.
Twins (u and v whose transposition keeps every relation row, so in a poset
they are incomparable) may trade images, so some copy places each twin
class in increasing profile order.  A later vertex related to the placed one
(a neighbour, or an element above) must still find a member for itself and
each unplaced twin: inside the atoms it may use, or holding those it must
take.  Hosts with more blocks or past static_ground_limit(), and searches
past QUOTIENT_STATES states, go to the embedder, which also finds every copy
returned, whatever decided that one exists.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import product
from math import comb, prod

from .patterns import PatternGraph
from .sets import Family, complement, kneser_adjacent, validate_ground, validate_mask

MAX_VERTICES = 1 << 20


def static_ground_limit() -> int:
    """The largest n a static check takes families on, 21 (module docstring)."""
    return MAX_VERTICES.bit_length()


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
        # every neighbor is one of the at most 2^n submasks of the complement
        free = complement(self.vertices.members[i], self.n)
        row = 0
        sub = free
        while True:
            j = self._index.get(sub)
            if j is not None and j != i:
                row |= 1 << j
            if sub == 0:
                break
            sub = (sub - 1) & free
        self._rows[i] = row
        return row


class _SupersetHost(InducedKneser):
    """Row i holds the proper supersets of member i: X contains m properly iff
    X's complement lies properly inside m's, so key members by complement."""

    def __init__(self, vertices: Family):
        super().__init__(vertices)
        self._index = {complement(m, self.n): i for m, i in self._index.items()}


def check_witness(fam: Family, pattern: PatternGraph, copy: dict[int, int]) -> bool:
    """Soundness of a copy: keys 0..v-1, distinct members of fam, a disjoint pair on every edge."""
    if sorted(copy) != list(range(pattern.vertex_count)):
        return False
    if len(set(copy.values())) != pattern.vertex_count or not all(m in fam for m in copy.values()):
        return False
    return all(kneser_adjacent(copy[u], copy[v]) for u, v in pattern.edges)


def _route(first, order) -> tuple:
    """(v, need, later) per position of order: later lists the vertices
    placed after v in v's row of first, and need is that row's size."""
    return tuple(
        (v, first[v].bit_count(), tuple(u for u in order[pos + 1:] if first[v] >> u & 1))
        for pos, v in enumerate(order)
    )


class _Plan:
    """Per-pattern search routes and symmetry, computed once per pattern.

    relations[r][v] is the bitmask of the pattern vertices that v relates
    to in relation r; a copy sends them into the host row of v's image in
    relation r.  Graphs have (adjacency,), posets (above, below).

    The search checks relations[0] alone, from the earlier vertex of each
    related pair, so v's rows in the other relations may only hold vertices
    placed before v: an order that breaks this rule raises ValueError.
    route is (order, steps) with steps from _route.  forced_routes[p] is the
    same with p moved to the front, for searches that pin p; it places no
    vertex later than order does, so it keeps the rule, and its first step
    holds (r, need, related) for each relation r.  orbits are the
    automorphism orbits, by smallest label; first_orbit is the one holding
    route's first vertex.
    """

    def __init__(self, relations, order):
        first, *others = relations
        size = len(first)
        order = tuple(order)
        placed = 0
        for v in order:
            placed |= 1 << v
            if any(rel[v] & ~placed for rel in others):
                raise ValueError(f"vertex {v} is related to a later vertex outside relations[0]")
        self.size = size
        self.relations = relations
        self.route = (order, _route(first, order))
        forced_routes = []
        for p in range(size):
            rest = tuple(v for v in order if v != p)
            pinned = tuple(
                (r, rel[p].bit_count(), tuple(u for u in rest if rel[p] >> u & 1))
                for r, rel in enumerate(relations)
            )
            forced_routes.append(((p, *rest), (pinned, *_route(first, rest))))
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


@lru_cache(maxsize=None)
def _graph_plan(pattern: PatternGraph) -> _Plan:
    """Adjacency plan in decreasing-degree order, ties by label.  Built once
    per pattern and shared: a _Plan holds only tuples and is never changed."""
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
    static host may pass that getter alone.

    Unforced, a host that fails for the first vertex, by its degree, by
    forward checking or by its subsearch, leaves the domains of that
    vertex's whole automorphism orbit.  Any of the three failures proves
    that no copy puts h first: at position 0 the domains lack only hosts
    already proven to be in no copy on the first orbit, so forward checking
    there empties no domain that a copy would fill.  The orbit then follows
    by symmetry, as in the module docstring.  Returns the assignment dict or
    None.
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
            if row.bit_count() >= need:
                new_domains = list(domains) if later else domains
                if not later or _narrow(new_domains, later, row):
                    image[pos] = h
                    if place(pos + 1, new_domains, used | low):
                        return True
            if pos == 0:
                # no copy at all puts h on the first vertex, so by symmetry
                # none puts h on any vertex of that vertex's orbit
                for u in plan.first_orbit:
                    domains[u] &= ~low
        return False

    if place(start, domains, used):
        return dict(zip(order, image))
    return None


def _has_bit(x: int, n: int) -> int:
    """The 2^n-bit mask of the positions m in 0..2^n-1 whose bit x is set."""
    width = 2 << x
    mask = ((1 << (1 << x)) - 1) << (1 << x)
    while width < 1 << n:
        mask |= mask << width
        width <<= 1
    return mask


def _symmetry_blocks(fam: Family) -> list[int]:
    """The blocks of [n] that the good transpositions of the family join, as
    masks in order of their smallest element; each transposition is tested
    on the family's indicator bitmap (see the module docstring)."""
    n = fam.n
    # digits[m] is the indicator's bit m; int() reads the most significant digit first
    digits = bytearray(b"0") * (1 << n)
    for m in fam.members:
        digits[m] = 49  # ord("1")
    indicator = int(digits[::-1], 2)
    has = [_has_bit(x, n) for x in range(n)]
    blocks: list[int] = []
    for e in range(n):
        for k, block in enumerate(blocks):
            r = (block & -block).bit_length() - 1
            moved = indicator & has[e] & ~has[r]
            if moved >> ((1 << e) - (1 << r)) == indicator & has[r] & ~has[e]:
                blocks[k] |= 1 << e
                break
        else:
            blocks.append(1 << e)
    return blocks


# A quotient search that tries more candidate states than this gives up, and
# the check asks the embedder instead; no construction check measured at
# n <= 21 tried more than 2,048.
QUOTIENT_STATES = 10_000


class _GiveUp(Exception):
    pass


def _quotient_contains(fam: Family, blocks: list[int], plan: _Plan) -> bool | None:
    """Whether the family holds a copy of the plan's pattern, decided over
    Venn-atom sizes (module docstring): disjoint pairs for a plan of one
    relation, inclusions for (above, below).  blocks are the one or two
    _symmetry_blocks(fam).  None past QUOTIENT_STATES states.

    A state is (whether some image is empty, per twin class the profile of
    its last placed vertex while a twin is still to come, then per block its
    atoms).  An atom is (allowed, whole, label, size): the later vertices
    that may use it (none adjacent to a vertex it holds), those that must
    take all of it (above a vertex it holds), and the tracked vertices it
    holds."""
    members = fam.members
    # vertices related to no other take any members the others leave
    if plan.size > len(members):
        return False
    # prefixes[j][s]: the lowest s elements of block j
    prefixes = []
    for block in blocks:
        prefix = [0]
        while block:
            low = block & -block
            block ^= low
            prefix.append(prefix[-1] | low)
        prefixes.append(prefix)
    # a profile is admissible when its representative, and so its whole class, is a member
    admissible = []
    for sizes in product(*(range(len(prefix)) for prefix in prefixes)):
        rep = sum(prefix[s] for prefix, s in zip(prefixes, sizes))
        at = bisect_left(members, rep)
        if at < len(members) and members[at] == rep:
            admissible.append(sizes)
    within: dict[tuple, int] = {}

    def fitting(block_atoms, w: int) -> int:
        """The members holding every atom w must take, inside those it may use."""
        bounds = tuple(
            (
                sum(c for _, whole, _, c in atoms if whole >> w & 1),
                sum(c for allowed, _, _, c in atoms if allowed >> w & 1),
            )
            for atoms in block_atoms
        )
        count = within.get(bounds)
        if count is None:
            count = within[bounds] = sum(
                prod(comb(room - held, s - held) for s, (held, room) in zip(sizes, bounds))
                for sizes in admissible
                if all(held <= s <= room for s, (held, room) in zip(sizes, bounds))
            )
        return count

    relations = plan.relations
    up = relations[0]  # the adjacency, or the elements above
    # a graph vertex bans its neighbours from its atoms; a poset element
    # hands its atoms whole to the elements above it
    none = (0,) * plan.size
    bans, lifts = (up, none) if len(relations) == 1 else (none, up)
    order = [v for v in plan.route[0] if any(rel[v] for rel in relations)]
    size = len(order)
    # Twins, vertices whose transposition keeps every relation row, may
    # trade images, so some copy lists each twin class's profiles in
    # increasing order.  Twinship is an equivalence relation.
    twin_class: dict[int, int] = {}
    heads: list[int] = []
    for v in order:
        twin = lambda h: all(
            (rel[v] ^ rel[h]) & ~(1 << v | 1 << h) == 0 and rel[v] >> h & 1 == rel[h] >> v & 1
            for rel in relations
        )
        twin_class[v] = next((k for k, h in enumerate(heads) if twin(h)), len(heads))
        if twin_class[v] == len(heads):
            heads.append(v)
    # per position: v's bit, bans and lifts, the placed vertices its atoms
    # must tell it from (a graph vertex's neighbours are told by disjointness),
    # the vertices a later one must be told from, its twin class, whether a
    # later twin reads its profile, and per later vertex related to v the
    # twins of it still to place, each needing its own member
    steps = []
    for pos, v in enumerate(order):
        placed = sum(1 << u for u in order[:pos])
        rest = order[pos + 1:]
        later = sum(1 << w for w in rest)
        tracked = sum(1 << u for u in order[:pos + 1] if later & ~bans[u])
        twin_later = any(twin_class[w] == twin_class[v] for w in rest)
        checks = [
            (w, sum(twin_class[x] == twin_class[w] for x in rest))
            for w in rest if up[v] >> w & 1
        ]
        need = placed & ~bans[v]
        steps.append((1 << v, bans[v], lifts[v], need, tracked, twin_class[v], twin_later, checks))
    failed: set = set()
    visited = 0

    def place(pos: int, state: tuple) -> bool:
        nonlocal visited
        if pos == size:
            return True
        if (pos, state) in failed:
            return False
        bit, banned, lift, need, tracked, twins, twin_later, checks = steps[pos]
        empty_used, floors, *block_atoms = state
        floor = floors[twins]
        usable = [tuple(a for a in atoms if a[0] & bit) for atoms in block_atoms]
        # v takes all of each atom it must and spreads the rest of its sizes
        forced = [sum(c for _, whole, _, c in atoms if whole & bit) for atoms in usable]
        spare = [tuple(0 if whole & bit else c for _, whole, _, c in atoms) for atoms in usable]
        caps = [sum(c for *_, c in atoms) for atoms in usable]
        for sizes in admissible:
            if sizes < floor or any(not f <= s <= cap for s, f, cap in zip(sizes, forced, caps)):
                continue
            empty = not any(sizes)
            if empty and empty_used:
                continue
            next_floors = floors
            if twin_later or floor:
                next_floors = floors[:twins] + (sizes if twin_later else (),) + floors[twins + 1:]
            for takes in product(*map(_spreads, spare, [s - f for s, f in zip(sizes, forced)])):
                visited += 1
                if visited > QUOTIENT_STATES:
                    raise _GiveUp
                new_atoms = []
                differs = 0
                for atoms, use, take in zip(block_atoms, usable, takes):
                    split: dict[tuple[int, int, int], int] = {}
                    for (allowed, whole, label, c), x in zip(use, take):
                        if whole & bit:
                            x = c
                        if x:
                            # v's image holds these x elements, the images outside label do not
                            differs |= need & ~label
                            key = (allowed & ~bit & ~banned, whole & ~bit | lift, (label | bit) & tracked)
                            split[key] = split.get(key, 0) + x
                        if x < c:
                            differs |= label & need
                            key = (allowed & ~bit, whole & ~bit, label & tracked)
                            split[key] = split.get(key, 0) + c - x
                    for allowed, whole, label, c in atoms:
                        if not allowed & bit:
                            differs |= label & need
                            key = (allowed, whole, label & tracked)
                            split[key] = split.get(key, 0) + c
                    # an atom no later vertex may use and no tracked vertex holds is spent
                    split.pop((0, 0, 0), None)
                    new_atoms.append(tuple(sorted((*key, c) for key, c in split.items())))
                if need & ~differs:
                    continue
                # forward check: each later vertex w related to v keeps as
                # many members as w and its unplaced twins need
                fit = all(fitting(new_atoms, w) >= left for w, left in checks)
                if fit and place(pos + 1, (empty_used or empty, next_floors, *new_atoms)):
                    return True
        failed.add((pos, state))
        return False

    everyone = sum(1 << v for v in order)
    start = (False, ((),) * len(heads), *(((everyone, 0, 0, len(prefix) - 1),) for prefix in prefixes))
    try:
        return place(0, start)
    except _GiveUp:
        return None


def _spreads(counts: tuple[int, ...], total: int):
    """Every way to take total elements from atoms holding counts elements:
    tuples x with 0 <= x[i] <= counts[i] and sum total, lazily."""
    if not counts:
        if total == 0:
            yield ()
        return
    room = sum(counts) - counts[0]
    for x in range(max(0, total - room), min(counts[0], total) + 1):
        for rest in _spreads(counts[1:], total - x):
            yield (x, *rest)


def _quotient_verdict(fam: Family, plan: _Plan) -> bool | None:
    """_quotient_contains, or None on a host with more than two symmetry
    blocks or past the block test's memory bound, static_ground_limit()."""
    if fam.n > static_ground_limit():
        return None
    blocks = _symmetry_blocks(fam)
    return _quotient_contains(fam, blocks, plan) if len(blocks) <= 2 else None


def _embedded_copy(fam: Family, plan: _Plan) -> dict[int, int] | None:
    """The embedder's copy, vertex -> member mask, or None; as in _quotient_contains,
    rows hold disjoint sets for one relation, proper supersets for (above, below)."""
    host = InducedKneser if len(plan.relations) == 1 else _SupersetHost
    assign = _embed(plan, len(fam), (host(fam).neighbor_mask,))
    return None if assign is None else {v: fam.members[i] for v, i in assign.items()}


def _static_copy(fam: Family, plan: _Plan) -> dict[int, int] | None:
    """The embedder's copy of the plan's pattern in a static family, or None;
    a host that the quotient finds free builds no row."""
    return None if _quotient_verdict(fam, plan) is False else _embedded_copy(fam, plan)


def _holds_copy(fam: Family, plan: _Plan) -> bool:
    """Whether a static family holds a copy, with no copy built: the
    quotient's verdict, or the embedder's on a host the quotient leaves."""
    found = _quotient_verdict(fam, plan)
    return found if found is not None else _embedded_copy(fam, plan) is not None


def contains_subgraph(fam: Family, pattern: PatternGraph) -> dict[int, int] | None:
    """Exhaustive search for a copy of the pattern, vertex -> member mask; None if absent."""
    return _static_copy(fam, _graph_plan(pattern))


def is_free(fam: Family, pattern: PatternGraph) -> bool:
    """True when the subgraph induced by the family contains no copy of the
    pattern: decided on Venn-atom counts where the host allows (_holds_copy)."""
    return not _holds_copy(fam, _graph_plan(pattern))


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
