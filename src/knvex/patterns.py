"""Forbidden pattern graphs: named constructors, bipartitions, odd girth.

Patterns are tiny (at most 16 vertices) simple graphs on labels 0..m-1.
Canonical labelings of the named families:

  matching k          vertices 0..2k-1, edges (0,1), (2,3), ...
  star t              center 0, leaves 1..t
  cycle l             edges (i, i+1 mod l)
  clique r            all pairs on 0..r-1
  complete_bipartite  s vertices 0..s-1 against t vertices s..s+t-1
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .sets import naming_line, read_numbered

MAX_PATTERN_VERTICES = 16


def _check_vertex_count(vertex_count: int) -> None:
    if not 1 <= vertex_count <= MAX_PATTERN_VERTICES:
        raise ValueError(f"vertex count must be 1..{MAX_PATTERN_VERTICES}")


def _edge(vertex_count: int, u: int, v: int) -> tuple[int, int]:
    """The edge {u, v} as (smaller, larger), checked against the vertex count."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    if not (0 <= u < vertex_count and 0 <= v < vertex_count):
        raise ValueError(f"edge ({u},{v}) outside 0..{vertex_count - 1}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class PatternGraph:
    """Simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def make(cls, vertex_count: int, edges) -> "PatternGraph":
        _check_vertex_count(vertex_count)
        return cls(vertex_count, frozenset(_edge(vertex_count, u, v) for u, v in edges))

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        rows = [0] * self.vertex_count
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adjacency)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> list[int]:
        return [u for u in range(self.vertex_count) if self.adjacency[v] >> u & 1]


@dataclass(frozen=True)
class Bipartition:
    """A proper 2-coloring; every edge crosses between the two sides."""

    side_a: frozenset[int]
    side_b: frozenset[int]


def make_pattern(kind: str, *params: int) -> PatternGraph:
    """Build one of the named pattern families (see module docstring)."""
    if kind == "matching":
        (k,) = params
        if k < 1:
            raise ValueError("matching needs at least 1 edge")
        return PatternGraph.make(2 * k, ((2 * i, 2 * i + 1) for i in range(k)))
    if kind == "star":
        (t,) = params
        if t < 1:
            raise ValueError("star needs at least 1 leaf")
        return PatternGraph.make(t + 1, ((0, i) for i in range(1, t + 1)))
    if kind == "cycle":
        (length,) = params
        if length < 3:
            raise ValueError("cycle length must be at least 3")
        return PatternGraph.make(length, ((i, (i + 1) % length) for i in range(length)))
    if kind == "clique":
        (r,) = params
        if r < 1:
            raise ValueError("clique size must be at least 1")
        return PatternGraph.make(r, ((i, j) for i in range(r) for j in range(i + 1, r)))
    if kind == "complete_bipartite":
        s, t = params
        if s < 1 or t < 1:
            raise ValueError("complete bipartite sides must be nonempty")
        return PatternGraph.make(s + t, ((i, s + j) for i in range(s) for j in range(t)))
    raise ValueError(f"unknown pattern kind {kind!r}")


_NAME_RE = re.compile(r"(M|S|C|K)([0-9]+)")
_KST_RE = re.compile(r"K([0-9]+),([0-9]+)")


def parse_pattern(name: str) -> PatternGraph:
    """Resolve a CLI pattern name like M2, S3, C5, K4 or K2,3."""
    m = _KST_RE.fullmatch(name)
    if m:
        return make_pattern("complete_bipartite", int(m.group(1)), int(m.group(2)))
    m = _NAME_RE.fullmatch(name)
    if m:
        kind = {"M": "matching", "S": "star", "C": "cycle", "K": "clique"}[m.group(1)]
        return make_pattern(kind, int(m.group(2)))
    raise ValueError(f"unknown pattern name {name!r}")


def _double_cover_distances(graph: PatternGraph, start: int) -> dict[tuple[int, int], int]:
    """BFS distances from (start, 0) on the bipartite double cover, whose
    nodes are (vertex, parity) and whose edges flip the parity."""
    dist = {(start, 0): 0}
    queue = deque([(start, 0)])
    while queue:
        v, parity = queue.popleft()
        for u in graph.neighbors(v):
            node = (u, 1 - parity)
            if node not in dist:
                dist[node] = dist[(v, parity)] + 1
                queue.append(node)
    return dist


def bipartition(graph: PatternGraph) -> Bipartition | None:
    """2-color the graph if bipartite, else None.

    Canonical choice: within each component, the color class holding the
    lowest-numbered vertex goes to side_a.  A component is bipartite iff its
    smallest vertex has no odd walk to itself; then each vertex has one parity.
    """
    sides: tuple[set[int], set[int]] = (set(), set())
    for start in range(graph.vertex_count):
        if start in sides[0] or start in sides[1]:
            continue
        dist = _double_cover_distances(graph, start)
        if (start, 1) in dist:
            return None
        for v, parity in dist:
            sides[parity].add(v)
    return Bipartition(frozenset(sides[0]), frozenset(sides[1]))


@lru_cache(maxsize=None)
def odd_girth(graph: PatternGraph) -> int | None:
    """Length of the shortest odd cycle; None when the graph is bipartite.

    BFS on the bipartite double cover: the shortest odd closed walk through v
    is the (v,0) -> (v,1) distance, and a shortest odd closed walk is a cycle.
    """
    dists = (_double_cover_distances(graph, v) for v in range(graph.vertex_count))
    return min((dist[(v, 1)] for v, dist in enumerate(dists) if (v, 1) in dist), default=None)


def is_matching(graph: PatternGraph) -> bool:
    """True when the maximum degree is at most 1."""
    return all(d <= 1 for d in graph.degrees)


def pattern_to_text(graph: PatternGraph) -> str:
    """Serialize: "p <vertex_count>" then one "u v" edge line, 0-indexed."""
    lines = [f"p {graph.vertex_count}"]
    for u, v in sorted(graph.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def pattern_from_text(text: str) -> PatternGraph:
    """Parse the pattern text format produced by pattern_to_text; see read_numbered.
    A vertex count or an edge that PatternGraph.make rejects is a ValueError
    naming its line."""
    count, items = read_numbered(text, "p ", None, 2, 0, _check_vertex_count)
    edges = set()
    for i, _, (u, v) in items:
        with naming_line(i):
            edges.add(_edge(count, u, v))
    return PatternGraph(count, frozenset(edges))
