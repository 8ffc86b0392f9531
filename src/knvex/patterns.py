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

MAX_PATTERN_VERTICES = 16


@dataclass(frozen=True)
class PatternGraph:
    """Simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def make(cls, vertex_count: int, edges) -> "PatternGraph":
        if not 1 <= vertex_count <= MAX_PATTERN_VERTICES:
            raise ValueError(f"vertex count must be 1..{MAX_PATTERN_VERTICES}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) outside 0..{vertex_count - 1}")
            norm.add((min(u, v), max(u, v)))
        return cls(vertex_count, frozenset(norm))

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


_NAME_RE = re.compile(r"^(M|S|C|K)(\d+)$")
_KST_RE = re.compile(r"^K(\d+),(\d+)$")


def parse_pattern(name: str) -> PatternGraph:
    """Resolve a CLI pattern name like M2, S3, C5, K4 or K2,3."""
    m = _KST_RE.match(name)
    if m:
        return make_pattern("complete_bipartite", int(m.group(1)), int(m.group(2)))
    m = _NAME_RE.match(name)
    if m:
        kind = {"M": "matching", "S": "star", "C": "cycle", "K": "clique"}[m.group(1)]
        return make_pattern(kind, int(m.group(2)))
    raise ValueError(f"unknown pattern name {name!r}")


def bipartition(graph: PatternGraph) -> Bipartition | None:
    """2-color the graph if bipartite, else None.

    Canonical choice: within each component, the color class holding the
    lowest-numbered vertex goes to side_a.
    """
    color = [-1] * graph.vertex_count
    side_a, side_b = set(), set()
    for start in range(graph.vertex_count):
        if color[start] != -1:
            continue
        color[start] = 0
        comp = {0: [start], 1: []}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in graph.neighbors(v):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    comp[color[u]].append(u)
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
        side_a.update(comp[0])
        side_b.update(comp[1])
    return Bipartition(frozenset(side_a), frozenset(side_b))


@lru_cache(maxsize=None)
def odd_girth(graph: PatternGraph) -> int | None:
    """Length of the shortest odd cycle; None when the graph is bipartite.

    BFS on the bipartite double cover: the shortest odd closed walk through v
    is the (v,0) -> (v,1) distance, and a shortest odd closed walk is a cycle.
    """
    best = None
    for start in range(graph.vertex_count):
        dist = {(start, 0): 0}
        queue = deque([(start, 0)])
        while queue:
            v, parity = queue.popleft()
            for u in graph.neighbors(v):
                node = (u, 1 - parity)
                if node not in dist:
                    dist[node] = dist[(v, parity)] + 1
                    queue.append(node)
        if (start, 1) in dist:
            d = dist[(start, 1)]
            if best is None or d < best:
                best = d
    return best


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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("p "):
        raise ValueError("pattern text must start with a 'p <vertex_count>' line")
    count = int(lines[0].split()[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return PatternGraph.make(count, edges)
