"""Immutable graph core: parsing, distances, cycle extraction, spanning trees.

Vertices are dense 0-based integers so that distance matrices can be plain
index-addressed tuples.  All types are frozen and safe to share across
workers.  A graph computes its distance matrix, and a unicyclic graph its
spanning trees, once, on first use, and keeps them for its lifetime.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    NotUnicyclicError,
)

DistanceMatrix = tuple[tuple[int, ...], ...]


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over vertex ids 0..n-1 with sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    @cached_property
    def distances(self) -> DistanceMatrix:
        """The all-pairs distance matrix, built on first use and kept."""
        return all_pairs_distances(self)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph on vertices 0..n-1, rejecting loops, duplicates and bad ids."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) uses a vertex id outside 0..{n - 1}")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        e = _norm_edge(u, v)
        if e in seen:
            raise GraphFormatError(f"duplicate edge {e[0]} {e[1]}")
        seen.add(e)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return Graph(n=n, adjacency=tuple(tuple(sorted(a)) for a in adjacency))


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse the edge-list text format.

    One edge per line: two whitespace-separated nonnegative integers.  Lines
    starting with ``#`` and blank lines are ignored.  Vertex ids must be dense
    (every id in 0..max appears); duplicate edges, in either orientation, are
    hard errors rather than silently merged.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    used: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        e = _norm_edge(u, v)
        if e in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {e[0]} {e[1]}")
        seen.add(e)
        used.update(e)
        edges.append(e)
    if not edges:
        raise GraphFormatError("edge list contains no edges")
    n = max(used) + 1
    if len(used) < n:
        first = next(v for v in range(n) if v not in used)
        raise GraphFormatError(
            f"vertex ids are not dense 0..{n - 1}: {n - len(used)} missing, "
            f"the first is {first}"
        )
    return graph_from_edges(n, edges)


def to_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list text format (inverse of parse_edge_list)."""
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                queue.append(v)
    return count == g.n


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and is_connected(g)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS-exact hop distances between all vertex pairs.

    Raises DisconnectedGraphError if any pair is unreachable.
    """
    n = g.n
    rows: list[tuple[int, ...]] = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v in g.adjacency[u]:
                if dist[v] < 0:
                    dist[v] = du + 1
                    queue.append(v)
        if -1 in dist:
            raise DisconnectedGraphError(
                f"vertex {dist.index(-1)} is unreachable from vertex {s}"
            )
        rows.append(tuple(dist))
    return tuple(rows)


@dataclass(frozen=True)
class UnicyclicGraph:
    """A validated connected graph with exactly one cycle.

    The cycle is stored in canonical order: c0 is the smallest-labeled cycle
    vertex and c1 the smaller-labeled of c0's two cycle neighbours, so the
    same labeled graph always yields the same orientation.
    """

    graph: Graph
    cycle: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.cycle)

    def cycle_edges(self) -> tuple[tuple[int, int], ...]:
        """Cycle edges as normalized pairs, in cycle order c0c1, c1c2, ..., c(k-1)c0."""
        k = len(self.cycle)
        return tuple(
            _norm_edge(self.cycle[i], self.cycle[(i + 1) % k]) for i in range(k)
        )

    def is_cycle_graph(self) -> bool:
        return self.graph.n == len(self.cycle)

    @cached_property
    def spanning_trees(self) -> tuple[SpanningTree, ...]:
        """The k spanning trees, built on first use and kept."""
        return spanning_trees(self)


def validate_unicyclic(g: Graph) -> UnicyclicGraph:
    """Check connectivity and |E| = |V|, then extract the canonical cycle.

    The cycle is found by repeatedly peeling degree-1 vertices; whatever
    remains is exactly the cycle of a unicyclic graph.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")
    if g.edge_count != g.n:
        raise NotUnicyclicError(
            f"|E| = {g.edge_count} but |V| = {g.n}; a unicyclic graph needs |E| = |V|"
        )
    degree = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    queue = deque(v for v in range(g.n) if degree[v] == 1)
    while queue:
        u = queue.popleft()
        alive[u] = False
        for v in g.adjacency[u]:
            if alive[v]:
                degree[v] -= 1
                if degree[v] == 1:
                    queue.append(v)
    core = [v for v in range(g.n) if alive[v]]
    if len(core) < 3 or any(degree[v] != 2 for v in core):
        raise NotUnicyclicError("cycle extraction failed; graph is not unicyclic")
    core_set = set(core)
    c0 = min(core)
    nbrs = [v for v in g.adjacency[c0] if v in core_set]
    cycle = [c0, min(nbrs)]
    while len(cycle) < len(core):
        prev, cur = cycle[-2], cycle[-1]
        nxt = next(v for v in g.adjacency[cur] if v in core_set and v != prev)
        cycle.append(nxt)
    return UnicyclicGraph(graph=g, cycle=tuple(cycle))


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a unicyclic graph, obtained by deleting one cycle edge."""

    graph: Graph
    deleted_edge: tuple[int, int]
    parent: UnicyclicGraph


def spanning_trees(u: UnicyclicGraph) -> tuple[SpanningTree, ...]:
    """All k spanning trees, one per deleted cycle edge, in cycle-edge order."""
    g = u.graph
    all_edges = list(g.edges())
    trees = []
    for removed in u.cycle_edges():
        tree_graph = graph_from_edges(g.n, (e for e in all_edges if e != removed))
        trees.append(SpanningTree(graph=tree_graph, deleted_edge=removed, parent=u))
    return tuple(trees)
