"""Immutable graph core: parsing, distances, cycle extraction, spanning trees.

Vertices are dense 0-based integers so that distance matrices can be plain
index-addressed tuples.  All types are frozen and safe to share across
workers.  A graph keeps its distance matrix, and a unicyclic graph its
spanning trees, built once on first use; it caches nothing else.  A spanning
tree derives its distance matrix from its unicyclic graph's instead of
running a BFS of its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

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
    # Set on a spanning tree of a unicyclic graph: the graph's layout and the
    # index i of the deleted cycle edge c_i c_(i+1), from which the tree's
    # distances are derived.  Not part of the graph's value.
    _cut: tuple[_CycleLayout, int] | None = field(default=None, compare=False, repr=False)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

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
        if self._cut is not None:
            return _tree_distances(*self._cut)
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
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"not UTF-8 text: bad byte at offset {exc.start}") from None
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


def _bfs(g: Graph, s: int) -> list[int]:
    """Hop distances from s to every vertex, -1 for those s does not reach."""
    dist = [-1] * g.n
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    return g.n > 0 and -1 not in _bfs(g, 0)


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and is_connected(g)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS-exact hop distances between all vertex pairs.

    Raises DisconnectedGraphError if any pair is unreachable.
    """
    rows: list[tuple[int, ...]] = []
    for s in range(g.n):
        dist = _bfs(g, s)
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
    # Connected with |E| = |V|: exactly one cycle is left, each vertex of degree 2.
    core = [v for v in range(g.n) if alive[v]]
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


@dataclass(frozen=True)
class _CycleLayout:
    """A unicyclic graph's distance matrix and cycle.  It holds no link to the
    graph, so its spanning trees hold none either."""

    distances: DistanceMatrix
    cycle: tuple[int, ...]

    @cached_property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """(cycle roots, distances, same cycle root, depth sum) as arrays,
        built on the first tree derivation and shared by all k trees.  A
        vertex's root is its nearest cycle vertex, as an index into the cycle,
        and its depth the distance to it."""
        dist = np.array(self.distances)
        to_cycle = dist[:, self.cycle]
        root, depth = to_cycle.argmin(axis=1), to_cycle.min(axis=1)
        return root, dist, root[:, None] == root[None, :], depth[:, None] + depth[None, :]


def _tree_distances(layout: _CycleLayout, i: int) -> DistanceMatrix:
    """The distance matrix of the spanning tree that deletes cycle edge
    c_i c_(i+1), derived from the unicyclic graph's.

    The cut turns the cycle into the path c_(i+1), ..., c_i, on which c_j sits
    at p_j = (j - i - 1) mod k.  Vertices x, y with one cycle root keep their
    distance; otherwise d_T(x, y) = depth(x) + depth(y) + |p(x) - p(y)|.  This
    is a distance identity, not one of the bounds the suite checks.
    """
    root, dist, same_root, depth_sum = layout.arrays
    p = (root - (i + 1)) % len(layout.cycle)
    tree = np.where(same_root, dist, depth_sum + np.abs(p[:, None] - p[None, :]))
    return tuple(map(tuple, tree.tolist()))


def spanning_trees(u: UnicyclicGraph) -> tuple[SpanningTree, ...]:
    """All k spanning trees, one per deleted cycle edge, in cycle-edge order.

    Each tree derives its distance matrix from the graph's on first use
    (``_tree_distances``); the graph's matrix is built here.
    """
    g = u.graph
    layout = _CycleLayout(g.distances, u.cycle)
    trees = []
    for i, (a, b) in enumerate(u.cycle_edges()):
        adjacency = list(g.adjacency)
        adjacency[a] = tuple(w for w in adjacency[a] if w != b)
        adjacency[b] = tuple(w for w in adjacency[b] if w != a)
        tree_graph = Graph(g.n, tuple(adjacency), _cut=(layout, i))
        trees.append(SpanningTree(graph=tree_graph, deleted_edge=(a, b)))
    return tuple(trees)
