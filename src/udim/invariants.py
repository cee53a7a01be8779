"""Structural invariants: pendant counts, terminal profiles, spanning-tree leaf minima.

Terminology used throughout: a *pendant* is a degree-1 vertex; a *major*
vertex has degree at least 3; a pendant is a *terminal* of a major vertex
when it is strictly closer to that major than to every other major; a
*support* vertex is adjacent to at least one pendant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotATreeError
from .graphs import Graph, SpanningTree, UnicyclicGraph, is_tree


@dataclass(frozen=True)
class TerminalProfile:
    """One major vertex with its terminals and their branch paths.

    ``paths[i]`` holds the vertices of the path from the major to
    ``terminals[i]``, excluding the major itself (so the terminal is
    included).  Terminals are ordered by (path length, label), which makes
    "the first terminal" well defined for the constructions.
    """

    major: int
    terminals: tuple[int, ...]
    paths: tuple[frozenset[int], ...]

    @property
    def terminal_degree(self) -> int:
        return len(self.terminals)


@dataclass(frozen=True)
class GraphInvariants:
    """The structural counts the bound chain is stated in.

    ``epsilon`` and the deleted edge of its spanning tree are only defined
    for unicyclic graphs, ``xi``/``theta`` only for trees; the fields are
    None when they do not apply.
    """

    n1: int
    ex: int
    rho: int
    kappa: int
    tau: int
    epsilon: int | None = None
    epsilon_deleted_edge: tuple[int, int] | None = None
    xi: int | None = None
    theta: int | None = None


def pendant_vertices(g: Graph) -> frozenset[int]:
    """The degree-1 vertices."""
    return frozenset(v for v in range(g.n) if g.degree(v) == 1)


def major_vertices(g: Graph) -> frozenset[int]:
    """The vertices of degree at least 3."""
    return frozenset(v for v in range(g.n) if g.degree(v) >= 3)


def _walk_to_major(g: Graph, pendant: int, majors: frozenset[int]) -> list[int] | None:
    """Follow the forced walk from a pendant until the first major vertex.

    Returns the walked vertices (pendant first, major last), or None when the
    walk ends at another degree-1 vertex, i.e. no major lies on the way (a
    path graph, or a path component of a disconnected graph).  The walk
    never revisits a vertex: it passes only degree-2 vertices, and the first
    one it came back to would be a major.
    """
    walk = [pendant]
    prev = -1
    cur = pendant
    while cur not in majors:
        nxts = [v for v in g.adjacency[cur] if v != prev]
        if not nxts:
            return None
        prev, cur = cur, nxts[0]
        walk.append(cur)
    return walk


def terminal_profiles(g: Graph) -> tuple[TerminalProfile, ...]:
    """One profile per major vertex, sorted by major label.

    Majors with no terminals get an empty profile.  Each pendant belongs to
    at most one profile: the strictly nearest major, which for a pendant is
    always the first major on its forced walk outward.
    """
    majors = major_vertices(g)
    if not majors:
        return ()
    collected: dict[int, list[tuple[int, int, frozenset[int]]]] = {m: [] for m in majors}
    for p in sorted(pendant_vertices(g)):
        walk = _walk_to_major(g, p, majors)
        if walk is None:
            continue
        major = walk[-1]
        branch = frozenset(walk[:-1])
        collected[major].append((len(branch), p, branch))
    profiles = []
    for m in sorted(majors):
        entries = sorted(collected[m])
        profiles.append(
            TerminalProfile(
                major=m,
                terminals=tuple(p for _, p, _ in entries),
                paths=tuple(branch for _, _, branch in entries),
            )
        )
    return tuple(profiles)


def exterior_major_count(g: Graph) -> int:
    """Number of major vertices with at least one terminal."""
    return sum(1 for p in g.terminal_profiles if p.terminal_degree >= 1)


def rho(g: Graph) -> int:
    """Number of support vertices adjacent to more than one pendant."""
    return sum(1 for group in support_leaf_groups(g).values() if len(group) >= 2)


def kappa_tau(g: Graph) -> tuple[int, int]:
    """(number of exterior majors with terminal degree > 1, their max terminal degree).

    tau is 0 when no such vertex exists.
    """
    degrees = [p.terminal_degree for p in g.terminal_profiles if p.terminal_degree >= 2]
    if not degrees:
        return (0, 0)
    return (len(degrees), max(degrees))


def support_leaf_groups(g: Graph) -> dict[int, tuple[int, ...]]:
    """Map each support vertex to its adjacent pendants, sorted by label."""
    groups: dict[int, list[int]] = {}
    for w in sorted(pendant_vertices(g)):
        groups.setdefault(g.adjacency[w][0], []).append(w)
    return {s: tuple(ws) for s, ws in groups.items()}


def xi_theta(t: Graph) -> tuple[int, int]:
    """(number of support vertices, max leaves adjacent to any support) of a tree."""
    if not is_tree(t):
        raise NotATreeError("support/leaf counts are only defined for trees")
    groups = support_leaf_groups(t)
    if not groups:
        return (0, 0)
    return (len(groups), max(len(ls) for ls in groups.values()))


def epsilon(u: UnicyclicGraph) -> tuple[int, SpanningTree]:
    """Minimum leaf count over the k spanning trees, with the achieving tree.

    Ties are broken by the lexicographically smallest deleted edge so that
    downstream constructions are reproducible.
    """
    leaves, _, tree = min(
        (len(pendant_vertices(t.graph)), t.deleted_edge, t) for t in u.spanning_trees
    )
    return (leaves, tree)


def graph_invariants(g: Graph, unicyclic: UnicyclicGraph | None = None) -> GraphInvariants:
    """Aggregate all counts that apply to a graph.

    Pass the validated UnicyclicGraph to get epsilon and its tree's deleted
    edge; xi/theta are filled in automatically when the graph is a tree.
    """
    n1 = len(pendant_vertices(g))
    ex = exterior_major_count(g)
    k, t = kappa_tau(g)
    eps, eps_tree = unicyclic.epsilon if unicyclic is not None else (None, None)
    if is_tree(g):
        xi_val, theta_val = xi_theta(g)
    else:
        xi_val = theta_val = None
    return GraphInvariants(
        n1=n1, ex=ex, rho=rho(g), kappa=k, tau=t,
        epsilon=eps, epsilon_deleted_edge=eps_tree and eps_tree.deleted_edge,
        xi=xi_val, theta=theta_val,
    )
