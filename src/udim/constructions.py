"""Constructive certificates for the upper bounds on dim and pd.

Every construction assembles a concrete resolving set or ordered partition
from the structural decomposition of a unicyclic graph, then verifies it
through the independent distance checkers.  A failed verification is
reported in the certificate (with a twin pair), never silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import DistanceMatrix, SpanningTree, UnicyclicGraph
from .invariants import (
    epsilon,
    pendant_vertices,
    rho,
    support_leaf_groups,
    terminal_profiles,
    xi_theta,
)
from .resolve import (
    OrderedPartition,
    check_resolving_partition,
    check_resolving_set,
)


@dataclass(frozen=True)
class CertifiedConstruction:
    """A constructed resolving object together with its verification outcome.

    ``verified`` is True only when the checker accepted the object and its
    size does not exceed the claimed bound.  ``witness`` carries the twin
    pair on checker failure.
    """

    name: str
    payload: OrderedPartition | frozenset[int]
    claimed_bound: int
    verified: bool
    witness: tuple[int, int] | None = None

    @property
    def kind(self) -> str:
        return "partition" if isinstance(self.payload, OrderedPartition) else "set"

    @property
    def size(self) -> int:
        if isinstance(self.payload, OrderedPartition):
            return self.payload.t
        return len(self.payload)

    def to_json(self) -> dict:
        if isinstance(self.payload, OrderedPartition):
            obj = self.payload.to_lists()
        else:
            obj = sorted(self.payload)
        return {
            "name": self.name,
            "kind": self.kind,
            "object": obj,
            "size": self.size,
            "claimed_bound": self.claimed_bound,
            "verified": self.verified,
            "witness": list(self.witness) if self.witness else None,
        }


def _certify(
    name: str, dm: DistanceMatrix, payload: frozenset[int] | list[set[int]], bound: int
) -> CertifiedConstruction:
    """Check a vertex set, or an ordered list of parts less its empty ones."""
    if isinstance(payload, frozenset):
        w = check_resolving_set(dm, payload)
        size = len(payload)
    else:
        payload = OrderedPartition(parts=tuple(frozenset(p) for p in payload if p))
        w = check_resolving_partition(dm, payload)
        size = payload.t
    return CertifiedConstruction(
        name=name,
        payload=payload,
        claimed_bound=bound,
        verified=w.resolving and size <= bound,
        witness=w.twins,
    )


def pendant_resolving_set(u: UnicyclicGraph) -> CertifiedConstruction:
    """Resolving set of size n1 - rho when every cycle vertex has degree >= 3.

    The set keeps all pendants except, for each support with several
    pendants, the largest-labeled one.
    """
    g = u.graph
    for c in u.cycle:
        if g.degree(c) < 3:
            raise PreconditionError(
                f"cycle vertex {c} has degree {g.degree(c)}; "
                "every cycle vertex must have degree greater than two"
            )
    pendants = pendant_vertices(g)
    dropped = {group[-1] for group in support_leaf_groups(g).values() if len(group) >= 2}
    chosen = frozenset(pendants - dropped)
    bound = len(pendants) - rho(g)
    return _certify("pendant-set", g.distances, chosen, bound)


def cycle_partition(u: UnicyclicGraph) -> CertifiedConstruction:
    """A 3-part resolving partition of a cycle graph.

    Uses {c0}, the arc c1..c(n//2), and the remaining arc; a checker
    rejection is reported in the certificate like any other construction.
    """
    if not u.is_cycle_graph():
        raise PreconditionError("graph is not a cycle")
    cyc = u.cycle
    n = len(cyc)
    parts = [
        {cyc[0]},
        set(cyc[1 : n // 2 + 1]),
        set(cyc[n // 2 + 1 :]),
    ]
    return _certify("cycle-partition", u.graph.distances, parts, 3)


def _branch_sets(g, cycle: tuple[int, ...]) -> dict[int, set[int]]:
    """Per cycle vertex, the vertex together with its pendant-path branch.

    Only valid when every exterior major vertex lies on the cycle with degree
    three and terminal degree one; raises PreconditionError otherwise.
    """
    profiles = terminal_profiles(g)
    if not any(p.terminal_degree >= 1 for p in profiles):
        raise PreconditionError("graph has no exterior major vertex")
    sets = {c: {c} for c in cycle}
    for p in profiles:
        if p.terminal_degree != 1:
            raise PreconditionError(
                f"major vertex {p.major} has terminal degree {p.terminal_degree}; "
                "every exterior major vertex must have terminal degree one"
            )
        if p.major not in sets or g.degree(p.major) != 3:
            raise PreconditionError(
                f"major vertex {p.major} must lie on the cycle with degree three"
            )
        sets[p.major] |= p.paths[0]
    # The sets cover the graph: past the checks above, every leaf walk ends on the cycle.
    return sets


def _cycle_from(cycle: tuple[int, ...], x: int, y: int) -> list[int]:
    """The cycle rotated to start at x, oriented so that y comes second."""
    i = cycle.index(x)
    cyc = list(cycle[i:] + cycle[:i])
    return cyc if cyc[1] == y else [x] + cyc[:0:-1]


def unit_terminal_partition(u: UnicyclicGraph) -> CertifiedConstruction:
    """A 3-part resolving partition when every exterior major has one terminal.

    The cycle is re-anchored at the smallest-labeled exterior major, oriented
    toward its smaller cycle neighbour; the branch sets W_i (a cycle vertex
    plus its pendant path) are then grouped according to the parity of the
    cycle length.
    """
    g = u.graph
    branches = _branch_sets(g, u.cycle)
    anchor = min(c for c, branch in branches.items() if len(branch) > 1)  # exterior major
    i = u.cycle.index(anchor)
    cyc = _cycle_from(u.cycle, anchor, min(u.cycle[i - 1], u.cycle[(i + 1) % u.k]))
    w = [branches[c] for c in cyc]
    k = len(cyc)
    if k % 2 == 0:
        half = k // 2
        parts = [w[0], w[half] | w[half + 1], set()]
        parts[2] = set(range(g.n)) - parts[0] - parts[1]
    elif k == 3:
        parts = [w[0], w[1], w[2]]
    else:
        b1 = w[0] | w[1]
        b2 = w[k // 2] | w[k // 2 + 1]
        parts = [b1, b2, set(range(g.n)) - b1 - b2]
    return _certify("unit-terminal", g.distances, parts, 3)


def _pooled(groups: list, depth: int) -> list[set[int]]:
    """Parts from groups of vertex sets: the first member of each group as
    its own part, in group order, then for j = 2..depth the j-th members of
    all groups pooled into one part."""
    firsts = [set(group[0]) for group in groups]
    return firsts + [
        set().union(*(group[j] for group in groups if len(group) > j))
        for j in range(1, depth)
    ]


def kappa_tau_partition(u: UnicyclicGraph) -> CertifiedConstruction:
    """A resolving partition of at most kappa + tau + 1 parts.

    Requires at least one exterior major vertex of terminal degree greater
    than one.  The parts are: a single cycle vertex v next to the cycle
    vertex nearest the smallest such major; the rest of the cycle; the first
    branch of each such major; the j-th branches pooled for j = 2..tau-1;
    and the remainder.
    """
    g = u.graph
    profiles = [p for p in terminal_profiles(g) if p.terminal_degree >= 2]
    if not profiles:
        raise PreconditionError(
            "graph has no exterior major vertex of terminal degree greater than one"
        )
    kappa, tau = len(profiles), max(p.terminal_degree for p in profiles)
    dm = g.distances
    s_l = profiles[0].major
    near = min(u.cycle, key=lambda c: (dm[c][s_l], c))
    v = min(c for c in g.adjacency[near] if c in set(u.cycle))
    parts = [{v}, set(u.cycle) - {v}, *_pooled([p.paths for p in profiles], tau - 1)]
    parts.append(set(range(g.n)).difference(*parts))
    return _certify("kappa-tau", dm, parts, kappa + tau + 1)


def xi_theta_partition(u: UnicyclicGraph) -> CertifiedConstruction:
    """A resolving partition of at most xi(T) + theta(T) parts, T the epsilon tree.

    Supports of T are enumerated by label and their adjacent leaves by label;
    the first leaf of each support becomes its own part, the j-th leaves are
    pooled for j = 2..theta, and everything else forms one part.  The result
    is verified against distances in the unicyclic graph, not the tree.
    """
    if u.is_cycle_graph():
        raise PreconditionError("graph is a cycle; the bound needs a branch vertex")
    g = u.graph
    # A minimum-leaf tree of a non-cycle graph cuts an edge at a vertex of degree >= 3.
    _, tree = epsilon(u)
    groups = support_leaf_groups(tree.graph)
    xi, theta = xi_theta(tree.graph)
    pooled = _pooled([[{leaf} for leaf in groups[s]] for s in sorted(groups)], theta)
    parts = [set(range(g.n)).difference(*pooled), *pooled]
    return _certify("xi-theta", g.distances, parts, xi + theta)


def lift_tree_partition(
    u: UnicyclicGraph, pi_t: OrderedPartition, tree: SpanningTree
) -> CertifiedConstruction:
    """Lift a resolving partition of a spanning tree back to the unicyclic graph.

    With the deleted edge relabeled c0c1 and D = {c0, c1, c(k//2)}, the lifted
    partition keeps every nonempty part minus D and adds the members of D as
    singletons; its size is at most |pi_t| + 3 (possibly less).  The lifted
    partition is not always resolving: ``verified`` and ``witness`` carry the
    checker's verdict and, on failure, the first twin pair it found.  ``tree``
    must equal one of ``u.spanning_trees``.
    """
    if tree not in u.spanning_trees:
        raise PreconditionError("spanning tree does not belong to this graph")
    tree_check = check_resolving_partition(tree.graph.distances, pi_t)
    if not tree_check.resolving:
        raise PreconditionError(
            f"partition does not resolve the spanning tree; twins {tree_check.twins}"
        )
    cyc = _cycle_from(u.cycle, *tree.deleted_edge)
    k = len(cyc)
    anchors = list(dict.fromkeys((cyc[0], cyc[1], cyc[k // 2])))
    parts = [set(p).difference(anchors) for p in pi_t.parts]
    parts.extend({c} for c in anchors)
    return _certify("lift", u.graph.distances, parts, pi_t.t + 3)


# The bound-chain certificates, in report order: the ``construct`` name, the
# function that builds it, and the bound record its certificate backs.  A
# construction applies to a graph iff its function does not raise
# PreconditionError.  Each lambda looks the module function up at call time,
# so a wrapper installed on it (a profiler, the benchmark's tracer) sees
# every call.
CONSTRUCTIONS = (
    ("pendant-set", lambda u: pendant_resolving_set(u), "dim_pendant_support"),
    ("cycle", lambda u: cycle_partition(u), "pd_unit_terminal"),
    ("unit-terminal", lambda u: unit_terminal_partition(u), "pd_unit_terminal"),
    ("kappa-tau", lambda u: kappa_tau_partition(u), "pd_kappa_tau"),
    ("xi-theta", lambda u: xi_theta_partition(u), "pd_support_leaf.upper"),
)
