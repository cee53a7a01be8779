"""Bound-chain reports, instance generators, and the conjecture scanner.

The bound chain relates dim(G) and pd(G) of a unicyclic graph to counts on
its spanning trees (leaves, exterior majors, supports).  Reports evaluate
every bound, flag applicability per the stated hypothesis, and check
satisfaction against the exact solvers when the instance is within caps.
"""

from __future__ import annotations

import os
import random
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial
from operator import eq, ge, le
from typing import Iterable, Iterator, Sequence

from .constructions import CONSTRUCTIONS, CertifiedConstruction
from .errors import PreconditionError, SolverCapError, UdimError
from .graphs import (
    Graph,
    UnicyclicGraph,
    graph_from_edges,
    is_tree,
    validate_unicyclic,
)
from .invariants import (
    exterior_major_count,
    graph_invariants,
    kappa_tau,
    pendant_vertices,
    xi_theta,
)
from .resolve import (
    DEFAULT_DIM_CAP,
    DEFAULT_PD_CAP,
    check_cap,
    metric_dimension_exact,
    partition_dimension_exact,
)

RANDOM_SCHEME = "mt19937/cycle-prefix/uniform-forest-rejection/v1"


# -- instance generators -------------------------------------------------------


def gen_path(n: int) -> Graph:
    """The path 0-1-...-(n-1)."""
    if n < 1:
        raise UdimError("a path needs at least one vertex")
    return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))


def gen_cycle(n: int) -> UnicyclicGraph:
    """The cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise UdimError("a cycle needs at least three vertices")
    return _build_decorated_cycle(n, ((),) * n)


def gen_c4k(k: int) -> UnicyclicGraph:
    """A 4-cycle 0-1-2-3 with k pendants 4..3+k attached to vertex 0."""
    if k < 2:
        raise UdimError("gen_c4k needs k >= 2")
    return _build_decorated_cycle(4, (((),) * k, (), (), ()))


def gen_sun(k: int) -> UnicyclicGraph:
    """A k-cycle where every cycle vertex carries k pendants (k + k^2 vertices)."""
    if k < 3:
        raise UdimError("gen_sun needs k >= 3")
    return _build_decorated_cycle(k, (((),) * k,) * k)


def gen_random_unicyclic(n: int, seed: int) -> UnicyclicGraph:
    """Deterministic random unicyclic graph on n vertices.

    The cycle length is uniform in 3..n on vertices 0..len-1; the remaining
    vertices get a uniformly random rooted forest hanging from the rest,
    sampled by rejection (parent maps are redrawn until acyclic).
    """
    if n < 3:
        raise UdimError("a unicyclic graph needs at least three vertices")
    rng = random.Random(seed)
    k = rng.randint(3, n)
    edges = [(i, (i + 1) % k) for i in range(k)]
    rest = list(range(k, n))
    while True:
        parent = {w: rng.randrange(n) for w in rest}
        if all(_reaches_cycle(parent, w, k) for w in rest):
            break
    edges.extend((w, p) for w, p in parent.items())
    return validate_unicyclic(graph_from_edges(n, edges))


def _reaches_cycle(parent: dict[int, int], w: int, k: int) -> bool:
    """Whether the parent chain from w reaches a cycle vertex (a label below
    k) rather than looping among the forest vertices."""
    for _ in range(len(parent) + 1):
        if w < k:
            return True
        w = parent[w]
    return False


def gen_exhaustive_unicyclic(n: int, *, dedup: bool = True) -> Iterator[UnicyclicGraph]:
    """One graph per isomorphism class of unicyclic graphs on 3 <= n <= 12
    vertices, generated directly from canonical cycle decorations.

    Every per-graph claim is invariant under isomorphism, so the classes are
    what the scan covers.  ``dedup`` is kept for callers that still pass
    ``dedup=True``; there is no labeled stream, so False is an error.  Both
    are checked at the call, before the first graph is generated.
    """
    if not dedup:
        raise UdimError("exhaustive generation yields isomorphism classes only")
    if not 3 <= n <= 12:
        raise UdimError("exhaustive generation supports 3 <= n <= 12")
    return _unicyclic_classes(n)


# -- unlabeled enumeration via canonical rooted trees --------------------------

Code = tuple  # nested tuples; () is the single-vertex tree


@lru_cache(maxsize=None)
def _rooted_trees(size: int) -> tuple[Code, ...]:
    """All unlabeled rooted trees of the given size, as canonical child tuples."""
    if size == 1:
        return ((),)
    return tuple(_child_multisets(size - 1, None))


def _child_multisets(total: int, bound: tuple[int, Code] | None) -> Iterator[Code]:
    """Child lists of given total size in nonincreasing (size, code) order."""
    if total == 0:
        yield ()
        return
    max_size = total if bound is None else min(total, bound[0])
    for size in range(max_size, 0, -1):
        for code in _rooted_trees(size):
            key = (size, code)
            if bound is not None and key > bound:
                continue
            for rest in _child_multisets(total - size, key):
                yield ((code,) + rest)


def _decoration_tuples(n: int, k: int) -> Iterator[tuple[Code, ...]]:
    """All k-tuples of rooted trees with total size n (sizes >= 1 each)."""
    if k == 0:
        if n == 0:
            yield ()
        return
    # The first tree leaves at least one vertex for each of the k - 1 others.
    for size in range(1, n - k + 2):
        for code in _rooted_trees(size):
            for rest in _decoration_tuples(n - size, k - 1):
                yield (code,) + rest


def _bracelet_canonical(tup: tuple[Code, ...]) -> tuple[Code, ...]:
    k = len(tup)
    best = None
    for seq in (tup, tup[::-1]):
        for r in range(k):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    return best


def _code_edges(root: int, code: Code, label: int, edges: list[tuple[int, int]]) -> int:
    """Append the edges of the rooted tree ``code`` hung from ``root``, its
    new vertices labelled in preorder from ``label``; return the next label."""
    for child in code:
        edges.append((root, label))
        label = _code_edges(label, child, label + 1, edges)
    return label


def _build_decorated_cycle(k: int, decoration: tuple[Code, ...]) -> UnicyclicGraph:
    """The cycle 0..k-1 with the rooted tree ``decoration[i]`` hung from
    cycle vertex i, its other vertices labelled in preorder, tree after tree."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    label = k
    for i, code in enumerate(decoration):
        label = _code_edges(i, code, label, edges)
    return validate_unicyclic(graph_from_edges(label, edges))


def _unicyclic_classes(n: int) -> Iterator[UnicyclicGraph]:
    for k in range(3, n + 1):
        seen: set[tuple[Code, ...]] = set()
        for tup in _decoration_tuples(n, k):
            canon = _bracelet_canonical(tup)
            if canon not in seen:
                seen.add(canon)
                yield _build_decorated_cycle(k, canon)


def _rooted_code(g: Graph, root: int, banned: int = -1) -> Code:
    children = []
    for w in g.adjacency[root]:
        if w != banned:
            children.append(_rooted_code(g, w, root))
    return tuple(sorted(children, reverse=True))


def _free_code(g: Graph) -> Code:
    """The smaller rooted code at the tree's one or two centres (the vertices
    of least eccentricity, which every isomorphism maps onto each other):
    equal iff the trees are isomorphic."""
    ecc = [max(row) for row in g.distances]
    radius = min(ecc)
    return min(_rooted_code(g, c) for c in range(g.n) if ecc[c] == radius)


def gen_exhaustive_trees(n: int) -> Iterator[Graph]:
    """One labeled representative of every tree on n vertices up to
    isomorphism.  n is checked at the call, before the first tree."""
    if n < 1:
        raise UdimError("trees need at least one vertex")
    return _tree_classes(n)


def _tree_classes(n: int) -> Iterator[Graph]:
    seen: set[tuple] = set()
    for code in _rooted_trees(n):
        edges: list[tuple[int, int]] = []
        _code_edges(0, code, 1, edges)
        g = graph_from_edges(n, edges)
        key = _free_code(g)
        if key not in seen:
            seen.add(key)
            yield g


# -- bound-chain reports -------------------------------------------------------


# Every bound record, in unicyclic report order: (name, target, kind).
BOUNDS = (
    ("dim_vs_tree_dim.lower", "dim", "lower"),
    ("dim_vs_tree_dim.upper", "dim", "upper"),
    ("dim_vs_tree_leaves.lower", "dim", "lower"),
    ("dim_vs_tree_leaves.upper", "dim", "upper"),
    ("pd_vs_dim", "pd", "upper"),
    ("pd_vs_tree_leaves", "pd", "upper"),
    ("pd_min_nonpath", "pd", "lower"),
    ("dim_pendant_support", "dim", "upper"),
    ("pd_pendant_support", "pd", "upper"),
    ("pd_unit_terminal", "pd", "equal"),
    ("pd_kappa_tau", "pd", "upper"),
    ("pd_kappa_tau_tree", "pd", "upper"),
    ("pd_support_leaf_plus", "pd", "upper"),
    ("pd_support_leaf.lower", "pd", "lower"),
    ("pd_support_leaf.upper", "pd", "upper"),
    ("tree_dim_formula", "dim", "equal"),
    ("pd_path_exact", "pd", "equal"),
)


# Whether a bound of each kind holds: the operator takes (exact, value).
_HOLDS = {"lower": ge, "upper": le, "equal": eq}


def _exact(g: Graph, dim_cap: int, pd_cap: int) -> dict:
    """The report's ``exact`` payload: dim and pd with their witnesses, None
    above its cap.  The distance matrix is built only if n is within one of
    the caps."""
    dim, dim_witness = (
        metric_dimension_exact(g.distances, cap=dim_cap) if g.n <= dim_cap else (None, None)
    )
    pd, pd_witness = (
        partition_dimension_exact(g.distances, cap=pd_cap) if g.n <= pd_cap else (None, None)
    )
    return {
        "dim": dim,
        "dim_witness": list(dim_witness) if dim_witness is not None else None,
        "pd": pd,
        "pd_witness": pd_witness.to_lists() if pd_witness is not None else None,
    }


def _report(
    instance_id: str,
    kind: str,
    g: Graph,
    cycle: tuple[int, ...] | None,
    invariants: dict,
    exact: dict,
    rows: Sequence[tuple],
    certificates: dict[str, CertifiedConstruction],
) -> dict:
    """The JSON payload of a bounds report (README, "JSON schemas").

    ``bounds`` holds a record per (name, value, applicable[, detail]) row, in
    row order, then a not-applicable placeholder per other bound of BOUNDS;
    ``certificates`` maps a bound name to the certificate that backs it.
    ``violations`` lists the applicable bounds that failed, then
    ``certificate:<name>`` for each certificate that did not verify.
    """
    evaluated = {row[0] for row in rows}
    placeholders = [(name, None, False) for name, _, _ in BOUNDS if name not in evaluated]
    targets = {name: (target, how) for name, target, how in BOUNDS}
    records = []
    violations = []
    for name, value, applicable, *detail in [*rows, *placeholders]:
        target, how = targets[name]
        decided = applicable and value is not None and exact[target] is not None
        satisfied = _HOLDS[how](exact[target], value) if decided else None
        if satisfied is False:
            violations.append(name)
        cert = certificates.get(name)
        records.append(
            {
                "name": name,
                "target": target,
                "kind": how,
                "value": value,
                "applicable": applicable,
                "satisfied": satisfied,
                "certificate": cert.name if cert is not None else None,
                "detail": detail[0] if detail else None,
            }
        )
    violations.extend(
        f"certificate:{cert.name}" for cert in certificates.values() if not cert.verified
    )
    return {
        "instance": instance_id,
        "n": g.n,
        "kind": kind,
        "cycle": list(cycle) if cycle is not None else None,
        "invariants": invariants,
        "exact": exact,
        "bounds": records,
        "violations": violations,
        "certificates": {cert.name: cert.to_json() for cert in certificates.values()},
    }


def bounds_report(
    u: UnicyclicGraph,
    instance_id: str = "graph",
    dim_cap: int = DEFAULT_DIM_CAP,
    pd_cap: int = DEFAULT_PD_CAP,
) -> dict:
    """Evaluate the full bound chain on a unicyclic graph; return the report
    that ``analyze --format json`` prints.

    Tree-quantified bounds are evaluated on every spanning tree (the record
    keeps the binding value, the detail map the per-tree values); bounds
    stated at a minimum-leaf spanning tree are evaluated there.  Every
    construction of CONSTRUCTIONS that applies is built and verified, and
    tags the bound record it certifies.
    """
    g = u.graph
    inv = graph_invariants(u)
    eps_tree = next(
        t for t in u.spanning_trees if list(t.deleted_edge) == inv["epsilon_deleted_edge"]
    )
    exact = _exact(g, dim_cap, pd_cap)

    dim_detail: dict[str, int] = {}
    leaf_detail: dict[str, int] = {}
    for tree in u.spanning_trees:
        tg = tree.graph
        label = f"{tree.deleted_edge[0]}-{tree.deleted_edge[1]}"
        ex = exterior_major_count(tg)
        leaf_detail[label] = len(pendant_vertices(tg)) - ex
        # Above the cap dim(T) is the tree formula: 1 for a path, else n1 - ex.
        if tg.n <= dim_cap:
            dim_detail[label] = metric_dimension_exact(tg.distances, cap=dim_cap)[0]
        else:
            dim_detail[label] = leaf_detail[label] if ex else 1
    tree_dims = dim_detail.values()
    leaf_scores = leaf_detail.values()

    kappa_T, tau_T = kappa_tau(eps_tree.graph)
    xi_T, theta_T = xi_theta(eps_tree.graph)
    xi_theta_T = {"xi_T": xi_T, "theta_T": theta_T}

    # Keyed by the bound each backs: the cycle and unit-terminal ones never both apply.
    certificates: dict[str, CertifiedConstruction] = {}
    for _, build, bound in CONSTRUCTIONS:
        try:
            certificates[bound] = build(u)
        except PreconditionError:
            continue

    # A construction's precondition is the hypothesis of the bound it backs.
    pendant = "dim_pendant_support" in certificates
    return _report(
        instance_id, "unicyclic", g, u.cycle, inv, exact,
        [
            ("dim_vs_tree_dim.lower", max(tree_dims) - 2, True, dim_detail),
            ("dim_vs_tree_dim.upper", min(tree_dims) + 1, True, dim_detail),
            ("dim_vs_tree_leaves.lower", max(leaf_scores) - 2, True, leaf_detail),
            ("dim_vs_tree_leaves.upper", min(leaf_scores) + 1, True, leaf_detail),
            ("pd_vs_dim", exact["dim"] + 1 if exact["dim"] is not None else None, True),
            ("pd_vs_tree_leaves", min(leaf_scores) + 2, True, leaf_detail),
            ("pd_min_nonpath", 3, True),
            ("dim_pendant_support", inv["n1"] - inv["rho"], pendant),
            ("pd_pendant_support", inv["n1"] - inv["rho"] + 1, pendant),
            ("pd_unit_terminal", 3, inv["kappa"] == 0),
            ("pd_kappa_tau", inv["kappa"] + inv["tau"] + 1, "pd_kappa_tau" in certificates),
            (
                "pd_kappa_tau_tree", kappa_T + tau_T + 1, kappa_T >= 1,
                {"kappa_T": kappa_T, "tau_T": tau_T},
            ),
            ("pd_support_leaf_plus", xi_T + theta_T + 1, True, xi_theta_T),
            ("pd_support_leaf.lower", theta_T - 1, True),
            ("pd_support_leaf.upper", xi_T + theta_T, True, xi_theta_T),
            # The tree-only bounds, which never apply to a unicyclic graph.
            ("tree_dim_formula", None, False),
            ("pd_path_exact", 2, False),
        ],
        certificates,
    )


def tree_report(
    g: Graph,
    instance_id: str = "tree",
    dim_cap: int = DEFAULT_DIM_CAP,
    pd_cap: int = DEFAULT_PD_CAP,
) -> dict:
    """Reduced report for a tree, in the same JSON shape: the dim formula
    plus the generic pd bounds."""
    if not is_tree(g):
        raise UdimError("tree_report needs a tree")
    inv = graph_invariants(g)
    exact = _exact(g, dim_cap, pd_cap)
    is_path = inv["ex"] == 0
    # The pd-of-a-path rule needs at least two vertices; a lone vertex has pd 1.
    return _report(
        instance_id, "tree", g, None, inv, exact,
        [
            ("tree_dim_formula", None if is_path else inv["n1"] - inv["ex"], not is_path),
            ("pd_vs_dim", exact["dim"] + 1 if exact["dim"] is not None else None, True),
            ("pd_path_exact", 2, is_path and g.n >= 2),
            ("pd_min_nonpath", 3, not is_path),
        ],
        {},
    )


# -- conjecture scanner --------------------------------------------------------


# The pd of every spanning-tree class solved in this process, keyed by its
# free code.  conjecture_scan empties it before and after each scan, and the
# pool's initializer in each worker; it only ever holds true pd values.
_TREE_PD: dict[Code, int] = {}


def _scan_one(instance: tuple[str, UnicyclicGraph], pd_cap: int) -> dict:
    """One instance's JSON row (see ``conjecture_scan``); each witness is kept as
    its lists only.  pd is an isomorphism invariant, so a tree of a class in
    ``_TREE_PD`` searches only its own witness level, in its own labelling,
    and finds the same first witness as a search from scratch."""
    instance_id, u = instance
    try:
        check_cap(u.graph.n, pd_cap, "partition-dimension")
    except SolverCapError as exc:
        raise SolverCapError(f"instance {instance_id}: {exc}") from None
    pd_g, _ = partition_dimension_exact(u.graph.distances, cap=pd_cap)
    trees = []
    for tree in u.spanning_trees:
        code = _free_code(tree.graph)
        pd_t, witness = partition_dimension_exact(
            tree.graph.distances, cap=pd_cap, start=_TREE_PD.get(code, 1)
        )
        _TREE_PD[code] = pd_t
        trees.append(
            dict(deleted_edge=list(tree.deleted_edge), pd=pd_t, partition=witness.to_lists())
        )
    max_gap = max(pd_g - t["pd"] for t in trees)
    return dict(instance=instance_id, n=u.graph.n, pd=pd_g, trees=trees, max_gap=max_gap)


def _map_in_workers(jobs: int, fn, items: Iterable) -> Iterator:
    """``fn`` over ``items`` in a pool of ``jobs`` processes, in item order,
    with at most 8 * jobs items drawn whose results are not yet returned."""
    with ProcessPoolExecutor(max_workers=jobs, initializer=_TREE_PD.clear) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == 8 * jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def conjecture_scan(
    instances: Iterable[tuple[str, UnicyclicGraph]],
    pd_cap: int = DEFAULT_PD_CAP,
    jobs: int = 1,
    metadata: dict | None = None,
) -> dict:
    """Compute pd(G) and pd(T) for every spanning tree T of every instance;
    return the result that ``scan --format json`` prints.

    The result is ``{"count", "pd_cap", "metadata", "records",
    "gap_histogram", "conjecture_violations", "proposition_violations"}``.
    A gap of at least 4 would contradict a proven statement and is an error
    class of its own; a gap of 2 or 3 is an interesting finding but not a
    failure.  ``metadata`` describes how the instance family was produced
    (for random families: the PRNG scheme, so seeds reproduce across builds).
    Each of ``records`` is the JSON row of one instance, plain dicts, lists,
    strings and ints: ``{"instance", "n", "pd", "trees", "max_gap"}``, and
    per tree ``{"deleted_edge", "pd", "partition"}``.

    ``instances`` yields (id, graph) pairs; the scan reads it once and holds
    no graph past its record, and workers send back only the rows.
    Deterministic for a fixed instance stream; violation lists are ordered
    by instance position.  ``jobs`` > 1 fans instances out to worker processes, at most
    one per usable CPU, with at most 8 instances per worker drawn ahead of
    the merged records, which keep the order of the stream.  The scan, and
    each worker, keeps the pd of every spanning-tree class it has solved
    until the scan ends.
    """
    # The CPUs this process may run on: its affinity set, where the OS has one.
    usable = getattr(os, "sched_getaffinity", None)
    jobs = min(jobs, len(usable(0)) if usable else os.cpu_count() or 1)
    scan = partial(_scan_one, pd_cap=pd_cap)
    records = []
    histogram: dict[int, int] = {}
    conjecture = []
    proposition = []
    _TREE_PD.clear()
    try:
        scanned = _map_in_workers(jobs, scan, instances) if jobs > 1 else map(scan, instances)
        for row in scanned:
            records.append(row)
            for tree in row["trees"]:
                gap = row["pd"] - tree["pd"]
                histogram[gap] = histogram.get(gap, 0) + 1
                if gap >= 2:
                    item = {
                        "instance": row["instance"],
                        "deleted_edge": tree["deleted_edge"],
                        "gap": gap,
                    }
                    conjecture.append(item)
                    if gap >= 4:
                        proposition.append(item)
    finally:
        _TREE_PD.clear()
    return {
        "count": len(records),
        "pd_cap": pd_cap,
        "metadata": dict(sorted((metadata or {}).items())),
        "records": records,
        "gap_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "conjecture_violations": conjecture,
        "proposition_violations": proposition,
    }
