"""Bound-chain reports, instance generators, and the conjecture scanner.

The bound chain relates dim(G) and pd(G) of a unicyclic graph to counts on
its spanning trees (leaves, exterior majors, supports).  Reports evaluate
every bound, flag applicability per the stated hypothesis, and check
satisfaction against the exact solvers when the instance is within caps.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations, permutations
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
    GraphInvariants,
    epsilon,
    exterior_major_count,
    graph_invariants,
    kappa_tau,
    pendant_vertices,
    xi_theta,
)
from .resolve import (
    DEFAULT_DIM_CAP,
    DEFAULT_PD_CAP,
    OrderedPartition,
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
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return validate_unicyclic(graph_from_edges(n, edges))


def gen_c4k(k: int) -> UnicyclicGraph:
    """A 4-cycle 0-1-2-3 with k pendants 4..3+k attached to vertex 0."""
    if k < 2:
        raise UdimError("gen_c4k needs k >= 2")
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + [(0, 4 + i) for i in range(k)]
    return validate_unicyclic(graph_from_edges(4 + k, edges))


def gen_sun(k: int) -> UnicyclicGraph:
    """A k-cycle where every cycle vertex carries k pendants (k + k^2 vertices)."""
    if k < 3:
        raise UdimError("gen_sun needs k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    nxt = k
    for v in range(k):
        for _ in range(k):
            edges.append((v, nxt))
            nxt += 1
    return validate_unicyclic(graph_from_edges(k + k * k, edges))


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
        ok = True
        for w in rest:
            cur = parent[w]
            steps = 0
            while cur >= k:
                cur = parent[cur]
                steps += 1
                if steps > n:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            break
    edges.extend((w, p) for w, p in parent.items())
    return validate_unicyclic(graph_from_edges(n, edges))


def _cycle_arrangements(vs: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct cycles on a vertex set: fix the smallest first, mod reflection."""
    s0, *rest = sorted(vs)
    if len(rest) == 2:
        yield (s0, rest[0], rest[1])
        return
    for perm in permutations(rest):
        if perm[0] < perm[-1]:
            yield (s0, *perm)


def _forest_attachments(n: int, cycle_vertices: Sequence[int]) -> Iterator[dict[int, int]]:
    """All acyclic parent maps for the vertices outside the cycle, in lex order."""
    on_cycle = [False] * n
    for c in cycle_vertices:
        on_cycle[c] = True
    rest = [w for w in range(n) if not on_cycle[w]]
    parent: dict[int, int] = {}

    def creates_cycle(w: int, p: int) -> bool:
        cur = p
        while not on_cycle[cur]:
            if cur == w:
                return True
            if cur not in parent:
                return False
            cur = parent[cur]
        return False

    def rec(i: int) -> Iterator[dict[int, int]]:
        if i == len(rest):
            yield dict(parent)
            return
        w = rest[i]
        for p in range(n):
            if p != w and not creates_cycle(w, p):
                parent[w] = p
                yield from rec(i + 1)
                del parent[w]

    yield from rec(0)


def gen_exhaustive_unicyclic(n: int, dedup: bool = False) -> Iterator[UnicyclicGraph]:
    """Every labeled unicyclic graph on n vertices exactly once.

    With ``dedup=True`` only one representative per isomorphism class is
    produced, generated directly from canonical cycle decorations instead of
    filtering the labeled stream (identical coverage of every per-graph
    claim, massively fewer instances).  The range of n is checked at the
    call, before the first graph is generated.
    """
    if not 3 <= n <= (12 if dedup else 10):
        raise UdimError(
            "exhaustive generation supports 3 <= n <= 10, "
            "or 3 <= n <= 12 with one graph per class"
        )
    return _unicyclic_classes(n) if dedup else _labeled_unicyclic(n)


def _labeled_unicyclic(n: int) -> Iterator[UnicyclicGraph]:
    for k in range(3, n + 1):
        for subset in combinations(range(n), k):
            for arrangement in _cycle_arrangements(subset):
                cycle_edges = [
                    (arrangement[i], arrangement[(i + 1) % k]) for i in range(k)
                ]
                for parent in _forest_attachments(n, arrangement):
                    edges = cycle_edges + sorted(parent.items())
                    yield validate_unicyclic(graph_from_edges(n, edges))


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

    def rec(pos: int, remaining: int) -> Iterator[tuple[Code, ...]]:
        if pos == k:
            if remaining == 0:
                yield ()
            return
        slots_left = k - pos - 1
        for size in range(1, remaining - slots_left + 1):
            for code in _rooted_trees(size):
                for rest in rec(pos + 1, remaining - size):
                    yield ((code,) + rest)

    yield from rec(0, n)


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
    """The smallest rooted code over all roots: equal iff the trees are isomorphic."""
    return min(_rooted_code(g, root) for root in range(g.n))


def gen_exhaustive_trees(n: int) -> Iterator[Graph]:
    """One labeled representative of every tree on n vertices up to isomorphism."""
    if n < 1:
        raise UdimError("trees need at least one vertex")
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


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated bound: its value, whether it applies, whether it held."""

    name: str
    target: str  # "dim" or "pd"
    kind: str  # "lower", "upper" or "equal"
    value: int | None
    applicable: bool
    satisfied: bool | None
    certificate: str | None = None
    detail: dict | None = None

    def to_json(self) -> dict:
        # The fields in declaration order.  dataclasses.asdict would deep-copy
        # ``detail`` and takes about 40 times as long.
        return dict(vars(self))


@dataclass(frozen=True)
class BoundsReport:
    """Invariants, exact values, evaluated bound chain and certificates."""

    instance: str
    n: int
    kind: str  # "unicyclic" or "tree"
    cycle: tuple[int, ...] | None
    invariants: GraphInvariants
    epsilon_deleted_edge: tuple[int, int] | None
    exact_dim: int | None
    dim_witness: tuple[int, ...] | None
    exact_pd: int | None
    pd_witness: OrderedPartition | None
    records: tuple[BoundRecord, ...]
    certificates: dict[str, CertifiedConstruction] = field(default_factory=dict)

    @property
    def violations(self) -> tuple[str, ...]:
        names = [
            r.name for r in self.records if r.applicable and r.satisfied is False
        ]
        names.extend(
            f"certificate:{name}"
            for name, cert in self.certificates.items()
            if not cert.verified
        )
        return tuple(names)

    def record(self, name: str) -> BoundRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_json(self) -> dict:
        inv = self.invariants
        return {
            "instance": self.instance,
            "n": self.n,
            "kind": self.kind,
            "cycle": list(self.cycle) if self.cycle is not None else None,
            "invariants": {
                "n1": inv.n1,
                "ex": inv.ex,
                "rho": inv.rho,
                "kappa": inv.kappa,
                "tau": inv.tau,
                "epsilon": inv.epsilon,
                "epsilon_deleted_edge": (
                    list(self.epsilon_deleted_edge)
                    if self.epsilon_deleted_edge is not None
                    else None
                ),
                "xi": inv.xi,
                "theta": inv.theta,
            },
            "exact": {
                "dim": self.exact_dim,
                "dim_witness": list(self.dim_witness) if self.dim_witness else None,
                "pd": self.exact_pd,
                "pd_witness": (
                    self.pd_witness.to_lists() if self.pd_witness else None
                ),
            },
            "bounds": [r.to_json() for r in self.records],
            "violations": list(self.violations),
            "certificates": {
                name: cert.to_json() for name, cert in self.certificates.items()
            },
        }


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


def _satisfied(kind: str, value: int | None, exact: int | None) -> bool | None:
    if value is None or exact is None:
        return None
    if kind == "lower":
        return exact >= value
    if kind == "upper":
        return exact <= value
    return exact == value


def _bound_records(
    rows: Sequence[tuple],
    exact: dict[str, int | None],
    certified: dict[str, str] | None = None,
) -> tuple[BoundRecord, ...]:
    """Records for (name, value, applicable[, detail]) rows, in row order,
    then every other bound of BOUNDS as a not-applicable placeholder.

    ``exact`` maps a target ("dim", "pd") to its exact value, and
    ``certified`` a bound name to the certificate that backs it.
    """
    certified = certified or {}
    evaluated = {row[0] for row in rows}
    placeholders = [(name, None, False) for name, _, _ in BOUNDS if name not in evaluated]
    targets = {name: (target, kind) for name, target, kind in BOUNDS}
    records = []
    for name, value, applicable, *detail in [*rows, *placeholders]:
        target, kind = targets[name]
        records.append(
            BoundRecord(
                name=name,
                target=target,
                kind=kind,
                value=value,
                applicable=applicable,
                satisfied=_satisfied(kind, value, exact[target]) if applicable else None,
                certificate=certified.get(name),
                detail=detail[0] if detail else None,
            )
        )
    return tuple(records)


def _exact(g: Graph, dim_cap: int, pd_cap: int) -> tuple:
    """(dim, dim witness, pd, pd witness); a value above its cap is None.  The
    distance matrix is built only if n is within one of the caps."""
    dim = metric_dimension_exact(g.distances, cap=dim_cap) if g.n <= dim_cap else (None, None)
    pd = partition_dimension_exact(g.distances, cap=pd_cap) if g.n <= pd_cap else (None, None)
    return (*dim, *pd)


def _tree_dim(g: Graph, dim_cap: int) -> int:
    """Exact dim of a tree when within cap, else the leaf/exterior formula."""
    if g.n <= dim_cap:
        return metric_dimension_exact(g.distances, cap=dim_cap)[0]
    ex = exterior_major_count(g)
    return 1 if ex == 0 else len(pendant_vertices(g)) - ex


def bounds_report(
    u: UnicyclicGraph,
    instance_id: str = "graph",
    dim_cap: int = DEFAULT_DIM_CAP,
    pd_cap: int = DEFAULT_PD_CAP,
) -> BoundsReport:
    """Evaluate the full bound chain on a unicyclic graph.

    Tree-quantified bounds are evaluated on every spanning tree (the record
    keeps the binding value, the detail map the per-tree values); bounds
    stated at a minimum-leaf spanning tree are evaluated there.  Every
    construction of CONSTRUCTIONS that applies is built and verified, and
    tags the bound record it certifies.
    """
    g = u.graph
    inv = graph_invariants(g, unicyclic=u)
    _, eps_tree = epsilon(u)
    exact_dim, dim_witness, exact_pd, pd_witness = _exact(g, dim_cap, pd_cap)

    dim_detail: dict[str, int] = {}
    leaf_detail: dict[str, int] = {}
    for tree in u.spanning_trees:
        tg = tree.graph
        label = f"{tree.deleted_edge[0]}-{tree.deleted_edge[1]}"
        dim_detail[label] = _tree_dim(tg, dim_cap)
        leaf_detail[label] = len(pendant_vertices(tg)) - exterior_major_count(tg)
    tree_dims = dim_detail.values()
    leaf_scores = leaf_detail.values()

    kappa_T, tau_T = kappa_tau(eps_tree.graph)
    xi_T, theta_T = xi_theta(eps_tree.graph)
    xi_theta_T = {"xi_T": xi_T, "theta_T": theta_T}

    certificates: dict[str, CertifiedConstruction] = {}
    certified: dict[str, str] = {}
    for _, build, bound in CONSTRUCTIONS:
        try:
            cert = build(u)
        except PreconditionError:
            continue
        certificates[cert.name] = cert
        certified[bound] = cert.name

    all_cycle_deg3 = all(g.degree(c) >= 3 for c in u.cycle)
    records = _bound_records(
        [
            ("dim_vs_tree_dim.lower", max(tree_dims) - 2, True, dim_detail),
            ("dim_vs_tree_dim.upper", min(tree_dims) + 1, True, dim_detail),
            ("dim_vs_tree_leaves.lower", max(leaf_scores) - 2, True, leaf_detail),
            ("dim_vs_tree_leaves.upper", min(leaf_scores) + 1, True, leaf_detail),
            ("pd_vs_dim", exact_dim + 1 if exact_dim is not None else None, True),
            ("pd_vs_tree_leaves", min(leaf_scores) + 2, True, leaf_detail),
            ("pd_min_nonpath", 3, True),
            ("dim_pendant_support", inv.n1 - inv.rho, all_cycle_deg3),
            ("pd_pendant_support", inv.n1 - inv.rho + 1, all_cycle_deg3),
            ("pd_unit_terminal", 3, inv.kappa == 0),
            ("pd_kappa_tau", inv.kappa + inv.tau + 1, inv.kappa >= 1),
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
        {"dim": exact_dim, "pd": exact_pd},
        certified,
    )

    return BoundsReport(
        instance=instance_id,
        n=g.n,
        kind="unicyclic",
        cycle=u.cycle,
        invariants=inv,
        epsilon_deleted_edge=eps_tree.deleted_edge,
        exact_dim=exact_dim,
        dim_witness=dim_witness,
        exact_pd=exact_pd,
        pd_witness=pd_witness,
        records=records,
        certificates=certificates,
    )


def tree_report(
    g: Graph,
    instance_id: str = "tree",
    dim_cap: int = DEFAULT_DIM_CAP,
    pd_cap: int = DEFAULT_PD_CAP,
) -> BoundsReport:
    """Reduced report for a tree: the dim formula plus the generic pd bounds."""
    if not is_tree(g):
        raise UdimError("tree_report needs a tree")
    inv = graph_invariants(g)
    exact_dim, dim_witness, exact_pd, pd_witness = _exact(g, dim_cap, pd_cap)
    is_path = inv.ex == 0
    # The pd-of-a-path rule needs at least two vertices; a lone vertex has pd 1.
    records = _bound_records(
        [
            ("tree_dim_formula", None if is_path else inv.n1 - inv.ex, not is_path),
            ("pd_vs_dim", exact_dim + 1 if exact_dim is not None else None, True),
            ("pd_path_exact", 2, is_path and g.n >= 2),
            ("pd_min_nonpath", 3, not is_path),
        ],
        {"dim": exact_dim, "pd": exact_pd},
    )
    return BoundsReport(
        instance=instance_id,
        n=g.n,
        kind="tree",
        cycle=None,
        invariants=inv,
        epsilon_deleted_edge=None,
        exact_dim=exact_dim,
        dim_witness=dim_witness,
        exact_pd=exact_pd,
        pd_witness=pd_witness,
        records=records,
        certificates={},
    )


# -- conjecture scanner --------------------------------------------------------


@dataclass(frozen=True)
class TreeScanEntry:
    deleted_edge: tuple[int, int]
    pd: int
    witness: OrderedPartition

    def to_json(self) -> dict:
        return {
            "deleted_edge": list(self.deleted_edge),
            "pd": self.pd,
            "partition": self.witness.to_lists(),
        }


@dataclass(frozen=True)
class ScanRecord:
    instance: str
    n: int
    pd: int
    trees: tuple[TreeScanEntry, ...]
    max_gap: int

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "n": self.n,
            "pd": self.pd,
            "trees": [t.to_json() for t in self.trees],
            "max_gap": self.max_gap,
        }


@dataclass(frozen=True)
class ScanResult:
    """Per-instance pd gaps against all spanning trees, with violation lists.

    A gap of at least 4 would contradict a proven statement and is an error
    class of its own; a gap of 2 or 3 is an interesting finding but not a
    failure.  ``metadata`` describes how the instance family was produced
    (for random families: the PRNG scheme, so seeds reproduce across builds).
    """

    records: tuple[ScanRecord, ...]
    gap_histogram: dict[int, int]
    conjecture_violations: tuple[dict, ...]
    proposition_violations: tuple[dict, ...]
    pd_cap: int
    metadata: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.records)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "pd_cap": self.pd_cap,
            "metadata": dict(sorted(self.metadata.items())),
            "records": [r.to_json() for r in self.records],
            "gap_histogram": {str(k): v for k, v in sorted(self.gap_histogram.items())},
            "conjecture_violations": list(self.conjecture_violations),
            "proposition_violations": list(self.proposition_violations),
        }


def _scan_one(instance: tuple[str, UnicyclicGraph], pd_cap: int) -> ScanRecord:
    instance_id, u = instance
    try:
        check_cap(u.graph.n, pd_cap, "partition-dimension")
    except SolverCapError as exc:
        raise SolverCapError(f"instance {instance_id}: {exc}") from None
    pd_g, _ = partition_dimension_exact(u.graph.distances, cap=pd_cap)
    entries = []
    for tree in u.spanning_trees:
        pd_t, witness = partition_dimension_exact(tree.graph.distances, cap=pd_cap)
        entries.append(
            TreeScanEntry(deleted_edge=tree.deleted_edge, pd=pd_t, witness=witness)
        )
    max_gap = max(pd_g - e.pd for e in entries)
    return ScanRecord(
        instance=instance_id,
        n=u.graph.n,
        pd=pd_g,
        trees=tuple(entries),
        max_gap=max_gap,
    )


def conjecture_scan(
    instances: Iterable[tuple[str, UnicyclicGraph]],
    pd_cap: int = DEFAULT_PD_CAP,
    jobs: int = 1,
    metadata: dict | None = None,
) -> ScanResult:
    """Compute pd(G) and pd(T) for every spanning tree T of every instance.

    ``instances`` yields (id, graph) pairs; the scan reads it once and holds
    no graph past its record.  Deterministic for a fixed instance stream;
    violation lists are ordered by instance position.  ``jobs`` > 1 fans
    instances out to worker processes, at most one per CPU, and merges
    results in submission order.
    """
    scan = partial(_scan_one, pd_cap=pd_cap)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(scan, instances, chunksize=8))
    else:
        records = list(map(scan, instances))

    histogram: dict[int, int] = {}
    conjecture = []
    proposition = []
    for rec in records:
        for entry in rec.trees:
            gap = rec.pd - entry.pd
            histogram[gap] = histogram.get(gap, 0) + 1
            if gap >= 2:
                item = {
                    "instance": rec.instance,
                    "deleted_edge": list(entry.deleted_edge),
                    "gap": gap,
                }
                conjecture.append(item)
                if gap >= 4:
                    proposition.append(item)
    return ScanResult(
        records=tuple(records),
        gap_histogram=histogram,
        conjecture_violations=tuple(conjecture),
        proposition_violations=tuple(proposition),
        pd_cap=pd_cap,
        metadata=metadata or {},
    )
