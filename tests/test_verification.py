"""Generators, bound-chain reports and the pd gap scanner."""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import weakref
from concurrent.futures import Executor
from itertools import combinations

import pytest

import udim
from udim import (
    SolverCapError,
    UdimError,
    all_pairs_distances,
    bounds_report,
    conjecture_scan,
    epsilon,
    gen_c4k,
    gen_cycle,
    gen_exhaustive_trees,
    gen_exhaustive_unicyclic,
    gen_path,
    gen_random_unicyclic,
    gen_sun,
    graph_from_edges,
    graph_invariants,
    is_connected,
    is_tree,
    kappa_tau,
    metric_dimension_exact,
    pendant_vertices,
    rho,
    to_edge_list,
    tree_report,
)
from udim.verification import _free_code


# -- named instance generators --------------------------------------------------


def test_c4k_shape():
    u = gen_c4k(2)
    assert u.graph.n == 6
    assert u.cycle == (0, 1, 2, 3)
    assert len(udim.major_vertices(u.graph)) == 1
    with pytest.raises(UdimError):
        gen_c4k(1)


def test_c4k_dimension_scales_with_pendants():
    dm = all_pairs_distances(gen_c4k(3).graph)
    assert metric_dimension_exact(dm)[0] == 4


def test_sun_shape():
    u = gen_sun(4)
    assert u.graph.n == 20
    assert len(pendant_vertices(u.graph)) == 16
    assert kappa_tau(u.graph) == (4, 4)
    assert rho(gen_sun(5).graph) == 5
    with pytest.raises(UdimError):
        gen_sun(2)


# -- exhaustive generation -------------------------------------------------------


def test_exhaustive_n3_is_the_triangle():
    graphs = list(gen_exhaustive_unicyclic(3))
    assert len(graphs) == 1
    assert graphs[0].cycle == (0, 1, 2)


def _unicyclic_graphs_by_edge_subsets(n: int) -> list[udim.Graph]:
    """Every labeled unicyclic graph on n vertices: the connected graphs among
    the n-edge subsets of K_n."""
    graphs = []
    for subset in combinations(combinations(range(n), 2), n):
        g = graph_from_edges(n, subset)
        if is_connected(g):
            graphs.append(g)
    return graphs


def _distance_certificate(g: udim.Graph) -> tuple:
    return tuple(sorted(tuple(sorted(row)) for row in all_pairs_distances(g)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_classes_match_edge_subset_bruteforce(n):
    # Labeled unicyclic graphs, OEIS A057500; every one is isomorphic to
    # exactly one class, and no two classes share a certificate.
    brute = _unicyclic_graphs_by_edge_subsets(n)
    assert len(brute) == {3: 1, 4: 15, 5: 222, 6: 3660}[n]
    classes = [_distance_certificate(u.graph) for u in gen_exhaustive_unicyclic(n)]
    assert len(set(classes)) == len(classes)
    assert set(classes) == {_distance_certificate(g) for g in brute}


def test_exhaustive_range_check():
    # The range and the mode are checked at the call, before any graph is drawn.
    gen_exhaustive_unicyclic(12)
    for n in (2, 13):
        with pytest.raises(UdimError, match=r"^exhaustive generation supports 3 <= n <= 12$"):
            gen_exhaustive_unicyclic(n)
    with pytest.raises(UdimError, match="isomorphism classes only"):
        gen_exhaustive_unicyclic(5, dedup=False)


def test_dedup_class_counts():
    # Connected unicyclic graphs on n unlabeled vertices, OEIS A001429.
    expected = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}
    for n, count in expected.items():
        assert sum(1 for _ in gen_exhaustive_unicyclic(n)) == count
    with pytest.raises(UdimError, match=r"^exhaustive generation supports 3 <= n <= 12$"):
        list(gen_exhaustive_unicyclic(13))


# -- tree generation ---------------------------------------------------------------


def _prufer_decode(seq: tuple[int, ...], n: int) -> udim.Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    seq_list = list(seq)
    for v in seq_list:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            import bisect

            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return graph_from_edges(n, edges)


def test_tree_generator_matches_prufer_dedup():
    from itertools import product

    for n in (4, 5, 6, 7):
        codes = set()
        for seq in product(range(n), repeat=n - 2):
            codes.add(_free_code(_prufer_decode(seq, n)))
        ours = list(gen_exhaustive_trees(n))
        assert len(ours) == len(codes)
        assert {_free_code(t) for t in ours} == codes


def test_trees_are_trees_and_distinct():
    trees = list(gen_exhaustive_trees(9))
    assert len(trees) == 47
    assert all(is_tree(t) for t in trees)


@pytest.mark.parametrize(
    "generate, match",
    [
        (lambda: gen_path(0), "a path needs at least one vertex"),
        (lambda: gen_cycle(2), "a cycle needs at least three vertices"),
        (lambda: gen_random_unicyclic(2, 0), "a unicyclic graph needs at least three vertices"),
        (lambda: gen_exhaustive_trees(0), "trees need at least one vertex"),
    ],
    ids=["path", "cycle", "random-unicyclic", "exhaustive-trees"],
)
def test_generators_reject_too_few_vertices(generate, match):
    with pytest.raises(UdimError, match=f"^{match}$"):
        generate()


# -- random generation ---------------------------------------------------------------


def test_random_unicyclic_is_deterministic():
    a = gen_random_unicyclic(20, seed=1)
    b = gen_random_unicyclic(20, seed=1)
    assert a.graph == b.graph and a.cycle == b.cycle


def test_random_unicyclic_smallest_case():
    assert gen_random_unicyclic(3, seed=99).cycle == (0, 1, 2)


def test_random_scheme_is_named():
    assert "mt19937" in udim.RANDOM_SCHEME


# SHA-256 over the edge lists of both generators' streams.  RANDOM_SCHEME
# promises that a seed gives the same graph in every build, and scan instance
# ids (n10#5, n12/seed3) name positions in these streams, so a change to
# either stream is a change of every scan's output.
CLASS_STREAM_SHA256 = "216e05e9c74f4943763bf9636d705dd7fb23af44be0117c113af51d276cd71c7"
RANDOM_STREAM_SHA256 = "8bc75c39a527ccd33637f162fb001267d7408e4ec9260881d2ca70b92edb562a"


def _stream_sha256(graphs):
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(to_edge_list(g).encode() + b"\n")
    return digest.hexdigest()


def test_generator_streams_are_pinned():
    classes = (u.graph for n in range(3, 11) for u in gen_exhaustive_unicyclic(n))
    assert _stream_sha256(classes) == CLASS_STREAM_SHA256
    randoms = (gen_random_unicyclic(3 + s % 18, s).graph for s in range(500))
    assert _stream_sha256(randoms) == RANDOM_STREAM_SHA256


# -- bounds reports -----------------------------------------------------------------


def _bound(report: dict, name: str) -> dict:
    return next(r for r in report["bounds"] if r["name"] == name)


def test_report_on_c4k():
    rep = bounds_report(gen_c4k(2), instance_id="c4k:2")
    assert rep["exact"]["dim"] == 3 and rep["exact"]["pd"] == 3
    assert rep["violations"] == []
    # Per-tree leaf scores: deleting the edge between the two bare cycle
    # vertices leaves the loosest sandwich, 1 <= dim <= 4.
    leaves_detail = _bound(rep, "dim_vs_tree_leaves.lower")["detail"]
    assert leaves_detail["1-2"] == 3 and leaves_detail["0-1"] == 2
    assert _bound(rep, "dim_vs_tree_leaves.lower")["value"] == 1
    assert _bound(rep, "dim_vs_tree_leaves.upper")["value"] == 3
    # Tightness at the tree that deletes the edge (0, 3).
    assert leaves_detail["0-3"] + 1 == rep["exact"]["dim"]
    assert _bound(rep, "pd_vs_dim")["value"] == 4
    assert _bound(rep, "dim_pendant_support")["applicable"] is False


def test_report_on_sun3():
    rep = bounds_report(gen_sun(3), instance_id="sun:3")
    assert _bound(rep, "pd_kappa_tau")["value"] == 7
    assert _bound(rep, "pd_pendant_support")["value"] == 7
    assert _bound(rep, "pd_vs_tree_leaves")["value"] == 8
    assert rep["violations"] == []
    assert rep["certificates"]["kappa-tau"]["verified"]
    assert rep["certificates"]["pendant-set"]["verified"]
    assert rep["certificates"]["xi-theta"]["verified"]


def test_report_on_cycle():
    rep = bounds_report(gen_cycle(6), instance_id="cycle:6")
    assert rep["exact"]["pd"] == 3
    assert _bound(rep, "pd_vs_dim")["value"] == 3
    assert _bound(rep, "pd_unit_terminal")["applicable"]
    assert _bound(rep, "pd_unit_terminal")["satisfied"]
    assert rep["certificates"]["cycle-partition"]["verified"]
    assert "xi-theta" not in rep["certificates"]


def test_report_json_shape():
    rep = bounds_report(gen_c4k(2), instance_id="c4k:2")
    assert set(rep) == {
        "instance", "n", "kind", "cycle", "invariants", "exact",
        "bounds", "violations", "certificates",
    }
    assert rep["invariants"]["epsilon_deleted_edge"] == [0, 1]
    json.dumps(rep)  # must be serializable


def test_reports_and_scans_are_their_json_payloads():
    # Each result is exactly the JSON its command prints (graph_invariants: a
    # report's invariants object): no tuple, int key, partition or dataclass
    # survives in it.
    classes = (
        (f"n{n}#{i}", u) for n in range(3, 7) for i, u in enumerate(gen_exhaustive_unicyclic(n))
    )
    c4k = gen_c4k(2)
    results = [
        graph_invariants(c4k),
        graph_invariants(c4k.spanning_trees[0].graph),
        bounds_report(gen_c4k(3)),
        tree_report(gen_path(1)),
        tree_report(gen_path(6)),
        conjecture_scan(classes),
    ]
    for result in results:
        assert json.loads(json.dumps(result)) == result


RECORD_NAMES = {
    "tree_dim_formula", "pd_path_exact", "pd_min_nonpath", "pd_vs_dim",
    "dim_vs_tree_dim.lower", "dim_vs_tree_dim.upper",
    "dim_vs_tree_leaves.lower", "dim_vs_tree_leaves.upper",
    "pd_vs_tree_leaves", "dim_pendant_support", "pd_pendant_support",
    "pd_unit_terminal", "pd_kappa_tau", "pd_kappa_tau_tree",
    "pd_support_leaf_plus", "pd_support_leaf.lower", "pd_support_leaf.upper",
}


def test_reports_emit_the_same_record_names_for_both_kinds():
    uni = bounds_report(gen_c4k(2))
    tree = tree_report(gen_path(5))
    assert {r["name"] for r in uni["bounds"]} == RECORD_NAMES
    assert {r["name"] for r in tree["bounds"]} == RECORD_NAMES


def test_report_without_constructions():
    rep = bounds_report(gen_sun(3))
    assert _bound(rep, "pd_kappa_tau")["value"] == 7
    assert rep["violations"] == []
    assert sorted(rep["certificates"]) == ["kappa-tau", "pendant-set", "xi-theta"]
    assert all(cert["verified"] for cert in rep["certificates"].values())


def test_report_builds_each_distance_matrix_and_the_spanning_trees_once(monkeypatch):
    # One BFS for the graph; each tree's matrix is derived from it, once.
    counts = {"all_pairs_distances": [], "derived": [], "spanning_trees": 0}
    build, derive = udim.graphs.all_pairs_distances, udim.graphs._tree_distances
    trees = udim.graphs.spanning_trees

    def distances(g):
        counts["all_pairs_distances"].append(g)
        return build(g)

    def derived(layout, i):
        counts["derived"].append(i)
        return derive(layout, i)

    def spanning(u):
        counts["spanning_trees"] += 1
        return trees(u)

    monkeypatch.setattr(udim.graphs, "all_pairs_distances", distances)
    monkeypatch.setattr(udim.graphs, "_tree_distances", derived)
    monkeypatch.setattr(udim.graphs, "spanning_trees", spanning)
    u = gen_c4k(3)  # n = 7, within both caps
    bounds_report(u)
    assert counts["spanning_trees"] == 1
    assert [id(g) for g in counts["all_pairs_distances"]] == [id(u.graph)]
    assert sorted(counts["derived"]) == list(range(u.k))


def test_report_profiles_no_spanning_tree_but_the_epsilon_tree(monkeypatch):
    profiled = []
    profiles = udim.invariants.terminal_profiles

    def counted(g):
        profiled.append(id(g))
        return profiles(g)

    # The constructions bind the function by name: patch every module that does.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "udim" and getattr(module, "terminal_profiles", None) is profiles:
            monkeypatch.setattr(module, "terminal_profiles", counted)
    u = gen_c4k(3)
    bounds_report(u)
    _, eps_tree = epsilon(u)
    assert {id(u.graph), id(eps_tree.graph)} <= set(profiled)
    assert {id(t.graph) for t in u.spanning_trees} & set(profiled) == {id(eps_tree.graph)}


@pytest.mark.parametrize(
    "generate, arg, calls", [(gen_c4k, 3, 2), (gen_cycle, 7, 1)], ids=["c4k:3", "cycle:7"]
)
def test_report_finds_the_epsilon_tree_once(monkeypatch, generate, arg, calls):
    # graph_invariants finds T* for the report; xi_theta_partition finds it
    # once more, except on a cycle graph, where its precondition fails first.
    found = []
    original = udim.invariants.epsilon

    def counted(u):
        found.append(u)
        return original(u)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "udim" and getattr(module, "epsilon", None) is original:
            monkeypatch.setattr(module, "epsilon", counted)
    bounds_report(generate(arg))
    assert len(found) == calls


def test_tree_report_on_path():
    rep = tree_report(gen_path(6), instance_id="path:6")
    assert rep["exact"]["dim"] == 1 and rep["exact"]["pd"] == 2
    assert _bound(rep, "tree_dim_formula")["applicable"] is False
    assert _bound(rep, "pd_path_exact")["satisfied"]
    assert _bound(rep, "dim_vs_tree_dim.lower")["applicable"] is False
    assert rep["violations"] == []


def test_tree_report_on_branching_tree():
    t = graph_from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    rep = tree_report(t, instance_id="tree")
    inv = graph_invariants(t)
    assert _bound(rep, "tree_dim_formula")["value"] == inv["n1"] - inv["ex"]
    assert _bound(rep, "tree_dim_formula")["satisfied"]
    assert _bound(rep, "pd_min_nonpath")["satisfied"]


def test_tree_report_rejects_non_trees():
    with pytest.raises(UdimError):
        tree_report(gen_cycle(4).graph)


def test_tree_report_on_single_vertex():
    rep = tree_report(gen_path(1))
    assert rep["exact"]["dim"] == 0 and rep["exact"]["pd"] == 1
    # dim 0 has the empty witness; null would mean "above the cap".
    assert rep["exact"]["dim_witness"] == []
    assert _bound(rep, "pd_path_exact")["applicable"] is False
    assert rep["violations"] == []


# -- conjecture scan -----------------------------------------------------------------


def test_scan_on_cycles():
    result = conjecture_scan((f"cycle:{n}", gen_cycle(n)) for n in range(3, 10))
    assert result["count"] == 7
    assert all(rec["pd"] == 3 for rec in result["records"])
    assert all(entry["pd"] == 2 for rec in result["records"] for entry in rec["trees"])
    assert all(rec["max_gap"] == 1 for rec in result["records"])
    assert result["conjecture_violations"] == []
    assert result["proposition_violations"] == []
    assert result["gap_histogram"] == {"1": sum(r["n"] for r in result["records"])}


def test_scan_records_are_the_json_rows():
    # A row is made of strings, ints, lists and dicts only: no partition object.
    result = conjecture_scan([("c4k:2", gen_c4k(2)), ("sun:3", gen_sun(3))])
    assert len(result["records"]) == result["count"] == 2

    def plain(value) -> bool:
        if isinstance(value, list):
            return all(plain(v) for v in value)
        if isinstance(value, dict):
            return all(isinstance(k, str) and plain(v) for k, v in value.items())
        return type(value) in (str, int)

    assert all(plain(row) for row in result["records"])


def test_scan_is_deterministic_and_parallel_safe():
    instances = [(f"instance:{s}", gen_random_unicyclic(8, seed=s)) for s in range(6)]
    a = conjecture_scan(instances)
    b = conjecture_scan(instances)
    c = conjecture_scan(instances, jobs=2)
    assert json.dumps(a) == json.dumps(b) == json.dumps(c)


def test_scan_cap_exceeded_names_the_instance():
    instances = [("instance:0", gen_cycle(4)), ("instance:1", gen_random_unicyclic(9, seed=0))]
    with pytest.raises(SolverCapError, match="instance:1"):
        conjecture_scan(instances, pd_cap=8)


def test_scan_keeps_no_graph_of_the_stream():
    alive = []

    def instances():
        for s in range(4):
            u = gen_random_unicyclic(7, seed=s)
            alive.append(weakref.ref(u))
            yield (f"n7/seed{s}", u)

    # Reference counting alone frees each graph once its record is built:
    # no graph is part of a reference cycle.
    gc.disable()
    try:
        result = conjecture_scan(instances())
        freed = [ref() for ref in alive]
    finally:
        gc.enable()
    assert result["count"] == len(alive) == 4
    assert freed == [None] * 4


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: logs each pool's max_workers and
    counts the results taken; ``map`` is Executor's own, which submits the
    whole iterable before it returns a result."""
    log = {"started": [], "taken": 0}

    class LazyFuture:
        """A task that runs in-process when its result is taken."""

        def __init__(self, fn, args):
            self.fn, self.args = fn, args

        def result(self, timeout=None):
            log["taken"] += 1
            return self.fn(*self.args)

        def cancel(self):
            return False

    class InlinePool(Executor):
        def __init__(self, max_workers, initializer):
            log["started"].append(max_workers)
            initializer()

        def submit(self, fn, /, *args):
            return LazyFuture(fn, args)

    monkeypatch.setattr(udim.verification, "ProcessPoolExecutor", InlinePool)
    return log


@pytest.mark.parametrize("cpus, workers", [(2, [2]), (1, []), (None, [])])
def test_scan_pool_is_capped_at_the_cpu_count(monkeypatch, inline_pool, cpus, workers):
    started = inline_pool["started"]
    monkeypatch.setattr(udim.verification.os, "cpu_count", lambda: cpus)
    # Without an affinity call the cap falls back to the CPU count.
    monkeypatch.delattr(udim.verification.os, "sched_getaffinity", raising=False)
    instances = [("c4", gen_cycle(4)), ("c5", gen_cycle(5))]
    result = conjecture_scan(instances, jobs=100_000)
    assert started == workers
    assert [rec["instance"] for rec in result["records"]] == ["c4", "c5"]
    # A process confined to one CPU (taskset, a cpuset) scans inline,
    # whatever the host's CPU count.
    started.clear()
    monkeypatch.setattr(udim.verification.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert conjecture_scan(instances, jobs=100_000) == result
    assert started == []


def test_scan_in_workers_draws_a_bounded_stream(monkeypatch, inline_pool):
    # Under jobs=2 at most 8 instances per worker are drawn ahead of the
    # records taken back, and the records keep the order of the stream.
    monkeypatch.setattr(udim.verification.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ahead = []

    def instances():
        for i in range(40):
            ahead.append(i - inline_pool["taken"])
            yield (f"c{i}", gen_cycle(3 + i % 4))

    result = conjecture_scan(instances(), jobs=2)
    assert inline_pool["started"] == [2]
    assert [rec["instance"] for rec in result["records"]] == [f"c{i}" for i in range(40)]
    assert max(ahead) == 15
    assert result == conjecture_scan(instances())


def test_scan_tree_entries_follow_cycle_edge_order():
    u = gen_c4k(2)
    result = conjecture_scan([("instance:0", u)])
    edges = [tuple(e["deleted_edge"]) for e in result["records"][0]["trees"]]
    assert edges == list(u.cycle_edges())


def test_tree_class_memo_leaves_the_scan_unchanged(monkeypatch, unicyclic_classes):
    # Each family's JSON with the scan's tree-class memo, inline and over two
    # workers, against the same scan with every tree solved from scratch.
    families = [[(f"n{n}#{i}", u) for n in range(3, 10) for i, u in enumerate(unicyclic_classes[n])]]
    families += [
        [(f"n{n}/seed{s}", gen_random_unicyclic(n, seed=s)) for s in range(10)]
        for n in (10, 11, 12)
    ]
    memo = [json.dumps(conjecture_scan(f, jobs=jobs)) for f in families for jobs in (1, 2)]
    solve = udim.verification.partition_dimension_exact
    monkeypatch.setattr(
        udim.verification, "partition_dimension_exact", lambda dm, cap, start=1: solve(dm, cap)
    )
    scratch = [json.dumps(conjecture_scan(f)) for f in families]
    assert memo == [text for text in scratch for _ in (1, 2)]


def test_a_known_tree_class_searches_only_its_pd_level(monkeypatch):
    # pd(G) = 3 from the twin bound 2; the spanning trees fall into two
    # classes of two trees each, every tree with pd 3 and twin bound 2.
    u = gen_random_unicyclic(9, seed=1)
    perm = [8, 3, 5, 0, 7, 1, 6, 2, 4]
    relabelled = udim.validate_unicyclic(
        graph_from_edges(9, [(perm[a], perm[b]) for a, b in u.graph.edges()])
    )
    levels: list[int] = []
    rgs_blocks = udim.resolve._rgs_blocks

    def counted(n, t, twins):
        levels.append(t)
        return rgs_blocks(n, t, twins)

    monkeypatch.setattr(udim.resolve, "_rgs_blocks", counted)
    per_instance = []

    def instances():
        yield ("u", u)
        per_instance.append(levels[:])
        levels.clear()
        yield ("relabelled", relabelled)
        per_instance.append(levels)

    result = conjecture_scan(instances())
    assert [e["pd"] for rec in result["records"] for e in rec["trees"]] == [3] * 8
    # G, then the trees: the first of each class climbs from t = 2.
    assert per_instance[0] == [2, 3] + [2, 3, 3] + [2, 3, 3]
    # Every tree of the relabelled copy enumerates its pd level alone.
    assert per_instance[1] == [2, 3] + [3, 3, 3, 3]
