"""Generators, bound-chain reports and the pd gap scanner."""

from __future__ import annotations

import gc
import json
import weakref
from itertools import combinations

import pytest

import udim
from udim import (
    SolverCapError,
    UdimError,
    all_pairs_distances,
    bounds_report,
    conjecture_scan,
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


def test_exhaustive_n4_families():
    graphs = list(gen_exhaustive_unicyclic(4))
    assert len(graphs) == 15
    by_cycle_len = {}
    for u in graphs:
        by_cycle_len[u.k] = by_cycle_len.get(u.k, 0) + 1
    assert by_cycle_len == {3: 12, 4: 3}


def _unicyclic_count_by_edge_subsets(n: int) -> int:
    all_edges = list(combinations(range(n), 2))
    count = 0
    for subset in combinations(all_edges, n):
        try:
            g = graph_from_edges(n, subset)
        except UdimError:
            continue
        if is_connected(g) and g.edge_count == n:
            count += 1
    return count


def test_exhaustive_n5_matches_edge_subset_bruteforce():
    assert sum(1 for _ in gen_exhaustive_unicyclic(5)) == 222
    assert _unicyclic_count_by_edge_subsets(5) == 222


def test_exhaustive_stream_has_no_duplicates():
    for n in (4, 5):
        graphs = list(gen_exhaustive_unicyclic(n))
        assert len({g.graph for g in graphs}) == len(graphs)


def test_exhaustive_range_check():
    # The range is checked at the call, not when the first graph is drawn.
    with pytest.raises(UdimError):
        gen_exhaustive_unicyclic(2)
    with pytest.raises(UdimError):
        gen_exhaustive_unicyclic(11)
    with pytest.raises(UdimError):
        gen_exhaustive_unicyclic(13, dedup=True)


def _distance_certificate(u: udim.UnicyclicGraph) -> tuple:
    dm = all_pairs_distances(u.graph)
    return tuple(sorted(tuple(sorted(row)) for row in dm))


def test_dedup_classes_match_certificate_dedup_of_labeled_stream():
    for n in (4, 5, 6):
        labeled = {_distance_certificate(u) for u in gen_exhaustive_unicyclic(n)}
        classes = list(gen_exhaustive_unicyclic(n, dedup=True))
        assert len(classes) == len(labeled)
        assert {_distance_certificate(u) for u in classes} == labeled


def test_dedup_class_counts():
    # Connected unicyclic graphs on n unlabeled vertices, OEIS A001429.
    expected = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026}
    for n, count in expected.items():
        assert sum(1 for _ in gen_exhaustive_unicyclic(n, dedup=True)) == count
    with pytest.raises(UdimError, match=r"n <= 10, or 3 <= n <= 12 with one graph per class"):
        list(gen_exhaustive_unicyclic(13, dedup=True))


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


# -- random generation ---------------------------------------------------------------


def test_random_unicyclic_is_deterministic():
    a = gen_random_unicyclic(20, seed=1)
    b = gen_random_unicyclic(20, seed=1)
    assert a.graph == b.graph and a.cycle == b.cycle


def test_random_unicyclic_smallest_case():
    assert gen_random_unicyclic(3, seed=99).cycle == (0, 1, 2)


def test_random_scheme_is_named():
    assert "mt19937" in udim.RANDOM_SCHEME


# -- bounds reports -----------------------------------------------------------------


def test_report_on_c4k():
    rep = bounds_report(gen_c4k(2), instance_id="c4k:2")
    assert rep.exact_dim == 3 and rep.exact_pd == 3
    assert rep.violations == ()
    # Per-tree leaf scores: deleting the edge between the two bare cycle
    # vertices leaves the loosest sandwich, 1 <= dim <= 4.
    leaves_detail = rep.record("dim_vs_tree_leaves.lower").detail
    assert leaves_detail["1-2"] == 3 and leaves_detail["0-1"] == 2
    assert rep.record("dim_vs_tree_leaves.lower").value == 1
    assert rep.record("dim_vs_tree_leaves.upper").value == 3
    # Tightness at the tree that deletes the edge (0, 3).
    assert leaves_detail["0-3"] + 1 == rep.exact_dim
    assert rep.record("pd_vs_dim").value == 4
    assert rep.record("dim_pendant_support").applicable is False


def test_report_on_sun3():
    rep = bounds_report(gen_sun(3), instance_id="sun:3")
    assert rep.record("pd_kappa_tau").value == 7
    assert rep.record("pd_pendant_support").value == 7
    assert rep.record("pd_vs_tree_leaves").value == 8
    assert rep.violations == ()
    assert rep.certificates["kappa-tau"].verified
    assert rep.certificates["pendant-set"].verified
    assert rep.certificates["xi-theta"].verified


def test_report_on_cycle():
    rep = bounds_report(gen_cycle(6), instance_id="cycle:6")
    assert rep.exact_pd == 3
    assert rep.record("pd_vs_dim").value == 3
    assert rep.record("pd_unit_terminal").applicable
    assert rep.record("pd_unit_terminal").satisfied
    assert rep.certificates["cycle-partition"].verified
    assert "xi-theta" not in rep.certificates


def test_report_json_shape():
    rep = bounds_report(gen_c4k(2), instance_id="c4k:2")
    payload = rep.to_json()
    assert set(payload) == {
        "instance", "n", "kind", "cycle", "invariants", "exact",
        "bounds", "violations", "certificates",
    }
    assert payload["invariants"]["epsilon_deleted_edge"] == [0, 1]
    json.dumps(payload)  # must be serializable


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
    assert {r.name for r in uni.records} == RECORD_NAMES
    assert {r.name for r in tree.records} == RECORD_NAMES


def test_report_without_constructions():
    rep = bounds_report(gen_sun(3))
    assert rep.record("pd_kappa_tau").value == 7
    assert rep.violations == ()
    assert sorted(rep.certificates) == ["kappa-tau", "pendant-set", "xi-theta"]
    assert all(cert.verified for cert in rep.certificates.values())


def test_report_builds_each_distance_matrix_and_the_spanning_trees_once(monkeypatch):
    counts = {"all_pairs_distances": [], "spanning_trees": 0}
    build, trees = udim.graphs.all_pairs_distances, udim.graphs.spanning_trees

    def distances(g):
        counts["all_pairs_distances"].append(g)
        return build(g)

    def spanning(u):
        counts["spanning_trees"] += 1
        return trees(u)

    monkeypatch.setattr(udim.graphs, "all_pairs_distances", distances)
    monkeypatch.setattr(udim.graphs, "spanning_trees", spanning)
    u = gen_c4k(3)  # n = 7, within both caps
    bounds_report(u)
    assert counts["spanning_trees"] == 1
    built = counts["all_pairs_distances"]
    assert len(built) == 1 + u.k
    assert set(map(id, built)) == {id(u.graph)} | {id(t.graph) for t in u.spanning_trees}


def test_tree_report_on_path():
    rep = tree_report(gen_path(6), instance_id="path:6")
    assert rep.exact_dim == 1 and rep.exact_pd == 2
    assert rep.record("tree_dim_formula").applicable is False
    assert rep.record("pd_path_exact").satisfied
    assert rep.record("dim_vs_tree_dim.lower").applicable is False
    assert rep.violations == ()


def test_tree_report_on_branching_tree():
    t = graph_from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    rep = tree_report(t, instance_id="tree")
    inv = graph_invariants(t)
    assert rep.record("tree_dim_formula").value == inv.n1 - inv.ex
    assert rep.record("tree_dim_formula").satisfied
    assert rep.record("pd_min_nonpath").satisfied


def test_tree_report_rejects_non_trees():
    with pytest.raises(UdimError):
        tree_report(gen_cycle(4).graph)


def test_tree_report_on_single_vertex():
    rep = tree_report(gen_path(1))
    assert rep.exact_dim == 0 and rep.exact_pd == 1
    assert rep.record("pd_path_exact").applicable is False
    assert rep.violations == ()


# -- conjecture scan -----------------------------------------------------------------


def test_scan_on_cycles():
    result = conjecture_scan((f"cycle:{n}", gen_cycle(n)) for n in range(3, 10))
    assert result.count == 7
    assert all(rec.pd == 3 for rec in result.records)
    assert all(entry.pd == 2 for rec in result.records for entry in rec.trees)
    assert all(rec.max_gap == 1 for rec in result.records)
    assert result.conjecture_violations == ()
    assert result.proposition_violations == ()
    assert result.gap_histogram == {1: sum(r.n for r in result.records)}


def test_scan_is_deterministic_and_parallel_safe():
    instances = [(f"instance:{s}", gen_random_unicyclic(8, seed=s)) for s in range(6)]
    a = conjecture_scan(instances)
    b = conjecture_scan(instances)
    c = conjecture_scan(instances, jobs=2)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json()) == json.dumps(c.to_json())


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

    result = conjecture_scan(instances())
    gc.collect()
    assert result.count == len(alive) == 4
    assert [ref() for ref in alive] == [None] * 4


@pytest.mark.parametrize("cpus, workers", [(2, [2]), (1, []), (None, [])])
def test_scan_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, workers):
    started = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(udim.verification, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(udim.verification.os, "cpu_count", lambda: cpus)
    result = conjecture_scan([("c4", gen_cycle(4)), ("c5", gen_cycle(5))], jobs=100_000)
    assert started == workers
    assert [rec.instance for rec in result.records] == ["c4", "c5"]


def test_scan_tree_entries_follow_cycle_edge_order():
    u = gen_c4k(2)
    result = conjecture_scan([("instance:0", u)])
    assert [e.deleted_edge for e in result.records[0].trees] == list(u.cycle_edges())
