"""Certified constructions: hypothesis checks, verification, bound conformance."""

from __future__ import annotations

import pytest

from udim import (
    OrderedPartition,
    PreconditionError,
    all_pairs_distances,
    check_resolving_partition,
    cycle_partition,
    epsilon,
    gen_c4k,
    gen_cycle,
    gen_sun,
    graph_from_edges,
    kappa_tau,
    kappa_tau_partition,
    lift_tree_partition,
    partition_dimension_exact,
    pendant_resolving_set,
    pendant_vertices,
    rho,
    spanning_trees,
    unit_terminal_partition,
    validate_unicyclic,
    xi_theta,
    xi_theta_partition,
)


def net_graph():
    """Triangle with one pendant per cycle vertex."""
    return validate_unicyclic(
        graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    )


def c6_with_two_paths():
    """Hexagon with a length-2 pendant path at two opposite vertices."""
    return validate_unicyclic(
        graph_from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
             (0, 6), (6, 7), (3, 8), (8, 9)],
        )
    )


# -- pendant resolving set ----------------------------------------------------


@pytest.mark.parametrize("k,expected", [(3, 6), (4, 12)])
def test_pendant_set_on_sun(k, expected):
    cert = pendant_resolving_set(gen_sun(k))
    assert cert.verified
    assert cert.kind == "set"
    assert cert.size == expected == cert.claimed_bound


def test_pendant_set_bound_matches_formula():
    u = gen_sun(3)
    cert = pendant_resolving_set(u)
    assert cert.claimed_bound == len(pendant_vertices(u.graph)) - rho(u.graph)


def test_pendant_set_requires_busy_cycle():
    with pytest.raises(PreconditionError, match="degree"):
        pendant_resolving_set(gen_c4k(2))


# -- cycle partition -----------------------------------------------------------


def test_cycle_partition_on_c4():
    cert = cycle_partition(gen_cycle(4))
    assert cert.verified
    assert cert.payload.to_lists() == [[0], [1, 2], [3]]


def test_cycle_partition_on_c3_collapses_to_singletons():
    cert = cycle_partition(gen_cycle(3))
    assert cert.verified
    assert cert.payload.to_lists() == [[0], [1], [2]]


@pytest.mark.parametrize("k", range(3, 41))
def test_cycle_partition_on_c7(k):
    cert = cycle_partition(gen_cycle(k))
    assert cert.verified and cert.size == 3 == cert.claimed_bound


def test_cycle_partition_rejects_non_cycles():
    with pytest.raises(PreconditionError):
        cycle_partition(gen_c4k(2))


# -- unit terminal partition -----------------------------------------------------


def test_unit_terminal_on_c6_with_paths():
    cert = unit_terminal_partition(c6_with_two_paths())
    assert cert.verified and cert.size == 3


def test_unit_terminal_on_net():
    cert = unit_terminal_partition(net_graph())
    assert cert.verified
    assert cert.payload.to_lists() == [[0, 3], [1, 4], [2, 5]]


def test_unit_terminal_orients_the_cycle_toward_the_smaller_neighbour():
    # Re-anchored at the exterior major 2, the triangle runs 2, 0, 1.
    u = validate_unicyclic(graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
    assert unit_terminal_partition(u).payload.to_lists() == [[2, 3], [0], [1]]


def test_unit_terminal_rejects_high_terminal_degree():
    with pytest.raises(PreconditionError, match="terminal degree"):
        unit_terminal_partition(gen_sun(3))


def test_unit_terminal_rejects_bare_cycle():
    with pytest.raises(PreconditionError, match="exterior major"):
        unit_terminal_partition(gen_cycle(6))


def test_unit_terminal_rejects_major_off_the_cycle():
    # Class n6#1: the smallest exterior major, 3, is off the triangle 0-1-2.
    u = validate_unicyclic(
        graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)])
    )
    with pytest.raises(PreconditionError, match="terminal degree"):
        unit_terminal_partition(u)


# -- kappa tau partition ---------------------------------------------------------


def test_kappa_tau_on_sun3():
    u = gen_sun(3)
    cert = kappa_tau_partition(u)
    k, t = kappa_tau(u.graph)
    assert cert.verified
    assert cert.claimed_bound == k + t + 1 == 7
    assert cert.size <= 7


def test_kappa_tau_on_c4k():
    cert = kappa_tau_partition(gen_c4k(2))
    assert cert.verified and cert.claimed_bound == 4 and cert.size <= 4


def test_kappa_tau_rejects_kappa_zero():
    with pytest.raises(PreconditionError):
        kappa_tau_partition(gen_cycle(6))


# -- xi theta partition ----------------------------------------------------------


def test_xi_theta_on_c4k():
    u = gen_c4k(2)
    cert = xi_theta_partition(u)
    _, tree = epsilon(u)
    xi, theta = xi_theta(tree.graph)
    assert cert.verified
    assert cert.claimed_bound == xi + theta == 4


def test_xi_theta_on_sun3():
    cert = xi_theta_partition(gen_sun(3))
    assert cert.verified and cert.claimed_bound == 6


def test_xi_theta_rejects_cycles():
    with pytest.raises(PreconditionError):
        xi_theta_partition(gen_cycle(5))


def test_xi_theta_bound_achieved_on_sparse_unicyclic():
    # With at most two branch vertices, each carrying one pendant path,
    # the partition dimension reaches exactly three.
    for u in (net_graph_one_branch(), c6_with_two_paths()):
        pd, _ = partition_dimension_exact(all_pairs_distances(u.graph))
        assert pd == 3
        _, tree = epsilon(u)
        xi, theta = xi_theta(tree.graph)
        assert pd <= xi + theta


def net_graph_one_branch():
    """Square with a single pendant: one exterior major of terminal degree one."""
    return validate_unicyclic(
        graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    )


# -- lift -----------------------------------------------------------------------


def test_lift_on_c5():
    u = gen_cycle(5)
    tree = spanning_trees(u)[0]
    pd_t, witness = partition_dimension_exact(all_pairs_distances(tree.graph))
    cert = lift_tree_partition(u, witness, tree)
    assert cert.verified
    assert cert.claimed_bound == pd_t + 3 == 5
    assert cert.size <= 5
    # The graph's own optimum shows the lift is not tight here.
    assert partition_dimension_exact(all_pairs_distances(u.graph))[0] == 3


def test_lift_on_c4k():
    u = gen_c4k(2)
    for tree in spanning_trees(u):
        pd_t, witness = partition_dimension_exact(all_pairs_distances(tree.graph))
        cert = lift_tree_partition(u, witness, tree)
        assert cert.verified
        assert cert.size <= pd_t + 3


def test_lift_anchors_the_deleted_edge_and_the_vertex_opposite():
    # On the cycle 0..6 the re-anchored cycle runs from a through b, so the
    # third singleton sits three steps from a in the direction of b.
    u = gen_cycle(7)
    for tree in spanning_trees(u):
        a, b = tree.deleted_edge
        opposite = (a + 3) % 7 if b == a + 1 else (a - 3) % 7
        _, witness = partition_dimension_exact(all_pairs_distances(tree.graph))
        parts = set(lift_tree_partition(u, witness, tree).payload.parts)
        assert {frozenset({a}), frozenset({b}), frozenset({opposite})} <= parts


def test_lift_of_singletons_stays_singletons():
    u = gen_cycle(6)
    tree = spanning_trees(u)[2]
    singles = OrderedPartition.from_parts([{v} for v in range(6)])
    cert = lift_tree_partition(u, singles, tree)
    assert cert.verified
    assert cert.size == 6


def test_lift_rejects_non_resolving_tree_partition():
    u = gen_cycle(6)
    tree = spanning_trees(u)[0]
    bad = OrderedPartition.from_parts([{0, 1, 2, 3, 4}, {5}])
    if check_resolving_partition(all_pairs_distances(tree.graph), bad).resolving:
        pytest.skip("partition unexpectedly resolves the tree")
    with pytest.raises(PreconditionError, match="does not resolve"):
        lift_tree_partition(u, bad, tree)


def test_lift_rejects_foreign_tree():
    u = gen_cycle(6)
    other = spanning_trees(gen_cycle(7))[0]
    _, witness = partition_dimension_exact(all_pairs_distances(other.graph))
    with pytest.raises(PreconditionError):
        lift_tree_partition(u, witness, other)


def test_lift_counterexample_is_detected():
    """The lifted tree partition is not always resolving; the checker must say so.

    On this 11-vertex graph (triangle with two branches), the optimal
    partition of the minimum-leaf tree separates the in-branch pair (3, 9)
    only through the part {5, 8}; restoring the cycle edge shortens the path
    from 3 to 5 by one hop, which collapses that separation, and the anchor
    singletons cannot split vertices hanging off the same cycle vertex.  The
    lift must report the twin pair instead of silently passing, while the
    size bound it supports still holds.
    """
    from udim import gen_random_unicyclic

    u = gen_random_unicyclic(11, seed=259)
    assert u.k == 3
    _, tree = epsilon(u)
    dm_t = all_pairs_distances(tree.graph)
    pd_t, witness = partition_dimension_exact(dm_t)
    assert check_resolving_partition(dm_t, witness).resolving
    cert = lift_tree_partition(u, witness, tree)
    assert not cert.verified
    assert cert.witness == (3, 9)
    dm_g = all_pairs_distances(u.graph)
    rep = {
        v: tuple(
            min(dm_g[v][u_] for u_ in part) for part in cert.payload.parts
        )
        for v in cert.witness
    }
    assert rep[3] == rep[9]
    # The inequality the construction supports is still true here.
    assert partition_dimension_exact(dm_g)[0] <= pd_t + 3


# -- family sweep ----------------------------------------------------------------


def _applicable_certs(u):
    g = u.graph
    certs = []
    if all(g.degree(c) >= 3 for c in u.cycle):
        certs.append(pendant_resolving_set(u))
    if u.is_cycle_graph():
        certs.append(cycle_partition(u))
    elif kappa_tau(g)[0] == 0:
        certs.append(unit_terminal_partition(u))
    if kappa_tau(g)[0] >= 1:
        certs.append(kappa_tau_partition(u))
    if not u.is_cycle_graph():
        certs.append(xi_theta_partition(u))
    return certs


def test_constructions_verified_on_all_small_classes(unicyclic_classes):
    """Every applicable construction verifies and never beats the exact optimum."""
    for n in range(3, 8):
        for u in unicyclic_classes[n]:
            dm = all_pairs_distances(u.graph)
            pd, _ = partition_dimension_exact(dm)
            for cert in _applicable_certs(u):
                assert cert.verified, (n, u.graph, cert)
                assert cert.size <= cert.claimed_bound
                if cert.kind == "partition":
                    assert pd <= cert.size


def test_constructions_verified_exhaustive_to_ten(unicyclic_classes):
    for n in (8, 9, 10):
        for u in unicyclic_classes[n]:
            for cert in _applicable_certs(u):
                assert cert.verified, (n, u.graph, cert)
                assert cert.size <= cert.claimed_bound


def test_constructions_verified_on_large_random_instances():
    """Checker-verified sweep well beyond the exact-solver caps (n up to 40).

    The lift is exercised with the singleton tree partition here; small-n
    optimal-partition coverage lives in the acceptance suite.
    """
    from udim import OrderedPartition, gen_random_unicyclic, spanning_trees

    sizes = tuple(range(13, 41))
    for i in range(1000):
        n = sizes[i % len(sizes)]
        u = gen_random_unicyclic(n, seed=10_000 + i)
        for cert in _applicable_certs(u):
            assert cert.verified, (n, i, cert)
            assert cert.size <= cert.claimed_bound
        if i % 50 == 0:
            tree = spanning_trees(u)[0]
            singles = OrderedPartition.from_parts([{v} for v in range(n)])
            cert = lift_tree_partition(u, singles, tree)
            assert cert.verified and cert.size <= n + 3
