"""Structural invariants: pendants, terminal profiles, epsilon, xi/theta."""

from __future__ import annotations

import pytest
from hypothesis import given

from udim import (
    NotATreeError,
    all_pairs_distances,
    epsilon,
    exterior_major_count,
    gen_c4k,
    gen_cycle,
    gen_path,
    gen_sun,
    graph_from_edges,
    graph_invariants,
    kappa_tau,
    major_vertices,
    pendant_vertices,
    rho,
    spanning_trees,
    terminal_profiles,
    xi_theta,
)

from .strategies import unicyclic_graphs


def star(k: int):
    return graph_from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def test_pendants_of_path():
    assert pendant_vertices(gen_path(4)) == {0, 3}


def test_pendants_of_cycle_empty():
    assert pendant_vertices(gen_cycle(6).graph) == frozenset()


def test_pendants_of_c4k():
    assert pendant_vertices(gen_c4k(3).graph) == {4, 5, 6}


def test_terminal_profile_of_c4k():
    profiles = terminal_profiles(gen_c4k(3).graph)
    assert len(profiles) == 1
    assert profiles[0].major == 0
    assert profiles[0].terminal_degree == 3
    assert profiles[0].terminals == (4, 5, 6)


def test_terminal_profile_of_star():
    profiles = terminal_profiles(star(4))
    assert len(profiles) == 1 and profiles[0].terminal_degree == 4


def test_terminal_profiles_skip_a_component_without_a_major():
    # The walk from pendant 4 ends at pendant 5 without meeting a major, so
    # the edge 4-5 gets no profile; only a disconnected graph reaches this.
    profiles = terminal_profiles(graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)]))
    assert [p.major for p in profiles] == [0]
    assert profiles[0].terminals == (1, 2, 3)


def test_terminal_profile_of_c4k_spanning_tree():
    # Deleting the cycle edge (0, 3) leaves a single exterior major vertex.
    u = gen_c4k(2)
    tree = next(t for t in spanning_trees(u) if t.deleted_edge == (0, 3))
    assert len(pendant_vertices(tree.graph)) == 3
    assert exterior_major_count(tree.graph) == 1


def test_exterior_major_count_examples():
    assert exterior_major_count(gen_path(7)) == 0
    assert exterior_major_count(gen_sun(3).graph) == 3


def test_rho_examples():
    assert rho(gen_c4k(2).graph) == 1
    assert rho(gen_path(5)) == 0
    assert rho(gen_sun(4).graph) == 4


def test_kappa_tau_examples():
    assert kappa_tau(gen_sun(3).graph) == (3, 3)
    assert kappa_tau(gen_c4k(2).graph) == (1, 2)
    # One pendant per cycle vertex: every terminal degree is 1.
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(i, 6 + i) for i in range(6)]
    g = graph_from_edges(12, edges)
    assert kappa_tau(g) == (0, 0)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_xi_theta_of_paths(n):
    assert xi_theta(gen_path(n)) == (2, 1)


def test_xi_theta_of_star():
    assert xi_theta(star(5)) == (1, 5)


def test_xi_theta_of_c4k_tree():
    u = gen_c4k(2)
    tree = next(t for t in spanning_trees(u) if t.deleted_edge == (0, 3))
    assert xi_theta(tree.graph) == (2, 2)


def test_xi_theta_rejects_non_tree():
    with pytest.raises(NotATreeError):
        xi_theta(gen_cycle(5).graph)


def _leaf_count_after_deletion(u, edge) -> int:
    # Independent recount: deleting a cycle edge turns an endpoint into a
    # leaf exactly when its degree was 2.
    g = u.graph
    base = len(pendant_vertices(g))
    return base + sum(1 for v in edge if g.degree(v) == 2)


def test_epsilon_of_cycles():
    for n in (3, 5, 8):
        value, tree = epsilon(gen_cycle(n))
        assert value == 2
        assert tree.deleted_edge == (0, 1)


def test_epsilon_of_c4k():
    u = gen_c4k(2)
    value, tree = epsilon(u)
    assert value == 3
    assert value == min(_leaf_count_after_deletion(u, e) for e in u.cycle_edges())
    # Two deletions achieve 3; the tie-break picks the smaller edge.
    achieving = [
        e for e in u.cycle_edges() if _leaf_count_after_deletion(u, e) == 3
    ]
    assert achieving == [(0, 1), (0, 3)]
    assert tree.deleted_edge == (0, 1)


def test_epsilon_of_sun():
    value, _ = epsilon(gen_sun(3))
    assert value == 9


@given(unicyclic_graphs())
def test_epsilon_matches_independent_recount(u):
    value, tree = epsilon(u)
    counts = [_leaf_count_after_deletion(u, e) for e in u.cycle_edges()]
    assert value == min(counts)
    assert len(pendant_vertices(tree.graph)) == value


@given(unicyclic_graphs())
def test_terminals_are_strictly_closest_to_their_major(u):
    g = u.graph
    dm = all_pairs_distances(g)
    majors = major_vertices(g)
    seen_terminals: set[int] = set()
    for profile in terminal_profiles(g):
        for terminal, path in zip(profile.terminals, profile.paths):
            assert terminal not in seen_terminals
            seen_terminals.add(terminal)
            assert profile.major not in path
            assert terminal in path
            for other in majors - {profile.major}:
                assert dm[terminal][profile.major] < dm[terminal][other]
    if majors:
        # With a major present, every pendant reaches one along its branch.
        assert seen_terminals == set(pendant_vertices(g))


@given(unicyclic_graphs())
def test_profile_paths_are_pairwise_disjoint(u):
    profiles = terminal_profiles(u.graph)
    all_paths = [p for profile in profiles for p in profile.paths]
    union: set[int] = set()
    for p in all_paths:
        assert not (union & p)
        union |= p


@given(unicyclic_graphs())
def test_kappa_at_most_ex_at_most_majors(u):
    g = u.graph
    k, t = kappa_tau(g)
    ex = exterior_major_count(g)
    assert k <= ex <= len(major_vertices(g))
    assert (t == 0) == (k == 0)


def test_rho_at_most_xi_on_trees(tree_classes):
    for n in range(2, 11):
        for t in tree_classes[n]:
            assert rho(t) <= xi_theta(t)[0]


def test_non_path_trees_have_an_exterior_major(tree_classes):
    for n in range(2, 11):
        for t in tree_classes[n]:
            is_path = all(t.degree(v) <= 2 for v in range(n))
            if is_path:
                assert exterior_major_count(t) == 0
            else:
                assert exterior_major_count(t) >= 1


def test_graph_invariants_aggregate():
    u = gen_c4k(2)
    inv = graph_invariants(u.graph, unicyclic=u)
    assert (inv.n1, inv.ex, inv.rho, inv.kappa, inv.tau) == (2, 1, 1, 1, 2)
    assert inv.epsilon == 3
    assert inv.xi is None  # not a tree
    tree = next(t for t in spanning_trees(u) if t.deleted_edge == (0, 3))
    tinv = graph_invariants(tree.graph)
    assert (tinv.xi, tinv.theta) == (2, 2)
    assert tinv.epsilon is None


def test_invariant_consistency_on_exhaustive_classes(unicyclic_classes):
    for n in range(3, 9):
        for u in unicyclic_classes[n]:
            inv = graph_invariants(u.graph, unicyclic=u)
            assert inv.n1 >= inv.rho >= 0
            assert inv.kappa <= inv.ex
            assert (inv.tau == 0) == (inv.kappa == 0)
            if inv.n1 == 0:
                assert inv.ex == 0
