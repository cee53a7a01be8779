"""Graph core: parsing, distances, cycle extraction, spanning trees."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given

import udim
from udim import (
    DisconnectedGraphError,
    GraphFormatError,
    NotUnicyclicError,
    all_pairs_distances,
    gen_c4k,
    gen_cycle,
    gen_path,
    gen_random_unicyclic,
    graph_from_edges,
    parse_edge_list,
    spanning_trees,
    to_edge_list,
    validate_unicyclic,
)

from .strategies import unicyclic_graphs


# -- parsing --------------------------------------------------------------


def test_parse_triangle():
    g = parse_edge_list("0 1\n1 2\n2 0")
    assert g.n == 3
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_parse_star_on_three():
    g = parse_edge_list("0 1\n0 2")
    assert g.n == 3
    assert g.degree(0) == 2


def test_parse_comments_and_blanks():
    g = parse_edge_list("# a triangle\n\n0 1\n1 2\n\n2 0\n")
    assert g.n == 3 and g.edge_count == 3


def test_parse_accepts_bytes():
    assert parse_edge_list(b"0 1\n1 2\n2 0\n") == parse_edge_list("0 1\n1 2\n2 0")


def test_parse_rejects_bytes_that_are_not_utf8():
    with pytest.raises(GraphFormatError, match="not UTF-8 text: bad byte at offset 0$"):
        parse_edge_list(b"\xff")
    with pytest.raises(GraphFormatError, match="offset 4$"):
        parse_edge_list(b"0 1\n\xfe1 2\n")


def test_parse_duplicate_edge_is_error():
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_edge_list("0 1\n1 0")


def test_parse_self_loop_is_error():
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_edge_list("1 1")


def test_parse_vertex_gap_is_error():
    with pytest.raises(GraphFormatError, match="dense"):
        parse_edge_list("0 2")


def test_parse_sparse_ids_give_a_bounded_message():
    # Density is decided from the ids in use, so a huge id costs nothing.
    with pytest.raises(GraphFormatError, match="dense") as exc:
        parse_edge_list("0 1\n1 1000000000000\n")
    assert str(exc.value).endswith("999999999998 missing, the first is 2")


def test_parse_malformed_line_is_error():
    with pytest.raises(GraphFormatError, match="two vertex ids"):
        parse_edge_list("0 1 2")
    with pytest.raises(GraphFormatError, match="non-integer"):
        parse_edge_list("0 x")
    with pytest.raises(GraphFormatError):
        parse_edge_list("")


def test_parse_is_deterministic():
    text = "0 1\n1 2\n2 3\n3 4\n4 0\n0 5\n"
    g1, g2 = parse_edge_list(text), parse_edge_list(text)
    assert g1 == g2
    assert validate_unicyclic(g1).cycle == validate_unicyclic(g2).cycle


def test_edge_list_round_trip():
    u = gen_c4k(3)
    assert parse_edge_list(to_edge_list(u.graph)) == u.graph


@given(unicyclic_graphs(max_n=15))
def test_edge_list_round_trip_property(u):
    assert parse_edge_list(to_edge_list(u.graph)) == u.graph


def test_graph_from_edges_rejects_bad_ids():
    with pytest.raises(GraphFormatError):
        graph_from_edges(3, [(0, 3)])


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: graph_from_edges(3, [(0, 1), (1, 1)]), r"^self-loop at vertex 1$"),
        (lambda: graph_from_edges(3, [(0, 1), (2, 1), (1, 0)]), r"^duplicate edge 0 1$"),
        (lambda: parse_edge_list("0 1\n-1 2\n"), r"^line 2: negative vertex id in '-1 2'$"),
    ],
    ids=["self-loop", "duplicate", "negative-id"],
)
def test_malformed_edges_are_rejected(build, match):
    with pytest.raises(GraphFormatError, match=match):
        build()


# -- distances ------------------------------------------------------------


def test_cycle_antipodal_distance():
    dm = all_pairs_distances(gen_cycle(4).graph)
    assert dm[0][2] == 2


def test_path_end_to_end_distance():
    dm = all_pairs_distances(gen_path(5))
    assert dm[0][4] == 4


def test_c4k_pendant_to_far_cycle_vertex():
    dm = all_pairs_distances(gen_c4k(2).graph)
    assert dm[4][2] == 3  # pendant at u1 to the opposite cycle vertex


def test_disconnected_distances_error():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError, match="vertex 2 is unreachable from vertex 0"):
        all_pairs_distances(g)
    assert not udim.is_connected(g)
    assert not udim.is_connected(udim.Graph(0, ()))
    assert udim.is_connected(udim.Graph(1, ((),)))


def _floyd_warshall(g: udim.Graph) -> list[list[int]]:
    big = 10**6
    d = [[0 if i == j else big for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            dik = d[i][k]
            for j in range(g.n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return d


def test_bfs_matches_floyd_warshall_on_random_instances():
    for seed in range(200):
        u = gen_random_unicyclic(3 + seed % 10, seed=seed)
        dm = all_pairs_distances(u.graph)
        assert [list(row) for row in dm] == _floyd_warshall(u.graph)


def test_distance_matrix_axioms_on_random_instances():
    for seed in range(1000):
        u = gen_random_unicyclic(3 + seed % 8, seed=seed)
        g = u.graph
        dm = all_pairs_distances(g)
        for i in range(g.n):
            assert dm[i][i] == 0
            for j in range(g.n):
                assert dm[i][j] == dm[j][i]
                assert (dm[i][j] == 1) == (j in g.adjacency[i])
                for k in range(g.n):
                    assert dm[i][j] <= dm[i][k] + dm[k][j]


# -- unicyclic validation ---------------------------------------------------


def test_validate_cycle():
    assert validate_unicyclic(gen_cycle(5).graph).cycle == (0, 1, 2, 3, 4)


def test_validate_path_is_error():
    with pytest.raises(NotUnicyclicError):
        validate_unicyclic(gen_path(4))


def test_validate_multicyclic_is_error():
    # Theta graph: two vertices joined by three paths.
    g = graph_from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    with pytest.raises(NotUnicyclicError):
        validate_unicyclic(g)


def test_validate_disconnected_is_error():
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(DisconnectedGraphError):
        validate_unicyclic(g)


def test_c4k_cycle_after_peeling():
    assert gen_c4k(3).cycle == (0, 1, 2, 3)


def test_canonical_cycle_orientation():
    # Same cycle entered in reverse order must canonicalize identically.
    a = parse_edge_list("0 1\n1 2\n2 3\n3 0\n")
    b = parse_edge_list("0 3\n3 2\n2 1\n1 0\n")
    assert validate_unicyclic(a).cycle == validate_unicyclic(b).cycle == (0, 1, 2, 3)


# -- spanning trees ---------------------------------------------------------


def test_cycle_has_n_spanning_trees():
    trees = spanning_trees(gen_cycle(3))
    assert len(trees) == 3
    for tree in trees:
        assert udim.is_tree(tree.graph)


def test_c4k_has_four_spanning_trees():
    trees = spanning_trees(gen_c4k(2))
    assert len(trees) == 4
    assert [t.deleted_edge for t in trees] == [(0, 1), (1, 2), (2, 3), (0, 3)]


def test_c6_spanning_trees_are_paths():
    for tree in spanning_trees(gen_cycle(6)):
        degrees = sorted(tree.graph.degree(v) for v in range(6))
        assert degrees == [1, 1, 2, 2, 2, 2]


def test_spanning_tree_edge_sets():
    u = gen_c4k(2)
    parent_edges = set(u.graph.edges())
    for tree in spanning_trees(u):
        tree_edges = set(tree.graph.edges())
        assert tree_edges == parent_edges - {tree.deleted_edge}
        assert tree.graph.edge_count == u.graph.n - 1
        assert udim.is_connected(tree.graph)


@given(unicyclic_graphs(max_n=20))
def test_spanning_tree_count_equals_cycle_length(u):
    assert len(spanning_trees(u)) == u.k


def test_tree_distances_derived_from_the_graph_equal_bfs(unicyclic_classes):
    graphs = [u for n in range(3, 11) for u in unicyclic_classes[n]]
    graphs += [gen_random_unicyclic(13 + s % 4, seed=s) for s in range(200)]
    for u in graphs:
        for tree in spanning_trees(u):
            assert tree.graph.distances == all_pairs_distances(tree.graph)


def test_reading_a_trees_distances_derives_that_tree_only(monkeypatch):
    derive = udim.graphs._tree_distances
    derived = []

    def counted(layout, i):
        derived.append(i)
        return derive(layout, i)

    monkeypatch.setattr(udim.graphs, "_tree_distances", counted)
    u = gen_random_unicyclic(14, seed=3)
    trees = spanning_trees(u)
    assert derived == []
    trees[2].graph.distances
    trees[2].graph.distances
    assert derived == [2]


def test_a_spanning_tree_equals_the_same_graph_built_from_its_edges():
    u = gen_c4k(2)
    for tree in spanning_trees(u):
        rebuilt = graph_from_edges(u.graph.n, tree.graph.edges())
        assert tree.graph == rebuilt and hash(tree.graph) == hash(rebuilt)


def test_random_unicyclic_validates_at_scale():
    for seed in range(1000):
        u = gen_random_unicyclic(12, seed=seed)
        assert u.graph.edge_count == u.graph.n == 12
        revalidated = validate_unicyclic(u.graph)
        assert revalidated.cycle == u.cycle


# -- adjacent cycle vertices split equal-distance pairs ---------------------


def test_adjacent_cycle_vertices_split_equal_distance_pairs():
    for n in range(3, 13):
        dm = all_pairs_distances(gen_cycle(n).graph)
        for x in range(n):
            for y in (x + 1) % n, (x - 1) % n:
                for u in range(n):
                    for v in range(u + 1, n):
                        if dm[u][x] == dm[v][x]:
                            assert dm[u][y] != dm[v][y]


def test_graph_core_imports_nothing_from_invariants():
    # The invariants import the graph core; an import back would make a cycle.
    source = Path(udim.graphs.__file__).read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("invariants" in name.split(".") for name in names), ast.unparse(node)
