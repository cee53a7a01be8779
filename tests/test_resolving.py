"""Representations, resolving checks, and the exact dim/pd solvers."""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import combinations, islice, product
from operator import and_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udim import (
    InvalidPartitionError,
    OrderedPartition,
    SolverCapError,
    all_pairs_distances,
    check_resolving_partition,
    check_resolving_set,
    gen_c4k,
    gen_cycle,
    gen_path,
    gen_random_unicyclic,
    graph_from_edges,
    metric_dimension_exact,
    partition_dimension_exact,
    partition_representation,
    set_representation,
)
from udim import resolve
from udim.resolve import (
    _BLOCK,
    _SENTINEL,
    DEFAULT_PD_CAP,
    _completions,
    _eval_block,
    _landmark_ties,
    _pd_lower_bound,
    _rgs_blocks,
    _row_limit,
    _tail_len,
    _tail_table,
)

from .strategies import connected_graphs, unicyclic_graphs


def op(*parts):
    return OrderedPartition.from_parts(parts)


# -- representations ---------------------------------------------------------


def test_partition_representation_on_cycle():
    dm = all_pairs_distances(gen_cycle(4).graph)
    assert partition_representation(dm, op({0}, {1, 2}, {3}), 2) == (2, 0, 1)


def test_partition_representation_own_part_is_zero():
    dm = all_pairs_distances(gen_c4k(3).graph)
    p = op({0, 4}, {1, 2, 3, 5, 6})
    for v in range(7):
        rep = partition_representation(dm, p, v)
        own = 0 if v in p.parts[0] else 1
        assert rep[own] == 0
        assert rep.count(0) == 1  # other parts exclude v, so are at distance >= 1


def test_partition_representation_on_path():
    dm = all_pairs_distances(gen_path(3))
    assert partition_representation(dm, op({0}, {1, 2}), 2) == (2, 0)


def test_set_representation():
    dm = all_pairs_distances(gen_path(4))
    assert set_representation(dm, (0, 3), 1) == (1, 2)
    # Ids outside 0..3 are rejected, not wrapped or left to a bare IndexError.
    for landmarks, v in (([-1], 0), ([3], -1), ([4], 0), ([0], 4)):
        with pytest.raises(InvalidPartitionError, match="outside 0..3"):
            set_representation(dm, landmarks, v)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda dm: partition_representation(dm, op({0, 1}, {2, 3}), 4), r"^vertex 4 outside"),
        (lambda dm: partition_representation(dm, op({0, 1}, {2, 3}), -1), r"^vertex -1 outside"),
        (lambda dm: set_representation(dm, (0, 4), 1), r"^vertex 4 outside"),
        (lambda dm: check_resolving_set(dm, [0, 4]), r"^landmark outside"),
        (lambda dm: check_resolving_set(dm, [-1, 2]), r"^landmark outside"),
    ],
    ids=["partition-high", "partition-low", "set-landmark", "check-high", "check-low"],
)
def test_ids_outside_the_graph_are_rejected(call, match):
    dm = all_pairs_distances(gen_path(4))
    with pytest.raises(InvalidPartitionError, match=match + r" 0\.\.3$"):
        call(dm)


# -- checkers ----------------------------------------------------------------


def test_check_partition_resolving_on_cycle():
    dm = all_pairs_distances(gen_cycle(4).graph)
    assert check_resolving_partition(dm, op({0}, {1, 2}, {3})).resolving


def test_singletons_always_resolve():
    for g in (gen_path(5), gen_cycle(6).graph, gen_c4k(2).graph):
        dm = all_pairs_distances(g)
        p = op(*({v} for v in range(g.n)))
        assert check_resolving_partition(dm, p).resolving


def test_check_partition_reports_first_twin_pair():
    dm = all_pairs_distances(gen_cycle(4).graph)
    witness = check_resolving_partition(dm, op({0, 2}, {1, 3}))
    assert not witness.resolving
    assert witness.twins == (0, 2)


def test_check_partition_rejects_bad_partitions():
    dm = all_pairs_distances(gen_path(4))
    with pytest.raises(InvalidPartitionError):
        check_resolving_partition(dm, OrderedPartition((frozenset({0, 1}), frozenset({1, 2, 3}))))
    with pytest.raises(InvalidPartitionError):
        check_resolving_partition(dm, OrderedPartition((frozenset({0, 1}),)))
    with pytest.raises(InvalidPartitionError):
        op({0}, set())


def test_check_set_on_cycle():
    dm = all_pairs_distances(gen_cycle(5).graph)
    assert check_resolving_set(dm, {0, 1}).resolving


def test_path_endpoint_resolves():
    for n in (2, 5, 9):
        dm = all_pairs_distances(gen_path(n))
        assert check_resolving_set(dm, {0}).resolving


def test_single_vertex_does_not_resolve_c4():
    dm = all_pairs_distances(gen_cycle(4).graph)
    witness = check_resolving_set(dm, {0})
    assert not witness.resolving
    assert witness.twins == (1, 3)


@given(unicyclic_graphs(max_n=9), st.randoms())
def test_resolving_verdict_invariant_under_part_permutation(u, rnd):
    dm = all_pairs_distances(u.graph)
    _, witness = partition_dimension_exact(dm)
    parts = list(witness.parts)
    base = check_resolving_partition(dm, witness).resolving
    rnd.shuffle(parts)
    assert check_resolving_partition(dm, OrderedPartition(tuple(parts))).resolving == base


def test_non_resolving_verdict_survives_part_permutation():
    dm = all_pairs_distances(gen_cycle(4).graph)
    for parts in (({0, 2}, {1, 3}), ({1, 3}, {0, 2})):
        witness = check_resolving_partition(dm, op(*parts))
        assert not witness.resolving
        assert witness.twins == (0, 2)  # twin choice is part-order independent


def _first_twins_by_rows(dm, groups):
    """The per-vertex rule, kept as the checkers' oracle: r(v) read off row
    v, then the first pair u < v with r(u) = r(v), or None."""
    reps = [tuple(min(dm[v][u] for u in group) for group in groups) for v in range(len(dm))]
    return next(
        ((u, v) for u, v in combinations(range(len(dm)), 2) if reps[u] == reps[v]), None
    )


@given(connected_graphs(min_n=2, max_n=14), st.randoms())
def test_checkers_match_the_per_vertex_rule(g, rnd):
    dm = all_pairs_distances(g)
    assert check_resolving_set(dm, []).twins == (0, 1)  # no landmark resolves n >= 2
    t = rnd.randint(1, g.n)
    labels = [rnd.randrange(t) for _ in range(g.n)]
    parts = [[v for v in range(g.n) if labels[v] == c] for c in set(labels)]
    rnd.shuffle(parts)
    landmarks = rnd.sample(range(g.n), rnd.randint(0, g.n))
    for witness, groups in (
        (check_resolving_partition(dm, op(*parts)), parts),
        (check_resolving_set(dm, landmarks), [[w] for w in sorted(landmarks)]),
    ):
        twins = _first_twins_by_rows(dm, groups)
        assert witness.resolving == (twins is None)
        assert witness.twins == twins


# -- exact metric dimension ----------------------------------------------------


@pytest.mark.parametrize("n", range(3, 10))
def test_cycle_dimension_is_two(n):
    dim, witness = metric_dimension_exact(all_pairs_distances(gen_cycle(n).graph))
    assert dim == 2
    assert witness == (0, 1)


def test_path_dimension_is_one():
    for n in (2, 6, 12):
        dim, witness = metric_dimension_exact(all_pairs_distances(gen_path(n)))
        assert dim == 1 and witness == (0,)


def test_c4k_dimension():
    dim, witness = metric_dimension_exact(all_pairs_distances(gen_c4k(2).graph))
    assert dim == 3
    assert check_resolving_set(all_pairs_distances(gen_c4k(2).graph), witness).resolving


def test_dim_cap_enforced():
    dm = all_pairs_distances(gen_path(6))
    with pytest.raises(SolverCapError):
        metric_dimension_exact(dm, cap=5)


def test_single_vertex_graph_edge_cases():
    dm = ((0,),)
    assert metric_dimension_exact(dm) == (0, ())
    assert partition_dimension_exact(dm)[0] == 1


def _dim_by_direct_enumeration(dm) -> tuple[int, tuple[int, ...]]:
    # Independent oracle: try every subset, smallest first, each size in lex
    # order; the first resolving subset is the witness.
    n = len(dm)
    for m in range(n + 1):
        for subset in combinations(range(n), m):
            vectors = {tuple(dm[v][s] for s in subset) for v in range(n)}
            if len(vectors) == n:
                return m, subset
    raise AssertionError


def _twin_bound_by_neighbourhoods(dm) -> tuple[int, list[tuple[int, int]]]:
    # Independent oracle: the largest class of equal open or equal closed
    # neighbourhoods, and at least 2, with the pairs u < v inside those classes.
    n = len(dm)
    open_nb = [frozenset(u for u in range(n) if dm[v][u] == 1) for v in range(n)]
    closed_nb = [nb | {v} for v, nb in enumerate(open_nb)]
    bound = max(2, *Counter(open_nb).values(), *Counter(closed_nb).values())
    pairs = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if open_nb[u] == open_nb[v] or closed_nb[u] == closed_nb[v]
    ]
    return bound, pairs


def _previous_twins(n, pairs) -> list[int]:
    # For each v, the largest u paired with v, or -1.
    prev = [-1] * n
    for u, v in pairs:
        prev[v] = max(prev[v], u)
    return prev


def _pd_by_function_enumeration(dm) -> tuple[int, list[list[int]]]:
    # Independent oracle: enumerate all onto block-labelings (not RGS based).
    # The first resolving labeling in lex order is a restricted-growth string,
    # so its blocks are also the first resolving partition in RGS order.
    n = len(dm)
    for t in range(1, n + 1):
        for labels in product(range(t), repeat=n):
            if len(set(labels)) != t:
                continue
            blocks = [[v for v in range(n) if labels[v] == b] for b in range(t)]
            vectors = {
                tuple(min(dm[v][u] for u in blk) for blk in blocks)
                for v in range(n)
            }
            if len(vectors) == n:
                return t, blocks
    raise AssertionError


@given(unicyclic_graphs(max_n=6))
@settings(max_examples=30)
def test_dim_solver_matches_direct_enumeration(u):
    dm = all_pairs_distances(u.graph)
    assert metric_dimension_exact(dm) == _dim_by_direct_enumeration(dm)


def test_dim_witness_is_the_oracles_first_subset(unicyclic_classes, tree_classes):
    graphs = [u.graph for n in range(3, 9) for u in unicyclic_classes[n]]
    graphs += [t for n in range(1, 10) for t in tree_classes[n]]
    for g in graphs:
        dm = all_pairs_distances(g)
        assert metric_dimension_exact(dm) == _dim_by_direct_enumeration(dm)


@given(st.lists(st.integers(0, 63), min_size=2, max_size=9))
def test_first_zero_and_is_the_first_subset_in_lex_order(masks):
    # Few bits per int put the first zero AND anywhere in the order, also at
    # the last index each position may take.
    for m in range(2, len(masks) + 1):
        expected = next(
            (s for s in combinations(range(len(masks)), m)
             if not reduce(and_, [masks[w] for w in s])),
            None,
        )
        assert resolve._first_zero_and(masks, m) == expected


@pytest.mark.parametrize("i", [*range(20), 259, 382, 394])
def test_dim_witness_is_the_oracles_first_subset_at_n_13_to_16(i):
    # i = 259, 382 and 394 have spanning trees of dim 6, the deepest walks.
    u = gen_random_unicyclic(13 + i % 4, i)
    for g in [u.graph] + [tree.graph for tree in u.spanning_trees]:
        dm = all_pairs_distances(g)
        assert metric_dimension_exact(dm) == _dim_by_direct_enumeration(dm)


def test_twin_bound_matches_the_neighbourhood_classes(unicyclic_classes):
    from udim import spanning_trees

    for n in range(3, 11):
        for u in unicyclic_classes[n]:
            for g in [u.graph] + [tree.graph for tree in spanning_trees(u)]:
                dm = all_pairs_distances(g)
                bound, pairs = _twin_bound_by_neighbourhoods(dm)
                expected = (bound, _previous_twins(g.n, pairs))
                assert _pd_lower_bound(np.array(dm, dtype=np.int16)) == expected


@given(connected_graphs())
def test_twin_bound_matches_the_neighbourhood_classes_on_random_graphs(g):
    dm = all_pairs_distances(g)
    bound, pairs = _twin_bound_by_neighbourhoods(dm)
    expected = (bound, _previous_twins(g.n, pairs))
    assert _pd_lower_bound(np.array(dm, dtype=np.int16)) == expected


@pytest.mark.parametrize("n", [5, 12, 40, 300])
def test_landmark_ties_are_bounded_chunks_of_every_row(n):
    dist = np.array(all_pairs_distances(gen_path(n)), dtype=np.int16)
    chunks = list(_landmark_ties(dist))
    assert all(len(c) * n * n <= max(n * n, _BLOCK * DEFAULT_PD_CAP**2) for c in chunks)
    us, vs = np.triu_indices(n, 1)
    for w in (0, n // 2, n - 1):
        assert (np.concatenate(chunks)[w] == (dist[w, us] == dist[w, vs])).all()


@given(connected_graphs(max_n=6))
@settings(max_examples=30)
def test_pd_solver_matches_function_enumeration(g):
    dm = all_pairs_distances(g)
    assert partition_dimension_exact(dm)[0] == _pd_by_function_enumeration(dm)[0]


def test_pd_solver_matches_oracle_on_all_small_classes(unicyclic_classes, tree_classes):
    for n in range(3, 7):
        for u in unicyclic_classes[n]:
            dm = all_pairs_distances(u.graph)
            assert partition_dimension_exact(dm)[0] == _pd_by_function_enumeration(dm)[0]
    for n in range(2, 7):
        for t in tree_classes[n]:
            dm = all_pairs_distances(t)
            assert partition_dimension_exact(dm)[0] == _pd_by_function_enumeration(dm)[0]


def test_pd_witness_is_the_oracles_first_labeling(unicyclic_classes, tree_classes):
    # Same first witness as the independent lex-order enumeration of labelings.
    graphs = [u.graph for n in range(3, 8) for u in unicyclic_classes[n]]
    graphs += [t for n in range(2, 8) for t in tree_classes[n]]
    for g in graphs:
        dm = all_pairs_distances(g)
        pd, witness = partition_dimension_exact(dm)
        assert (pd, witness.to_lists()) == _pd_by_function_enumeration(dm)


@given(connected_graphs(max_n=9))
def test_dim_witness_resolves_and_is_monotone(g):
    dm = all_pairs_distances(g)
    dim, witness = metric_dimension_exact(dm)
    assert check_resolving_set(dm, witness).resolving
    extra = set(witness) | {max(witness, default=0) % g.n, 0}
    assert check_resolving_set(dm, extra).resolving


# -- exact partition dimension ---------------------------------------------


@pytest.mark.parametrize("n", range(2, 10))
def test_path_partition_dimension_is_two(n):
    pd, witness = partition_dimension_exact(all_pairs_distances(gen_path(n)))
    assert pd == 2
    assert witness.parts[0] == frozenset(range(n - 1))


@pytest.mark.parametrize("n", range(3, 10))
def test_cycle_partition_dimension_is_three(n):
    assert partition_dimension_exact(all_pairs_distances(gen_cycle(n).graph))[0] == 3


def test_c4k_partition_dimension_bounded_by_dim_plus_one():
    dm = all_pairs_distances(gen_c4k(2).graph)
    pd, witness = partition_dimension_exact(dm)
    dim, _ = metric_dimension_exact(dm)
    assert pd <= dim + 1 == 4
    assert check_resolving_partition(dm, witness).resolving


def test_pd_cap_enforced():
    dm = all_pairs_distances(gen_path(8))
    with pytest.raises(SolverCapError):
        partition_dimension_exact(dm, cap=7)


def test_pd_witness_parts_ordered_by_smallest_element():
    dm = all_pairs_distances(gen_c4k(4).graph)
    _, witness = partition_dimension_exact(dm)
    heads = [min(p) for p in witness.parts]
    assert heads == sorted(heads)


@given(unicyclic_graphs(max_n=10))
def test_pd_at_most_dim_plus_one(u):
    dm = all_pairs_distances(u.graph)
    pd, _ = partition_dimension_exact(dm)
    dim, _ = metric_dimension_exact(dm)
    assert pd <= dim + 1


def _rgs_by_filtering(n, t):
    # Canonical labelings: labels first appear in increasing order.  Such a
    # labeling has a label of at most i at position i, which bounds the product.
    for labels in product(*(range(min(i + 1, t)) for i in range(n))):
        firsts = [labels.index(b) for b in range(t) if b in labels]
        if len(firsts) == t and firsts == sorted(firsts):
            yield labels


def _tails_by_filtering(s, mx, t):
    # After a prefix whose largest label is mx, each label is at most one above
    # every label before it, and the tail must reach label t - 1.
    for tail in product(range(t), repeat=s):
        top = mx
        for label in tail:
            if label > top + 1:
                break
            top = max(top, label)
        else:
            if top == t - 1:
                yield tail


def test_completions_are_every_tail_in_lex_order():
    # Every table the pd search asks for up to DEFAULT_PD_CAP vertices: s < n
    # positions left, t**s <= _BLOCK rows at most, any largest prefix label.
    for t in range(1, DEFAULT_PD_CAP + 1):
        for s in range(DEFAULT_PD_CAP):
            if t**s > _BLOCK:
                continue
            for mx in range(t):
                tails = _completions(s, mx, t)
                expected = list(_tails_by_filtering(s, mx, t))
                assert tails.dtype == np.uint8
                assert not tails.flags.writeable
                assert tails.shape == (len(expected), s)
                assert [tuple(row) for row in tails.tolist()] == expected


@pytest.mark.parametrize("block_rows", [8, _BLOCK])
@pytest.mark.parametrize("n", range(1, 9))
def test_rgs_blocks_stream_every_rgs_in_lex_order(n, block_rows, monkeypatch):
    monkeypatch.setattr(resolve, "_BLOCK", block_rows)
    for t in range(1, n + 1):
        blocks = list(_rgs_blocks(n, t, [-1] * n))
        assert all(len(b) <= block_rows for b in blocks)
        # One block per prefix: the first n - s positions, s the most whose
        # t**s tails fit the row limit, are shared within each block.
        s = max(s for s in range(n) if t**s <= resolve._row_limit(n))
        assert all((b[:, : n - s] == b[0, : n - s]).all() for b in blocks)
        streamed = [tuple(int(x) for x in row) for b in blocks for row in b]
        assert streamed == list(_rgs_by_filtering(n, t))


@pytest.mark.parametrize("block_rows", [8, _BLOCK])
def test_rgs_blocks_stream_only_rgs_that_keep_the_twin_order(
    block_rows, monkeypatch, unicyclic_classes, tree_classes
):
    # The twin pairs are the oracle's, of every tree and unicyclic class, and
    # every pair, not only each vertex's previous twin, must increase; the star
    # K_{1,n-1} has n - 1 pairwise twins, so its levels t < n - 1 are empty.
    monkeypatch.setattr(resolve, "_BLOCK", block_rows)
    for n in range(2, 9):
        graphs = tree_classes[n] + [u.graph for u in unicyclic_classes.get(n, [])]
        twin_sets = {
            tuple(_twin_bound_by_neighbourhoods(all_pairs_distances(g))[1]) for g in graphs
        }
        for t in range(1, n + 1):
            every = list(_rgs_by_filtering(n, t))
            for pairs in twin_sets:
                blocks = list(_rgs_blocks(n, t, _previous_twins(n, pairs)))
                assert all(1 <= len(b) <= block_rows for b in blocks)
                streamed = [tuple(int(x) for x in row) for b in blocks for row in b]
                assert streamed == [r for r in every if all(r[u] < r[v] for u, v in pairs)]
    star = graph_from_edges(8, [(0, leaf) for leaf in range(1, 8)])
    bound, prev = _pd_lower_bound(np.array(all_pairs_distances(star), dtype=np.int16))
    assert bound == 7 and list(_rgs_blocks(8, 6, prev)) == []


def test_rgs_walk_fixes_no_prefix_that_breaks_the_twin_order(monkeypatch, tree_classes):
    # With one row per block the walk fixes every position, so each tail
    # lookup completes one whole string.  At t >= 2 the walk reaches a string
    # only through labels that keep the twin order, so none is masked away.
    monkeypatch.setattr(resolve, "_BLOCK", 1)
    lookups = []
    completions = resolve._completions

    def counted(s, mx, t):
        lookups.append(s)
        return completions(s, mx, t)

    monkeypatch.setattr(resolve, "_completions", counted)
    for n in range(2, 9):
        for g in tree_classes[n]:
            _, prev = _pd_lower_bound(np.array(all_pairs_distances(g), dtype=np.int16))
            for t in range(2, n + 1):
                lookups.clear()
                blocks = list(_rgs_blocks(n, t, prev))
                assert lookups == [0] * len(blocks)


def test_rgs_blocks_shrink_above_the_default_cap():
    # A block's rows x t x s tail masks and rows x t x n distances gathered
    # from the tail table (t, s <= n) stay within rows x n x n at n = 12.
    for n in (13, 40, 300):
        for block in islice(_rgs_blocks(n, 2, [-1] * n), 50):
            assert 1 <= len(block) and len(block) * n * n <= _BLOCK * DEFAULT_PD_CAP**2


@pytest.mark.parametrize("k", [40, 300])
def test_pd_of_large_stars(k):
    # K_{1,k} has pd = k.  At k = 40 the 40 distance coordinates would not
    # pack into 63 bits; at k = 300 the block labels do not fit in a byte.
    star = graph_from_edges(k + 1, [(0, leaf) for leaf in range(1, k + 1)])
    dm = all_pairs_distances(star)
    pd, witness = partition_dimension_exact(dm, cap=k + 1)
    assert pd == k
    assert check_resolving_partition(dm, witness).resolving


def _first_row_the_checker_accepts(dm, block, t) -> int:
    for i, row in enumerate(block):
        if check_resolving_partition(dm, op(*(np.flatnonzero(row == j) for j in range(t)))).resolving:
            return i
    return -1


def _random_rgs(rnd, n, t) -> list[int]:
    # Exactly t blocks: each label lands on a random vertex, the other vertices
    # take random labels, and labels are renamed in order of first occurrence.
    labels = [rnd.randrange(t) for _ in range(n)]
    for label, v in enumerate(rnd.sample(range(n), t)):
        labels[v] = label
    first: dict[int, int] = {}
    return [first.setdefault(label, len(first)) for label in labels]


def _rows_with_tails(rnd, prefix, t, s, count) -> list[list[int]]:
    # Rows that share the prefix and have exactly t nonempty parts: random
    # tails of s labels, each label the prefix lacks placed at least once.
    missing = sorted(set(range(t)) - set(prefix))
    rows = []
    for _ in range(count):
        tail = [rnd.randrange(t) for _ in range(s)]
        for i, label in zip(rnd.sample(range(s), len(missing)), missing):
            tail[i] = label
        rows.append(prefix + tail)
    return rows


def _assert_eval_block_matches_the_checker(dm, rows, t, s):
    block = np.array(rows, dtype=np.min_scalar_type(t - 1))
    dist = np.array(dm, dtype=np.int16)
    got = _eval_block(block, dist, _tail_table(dist, s), t, int(dist.max()) + 1)
    assert got == _first_row_the_checker_accepts(dm, block, t)


@given(connected_graphs(max_n=20), st.randoms(), st.data())
def test_eval_block_returns_the_first_row_the_checker_accepts(g, rnd, data):
    # The rows share their first n - s labels, as a block's rows do, and take
    # their last s from a tail table of up to 2**10 subsets.  Most levels at
    # t <= 4 mix rows that resolve with rows that do not.
    t = data.draw(st.integers(1, min(g.n, 4)) | st.integers(1, g.n))
    s = data.draw(st.integers(0, min(g.n - 1, 10)))
    prefix = _random_rgs(rnd, g.n, t)[: g.n - s]
    rows = _rows_with_tails(rnd, prefix, t, s, data.draw(st.integers(1, 12)))
    _assert_eval_block_matches_the_checker(all_pairs_distances(g), rows, t, s)


@given(st.randoms())
@settings(max_examples=20)
def test_eval_block_ranks_codes_that_would_pass_62_bits(rnd):
    # K_{1,40} at t = 40: 40 coordinates of base 3 would need 64 bits.  A row
    # resolves iff the centre shares its part, so the block's prefix is taken
    # from such a row, which is inserted among random rows sharing it.
    star = all_pairs_distances(graph_from_edges(41, [(0, leaf) for leaf in range(1, 41)]))
    s = rnd.randrange(6)
    resolving = [0] * 41
    for label, leaf in enumerate(rnd.sample(range(1, 41), 39), 1):
        resolving[leaf] = label
    rows = _rows_with_tails(rnd, resolving[: 41 - s], 40, s, rnd.randrange(1, 8))
    rows.insert(rnd.randrange(len(rows) + 1), resolving)
    _assert_eval_block_matches_the_checker(star, rows, 40, s)
    # K_66 has base 2, so unranked codes of its singletons would keep only
    # the last 64 coordinates, and vertices 0 and 1 would tie.
    complete = all_pairs_distances(
        graph_from_edges(66, [(u, v) for v in range(66) for u in range(v)])
    )
    _assert_eval_block_matches_the_checker(complete, [list(range(66))], 66, 0)


@pytest.mark.parametrize("n", [2, 12, 13, 40, 300, 1100])
def test_tail_table_is_bounded_and_holds_the_distance_to_each_tail_subset(n):
    # t = 2 has the longest tail of every level, and 2**s <= t**s fits the
    # row limit at every t >= 2; a path at n = 1100 leaves no tail.
    dist = np.array(all_pairs_distances(gen_path(n)), dtype=np.int16)
    assert all(t ** _tail_len(n, t) <= _row_limit(n) for t in range(2, min(n, 12) + 1))
    s = _tail_len(n, 2)
    tab = _tail_table(dist, s)
    assert tab.shape == (2**s, n) and 2**s <= _row_limit(n)
    assert (s == n - 1) == (n <= 11) and (n != 1100 or s == 0)
    assert (tab[0] == _SENTINEL).all()
    rng = np.random.default_rng(n)
    for m, v in zip(rng.integers(2**s, size=50), rng.integers(n, size=50)):
        chosen = [n - s + b for b in range(s) if m >> b & 1]
        assert tab[m, v] == min((dist[u, v] for u in chosen), default=_SENTINEL)


def test_pd_two_exactly_for_paths_up_to_ten(tree_classes, unicyclic_classes):
    for n in range(2, 11):
        for t in tree_classes[n]:
            pd, _ = partition_dimension_exact(all_pairs_distances(t))
            is_path = all(t.degree(v) <= 2 for v in range(n))
            assert (pd == 2) == is_path
            assert pd >= 2
    for n in range(3, 11):
        for u in unicyclic_classes[n]:
            pd, _ = partition_dimension_exact(all_pairs_distances(u.graph))
            assert pd >= 3


def test_dim_sandwich_between_tree_dims_exhaustive(unicyclic_classes):
    from udim import spanning_trees

    for n in range(3, 11):
        for u in unicyclic_classes[n]:
            dim_g, _ = metric_dimension_exact(all_pairs_distances(u.graph))
            for tree in spanning_trees(u):
                dim_t, _ = metric_dimension_exact(all_pairs_distances(tree.graph))
                assert dim_t - 2 <= dim_g <= dim_t + 1
