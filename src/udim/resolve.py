"""Resolving sets and partitions: representations, checkers, exact solvers.

The checkers are deliberately simple and independent of the solvers; every
construction in the package is post-verified through them.  The exact
partition-dimension solver has one engine.  It streams the unordered set
partitions with exactly t blocks as restricted-growth strings in
lexicographic order (resolvability is invariant under reordering blocks, so
unordered enumeration is sound), in numpy blocks of bounded size built from
cached completions of short prefixes, and evaluates each block with one
vectorized pairwise-tie test.  The first resolving string is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidPartitionError, SolverCapError
from .graphs import DistanceMatrix

DEFAULT_DIM_CAP = 16
DEFAULT_PD_CAP = 12

# Rows per block of restricted-growth strings handed to the evaluator (fewer
# above DEFAULT_PD_CAP); it bounds the solver's working memory whatever the
# number of partitions.
_BLOCK = 1024
_SENTINEL = np.int16(32000)


@dataclass(frozen=True)
class OrderedPartition:
    """An ordered partition of the vertex set 0..n-1 into nonempty parts."""

    parts: tuple[frozenset[int], ...]

    @property
    def t(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)

    def to_lists(self) -> list[list[int]]:
        return [sorted(p) for p in self.parts]

    @classmethod
    def from_parts(cls, parts: Iterable[Iterable[int]]) -> "OrderedPartition":
        frozen = tuple(frozenset(p) for p in parts)
        if not frozen or any(not p for p in frozen):
            raise InvalidPartitionError("parts must be nonempty")
        total = sum(len(p) for p in frozen)
        union = frozenset().union(*frozen)
        if len(union) != total:
            raise InvalidPartitionError("parts overlap")
        if union != frozenset(range(total)):
            raise InvalidPartitionError(
                f"parts must cover exactly the vertex ids 0..{total - 1}"
            )
        return cls(parts=frozen)


@dataclass(frozen=True)
class ResolutionWitness:
    """Outcome of a resolving check; twins holds an offending pair on failure."""

    resolving: bool
    twins: tuple[int, int] | None = None


def _check_partition_shape(dm: DistanceMatrix, p: OrderedPartition) -> None:
    n = len(dm)
    union: set[int] = set()
    total = 0
    for part in p.parts:
        if not part:
            raise InvalidPartitionError("parts must be nonempty")
        union.update(part)
        total += len(part)
    if total != len(union):
        raise InvalidPartitionError("parts overlap")
    if union != set(range(n)):
        raise InvalidPartitionError(
            f"partition covers {sorted(union)} but the graph has vertices 0..{n - 1}"
        )


def partition_representation(
    dm: DistanceMatrix, p: OrderedPartition, v: int
) -> tuple[int, ...]:
    """The vector of distances from v to each part, in part order."""
    n = len(dm)
    if not 0 <= v < n:
        raise InvalidPartitionError(f"vertex {v} outside 0..{n - 1}")
    _check_partition_shape(dm, p)
    row = dm[v]
    return tuple(min(row[u] for u in part) for part in p.parts)


def set_representation(
    dm: DistanceMatrix, landmarks: Sequence[int], v: int
) -> tuple[int, ...]:
    """The vector of distances from v to each landmark, in the given order."""
    row = dm[v]
    return tuple(row[u] for u in landmarks)


def _first_twin(vectors: Sequence[tuple[int, ...]]) -> tuple[int, int]:
    n = len(vectors)
    for u in range(n):
        vu = vectors[u]
        for v in range(u + 1, n):
            if vu == vectors[v]:
                return (u, v)
    raise AssertionError("no twin pair found although vectors collide")


def check_resolving_partition(dm: DistanceMatrix, p: OrderedPartition) -> ResolutionWitness:
    """Decide whether the partition resolves the graph of this distance matrix.

    On failure the lexicographically first pair with equal representations is
    reported.
    """
    _check_partition_shape(dm, p)
    n = len(dm)
    parts = [tuple(part) for part in p.parts]
    vectors = []
    for v in range(n):
        row = dm[v]
        vectors.append(tuple(min(row[u] for u in part) for part in parts))
    if len(set(vectors)) == n:
        return ResolutionWitness(resolving=True)
    return ResolutionWitness(resolving=False, twins=_first_twin(vectors))


def check_resolving_set(dm: DistanceMatrix, s: Iterable[int]) -> ResolutionWitness:
    """Decide whether the vertex set resolves the graph of this distance matrix."""
    n = len(dm)
    landmarks = sorted(set(s))
    if landmarks and not (0 <= landmarks[0] and landmarks[-1] < n):
        raise InvalidPartitionError(f"landmark outside 0..{n - 1}")
    vectors = [tuple(dm[v][u] for u in landmarks) for v in range(n)]
    if len(set(vectors)) == n:
        return ResolutionWitness(resolving=True)
    return ResolutionWitness(resolving=False, twins=_first_twin(vectors))


def metric_dimension_exact(
    dm: DistanceMatrix, cap: int = DEFAULT_DIM_CAP
) -> tuple[int, tuple[int, ...]]:
    """Smallest resolving set, searching cardinalities ascending.

    Subsets of each size are tried in lexicographic order and the first
    resolving one is returned, so witnesses are deterministic.
    """
    n = len(dm)
    if n > cap:
        raise SolverCapError(f"n={n} exceeds the metric-dimension cap {cap}")
    if n == 1:
        return (0, ())
    rows = [tuple(r) for r in dm]
    for m in range(1, n + 1):
        for subset in combinations(range(n), m):
            seen: set[tuple[int, ...]] = set()
            for v in range(n):
                row = rows[v]
                key = tuple(row[u] for u in subset)
                if key in seen:
                    break
                seen.add(key)
            else:
                return (m, subset)
    raise AssertionError("the full vertex set always resolves")


# -- exact partition dimension -------------------------------------------------


def _pd_lower_bound(dm: DistanceMatrix) -> int:
    """Sound lower bound on pd from twin classes.

    Vertices with identical open (or closed) neighbourhoods have identical
    distances to every other vertex, so no part may contain two of them; the
    largest such class therefore forces at least that many parts.
    """
    n = len(dm)
    open_groups: dict[frozenset[int], int] = {}
    closed_groups: dict[frozenset[int], int] = {}
    for v in range(n):
        nb = frozenset(u for u in range(n) if dm[v][u] == 1)
        open_groups[nb] = open_groups.get(nb, 0) + 1
        cl = nb | {v}
        closed_groups[cl] = closed_groups.get(cl, 0) + 1
    biggest = max(max(open_groups.values()), max(closed_groups.values()))
    return max(2, biggest)


@lru_cache(maxsize=None)
def _completions(s: int, mx: int, t: int) -> np.ndarray:
    """Every length-s tail that takes an RGS prefix with maximum label mx to
    exactly t blocks, in lexicographic order (read-only, cached; the dtype is
    the smallest unsigned one that holds every label, so t may exceed 256).

    The tails are built column by column: each row branches into the labels
    0..mx+1 (capped at t-1), and rows that can no longer reach t blocks in
    the positions left are dropped.
    """
    label = np.min_scalar_type(t - 1)
    arr = np.zeros((1, 0), dtype=label)
    top = np.full(1, mx, dtype=np.int64)
    for i in range(s):
        remaining = s - 1 - i
        opts = np.minimum(top + 2, t)
        rep = np.repeat(np.arange(arr.shape[0]), opts)
        vals = np.arange(rep.size) - np.repeat(np.cumsum(opts) - opts, opts)
        new_top = np.maximum(top[rep], vals)
        keep = (t - 1 - new_top) <= remaining
        arr = np.concatenate([arr[rep[keep]], vals[keep, None].astype(label)], axis=1)
        top = new_top[keep]
    arr = arr[top == t - 1]
    arr.flags.writeable = False
    return arr


def _rgs_blocks(n: int, t: int) -> Iterator[np.ndarray]:
    """Every restricted-growth string of length n with exactly t blocks, in
    lexicographic order, as arrays of at most _BLOCK rows.

    Above the default cap the row limit shrinks with n**2, so that the
    evaluator's rows x n x n temporaries never outgrow those at n = 12.
    Prefix positions are fixed one at a time until the t**s bound on the
    tails of the s positions left is within the limit; each prefix followed
    by its cached completions is one piece.  A piece can be far smaller than
    its bound, so consecutive pieces are packed into one block, up to the
    limit and up to the number of rows already yielded.  Blocks thus grow
    from the first piece, and a search that stops early evaluates at most
    twice the rows it needed plus one piece.
    """
    limit = max(1, min(_BLOCK, _BLOCK * DEFAULT_PD_CAP**2 // n**2))

    def pieces() -> Iterator[np.ndarray]:
        # Depth-first over prefixes on an explicit stack, children pushed in
        # reverse so they pop in lex order.  An entry (fixed, mx, val) puts
        # val at position fixed - 1; the positions before it still hold the
        # entry's ancestors, since only deeper entries ran in between.
        prefix = [0] * n
        stack = [(1, 0, 0)]
        while stack:
            fixed, mx, val = stack.pop()
            prefix[fixed - 1] = val
            s = n - fixed
            if t**s <= limit:
                tails = _completions(s, mx, t)
                piece = np.empty((tails.shape[0], n), dtype=tails.dtype)
                piece[:, :fixed] = prefix[:fixed]
                piece[:, fixed:] = tails
                yield piece
                continue
            for nxt in reversed(range(min(mx + 1, t - 1) + 1)):
                new_mx = max(mx, nxt)
                if t - 1 - new_mx <= s - 1:
                    stack.append((fixed + 1, new_mx, nxt))

    pending: list[np.ndarray] = []
    rows = done = 0
    for piece in pieces():
        if pending and (rows + piece.shape[0] > limit or rows > done):
            yield np.concatenate(pending)
            pending, rows, done = [], 0, done + rows
        pending.append(piece)
        rows += piece.shape[0]
    yield np.concatenate(pending)


def _eval_block(block: np.ndarray, dist: np.ndarray, t: int) -> int:
    """Index of the first resolving partition in the block, or -1.

    A partition resolves iff no two vertices are tied on every block
    distance; each row keeps a "still tied" flag per vertex pair u < v and
    ANDs in the equality of the pair's distances to block j, for every j.
    """
    m, n = block.shape
    us, vs = np.triu_indices(n, 1)
    tied = np.ones((m, us.size), dtype=bool)
    for j in range(t):
        d = np.where((block == j)[:, :, None], dist, _SENTINEL).min(axis=1)
        tied &= d[:, us] == d[:, vs]
    ok = ~tied.any(axis=1)
    return int(np.argmax(ok)) if ok.any() else -1


def _blocks_from_rgs(rgs: Sequence[int], t: int) -> list[list[int]]:
    blocks: list[list[int]] = [[] for _ in range(t)]
    for v, b in enumerate(rgs):
        blocks[int(b)].append(v)
    return blocks


def partition_dimension_exact(
    dm: DistanceMatrix, cap: int = DEFAULT_PD_CAP
) -> tuple[int, OrderedPartition]:
    """Smallest resolving partition, enumerating block counts ascending.

    For each t the partitions with exactly t blocks are streamed as
    restricted-growth strings in lexicographic order, in blocks of at most
    _BLOCK rows, and each block goes through the one pairwise-tie evaluator.
    The returned partition is the first resolving one in that order for the
    minimal t, with parts ordered by smallest element.  Block counts below
    the twin-class lower bound are provably infeasible and skipped without
    enumeration.
    """
    n = len(dm)
    if n > cap:
        raise SolverCapError(f"n={n} exceeds the partition-dimension cap {cap}")
    if n == 1:
        return (1, OrderedPartition(parts=(frozenset({0}),)))
    dist = np.array(dm, dtype=np.int16)
    for t in range(_pd_lower_bound(dm), n + 1):
        for block in _rgs_blocks(n, t):
            idx = _eval_block(block, dist, t)
            if idx >= 0:
                parts = _blocks_from_rgs(block[idx], t)
                return (t, OrderedPartition(parts=tuple(frozenset(b) for b in parts)))
    raise AssertionError("the singleton partition always resolves")
