"""Resolving sets and partitions: representations, checkers, exact solvers.

The checkers are deliberately simple and independent of the solvers; every
construction in the package is post-verified through them.  Both exact
solvers decide one rule: landmarks or parts resolve the graph iff the
vectors r(v) are pairwise distinct.  The dim side checks it as ties, no
vertex pair u < v equal on every landmark (``_landmark_ties``); the pd side
packs each r(v) into one integer code and sorts the codes (``_eval_block``).  They try
landmark subsets, or partitions as restricted-growth strings (the rule is
invariant under reordering blocks), in lexicographic order, and the first
resolving one is the witness.  Both walk their prefixes depth-first.  The
dim search recurses, one level per landmark, carrying each subset prefix's
AND of tie bitmasks down the walk.  The pd search keeps an explicit stack,
because a string is as deep as the graph has vertices (1,099 for a path at
``--pd-cap 1100``), and hands each string prefix's tails to a vectorized
evaluator that reads d(v, P) from the prefix's distances and one table per
level over the subsets of the last s vertices.

The twin order: the pd search builds only partitions whose labels strictly
increase along each class of distance twins (pairs only their own two
vertices separate).  No vertex has twins of both kinds: N(u) = N(v) and
N[v] = N[w] put w in N(u), so u in N[w] = N[v], so v in N(u) = N(v).  So a
chain of previous twins orders each class.  Swapping twins u < v is an
automorphism; if a resolving r has r[u] > r[v], then r[v] occurs before u,
and the swap, relabelled by first occurrence, resolves and is smaller at u.
So the lex-first resolving string keeps the order: the witness is the one
found without it.  This is an automorphism identity, not a bound the
verification suite checks, so pruning with it keeps them independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidPartitionError, SolverCapError
from .graphs import DistanceMatrix

DEFAULT_DIM_CAP = 16
DEFAULT_PD_CAP = 12

# Rows per block of restricted-growth strings handed to the evaluator (fewer
# above DEFAULT_PD_CAP, see _row_limit); each block is one prefix's tails, at
# most this many rows, which bounds the solvers' working memory whatever the
# number of partitions.
_BLOCK = 1024
_SENTINEL = np.int16(32000)


@dataclass(frozen=True)
class OrderedPartition:
    """An ordered partition of the vertex set 0..n-1 into nonempty parts."""

    parts: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not self.parts or any(not p for p in self.parts):
            raise InvalidPartitionError("parts must be nonempty")
        union = frozenset().union(*self.parts)
        if len(union) != self.n:
            raise InvalidPartitionError("parts overlap")
        if union != frozenset(range(self.n)):
            missing = min(frozenset(range(self.n)) - union)
            raise InvalidPartitionError(f"vertex {missing} is in no part")

    @property
    def t(self) -> int:
        return len(self.parts)

    @cached_property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)

    def to_lists(self) -> list[list[int]]:
        return [sorted(p) for p in self.parts]

    @classmethod
    def from_parts(cls, parts: Iterable[Iterable[int]]) -> "OrderedPartition":
        """Build from vertex lists; a vertex listed twice in one part is an
        error, not silently merged."""
        lists = [list(p) for p in parts]
        if any(len(set(p)) != len(p) for p in lists):
            raise InvalidPartitionError("a part lists a vertex twice")
        return cls(parts=tuple(frozenset(p) for p in lists))


@dataclass(frozen=True)
class ResolutionWitness:
    """Outcome of a resolving check; twins holds an offending pair on failure."""

    resolving: bool
    twins: tuple[int, int] | None = None


def _check_partition_shape(dm: DistanceMatrix, p: OrderedPartition) -> None:
    # The type guarantees a partition of 0..p.n-1; only its size can be wrong.
    if p.n != len(dm):
        raise InvalidPartitionError(
            f"partition covers 0..{p.n - 1} but the graph has vertices 0..{len(dm) - 1}"
        )


def _representations(dm: DistanceMatrix, groups: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    """r(v) for every vertex v, in one pass: a group's column of distances
    is the elementwise minimum of its members' rows (dm is symmetric)."""
    if not groups:
        return [()] * len(dm)
    columns = [tuple(map(min, zip(*(dm[u] for u in g)))) for g in groups]
    return list(zip(*columns))


def partition_representation(
    dm: DistanceMatrix, p: OrderedPartition, v: int
) -> tuple[int, ...]:
    """The vector of distances from v to each part, in part order."""
    n = len(dm)
    if not 0 <= v < n:
        raise InvalidPartitionError(f"vertex {v} outside 0..{n - 1}")
    _check_partition_shape(dm, p)
    return _representations(dm, p.parts)[v]


def set_representation(
    dm: DistanceMatrix, landmarks: Sequence[int], v: int
) -> tuple[int, ...]:
    """The vector of distances from v to each landmark, in the given order."""
    n = len(dm)
    for u in (v, *landmarks):
        if not 0 <= u < n:
            raise InvalidPartitionError(f"vertex {u} outside 0..{n - 1}")
    return _representations(dm, [(u,) for u in landmarks])[v]


def _verdict(vectors: Sequence[tuple[int, ...]]) -> ResolutionWitness:
    """Resolving iff the vectors are distinct; else the first equal pair u < v."""
    if len(set(vectors)) == len(vectors):
        return ResolutionWitness(resolving=True)
    for u, vu in enumerate(vectors):
        for v in range(u + 1, len(vectors)):
            if vu == vectors[v]:
                return ResolutionWitness(resolving=False, twins=(u, v))


def check_resolving_partition(dm: DistanceMatrix, p: OrderedPartition) -> ResolutionWitness:
    """Decide whether the partition resolves the graph of this distance matrix.

    On failure the lexicographically first pair with equal representations is
    reported.
    """
    _check_partition_shape(dm, p)  # also for a graph with no vertex
    return _verdict(_representations(dm, p.parts))


def check_resolving_set(dm: DistanceMatrix, s: Iterable[int]) -> ResolutionWitness:
    """Decide whether the vertex set resolves the graph of this distance matrix."""
    n = len(dm)
    landmarks = sorted(set(s))
    if landmarks and not (0 <= landmarks[0] and landmarks[-1] < n):
        raise InvalidPartitionError(f"landmark outside 0..{n - 1}")
    return _verdict(_representations(dm, [(u,) for u in landmarks]))


def check_cap(n: int, cap: int, solver: str) -> None:
    """Raise SolverCapError if n exceeds the cap of the named exact solver."""
    if n > cap:
        raise SolverCapError(f"n={n} exceeds the {solver} cap {cap}")


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pairs u < v of 0..n-1, in np.triu_indices order."""
    return np.triu_indices(n, 1)


def _row_limit(n: int) -> int:
    """_BLOCK, shrinking with n**2 above DEFAULT_PD_CAP so that temporaries
    of rows x n x n entries never outgrow those at n = DEFAULT_PD_CAP: the
    pairwise ties of a chunk of landmarks, and a pd block's rows x t x s
    tail masks and rows x t x n distances gathered from the tail table
    (t, s <= n)."""
    return max(1, min(_BLOCK, _BLOCK * DEFAULT_PD_CAP**2 // n**2))


def _landmark_ties(dist: np.ndarray) -> Iterator[np.ndarray]:
    """The ties of each landmark's distance row (row w, column p: w ties pair
    p of _pairs(n)), in consecutive chunks of at most _row_limit(n) landmarks."""
    step = _row_limit(len(dist))
    us, vs = _pairs(len(dist))
    for i in range(0, len(dist), step):
        yield dist[i : i + step, us] == dist[i : i + step, vs]


def _first_zero_and(
    masks: Sequence[int], m: int, start: int = 0, acc: int = -1
) -> tuple[int, ...] | None:
    """The lexicographically first m-subset of the indices start.. whose ints,
    ANDed with acc, give 0.

    Plain recursion over subset prefixes, one level per position, each call
    carrying its prefix's AND, so a subset costs one AND beyond its prefix's.
    The depth is m, which the dim search asks for only after every smaller
    size failed, so no search that can finish nears the recursion limit.
    """
    if m == 1:
        return next(((w,) for w in range(start, len(masks)) if not acc & masks[w]), None)
    # Each index leaves room after it for the m - 1 positions left.
    for w in range(start, len(masks) - m + 1):
        rest = _first_zero_and(masks, m - 1, w + 1, acc & masks[w])
        if rest is not None:
            return (w, *rest)
    return None


def metric_dimension_exact(
    dm: DistanceMatrix, cap: int = DEFAULT_DIM_CAP
) -> tuple[int, tuple[int, ...]]:
    """Smallest resolving set: subsets by size, then in lexicographic order.

    Landmark w becomes one int with bit p set iff w ties vertex pair p; the
    first subset whose ints AND to 0 is returned.  Singletons are tried while
    the ints are built, so a graph of dimension 1 builds only the first.
    Larger subsets are walked depth-first in the same order, each prefix
    carrying the AND of its ints, so a subset costs one AND beyond its
    prefix's (``_first_zero_and``).
    """
    n = len(dm)
    check_cap(n, cap, "metric-dimension")
    if n == 1:
        return (0, ())
    masks: list[int] = []
    for ties in _landmark_ties(np.array(dm, dtype=np.int16)):
        for row in np.packbits(ties, axis=1, bitorder="little"):
            masks.append(int.from_bytes(row.tobytes(), "little"))
            if not masks[-1]:
                return (1, (len(masks) - 1,))
    for m in range(2, n + 1):
        subset = _first_zero_and(masks, m)
        if subset is not None:
            return (m, subset)
    raise AssertionError("the full vertex set always resolves")


# -- exact partition dimension -------------------------------------------------


def _pd_lower_bound(dist: np.ndarray) -> tuple[int, list[int]]:
    """Sound lower bound on pd, with each vertex's previous twin (the largest
    twin below it, or -1).  In a connected graph twins are the vertices with
    equal open or equal closed neighbourhoods, found by hashing the rows of
    the adjacency matrix.  A twin class needs one part per vertex, so the
    longest chain of previous twins forces that many parts."""
    n = len(dist)
    adjacent = dist == 1
    prev = [-1] * n
    for nb in (adjacent, adjacent | np.eye(n, dtype=bool)):
        last: dict[bytes, int] = {}
        for v, row in enumerate(nb):
            key = row.tobytes()
            prev[v] = last.get(key, prev[v])
            last[key] = v
    chain: list[int] = []
    for u in prev:
        chain.append(chain[u] + 1 if u >= 0 else 1)
    return max(2, *chain), prev


@lru_cache(maxsize=None)
def _completions(s: int, mx: int, t: int) -> np.ndarray:
    """Every length-s tail that takes an RGS prefix with maximum label mx to
    exactly t blocks, in lexicographic order (read-only, cached, in the
    smallest unsigned dtype that holds t - 1): each first label v in
    0..min(mx+1, t-1), followed by every tail of the s - 1 positions after it.
    """
    label = np.min_scalar_type(t - 1)
    if s == 0:
        tails = np.zeros((int(mx == t - 1), 0), dtype=label)
    else:
        heads = []
        for v in range(min(mx + 1, t - 1) + 1):
            rest = _completions(s - 1, max(mx, v), t)
            heads.append(np.column_stack((np.full(len(rest), v, dtype=label), rest)))
        tails = np.concatenate(heads)
    tails.flags.writeable = False
    return tails


def _rgs_blocks(n: int, t: int, prev: Sequence[int]) -> Iterator[np.ndarray]:
    """Every restricted-growth string of length n with exactly t blocks whose
    labels keep the twin order, r[prev[v]] < r[v] wherever prev[v] >= 0, in
    lexicographic order, as one block per prefix.

    Prefix positions are fixed one at a time, each above its previous twin's
    label, until s = _tail_len(n, t) positions are left, whose t**s tails fit
    _row_limit(n); that prefix with its cached completions, less the
    rows that break the twin order, is one block, unless no row is left.  So
    a block holds at most _row_limit(n) rows, and a search that stops early
    evaluates no block past the one that holds its witness.

    The walk is depth-first on an explicit stack, children pushed in reverse
    so they pop in lex order: a path at ``--pd-cap 1100`` fixes 1,099
    positions, deeper than Python's recursion limit.  An entry (fixed, mx,
    val) puts val at position fixed - 1, after its ancestors' values.
    """
    tail = _tail_len(n, t)
    tv = np.flatnonzero(np.array(prev, dtype=np.intp) >= 0)
    tu = np.array(prev, dtype=np.intp)[tv]
    prefix = [0] * n
    stack = [(1, 0, 0)]
    while stack:
        fixed, mx, val = stack.pop()
        prefix[fixed - 1] = val
        s = n - fixed
        if s == tail:
            tails = _completions(s, mx, t)
            block = np.empty((tails.shape[0], n), dtype=tails.dtype)
            block[:, :fixed] = prefix[:fixed]
            block[:, fixed:] = tails
            if tv.size:
                block = block[(block[:, tu] < block[:, tv]).all(axis=1)]
            if block.shape[0]:
                yield block
            continue
        # A child must leave its s - 1 positions enough to reach t blocks,
        # max(mx, nxt) >= t - s, and take a label above its previous twin's.
        u = prev[fixed]
        low = max(t - s if mx < t - s else 0, prefix[u] + 1 if u >= 0 else 0)
        for nxt in reversed(range(low, min(mx + 1, t - 1) + 1)):
            stack.append((fixed + 1, max(mx, nxt), nxt))


def _tail_len(n: int, t: int) -> int:
    """The tail length of every block at level t: the most s < n with t**s <= _row_limit(n)."""
    limit, s = _row_limit(n), n - 1
    while t**s > limit:
        s -= 1
    return s


def _tail_table(dist: np.ndarray, s: int) -> np.ndarray:
    """tab[m, v]: the distance from v to the last s vertices that the bits of
    m select (bit b: vertex n - s + b), and _SENTINEL for m = 0.  Subsets with
    top bit b are those below 2**b plus that vertex, so s minimum steps fill
    the table."""
    tab = np.full((2**s, len(dist)), _SENTINEL, dtype=np.int16)
    for b, row in enumerate(dist[len(dist) - s :]):
        np.minimum(tab[: 2**b], row, out=tab[2**b : 2 ** (b + 1)])
    return tab


def _ranks(code: np.ndarray) -> np.ndarray:
    """Each code replaced, in place, by its rank among the distinct codes of
    its row."""
    order = code.argsort(axis=1)
    ranked = np.take_along_axis(code, order, axis=1)
    dense = np.zeros_like(code)
    dense[:, 1:] = np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1)
    np.put_along_axis(code, order, dense, axis=1)
    return code


def _eval_block(block: np.ndarray, dist: np.ndarray, tab: np.ndarray, t: int, base: int) -> int:
    """Index of the first resolving partition in the block, or -1.

    Every row has exactly t nonempty parts and shares the first n - s labels,
    s the tail length of ``tab``.  d(v, P_j) is the smaller of the distance
    to the prefix's part j and the table entry of the row's tail mask for j.
    The t distances of each vertex fold into one int64 code, code * base +
    d(v, P_j), base above every distance; a fold that could pass 2**62 first
    replaces the codes by their ranks.  A row resolves iff its sorted codes
    have no equal neighbours.
    """
    rows, n = block.shape
    s = tab.shape[0].bit_length() - 1
    pre = np.full((t, n), _SENTINEL, dtype=np.int16)
    np.minimum.at(pre, block[0, : n - s], dist[: n - s])
    labels = np.arange(t, dtype=block.dtype)[:, None]
    masks = (block[:, None, n - s :] == labels) @ (1 << np.arange(s))
    d = np.minimum(tab[masks], pre)
    code = np.zeros((rows, n), dtype=np.int64)
    span = 1  # every code is below span
    for j in range(t):
        if span * base > 2**62:
            code, span = _ranks(code), n
        code = code * base + d[:, j]
        span *= base
    code.sort(axis=1)
    ok = (code[:, 1:] != code[:, :-1]).all(axis=1)
    return int(np.argmax(ok)) if ok.any() else -1


def partition_dimension_exact(
    dm: DistanceMatrix, cap: int = DEFAULT_PD_CAP, *, start: int = 1
) -> tuple[int, OrderedPartition]:
    """Smallest resolving partition, enumerating block counts ascending from
    the twin-class lower bound (fewer blocks cannot resolve), or from
    ``start`` if that is higher.  A caller passes ``start`` only when it has
    already proven that fewer blocks cannot resolve, for example pd of an
    isomorphic graph: pd is an isomorphism invariant.

    For each t the restricted-growth strings with exactly t blocks stream in
    lexicographic order through the packed-code evaluator, which reads one
    tail table per level; the first resolving one is returned, with parts
    ordered by smallest element.  The stream skips the strings that break
    the twin order (module docstring).
    """
    n = len(dm)
    check_cap(n, cap, "partition-dimension")
    if n == 1:
        return (1, OrderedPartition(parts=(frozenset({0}),)))
    dist = np.array(dm, dtype=np.int16)
    bound, prev = _pd_lower_bound(dist)
    base = int(dist.max()) + 1
    for t in range(max(bound, start), n + 1):
        tab = _tail_table(dist, _tail_len(n, t))
        for block in _rgs_blocks(n, t, prev):
            idx = _eval_block(block, dist, tab, t, base)
            if idx >= 0:
                parts = [frozenset(np.flatnonzero(block[idx] == j).tolist()) for j in range(t)]
                return (t, OrderedPartition(parts=tuple(parts)))
    raise AssertionError("the singleton partition always resolves")
