"""Acceptance suite: the headline guarantees, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
as they complete).  The heavy shared artifacts, the exhaustive n <= 9 family
with full bound reports and the 1000-instance random family, are built once
on first use by module-level caches so the criterion that needs them first
pays for them inside its own time budget.
"""

from __future__ import annotations

import time
from functools import lru_cache

from udim import (
    OrderedPartition,
    SolverCapError,
    all_pairs_distances,
    bounds_report,
    conjecture_scan,
    epsilon,
    exterior_major_count,
    gen_c4k,
    gen_cycle,
    gen_exhaustive_trees,
    gen_exhaustive_unicyclic,
    gen_path,
    gen_random_unicyclic,
    gen_sun,
    kappa_tau_partition,
    lift_tree_partition,
    metric_dimension_exact,
    partition_dimension_exact,
    pendant_vertices,
    rho,
    spanning_trees,
)

RANDOM_FAMILY_SIZE = 1000
RANDOM_FAMILY_NS = tuple(range(4, 13))  # instance sizes cycle through 4..12

# The lifts of an optimal tree partition that are known not to resolve G
# (README, "Known finding"), as (instance, deleted edge, first twin pair).
KNOWN_UNRESOLVED_LIFTS = {("n11/seed259", (1, 2), (3, 9))}

EQ_RECORD_NAMES = (
    "dim_vs_tree_dim.lower",
    "dim_vs_tree_dim.upper",
    "dim_vs_tree_leaves.lower",
    "dim_vs_tree_leaves.upper",
    "pd_vs_dim",
    "pd_vs_tree_leaves",
)


def _bound(report: dict, name: str) -> dict:
    return next(r for r in report["bounds"] if r["name"] == name)


def _report_line(num: int, description: str, ok: bool, started: float, extra: str = ""):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"[criterion {num:>2}] {description}: {verdict} ({elapsed:.1f}s){suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"
    return elapsed


@lru_cache(maxsize=None)
def family9():
    out = []
    for n in range(3, 10):
        for i, u in enumerate(gen_exhaustive_unicyclic(n)):
            out.append((f"n{n}#{i}", u))
    return tuple(out)


@lru_cache(maxsize=None)
def family9_reports():
    return tuple(
        (instance_id, u, bounds_report(u, instance_id=instance_id))
        for instance_id, u in family9()
    )


@lru_cache(maxsize=None)
def family9_scan():
    return conjecture_scan(family9())


@lru_cache(maxsize=None)
def random_family():
    out = []
    for i in range(RANDOM_FAMILY_SIZE):
        n = RANDOM_FAMILY_NS[i % len(RANDOM_FAMILY_NS)]
        out.append((f"n{n}/seed{i}", gen_random_unicyclic(n, seed=i)))
    return tuple(out)


@lru_cache(maxsize=None)
def random_family_reports():
    return tuple(
        (instance_id, u, bounds_report(u, instance_id=instance_id))
        for instance_id, u in random_family()
    )


def test_c01_cycle_metric_dimension():
    started = time.perf_counter()
    ok = True
    for n in range(3, 13):
        dim, _ = metric_dimension_exact(all_pairs_distances(gen_cycle(n).graph))
        ok = ok and dim == 2
    elapsed = _report_line(1, "dim(C_n) = 2 for n in 3..12", ok, started)
    assert elapsed < 1.0


def test_c02_pd_two_iff_path():
    started = time.perf_counter()
    failures = []
    for n in range(2, 13):
        pd, _ = partition_dimension_exact(all_pairs_distances(gen_path(n)))
        if pd != 2:
            failures.append(f"P_{n} gave {pd}")
    for n in range(3, 9):
        for i, u in enumerate(gen_exhaustive_unicyclic(n)):
            pd, _ = partition_dimension_exact(all_pairs_distances(u.graph))
            if pd < 3:
                failures.append(f"n{n}#{i} gave {pd}")
    elapsed = _report_line(
        2,
        "pd(P_n) = 2 for n in 2..12 and pd >= 3 on exhaustive non-paths n <= 8",
        not failures,
        started,
        extra="; ".join(failures[:3]),
    )
    assert elapsed < 60.0


def test_c03_cycle_partition_dimension():
    started = time.perf_counter()
    ok = True
    for n in range(3, 13):
        pd, _ = partition_dimension_exact(all_pairs_distances(gen_cycle(n).graph))
        ok = ok and pd == 3
    elapsed = _report_line(3, "pd(C_n) = 3 for n in 3..12", ok, started)
    assert elapsed < 60.0


def test_c04_pendant_cluster_dimension_and_tightness():
    started = time.perf_counter()
    failures = []
    for k in range(2, 7):
        u = gen_c4k(k)
        dim, _ = metric_dimension_exact(all_pairs_distances(u.graph))
        if dim != k + 1:
            failures.append(f"k={k}: dim={dim}")
        tree = next(t for t in spanning_trees(u) if t.deleted_edge == (0, 3))
        n1 = len(pendant_vertices(tree.graph))
        ex = exterior_major_count(tree.graph)
        if n1 - ex + 1 != k + 1:
            failures.append(f"k={k}: leaf bound {n1 - ex + 1}")
    _report_line(
        4,
        "dim = k+1 on the pendant-cluster family, upper bound tight",
        not failures,
        started,
        extra="; ".join(failures),
    )


def test_c05_tree_dimension_formula():
    started = time.perf_counter()
    failures = []
    checked = 0
    for n in range(4, 11):
        for t in gen_exhaustive_trees(n):
            ex = exterior_major_count(t)
            if ex == 0:  # path
                continue
            checked += 1
            dim, _ = metric_dimension_exact(all_pairs_distances(t))
            if dim != len(pendant_vertices(t)) - ex:
                failures.append(f"tree n={n} dim={dim}")
    elapsed = _report_line(
        5,
        f"dim(T) = n1 - ex on all {checked} non-path trees with n <= 10",
        not failures and checked > 0,
        started,
        extra="; ".join(failures[:3]),
    )
    assert elapsed < 300.0


def test_c06_bound_chain_zero_violations():
    started = time.perf_counter()
    failures = []
    for instance_id, _, rep in family9_reports() + random_family_reports():
        for name in EQ_RECORD_NAMES:
            rec = _bound(rep, name)
            if rec["applicable"] and rec["satisfied"] is not True:
                failures.append(f"{instance_id}:{name}")
        if rep["violations"]:
            failures.append(f"{instance_id}:{','.join(rep['violations'])}")
    elapsed = _report_line(
        6,
        "bound chain holds on exhaustive n <= 9 plus 1000 random n <= 12",
        not failures,
        started,
        extra="; ".join(failures[:3]),
    )
    assert elapsed < 900.0


def test_c09_spanning_tree_gap_scan():
    # Defined ahead of criterion 7 so the scan's cost lands in this
    # criterion's own budget; criterion 7 then reuses the cached witnesses.
    started = time.perf_counter()
    scan = family9_scan()
    histogram = scan["gap_histogram"]
    ok = not scan["proposition_violations"]
    elapsed = _report_line(
        9,
        "pd(G) <= pd(T) + 3 for every spanning tree, exhaustive n <= 9",
        ok,
        started,
        extra=f"gap histogram {histogram}; conjecture gaps >= 2: "
        f"{len(scan['conjecture_violations'])}",
    )
    assert elapsed < 1800.0


def _lift_verdict_fault(dm, cert) -> str | None:
    """Judge a lift's verdict from raw distances, without the package checker.

    r(v|Pi) is the vector of minimum distances from v to each part.  A
    verified lift must give every vertex its own vector; an unverified one
    must report a witness pair whose vectors are equal.
    """
    parts = cert.payload.parts
    if sorted(v for p in parts for v in p) != list(range(len(dm))):
        return "payload is not a partition of V"
    reps = [tuple(min(row[w] for w in p) for p in parts) for row in dm]
    if cert.verified:
        if len(set(reps)) != len(reps):
            return "verified but two vertices share r(v|Pi)"
    elif cert.witness is None or reps[cert.witness[0]] != reps[cert.witness[1]]:
        return f"witness {cert.witness} is not a twin pair"
    return None


def test_c07_constructions_all_verified():
    started = time.perf_counter()
    failures = []
    for instance_id, _, rep in family9_reports() + random_family_reports():
        for name, cert in rep["certificates"].items():
            if not cert["verified"] or cert["size"] > cert["claimed_bound"]:
                failures.append(f"{instance_id}:{name}:twins={cert['witness']}")
    # The lift promises only a size of at most pd(T) + 3 and a checked
    # verdict; it is not always resolving (README, "Known finding").  So each
    # lift must stay within the size bound, its verdict must agree with the
    # test's own distance check, and the unverified lifts must be exactly the
    # documented ones: a new failure, a repaired lift or a changed first twin
    # pair all fail this criterion until the README is updated.
    lifts = []  # (instance, graph, pd(T), spanning tree, lifted certificate)
    # Every spanning tree of the exhaustive family, reusing the optimal tree
    # partitions the scan already computed.
    graphs = dict(family9())
    for rec in family9_scan()["records"]:
        u = graphs[rec["instance"]]
        trees = {t.deleted_edge: t for t in spanning_trees(u)}
        for entry in rec["trees"]:
            tree = trees[tuple(entry["deleted_edge"])]
            cert = lift_tree_partition(u, OrderedPartition.from_parts(entry["partition"]), tree)
            lifts.append((rec["instance"], u, entry["pd"], tree, cert))
    # And the minimum-leaf tree of every random instance.
    for instance_id, u in random_family():
        _, tree = epsilon(u)
        pd_t, witness = partition_dimension_exact(all_pairs_distances(tree.graph))
        cert = lift_tree_partition(u, witness, tree)
        lifts.append((instance_id, u, pd_t, tree, cert))
    unresolved = set()
    for instance_id, u, pd_t, tree, cert in lifts:
        tag = f"{instance_id}:lift:{tree.deleted_edge}"
        if cert.size > pd_t + 3:
            failures.append(f"{tag}:size {cert.size} > pd(T) + 3 = {pd_t + 3}")
        fault = _lift_verdict_fault(all_pairs_distances(u.graph), cert)
        if fault:
            failures.append(f"{tag}:{fault}")
        if not cert.verified:
            unresolved.add((instance_id, tree.deleted_edge, cert.witness))
    if unresolved != KNOWN_UNRESOLVED_LIFTS:
        failures.append(
            f"unverified lifts {sorted(unresolved)} differ from the documented "
            f"{sorted(KNOWN_UNRESOLVED_LIFTS)}"
        )
    pinned = ", ".join(
        f"{i} deleted {e} twins {w}" for i, e, w in sorted(KNOWN_UNRESOLVED_LIFTS)
    )
    _report_line(
        7,
        "every bound-chain construction verified within its bound; every lift "
        "within pd(T) + 3 with an independently confirmed verdict, unresolved "
        "only where documented; both families",
        not failures,
        started,
        extra="; ".join(
            failures[:3] + [f"{len(lifts)} lifts; documented unresolved lift: {pinned}"]
        ),
    )


def test_c08_sun_family_bounds():
    started = time.perf_counter()
    failures = []
    for k in (4, 5):
        u = gen_sun(k)
        cert = kappa_tau_partition(u)
        if not (cert.verified and cert.size <= 2 * k + 1):
            failures.append(f"k={k}: kappa-tau size {cert.size}")
        n1 = len(pendant_vertices(u.graph))
        if n1 - rho(u.graph) + 1 != k * k - k + 1:
            failures.append(f"k={k}: pendant bound")
        _, tree = epsilon(u)
        n1_t = len(pendant_vertices(tree.graph))
        ex_t = exterior_major_count(tree.graph)
        if n1_t - ex_t + 2 != k * k - k + 2:
            failures.append(f"k={k}: leaf bound")
    # n = 20 exceeds the default pd cap, so the exact check stays bound-only.
    try:
        partition_dimension_exact(all_pairs_distances(gen_sun(4).graph))
        failures.append("expected the pd cap to exclude n=20")
    except SolverCapError:
        pass
    _report_line(
        8,
        "sun family: kappa-tau certificate beats the pendant and leaf bounds",
        not failures,
        started,
        extra="; ".join(failures),
    )


def test_c10_adjacent_cycle_vertices_distance_property():
    started = time.perf_counter()
    failures = []
    for n in range(3, 31):
        dm = [list(r) for r in all_pairs_distances(gen_cycle(n).graph)]
        for x in range(n):
            for y in ((x + 1) % n, (x - 1) % n):
                dx, dy = dm[x], dm[y]
                for u in range(n):
                    for v in range(u + 1, n):
                        if dx[u] == dx[v] and dy[u] == dy[v]:
                            failures.append(f"C_{n}: x={x} y={y} u={u} v={v}")
    elapsed = _report_line(
        10,
        "equal-distance pairs split by adjacent cycle vertices, C_3..C_30",
        not failures,
        started,
        extra="; ".join(failures[:3]),
    )
    assert elapsed < 1.0


def test_c11_support_leaf_sandwich():
    started = time.perf_counter()
    failures = []
    for instance_id, _, rep in family9_reports():
        for name in ("pd_support_leaf.lower", "pd_support_leaf.upper"):
            rec = _bound(rep, name)
            if not rec["applicable"] or rec["satisfied"] is not True:
                failures.append(f"{instance_id}:{name}")
    _report_line(
        11,
        "theta(T) - 1 <= pd(G) <= xi(T) + theta(T) at the minimum-leaf tree",
        not failures,
        started,
        extra="; ".join(failures[:3]),
    )
