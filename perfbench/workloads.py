"""The benchmark's workloads: the ``udim`` commands each one issues, and how
each command's output is checked.

Every command is one closed-loop request to ``udim.cli.main``; a run issues
them one after another in one fresh interpreter (``loop.py``).  A workload's
amount of work is fixed by ``--seconds`` through a nominal duration per
command (measured on a 2-core machine with Python 3.11 and numpy 2.4), so the
same seed and run length always give the same commands, while a faster
program simply finishes sooner.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

from udim.graphs import (
    Graph,
    all_pairs_distances,
    graph_from_edges,
    spanning_trees,
    to_edge_list,
    validate_unicyclic,
)
from udim.resolve import OrderedPartition, check_resolving_partition, check_resolving_set
from udim.verification import gen_exhaustive_unicyclic, gen_random_unicyclic

NOMINAL_CLASSES_S = 16.0  # one `scan --exhaustive 3..9`
NOMINAL_RANDOM_S = 10.0  # one `scan --random 40 --n 12`
NOMINAL_ANALYZE_S = 0.02  # one `analyze` on n = 13..16
RANDOM_BATCH = 40

WHY = {
    "scan-classes-9": (
        "pd on 1,463 small spanning trees in only 93 tree classes, through both "
        "enumeration engines: a tree-class memo shows its largest effect here"
    ),
    "scan-random-12": (
        "pd at the n=12 cap, where the vectorized engine and the largest RGS arrays "
        "dominate and tree classes repeat less: engine and streaming changes show here"
    ),
    "analyze-dim-16": (
        "n=13..16 is above the pd cap, so the dim solver and the bound chain's "
        "recomputation dominate and every pd change should leave it unchanged"
    ),
}


@dataclass
class Command:
    """One ``udim`` invocation and the graphs whose results it must report."""

    cmd_id: str
    args: list[str]
    graphs: list[tuple[str, Graph]] = field(repr=False)
    check: Callable[["Command", dict], int] = field(repr=False)


def _partition_ok(dm, parts, size) -> bool:
    partition = OrderedPartition.from_parts(parts)
    return partition.t == size and check_resolving_partition(dm, partition).resolving


def check_scan(cmd: Command, payload: dict) -> int:
    """Failed graphs in a scan: each spanning-tree pd witness must resolve."""
    records = payload["records"]
    if len(records) != len(cmd.graphs):
        return len(cmd.graphs)
    failed = 0
    for (instance, u), rec in zip(cmd.graphs, records):
        trees = {tree.deleted_edge: tree for tree in spanning_trees(u)}
        entries = rec["trees"]
        ok = rec["instance"] == instance and len(entries) == len(trees)
        for entry in entries if ok else ():
            tree = trees.get(tuple(entry["deleted_edge"]))
            ok = tree is not None and _partition_ok(
                all_pairs_distances(tree.graph), entry["partition"], entry["pd"]
            )
            if not ok:
                break
        failed += not ok
    return failed


def check_analyze(cmd: Command, payload: dict) -> int:
    """1 if the dim witness (and the pd witness, when given) fails, else 0."""
    (_, u), = cmd.graphs
    dm = all_pairs_distances(u.graph)
    exact = payload["exact"]
    witness = exact["dim_witness"] or []
    ok = exact["dim"] == len(witness) and check_resolving_set(dm, witness).resolving
    if exact["pd_witness"] is not None:
        ok = ok and _partition_ok(dm, exact["pd_witness"], exact["pd"])
    return 0 if ok else 1


def scan_classes(seed: int, seconds: int, tiny: bool, workdir: str) -> list[Command]:
    """`scan --exhaustive 3..9`: every unicyclic class on 3..9 vertices; no seed applies."""
    hi = 5 if tiny else 9
    graphs = [
        (f"n{n}#{i}", u)
        for n in range(3, hi + 1)
        for i, u in enumerate(gen_exhaustive_unicyclic(n, dedup=True))
    ]
    spec = f"3..{hi}"
    repeats = 1 if tiny else max(1, int(seconds / NOMINAL_CLASSES_S))
    return [
        Command(f"scan --exhaustive {spec}",
                ["scan", "--exhaustive", spec, "--format", "json"], graphs, check_scan)
    ] * repeats


def scan_random(seed: int, seconds: int, tiny: bool, workdir: str) -> list[Command]:
    """`scan --random 40 --n 12` batches k = 0, 1, ... at `--seed 40 * k`.

    No seed applies: this family is fixed.  Its cost and peak memory are set
    by the few graphs that need the most partition levels, so they moved by
    13% (throughput) and 3.5x (peak RSS) between seeds of 120 graphs, more
    than any bound this benchmark could hold.
    """
    count, n = (3, 8) if tiny else (RANDOM_BATCH, 12)
    batches = 1 if tiny else max(1, int(seconds / NOMINAL_RANDOM_S))
    commands = []
    for k in range(batches):
        start = RANDOM_BATCH * k
        graphs = [
            (f"n{n}/seed{start + i}", gen_random_unicyclic(n, start + i)) for i in range(count)
        ]
        args = ["scan", "--random", str(count), "--n", str(n), "--seed", str(start),
                "--format", "json"]
        commands.append(Command(" ".join(args[:-2]), args, graphs, check_scan))
    return commands


def analyze_dim(seed: int, seconds: int, tiny: bool, workdir: str) -> list[Command]:
    """`analyze FILE` once on each graph i of a fixed family, relabelled by the seed.

    Graph i is gen_random_unicyclic(13 + i % 4, i) with its vertices permuted
    by a permutation drawn from the seed and i.  The seed changes every
    labelled input, every witness and every output, but not the family's
    structure: drawing 400 graphs themselves from the seed moved throughput
    by 29% and the 97th percentile by 43% between seeds, because a few graphs
    of high dimension dominate.  The edge-list files are written to
    ``workdir`` during set-up.
    """
    calls = 8 if tiny else max(1, round(seconds / NOMINAL_ANALYZE_S))
    commands = []
    for i in range(calls):
        n = 13 + i % 4
        perm = list(range(n))
        random.Random(f"{seed}/{i}").shuffle(perm)
        edges = [(perm[a], perm[b]) for a, b in gen_random_unicyclic(n, i).graph.edges()]
        u = validate_unicyclic(graph_from_edges(n, edges))
        name = f"u{n}_{i}_{seed}.edges"
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(to_edge_list(u.graph))
        commands.append(Command(f"analyze {name}", ["analyze", name, "--format", "json"],
                                [(name, u)], check_analyze))
    return commands


WORKLOADS = {
    "scan-classes-9": scan_classes,
    "scan-random-12": scan_random,
    "analyze-dim-16": analyze_dim,
}
