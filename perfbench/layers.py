"""Per-layer metrics from the span files of a traced run.

A layer's self time is the sum of its span durations minus the time of the
child spans they contain.  ``trace.untraced_s`` is the part of the commands'
wall time that no span covers (interpreter start, imports, exit), so the
self times of all layers plus ``trace.untraced_s`` add up to ``trace.wall_s``.
Distinct-input counts are taken per process (what an in-process memo could
save) and summed over the run's commands.
"""

from __future__ import annotations

from collections import deque

TIMED = [
    "resolve.pd_tree",
    "resolve.pd_graph",
    "resolve.metric_dimension_exact",
    "resolve.check_resolving_partition",
    "resolve.check_resolving_set",
    "graphs.all_pairs_distances",
    "graphs.spanning_trees",
    "invariants.graph_invariants",
    "invariants.epsilon",
    "invariants.terminal_profiles",
    "invariants.kappa_tau",
    "invariants.xi_theta",
    "constructions.pendant_resolving_set",
    "constructions.cycle_partition",
    "constructions.unit_terminal_partition",
    "constructions.kappa_tau_partition",
    "constructions.xi_theta_partition",
    "verification.bounds_report",
    "verification.conjecture_scan",
    "verification.gen",
    "cli.main",
]
WITH_BUSY = {"verification.bounds_report", "verification.conjecture_scan",
             "verification.gen", "cli.main"}
WITH_DISTINCT = ["resolve.pd_tree", "resolve.metric_dimension_exact",
                 "graphs.all_pairs_distances"]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer in TIMED:
        units[f"{layer}.calls"] = "count"
        if layer in WITH_BUSY:
            units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        if layer in WITH_DISTINCT:
            units[f"{layer}.distinct_inputs"] = "count"
        if layer == "resolve.pd_tree":
            units["resolve.pd_tree.distinct_classes"] = "count"
    units["constructions.unverified"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.untraced_s"] = "s"
    units["trace.wall_s"] = "s"
    return units


def tree_class(n: int, edges: list[list[int]]) -> str:
    """Aho-Hopcroft-Ullman canonical code of a free tree.

    The tree is rooted at its centre; with two centres the smaller of the two
    rooted codes is taken, which is the same for every labelling.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return min(_rooted_code(adj, c) for c in layer)


def _rooted_code(adj: list[list[int]], root: int) -> str:
    parent = {root: -1}
    order = []
    queue = deque([root])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                queue.append(w)
    code: dict[int, str] = {}
    for v in reversed(order):
        kids = sorted(code[w] for w in adj[v] if w != parent[v])
        code[v] = "(" + "".join(kids) + ")"
    return code[root]


def aggregate(traced: list[tuple[float, dict]]) -> dict[str, float]:
    """Per-layer metrics from (command wall time, span file payload) pairs.

    ``trace.overhead_ratio`` needs an untraced replay and is left to the caller.
    """
    calls = dict.fromkeys(TIMED, 0)
    busy = dict.fromkeys(TIMED, 0.0)
    self_s = dict.fromkeys(TIMED, 0.0)
    distinct = dict.fromkeys(WITH_DISTINCT, 0)
    classes = 0
    unverified = 0
    wall = 0.0
    covered = 0.0
    for cmd_wall, payload in traced:
        wall += cmd_wall
        spans = payload["spans"]
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        for (layer, start, end, _), inner in zip(spans, child):
            busy[layer] += end - start
            self_s[layer] += end - start - inner
        for layer, count in payload["calls"].items():
            calls[layer] += count
        for layer, count in payload["distinct_inputs"].items():
            distinct[layer] += count
        classes += len({tree_class(n, edges) for n, edges in payload["pd_tree_inputs"]})
        unverified += payload["unverified"]

    units = metric_units()
    out: dict[str, float] = {}
    for name in units:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[layer]
        elif field == "busy_s":
            out[name] = busy[layer]
        elif field == "self_s":
            out[name] = self_s[layer]
        elif field == "distinct_inputs":
            out[name] = distinct[layer]
    out["resolve.pd_tree.distinct_classes"] = classes
    out["constructions.unverified"] = unverified
    out["trace.untraced_s"] = wall - covered
    out["trace.wall_s"] = wall
    return out
