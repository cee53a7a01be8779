"""Layer spans recorded from outside the program, by wrapping public functions.

This module runs inside the traced loop interpreter (see ``loop.py``).
It replaces each listed public ``udim`` function in every ``udim`` module that
binds it with a wrapper that records a span: layer name, start, end and the
index of the enclosing span.  Spans stay in memory and are written out once,
after the loop ends.  Keys for the redundancy counters are cheap hashes
taken in the wrapper; everything heavier is left to the parent process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

# (module, function) -> layer name.  ``partition_dimension_exact`` is split
# into pd_tree / pd_graph per call, and the generators share one layer.
LAYERS = {
    ("graphs", "all_pairs_distances"): "graphs.all_pairs_distances",
    ("graphs", "spanning_trees"): "graphs.spanning_trees",
    ("resolve", "partition_dimension_exact"): None,
    ("resolve", "metric_dimension_exact"): "resolve.metric_dimension_exact",
    ("resolve", "check_resolving_partition"): "resolve.check_resolving_partition",
    ("resolve", "check_resolving_set"): "resolve.check_resolving_set",
    ("invariants", "graph_invariants"): "invariants.graph_invariants",
    ("invariants", "epsilon"): "invariants.epsilon",
    ("invariants", "terminal_profiles"): "invariants.terminal_profiles",
    ("invariants", "kappa_tau"): "invariants.kappa_tau",
    ("invariants", "xi_theta"): "invariants.xi_theta",
    ("constructions", "pendant_resolving_set"): "constructions.pendant_resolving_set",
    ("constructions", "cycle_partition"): "constructions.cycle_partition",
    ("constructions", "unit_terminal_partition"): "constructions.unit_terminal_partition",
    ("constructions", "kappa_tau_partition"): "constructions.kappa_tau_partition",
    ("constructions", "xi_theta_partition"): "constructions.xi_theta_partition",
    ("verification", "bounds_report"): "verification.bounds_report",
    ("verification", "conjecture_scan"): "verification.conjecture_scan",
    ("verification", "gen_path"): "verification.gen",
    ("verification", "gen_cycle"): "verification.gen",
    ("verification", "gen_c4k"): "verification.gen",
    ("verification", "gen_sun"): "verification.gen",
    ("verification", "gen_random_unicyclic"): "verification.gen",
    ("verification", "gen_exhaustive_unicyclic"): "verification.gen",
    ("verification", "gen_exhaustive_trees"): "verification.gen",
    ("cli", "main"): "cli.main",
}

# Layers whose first argument is hashed to count distinct inputs per process.
KEYED = {
    "graphs.all_pairs_distances",
    "resolve.metric_dimension_exact",
    "resolve.pd_tree",
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.calls: dict[str, int] = {}
        self.keys: dict[str, set[int]] = {name: set() for name in KEYED}
        self.trees: dict[int, tuple] = {}  # distinct pd_tree inputs by key
        self.unverified = 0
        self._stack = [-1]

    def _open(self, layer: str) -> list:
        rec = [layer, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _count(self, layer: str, arg) -> None:
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if layer in KEYED:
            self.keys[layer].add(hash(arg))

    def wrap(self, layer: str | None, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer
            arg = args[0] if args else None
            if name is None:
                # pd of a tree or of a graph, told apart by the edge count.
                edges = sum(row.count(1) for row in arg) // 2
                name = "resolve.pd_tree" if edges == len(arg) - 1 else "resolve.pd_graph"
                if name == "resolve.pd_tree":
                    self.trees.setdefault(hash(arg), arg)
            self._count(name, arg)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name.startswith("constructions.") and not result.verified:
                self.unverified += 1
            return result

        return wrapper

    def _wrap_generator(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(layer, None)
            it = fn(*args, **kwargs)
            while True:
                rec = self._open(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every loaded ``udim`` module binding it."""
        wrapped = {}
        for (mod_name, fn_name), layer in LAYERS.items():
            original = getattr(importlib.import_module(f"udim.{mod_name}"), fn_name)
            wrapped[id(original)] = (original, self.wrap(layer, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "udim" and not mod_name.startswith("udim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: str) -> None:
        """Write spans, counters and the distinct pd_tree inputs as edge lists."""
        tree_edges = [
            [len(dm), [[u, v] for u in range(len(dm)) for v in range(u + 1, len(dm))
                       if dm[u][v] == 1]]
            for dm in self.trees.values()
        ]
        payload = {
            "spans": self.spans,
            "calls": self.calls,
            "distinct_inputs": {k: len(v) for k, v in self.keys.items()},
            "pd_tree_inputs": tree_edges,
            "unverified": self.unverified,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
