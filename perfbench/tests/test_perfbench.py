"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, analyze_dim, scan_classes  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = layers.metric_units() if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert self_total + values["trace.untraced_s"] == pytest.approx(
            values["trace.wall_s"], rel=1e-9)
        assert values["cli.main.calls"] >= 1
    else:
        assert all(v > 0 for v in values.values())


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _fail_ratio(commands, calls, reference) -> float:
    failed = sum(run.failed_graphs(cmd, out, code, reference)
                 for cmd, (_, code, out) in zip(commands, calls))
    return failed / sum(len(cmd.graphs) for cmd in commands)


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """Tiny analyze (recorded in the reference) and scan commands with their outputs."""
    workdir = tmp_path_factory.mktemp("bench")
    commands = analyze_dim(0, 1, True, str(workdir)) + scan_classes(0, 1, True, str(workdir))
    result = run.run_loop(commands, workdir, time.perf_counter())
    assert len(result["calls"]) == len(commands)
    return commands, result["calls"]


def test_clean_outputs_pass_the_gate(tiny_outputs):
    commands, calls = tiny_outputs
    assert _fail_ratio(commands, calls, run.load_reference()) == 0


def test_corrupted_digest_raises_fail_ratio(tiny_outputs):
    commands, calls = tiny_outputs
    reference = run.load_reference()
    key = commands[0].cmd_id
    assert key in reference
    reference[key] = ["0" * 64, reference[key][1]]
    assert _fail_ratio(commands, calls, reference) > 0


def _corrupt(calls, index, edit):
    wall, code, out = calls[index]
    payload = json.loads(out)
    edit(payload)
    calls = list(calls)
    calls[index] = (wall, code, json.dumps(payload).encode())
    return calls


def test_corrupted_dim_witness_raises_fail_ratio(tiny_outputs):
    commands, calls = tiny_outputs

    def drop_landmark(payload):
        payload["exact"]["dim_witness"] = payload["exact"]["dim_witness"][:-1]
        payload["exact"]["dim"] -= 1

    bad = _corrupt(calls, 0, drop_landmark)
    # No reference, so only the witness check can catch it.
    assert _fail_ratio(commands, bad, {}) > 0


def test_corrupted_pd_witness_raises_fail_ratio(tiny_outputs):
    commands, calls = tiny_outputs
    scan_index = len(commands) - 1

    def merge_blocks(payload):
        for rec in payload["records"]:
            for tree in rec["trees"]:
                first, second, *rest = tree["partition"]
                tree["partition"] = [sorted(first + second), *rest]
                return

    bad = _corrupt(calls, scan_index, merge_blocks)
    assert _fail_ratio(commands, bad, {}) > 0


def test_tree_class_is_labelling_invariant():
    path_a = layers.tree_class(4, [[0, 1], [1, 2], [2, 3]])
    path_b = layers.tree_class(4, [[2, 0], [0, 3], [3, 1]])
    star = layers.tree_class(4, [[0, 1], [0, 2], [0, 3]])
    assert path_a == path_b != star
    spider = [[0, 1], [1, 2], [0, 3], [3, 4], [0, 5]]
    relabelled = [[5, 4], [4, 3], [5, 2], [2, 1], [5, 0]]
    assert layers.tree_class(6, spider) == layers.tree_class(6, relabelled)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "scan-classes-9", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
