"""udim benchmark: closed-loop CLI workloads with an output gate.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one table each

Each run starts one fresh interpreter (``loop.py``) that issues the
workload's commands to ``udim.cli.main`` as a closed loop: one caller, the
next command only after the previous one returned.  With ``--trace 0``
nothing is added and the end-to-end metrics are reported.  With
``--trace 1`` the loop first wraps the public layer functions (``tracer.py``)
and the per-layer metrics are reported; the same commands are then replayed
untraced to measure the tracing overhead.  Either way every command's stdout and exit code are
checked: against the digests in ``reference.json`` where one is recorded,
and by re-verifying every dim and pd witness with the package's checkers.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
LOOP = HERE / "loop.py"
SCRATCH = ROOT / ".perfbench_tmp"  # inputs, results and spans of running benchmarks
SETUP_REPEATS = 7
# A run starts no command LAST_CALL_S after it started and kills a loop still
# running at KILL_S, so it always exits well within three minutes.
LAST_CALL_S = 140.0
KILL_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p97": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def digest(stdout: bytes, code: int) -> str:
    return hashlib.sha256(stdout + b"\nexit=%d" % code).hexdigest()


def load_reference() -> dict[str, list]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def failed_graphs(cmd, stdout: bytes, code: int, reference: dict) -> int:
    """Graphs of one command that count as failed.

    A wrong exit code, a digest that differs from the recorded one, output
    that does not parse, or an exception while checking fails every graph of
    the command; otherwise each graph whose witness does not resolve fails.
    """
    ref = reference.get(cmd.cmd_id)
    expected_code = ref[1] if ref else 0
    if code != expected_code or (ref and digest(stdout, code) != ref[0]):
        return len(cmd.graphs)
    try:
        return cmd.check(cmd, json.loads(stdout))
    except Exception as exc:  # a malformed output must not abort the run
        print(f"check of {cmd.cmd_id!r} raised {exc!r}", file=sys.stderr)
        return len(cmd.graphs)


def run_loop(commands, workdir: Path, started: float, spans: bool = False) -> dict:
    """Run the commands through ``loop.py`` in one fresh interpreter.

    Returns the child's wall time, exit code and peak RSS (from
    ``os.wait4``), one (wall_s, code, stdout) per command it finished, and
    the span file when traced.  A child still running at ``KILL_S`` is killed.
    """
    tag = "traced" if spans else "plain"
    commands_path = workdir / f"commands-{tag}.json"
    results_path = workdir / f"results-{tag}.jsonl"
    spans_path = workdir / f"spans-{tag}.json"
    with open(commands_path, "w", encoding="utf-8") as fh:
        json.dump([cmd.args for cmd in commands], fh)
    last_call_s = max(0.0, started + LAST_CALL_S - time.perf_counter())
    argv = [sys.executable, str(LOOP), str(commands_path), str(results_path),
            f"{last_call_s:.3f}"]
    if spans:
        argv.append(str(spans_path))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=subprocess.DEVNULL)
    timer = threading.Timer(max(0.0, started + KILL_S - start), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)

    calls = []
    if results_path.exists():
        with open(results_path, encoding="utf-8") as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                except ValueError:  # a line cut short by a kill
                    break
                calls.append((rec["wall"], rec["code"], rec["stdout"].encode()))
    span_payload = None
    if spans and proc.returncode == 0:
        with open(spans_path, encoding="utf-8") as fh:
            span_payload = json.load(fh)
    return {"wall": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "calls": calls, "spans": span_payload}


def measure_setup(workdir) -> float:
    """Median wall time of a fresh interpreter through ``import udim``."""
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import udim"], cwd=workdir, env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])  # the first run may compile bytecode


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool,
                 workdir: Path) -> dict:
    from layers import aggregate, metric_units
    from workloads import WORKLOADS

    started = time.perf_counter()
    setup_s = None if trace else measure_setup(workdir)
    commands = WORKLOADS[name](seed, seconds, tiny, str(workdir))
    loop = run_loop(commands, workdir, started, spans=trace)
    if not loop["calls"]:
        raise RuntimeError(f"{name}: the loop returned no result (exit {loop['code']})")
    if trace:
        plain = run_loop(commands[:len(loop["calls"])], workdir, started)
        values = aggregate([(loop["wall"], loop["spans"])] if loop["spans"] else [])
        values["trace.overhead_ratio"] = loop["wall"] / plain["wall"]
        units = metric_units()
    else:
        walls = [wall for wall, _, _ in loop["calls"]]
        graphs = sum(len(cmd.graphs) for cmd in commands[:len(walls)])
        values = {
            "setup_s": setup_s,
            "graphs_per_s": graphs / sum(walls),
            "latency_ms.p50": percentile([w * 1000.0 for w in walls], 50),
            "latency_ms.p97": percentile([w * 1000.0 for w in walls], 97),
            "peak_rss_mb": loop["rss_mb"],
        }
        units = END_TO_END

    # Commands left unissued because time ran out are not attempted; one cut
    # short by a kill or a crash of the loop is attempted and failed.
    issued = len(loop["calls"])
    if loop["code"] != 0 and issued < len(commands):
        issued += 1
    reference = load_reference()
    attempted = sum(len(cmd.graphs) for cmd in commands[:issued])
    failed = sum(len(cmd.graphs) for cmd in commands[len(loop["calls"]):issued])
    for cmd, (_, code, out) in zip(commands, loop["calls"]):
        failed += failed_graphs(cmd, out, code, reference)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "commands": issued,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def print_table(name: str, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"== {name}: {result['commands']} commands, {result['attempted']} graphs, "
          f"fail_ratio {ratio:.6g}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: a few small graphs per workload")
    args = parser.parse_args(argv)

    if not (SRC / "udim" / "cli.py").is_file():
        print(f"error: no udim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        results = {}
        for name in names:
            sub = workdir / name
            sub.mkdir()
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.tiny, sub)
            print_table(name, results[name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{key}": m for name, r in results.items()
                   for key, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
