"""Record the output digests that the benchmark's gate compares against.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs every distinct command that a default-seed (0) run of up to 30 seconds
can issue (the exhaustive scan, the first three random batches and one more,
and the first 1,500 analyze calls) and writes each one's stdout digest and exit code to
``reference.json``.
Re-record only when a change to the program's output is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
from workloads import NOMINAL_RANDOM_S, WORKLOADS  # noqa: E402

SIZES = {  # --seconds that cover every command a default-seed run may issue
    "scan-classes-9": 1,
    "scan-random-12": int(4 * NOMINAL_RANDOM_S),
    "analyze-dim-16": 30,
}


def main() -> int:
    reference = {}
    run.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.SCRATCH))
    try:
        for name, build in WORKLOADS.items():
            commands = list({cmd.cmd_id: cmd for cmd in build(0, SIZES[name], False,
                                                               str(workdir))}.values())
            result = run.run_loop(commands, workdir, time.perf_counter())
            if len(result["calls"]) != len(commands):
                raise SystemExit(f"{name}: only {len(result['calls'])} of "
                                 f"{len(commands)} commands finished")
            for cmd, (_, code, out) in zip(commands, result["calls"]):
                reference[cmd.cmd_id] = [run.digest(out, code), code]
            print(f"{name}: {len(commands)} commands recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.SCRATCH.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
