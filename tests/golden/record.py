"""Record the golden CLI outputs that ``tests/test_golden.py`` compares against.

Usage (from the repository root): python3 tests/golden/record.py

Runs every case below through ``udim.cli.main`` in this interpreter, from
the repository root, and writes each one's exit code to ``golden.json``
together with either its stdout (in ``<case>.out``) or, for the large
scans, the sha256 digest of its stdout.
Re-record only when a change to the program's output is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
from udim.cli import main  # noqa: E402

TREE = "tests/golden/tree.edges"
UNIT = "tests/golden/unit_terminal.edges"
TWO_MAJORS = "tests/golden/two_majors.edges"
RESOLVING = "tests/golden/path6-resolving.part"
TWINS = "tests/golden/path6-twins.part"
JSON = ["--format", "json"]

# case id -> (argv, store a digest instead of the full stdout)
CASES = {
    **{
        f"analyze-{spec.replace(':', '')}-{fmt}": (
            ["analyze", "--gen", spec, *(JSON if fmt == "json" else [])], False
        )
        for spec in ("c4k:3", "sun:3", "cycle:7", "path:6")
        for fmt in ("text", "json")
    },
    "analyze-tree-file": (["analyze", TREE], False),
    "analyze-unit-terminal-file": (["analyze", UNIT], False),
    "construct-pendant-set": (["construct", "pendant-set", "--gen", "sun:3", *JSON], False),
    "construct-cycle": (["construct", "cycle", "--gen", "cycle:7", *JSON], False),
    "construct-unit-terminal": (["construct", "unit-terminal", UNIT, *JSON], False),
    "construct-kappa-tau": (["construct", "kappa-tau", "--gen", "c4k:3", *JSON], False),
    "construct-xi-theta": (["construct", "xi-theta", "--gen", "sun:3", *JSON], False),
    "construct-lift": (["construct", "lift", "--gen", "c4k:3", *JSON], False),
    "scan-exhaustive-3-8": (["scan", "--exhaustive", "3..8", *JSON], True),
    "scan-random-100-n11": (
        ["scan", "--random", "100", "--n", "11", "--seed", "0", *JSON], True
    ),
    # records cross the worker boundary: the JSON must not depend on --jobs
    "scan-exhaustive-10-jobs2": (
        ["scan", "--exhaustive", "10..10", "--jobs", "2", *JSON], True
    ),
    **{
        f"{command}-{spec.replace(':', '')}-{fmt}": (
            [command, "--gen", spec, *(JSON if fmt == "json" else [])], False
        )
        for command, spec in (("dim", "path:6"), ("pd", "cycle:7"), ("gen", "sun:3"))
        for fmt in ("text", "json")
    },
    "verify-resolving": (["verify", RESOLVING, "--gen", "path:6"], False),
    "verify-twins": (["verify", TWINS, "--gen", "path:6"], False),
    "construct-kappa-tau-text": (["construct", "kappa-tau", "--gen", "c4k:3"], False),
    "scan-exhaustive-3-6-text": (["scan", "--exhaustive", "3..6"], False),
    # two majors with unequal pendant counts: the pooled parts have groups
    # shorter than the pool depth
    "construct-kappa-tau-two-majors": (["construct", "kappa-tau", TWO_MAJORS], False),
    "construct-xi-theta-two-majors": (
        ["construct", "xi-theta", TWO_MAJORS, *JSON], False
    ),
    "analyze-two-majors": (["analyze", TWO_MAJORS], False),
}


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI call, run from the repository root."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main_record() -> int:
    manifest = {}
    for case, (argv, digest_only) in CASES.items():
        code, out = run_case(argv)
        entry = {"argv": argv, "exit": code}
        if digest_only:
            entry["sha256"] = sha256(out)
        else:
            (HERE / f"{case}.out").write_text(out, encoding="utf-8")
        manifest[case] = entry
        print(f"{case}: exit {code}, {len(out)} bytes", file=sys.stderr)
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
