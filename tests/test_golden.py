"""Golden CLI outputs: stdout and exit code stay byte-identical.

The outputs were recorded with ``tests/golden/record.py``; re-record them
only when a change to the program's output is intended.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.record import HERE, run_case, sha256

MANIFEST = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(MANIFEST))
def test_golden_output(case, monkeypatch):
    monkeypatch.setenv("UDIM_COLOR", "0")
    entry = MANIFEST[case]
    code, out = run_case(entry["argv"])
    assert code == entry["exit"]
    if "sha256" in entry:
        assert sha256(out) == entry["sha256"], f"{case}: stdout digest changed"
    else:
        assert out == (HERE / f"{case}.out").read_text(encoding="utf-8")
