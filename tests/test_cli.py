"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import udim.cli
from udim import OrderedPartition, UdimError
from udim.cli import main


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("UDIM_COLOR", "0")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_analyze_c4k(capsys):
    code, out = run(capsys, "analyze", "--gen", "c4k:2")
    assert code == 0
    assert "dim=3" in out and "pd=3" in out
    assert "violations: none" in out
    assert "\033[" not in out  # color disabled


def test_analyze_json_schema(capsys):
    code, out = run(capsys, "analyze", "--gen", "sun:4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "unicyclic"
    assert payload["invariants"]["kappa"] == 4
    assert payload["violations"] == []
    names = {b["name"] for b in payload["bounds"]}
    assert "pd_kappa_tau" in names and "dim_vs_tree_leaves.upper" in names


def test_analyze_json_prints_the_empty_dim_witness(capsys):
    # dim(P1) = 0 with the empty witness set; null would mean "above the cap".
    code, out = run(capsys, "analyze", "--gen", "path:1", "--format", "json")
    assert code == 0
    assert json.loads(out)["exact"]["dim_witness"] == []
    assert "  dim witness: []\n" in run(capsys, "analyze", "--gen", "path:1")[1]


def test_analyze_reports_a_broken_bound(monkeypatch, capsys):
    solve = udim.verification.partition_dimension_exact

    def shifted(dm, cap):
        pd, witness = solve(dm, cap)
        return pd + shift, witness

    monkeypatch.setattr(udim.verification, "partition_dimension_exact", shifted)
    cases = [
        # pd(C6) = 3 = dim + 1 meets pd_vs_dim and pd >= 3 with equality.
        (0, []),
        # Read as 4, it breaks pd_vs_dim and the two other upper or equal
        # bounds whose value is 3.
        (1, ["pd_vs_dim", "pd_unit_terminal", "pd_support_leaf.upper"]),
        # Read as 2, it breaks the lower bound pd >= 3 and the equality.
        (-1, ["pd_min_nonpath", "pd_unit_terminal"]),
    ]
    for shift, broken in cases:
        code, out = run(capsys, "analyze", "--gen", "cycle:6", "--format", "json")
        assert code == (2 if broken else 0)
        assert json.loads(out)["violations"] == broken
        code, out = run(capsys, "analyze", "--gen", "cycle:6")
        assert code == (2 if broken else 0)
        assert out.endswith(f"violations: {', '.join(broken) or 'none'}\n")


def test_analyze_reports_an_unverified_certificate(monkeypatch, capsys):
    build = udim.constructions.cycle_partition
    monkeypatch.setattr(
        udim.constructions, "cycle_partition",
        lambda u: dataclasses.replace(build(u), verified=False),
    )
    code, out = run(capsys, "analyze", "--gen", "cycle:6", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["violations"] == ["certificate:cycle-partition"]
    assert payload["certificates"]["cycle-partition"]["verified"] is False
    code, out = run(capsys, "analyze", "--gen", "cycle:6")
    assert code == 2
    assert "certificate cycle-partition: FAILED size=3 bound=3\n" in out
    assert out.endswith("violations: certificate:cycle-partition\n")


def test_analyze_tree_file(tmp_path, capsys):
    path = tmp_path / "tree.el"
    path.write_text("0 1\n1 2\n2 3\n3 4\n")
    code, out = run(capsys, "analyze", str(path))
    assert code == 0
    assert "kind=tree" in out
    payload = json.loads(run(capsys, "analyze", str(path), "--format", "json")[1])
    by_name = {b["name"]: b for b in payload["bounds"]}
    assert by_name["pd_kappa_tau"]["applicable"] is False
    assert by_name["pd_path_exact"]["applicable"] is True


def test_analyze_rejects_multicyclic(tmp_path, capsys):
    path = tmp_path / "theta.el"
    path.write_text("0 2\n2 1\n0 3\n3 1\n0 4\n4 1\n")
    code, _ = run(capsys, "analyze", str(path))
    assert code == 1


def test_analyze_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("0 1\n1 0\n")
    assert run(capsys, "analyze", str(bad))[0] == 1
    assert run(capsys, "analyze", str(tmp_path / "missing.el"))[0] == 1
    assert run(capsys, "analyze", "--gen", "c4k:zzz")[0] == 1
    assert run(capsys, "analyze", "--gen", "nope:3")[0] == 1
    assert run(capsys, "analyze")[0] == 1


def test_dim_command(capsys):
    code, out = run(capsys, "dim", "--gen", "path:6")
    assert code == 0 and "dim = 1" in out


def test_pd_command(capsys):
    code, out = run(capsys, "pd", "--gen", "cycle:7")
    assert code == 0 and "pd = 3" in out


def test_exact_commands_recheck_solver_witnesses(monkeypatch, capsys):
    monkeypatch.setattr(udim.cli, "metric_dimension_exact", lambda dm, cap: (1, (0,)))
    bad_pd = (2, OrderedPartition.from_parts([{0, 2}, {1, 3}]))
    monkeypatch.setattr(udim.cli, "partition_dimension_exact", lambda dm, cap: bad_pd)
    for command in ("dim", "pd"):
        assert main([command, "--gen", "cycle:4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "internal error" in captured.err


def test_pd_cap_exit(capsys):
    assert run(capsys, "pd", "--gen", "cycle:9", "--pd-cap", "5")[0] == 1


def test_pd_on_a_long_path_with_a_raised_cap(capsys):
    # The prefix walk fixes up to n positions; it must not recurse per position.
    code, out = run(capsys, "pd", "--gen", "path:1100", "--pd-cap", "1100")
    assert code == 0 and out.startswith("pd = 2\n")


def test_no_distance_matrix_for_the_solvers_above_both_caps(monkeypatch, capsys):
    # Above both caps the solvers' callers answer from the caps alone: a cap
    # error, or the tree-dim formula, without an all-pairs distance matrix.
    # The one matrix left belongs to the cycle certificate, which analyze
    # checks whatever the caps.  A spanning tree's matrix is derived from its
    # graph's, so derivations are recorded too.
    build, derive = udim.graphs.all_pairs_distances, udim.graphs._tree_distances
    sizes = []

    def recording(g):
        sizes.append(g.n)
        return build(g)

    def derived(layout, i):
        sizes.append(("tree", len(layout.distances)))
        return derive(layout, i)

    monkeypatch.setattr(udim.graphs, "all_pairs_distances", recording)
    monkeypatch.setattr(udim.graphs, "_tree_distances", derived)
    for argv, cap, matrices in [
        (("dim", "--gen", "cycle:40"), "metric-dimension cap 16", []),
        (("pd", "--gen", "cycle:40"), "partition-dimension cap 12", []),
        (("construct", "lift", "--gen", "cycle:40"), "partition-dimension cap 12", []),
        (("analyze", "--gen", "cycle:40"), None, [40]),
        (("analyze", "--gen", "path:40"), None, []),
        # Within the dim cap: one BFS, then each tree's matrix for its exact dim.
        (("analyze", "--gen", "cycle:16"), None, [16] + [("tree", 16)] * 16),
    ]:
        sizes.clear()
        assert main(list(argv)) == (1 if cap else 0)
        assert capsys.readouterr().err == (f"error: n=40 exceeds the {cap}\n" if cap else "")
        assert sizes == matrices, argv


def test_construct_kappa_tau(capsys):
    code, out = run(capsys, "construct", "kappa-tau", "--gen", "sun:4")
    assert code == 0
    assert "verified: yes" in out
    payload = json.loads(
        run(capsys, "construct", "kappa-tau", "--gen", "sun:4", "--format", "json")[1]
    )
    assert payload["verified"] is True
    assert payload["size"] <= 9
    assert payload["claimed_bound"] == 9


def test_construct_precondition_exit(capsys):
    code, _ = run(capsys, "construct", "unit-terminal", "--gen", "sun:4")
    assert code == 1


def test_construct_precondition_checked_before_reanchoring(tmp_path, capsys):
    path = tmp_path / "n6_1.el"
    path.write_text("0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n")
    assert main(["construct", "unit-terminal", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_construct_lift_on_cycle(capsys):
    code, out = run(capsys, "construct", "lift", "--gen", "cycle:5")
    assert code == 0 and "verified: yes" in out


def test_construct_pendant_set(capsys):
    payload = json.loads(
        run(capsys, "construct", "pendant-set", "--gen", "sun:3", "--format", "json")[1]
    )
    assert payload["kind"] == "set" and payload["size"] == 6


def test_verify_resolving(tmp_path, capsys):
    part = tmp_path / "p.txt"
    part.write_text("0\n1\n2\n3\n")
    assert run(capsys, "verify", str(part), "--gen", "cycle:4")[0] == 0


@pytest.mark.skipif(not hasattr(os, "openpty"), reason="needs a pseudo-terminal")
@pytest.mark.parametrize(
    "color, line", [(None, b"\x1b[32mresolving: yes\x1b[0m"), ("0", b"resolving: yes")]
)
def test_verify_paints_its_verdict_only_on_a_terminal(tmp_path, monkeypatch, color, line):
    part = tmp_path / "p.txt"
    part.write_text("0\n1\n2\n3\n")
    # Undo the autouse no_color fixture where colour is on by default.
    if color is None:
        monkeypatch.delenv("UDIM_COLOR")
    else:
        monkeypatch.setenv("UDIM_COLOR", color)
    master, slave = os.openpty()
    try:
        with open(slave, "w", closefd=False) as tty:
            monkeypatch.setattr(sys, "stdout", tty)
            assert main(["verify", str(part), "--gen", "cycle:4"]) == 0
        out = os.read(master, 4096)
    finally:
        os.close(master)
        os.close(slave)
    assert out.splitlines() == [line]


def test_verify_not_resolving(tmp_path, capsys):
    part = tmp_path / "p.txt"
    part.write_text("0 2\n1 3\n")
    code, out = run(capsys, "verify", str(part), "--gen", "cycle:4")
    assert code == 3
    assert "(0, 2)" in out


def test_verify_malformed_partition(tmp_path, capsys):
    part = tmp_path / "p.txt"
    part.write_text("0 1\n1 2 3\n")  # overlap
    assert run(capsys, "verify", str(part), "--gen", "cycle:4")[0] == 1
    part.write_text("0 1\n")  # gap
    assert run(capsys, "verify", str(part), "--gen", "cycle:4")[0] == 1
    part.write_text("0\n2\n")  # gap: vertex 1 of path:3 is in no part
    assert main(["verify", str(part), "--gen", "path:3"]) == 1
    assert "vertex 1 is in no part" in capsys.readouterr().err
    part.write_text("0 0\n1 2\n")  # a vertex listed twice in one part
    assert run(capsys, "verify", str(part), "--gen", "path:3")[0] == 1


@pytest.mark.parametrize(
    "text, match",
    [
        ("0 1\n2 x\n", r"p\.txt:2: non-integer vertex id$"),
        ("# a comment, then a blank line\n\n", r"p\.txt: no parts found$"),
        ("0 1\n2 4\n", r"p\.txt: vertex 4 outside 0\.\.3$"),
    ],
    ids=["non-integer", "no-parts", "vertex-outside"],
)
def test_verify_rejects_a_malformed_partition_file(tmp_path, capsys, text, match):
    part = tmp_path / "p.txt"
    part.write_text(text)
    with pytest.raises(UdimError, match=match):
        udim.cli._parse_partition_file(str(part), 4)
    assert main(["verify", str(part), "--gen", "cycle:4"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze"], "not UTF-8 text: bad byte at offset 0"),
        (["verify", "--gen", "path:2"], "{path}: not UTF-8 text"),
    ],
    ids=["analyze", "verify"],
)
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, argv, message):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe0 1\n")
    assert main([argv[0], str(bad), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message.format(path=bad)}\n")


def test_scan_exhaustive(capsys):
    code, out = run(capsys, "scan", "--exhaustive", "3..6")
    assert code == 0
    assert "scanned 21 instances" in out
    assert "proposition violations (gap >= 4): 0" in out


def test_scan_random_reproducible(capsys):
    args = ("scan", "--random", "20", "--n", "9", "--seed", "7", "--format", "json")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 20
    assert payload["proposition_violations"] == []


def test_scan_jobs_agree(capsys):
    base = run(capsys, "scan", "--exhaustive", "3..5", "--format", "json")[1]
    parallel = run(
        capsys, "scan", "--exhaustive", "3..5", "--jobs", "2", "--format", "json"
    )[1]
    assert base == parallel


def test_scan_needs_a_family(capsys):
    assert run(capsys, "scan")[0] == 1
    assert run(capsys, "scan", "--random", "5")[0] == 1
    assert run(capsys, "scan", "--exhaustive", "bogus")[0] == 1


def test_scan_families_are_exclusive(capsys):
    assert main(["scan", "--exhaustive", "3..4", "--random", "5", "--n", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --random: not allowed with argument --exhaustive" in captured.err
    assert main(["scan"]) == 1
    assert capsys.readouterr().err == (
        "error: scan needs --exhaustive A..B or --random N --n K\n"
    )
    # --n and --seed choose random instances; an exhaustive scan reads neither.
    for extra in (["--n", "9"], ["--seed", "5"], ["--n", "9", "--seed", "5"]):
        argv = ["scan", "--exhaustive", "3..4", *extra, "--format", "json"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --n and --seed apply only to --random\n"
    assert main(["scan", "--random", "2", "--n", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["seed"] == 0


def test_scan_range_is_checked_before_any_pd_solve(monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("the pd solver ran before the range was checked")

    monkeypatch.setattr(udim.verification, "partition_dimension_exact", solve)
    assert main(["scan", "--exhaustive", "3..13"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exhaustive generation supports 3 <= n <= 12\n"


def test_scan_pd_cap_is_checked_before_any_pd_solve(monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("the pd solver ran before the pd cap was checked")

    monkeypatch.setattr(udim.verification, "partition_dimension_exact", solve)
    assert main(["scan", "--exhaustive", "3..11", "--pd-cap", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=11 exceeds the partition-dimension cap 10\n"


def test_scan_random_pd_cap_is_checked_before_any_graph(monkeypatch, capsys):
    # Rejection sampling at a large n with a short cycle runs for a long time,
    # so n is compared with the pd cap before the first graph is drawn.
    def draw(*args, **kwargs):
        raise AssertionError("a graph was drawn before the pd cap was checked")

    monkeypatch.setattr(udim.cli, "gen_random_unicyclic", draw)
    for count in ("1", "0"):
        assert main(["scan", "--random", count, "--n", "100000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=100000 exceeds the partition-dimension cap 12\n"
        # No unicyclic graph has fewer than 3 vertices.
        for n in ("2", "-5"):
            assert main(["scan", "--random", count, "--n", n]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --n must be at least 3\n"


def test_scan_rejects_a_negative_random_count(capsys):
    assert main(["scan", "--random", "-3", "--n", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --random must be non-negative\n"
    assert run(capsys, "scan", "--random", "0", "--n", "8")[0] == 0


def test_scan_has_no_labeled_mode(capsys):
    # Every per-graph claim is invariant under isomorphism, so scan covers
    # one graph per class; --labeled is not an option.
    assert main(["scan", "--exhaustive", "3..4", "--labeled"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --labeled" in captured.err


def test_analyze_disconnected_input(tmp_path, capsys):
    path = tmp_path / "two.el"
    path.write_text("0 1\n2 3\n")
    assert run(capsys, "analyze", str(path))[0] == 1


def test_usage_errors_exit_one(capsys):
    assert main(["bogus-command"]) == 1
    assert main(["analyze", "--gen"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_each_command_takes_only_the_options_its_handler_reads():
    # A new option shows up here; every one listed is read by its handler.
    sub = next(
        a for a in udim.cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    common = ["--format", "--gen"]
    assert options == {
        "analyze": ["--dim-cap", *common, "--pd-cap"],
        "dim": ["--dim-cap", *common],
        "pd": [*common, "--pd-cap"],
        "construct": [*common, "--pd-cap"],
        "verify": common,
        "scan": ["--exhaustive", "--format", "--jobs", "--n", "--pd-cap", "--random", "--seed"],
        "gen": common,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--gen", "path:3", "--pd-cap", "4"],
        ["pd", "--gen", "path:3", "--dim-cap", "4"],
        ["construct", "cycle", "--gen", "cycle:4", "--dim-cap", "4"],
        ["verify", "parts.txt", "--gen", "path:3", "--pd-cap", "4"],
        ["gen", "--gen", "path:3", "--pd-cap", "4"],
    ],
    ids=["dim", "pd", "construct", "verify", "gen"],
)
def test_a_cap_the_command_does_not_read_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --" in captured.err


def test_scan_rejects_empty_range(capsys):
    assert run(capsys, "scan", "--exhaustive", "5..3")[0] == 1


def test_gen_round_trip(tmp_path, capsys):
    code, out = run(capsys, "gen", "--gen", "c4k:2")
    assert code == 0
    path = tmp_path / "g.el"
    path.write_text(out)
    code, analyzed = run(capsys, "analyze", str(path))
    assert code == 0 and "dim=3" in analyzed


def test_gen_json(capsys):
    payload = json.loads(run(capsys, "gen", "--gen", "cycle:5", "--format", "json")[1])
    assert payload["n"] == 5
    assert payload["cycle"] == [0, 1, 2, 3, 4]
    assert len(payload["edges"]) == 5


def test_gen_path_json(capsys):
    payload = json.loads(run(capsys, "gen", "--gen", "path:4", "--format", "json")[1])
    assert payload["cycle"] is None


def test_file_and_gen_conflict(tmp_path, capsys):
    path = tmp_path / "g.el"
    path.write_text("0 1\n1 2\n2 0\n")
    assert run(capsys, "analyze", str(path), "--gen", "cycle:4")[0] == 1


def test_caps_must_be_positive(capsys):
    assert run(capsys, "dim", "--gen", "path:4", "--dim-cap", "0")[0] == 1
    assert run(capsys, "scan", "--exhaustive", "3..4", "--pd-cap", "-1")[0] == 1
    assert run(capsys, "scan", "--exhaustive", "3..4", "--jobs", "0")[0] == 1


def test_pd_on_pendant_cluster(capsys):
    code, out = run(capsys, "pd", "--gen", "c4k:2")
    assert code == 0 and "pd = 3" in out


def test_text_and_json_agree_on_numbers(capsys):
    _, text = run(capsys, "analyze", "--gen", "c4k:3")
    payload = json.loads(run(capsys, "analyze", "--gen", "c4k:3", "--format", "json")[1])
    assert f"dim={payload['exact']['dim']}" in text
    assert f"pd={payload['exact']['pd']}" in text
    inv = payload["invariants"]
    for key in ("n1", "ex", "rho", "kappa", "tau", "epsilon"):
        assert f"{key}={inv[key]}" in text
    for bound in payload["bounds"]:
        if bound["value"] is not None:
            row = next(
                line for line in text.splitlines() if line.startswith(bound["name"])
            )
            assert str(bound["value"]) in row.split()


def test_construct_json_schema(capsys):
    payload = json.loads(
        run(capsys, "construct", "xi-theta", "--gen", "c4k:2", "--format", "json")[1]
    )
    assert set(payload) == {
        "name", "kind", "object", "size", "claimed_bound", "verified", "witness",
    }


# (instance, deleted edge, true gap) of every spanning tree at n = 4: n4#0 is
# a triangle with a pendant, n4#1 the 4-cycle.
GAPS_AT_4 = [
    ("n4#0", [0, 1], 0), ("n4#0", [1, 2], 1), ("n4#0", [0, 2], 1),
    ("n4#1", [0, 1], 1), ("n4#1", [1, 2], 1), ("n4#1", [2, 3], 1), ("n4#1", [0, 3], 1),
]


@pytest.mark.parametrize("raised, exit_code", [(2, 0), (4, 2)])
def test_scan_reports_gaps_of_two_and_four(monkeypatch, capsys, raised, exit_code):
    # pd(G) reads ``raised`` higher, every tree's pd and witness as solved:
    # each gap grows by ``raised``, so the smallest faked gap is exactly 2,
    # then exactly 4.
    solve = udim.verification.partition_dimension_exact

    def graph_pd_raised(dm, cap, start=1):
        pd, witness = solve(dm, cap=cap, start=start)
        is_tree = sum(row.count(1) for row in dm) // 2 == len(dm) - 1
        return (pd if is_tree else pd + raised), witness

    monkeypatch.setattr(udim.verification, "partition_dimension_exact", graph_pd_raised)
    items = [
        {"instance": i, "deleted_edge": e, "gap": gap + raised} for i, e, gap in GAPS_AT_4
    ]
    proposition = [item for item in items if item["gap"] >= 4]
    assert len(proposition) == (0 if raised == 2 else len(items))
    argv = ("scan", "--exhaustive", "4..4", "--jobs", "1")
    code, out = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == exit_code
    assert payload["conjecture_violations"] == items
    assert payload["proposition_violations"] == proposition
    code, out = run(capsys, *argv)
    assert code == exit_code
    assert out.splitlines()[2:] == [
        "conjecture violations (gap >= 2): 7",
        *(f"  {i['instance']} tree {i['deleted_edge']} gap {i['gap']}" for i in items),
        f"proposition violations (gap >= 4): {len(proposition)}",
    ]


def test_scan_json_schema(capsys):
    payload = json.loads(
        run(capsys, "scan", "--exhaustive", "3..4", "--format", "json")[1]
    )
    assert set(payload) == {
        "count", "pd_cap", "metadata", "records", "gap_histogram",
        "conjecture_violations", "proposition_violations",
    }
    assert payload["metadata"]["family"] == "exhaustive-classes"
    record = payload["records"][0]
    assert set(record) == {"instance", "n", "pd", "trees", "max_gap"}
    assert set(record["trees"][0]) == {"deleted_edge", "pd", "partition"}


def test_scan_random_records_prng_scheme(capsys):
    payload = json.loads(
        run(capsys, "scan", "--random", "3", "--n", "6", "--format", "json")[1]
    )
    assert payload["metadata"]["prng"] == "mt19937/cycle-prefix/uniform-forest-rejection/v1"
    assert payload["metadata"]["seed"] == 0


def test_construct_failure_exits_with_bound_violation(tmp_path, capsys):
    # The pinned lift counterexample, fed through a file: the certificate
    # reports not-verified and the command signals it via the exit code.
    import udim

    u = udim.gen_random_unicyclic(11, seed=259)
    path = tmp_path / "counterexample.el"
    path.write_text(udim.to_edge_list(u.graph))
    code, out = run(capsys, "construct", "lift", str(path))
    assert code == 2
    assert "verified: no" in out
    assert "(3, 9)" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--gen", "c4k:zzz"],
         "bad generator spec 'c4k:zzz'; expected name:number"),
        (["analyze", "--gen", "nope:3"],
         "unknown generator 'nope'; expected c4k, sun, cycle or path"),
        (["analyze", "graph.el", "--gen", "cycle:4"],
         "give either an input file or --gen, not both"),
        (["analyze"], "no input given; pass an edge-list file or --gen name:number"),
        (["dim", "--gen", "path:4", "--dim-cap", "0"], "--dim-cap must be positive"),
    ],
    ids=["bad-spec", "unknown-generator", "file-and-gen", "no-input", "dim-cap"],
)
def test_input_error_messages(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    main(["gen", "--gen", "path:3"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in ("gen", "--gen", "path:3"), ("dim", "--gen", "path:4"), ("--help",), ("bogus",):
        main(list(argv))
    capsys.readouterr()
    assert built == []


def test_reused_parser_leaks_no_state_between_calls(capsys):
    def family(*argv):
        return json.loads(run(capsys, "scan", *argv, "--format", "json")[1])["metadata"]["family"]

    assert family("--random", "1", "--n", "5") == "random"
    assert family("--exhaustive", "3..4") == "exhaustive-classes"
    assert json.loads(run(capsys, "dim", "--gen", "path:6", "--format", "json")[1])["dim"] == 1
    assert run(capsys, "dim", "--gen", "path:6") == (0, "dim = 1\nwitness = [0]\n")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv", [["pd", "--gen", "cycle:7"], ["gen", "--gen", "cycle:20000"]], ids=["pd", "gen"]
)
def test_closed_stdout_ends_the_output(argv, unbuffered):
    # As in `udim pd --gen cycle:7 | head -1` once head has exited: the
    # reader is gone before the first write, whether stdout is buffered
    # (the write fails at the final flush) or not (it fails in the command).
    src = str(Path(udim.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from udim.cli import main_entry; main_entry()", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
