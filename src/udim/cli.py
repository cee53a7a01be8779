"""Command-line front end: analyze, dim, pd, construct, verify, scan, gen.

Exit codes: 0 success, 1 input/config error, 2 proven-bound violation,
3 verification answered "not resolving".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .constructions import CONSTRUCTIONS, lift_tree_partition
from .errors import UdimError
from .graphs import (
    Graph,
    UnicyclicGraph,
    all_pairs_distances,
    is_tree,
    parse_edge_list,
    to_edge_list,
    validate_unicyclic,
)
from .invariants import epsilon
from .resolve import (
    DEFAULT_DIM_CAP,
    DEFAULT_PD_CAP,
    OrderedPartition,
    check_cap,
    check_resolving_partition,
    check_resolving_set,
    metric_dimension_exact,
    partition_dimension_exact,
)
from .verification import (
    RANDOM_SCHEME,
    bounds_report,
    conjecture_scan,
    gen_c4k,
    gen_cycle,
    gen_exhaustive_unicyclic,
    gen_path,
    gen_random_unicyclic,
    gen_sun,
    tree_report,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BOUND_VIOLATION = 2
EXIT_NOT_RESOLVING = 3

def _color_enabled() -> bool:
    if os.environ.get("UDIM_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\033[{code}m{text}\033[0m"
    return text


def _good(text: str) -> str:
    return _paint(text, "32")


def _bad(text: str) -> str:
    return _paint(text, "31")


def _check_caps(args: argparse.Namespace) -> None:
    for attr in ("dim_cap", "pd_cap"):
        if getattr(args, attr, 1) < 1:
            raise UdimError(f"--{attr.replace('_', '-')} must be positive")


def _load_graph(args: argparse.Namespace) -> tuple[Graph, str]:
    """Resolve the single input source: a file path or a --gen spec."""
    _check_caps(args)
    if getattr(args, "gen", None) and getattr(args, "file", None):
        raise UdimError("give either an input file or --gen, not both")
    if getattr(args, "gen", None):
        spec = args.gen
        try:
            kind, _, arg = spec.partition(":")
            value = int(arg)
        except ValueError:
            raise UdimError(f"bad generator spec {spec!r}; expected name:number") from None
        if kind == "c4k":
            return gen_c4k(value).graph, spec
        if kind == "sun":
            return gen_sun(value).graph, spec
        if kind == "cycle":
            return gen_cycle(value).graph, spec
        if kind == "path":
            return gen_path(value), spec
        raise UdimError(
            f"unknown generator {kind!r}; expected c4k, sun, cycle or path"
        )
    if getattr(args, "file", None):
        with open(args.file, "rb") as fh:
            return parse_edge_list(fh.read()), args.file
    raise UdimError("no input given; pass an edge-list file or --gen name:number")


def _parse_partition_file(path: str, n: int) -> OrderedPartition:
    parts: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts.append([int(tok) for tok in line.split()])
            except ValueError:
                raise UdimError(f"{path}:{lineno}: non-integer vertex id") from None
    if not parts:
        raise UdimError(f"{path}: no parts found")
    for part in parts:
        for v in part:
            if not 0 <= v < n:
                raise UdimError(f"{path}: vertex {v} outside 0..{n - 1}")
    return OrderedPartition.from_parts(parts)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _yes_no(flag: bool | None) -> str:
    if flag is None:
        return "-"
    return _good("yes") if flag else _bad("no")


def _cmd_analyze(args: argparse.Namespace) -> int:
    g, instance = _load_graph(args)
    if is_tree(g):
        report = tree_report(g, instance_id=instance, dim_cap=args.dim_cap, pd_cap=args.pd_cap)
    else:
        try:
            u = validate_unicyclic(g)
        except UdimError as exc:
            raise UdimError(f"input is neither a tree nor unicyclic: {exc}") from exc
        report = bounds_report(
            u, instance_id=instance, dim_cap=args.dim_cap, pd_cap=args.pd_cap
        )
    if args.format == "json":
        _print_json(report.to_json())
    else:
        inv = report.invariants
        print(f"instance: {report.instance}")
        cyc = f" cycle={list(report.cycle)}" if report.cycle else ""
        print(f"n={report.n} kind={report.kind}{cyc}")
        fields = [f"n1={inv.n1}", f"ex={inv.ex}", f"rho={inv.rho}",
                  f"kappa={inv.kappa}", f"tau={inv.tau}"]
        if inv.epsilon is not None:
            a, b = report.epsilon_deleted_edge
            fields.append(f"epsilon={inv.epsilon} (delete {a}-{b})")
        if inv.xi is not None:
            fields.append(f"xi={inv.xi} theta={inv.theta}")
        print("invariants: " + " ".join(fields))
        dim_s = "-" if report.exact_dim is None else str(report.exact_dim)
        pd_s = "-" if report.exact_pd is None else str(report.exact_pd)
        print(f"exact: dim={dim_s} pd={pd_s}")
        if report.dim_witness is not None:
            print(f"  dim witness: {sorted(report.dim_witness)}")
        if report.pd_witness is not None:
            print(f"  pd witness: {report.pd_witness.to_lists()}")
        print(f"{'bound':<28}{'target':<8}{'kind':<8}{'value':<8}{'applies':<9}ok")
        for rec in report.records:
            value = "-" if rec.value is None else str(rec.value)
            print(
                f"{rec.name:<28}{rec.target:<8}{rec.kind:<8}{value:<8}"
                f"{'yes' if rec.applicable else 'no':<9}{_yes_no(rec.satisfied)}"
            )
        for name, cert in report.certificates.items():
            status = _good("verified") if cert.verified else _bad("FAILED")
            print(
                f"certificate {name}: {status} size={cert.size} "
                f"bound={cert.claimed_bound}"
            )
        if report.violations:
            print(_bad(f"violations: {', '.join(report.violations)}"))
        else:
            print(_good("violations: none"))
    return EXIT_BOUND_VIOLATION if report.violations else EXIT_OK


def _cmd_exact(args: argparse.Namespace, which: str) -> int:
    g, _ = _load_graph(args)
    if which == "dim":
        check_cap(g.n, args.dim_cap, "metric-dimension")
        dm = all_pairs_distances(g)
        value, witness = metric_dimension_exact(dm, cap=args.dim_cap)
        if not check_resolving_set(dm, witness).resolving:
            raise UdimError("internal error: solver witness failed re-verification")
        payload = {"dim": value, "witness": sorted(witness)}
        text = f"dim = {value}\nwitness = {sorted(witness)}"
    else:
        check_cap(g.n, args.pd_cap, "partition-dimension")
        dm = all_pairs_distances(g)
        value, partition = partition_dimension_exact(dm, cap=args.pd_cap)
        if not check_resolving_partition(dm, partition).resolving:
            raise UdimError("internal error: solver witness failed re-verification")
        payload = {"pd": value, "witness": partition.to_lists()}
        text = f"pd = {value}\nwitness = {partition.to_lists()}"
    if args.format == "json":
        _print_json(payload)
    else:
        print(text)
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args)
    u = validate_unicyclic(g)
    if args.name == "lift":
        # Not a bound-chain certificate: it lifts the exact pd witness of the
        # minimum-leaf spanning tree.
        check_cap(u.graph.n, args.pd_cap, "partition-dimension")
        _, tree = epsilon(u)
        _, witness = partition_dimension_exact(
            all_pairs_distances(tree.graph), cap=args.pd_cap
        )
        cert = lift_tree_partition(u, witness, tree)
    else:
        cert = next(build for name, build, _ in CONSTRUCTIONS if name == args.name)(u)
    if args.format == "json":
        _print_json(cert.to_json())
    else:
        print(f"construction: {cert.name}")
        print(f"claimed bound: {cert.claimed_bound}  size: {cert.size}  "
              f"verified: {_yes_no(cert.verified)}")
        if cert.kind == "set":
            print(f"resolving set: {sorted(cert.payload)}")
        else:
            for i, part in enumerate(cert.payload.to_lists(), start=1):
                print(f"  part {i}: {part}")
        if cert.witness is not None:
            print(_bad(f"twin pair: {cert.witness}"))
    return EXIT_OK if cert.verified else EXIT_BOUND_VIOLATION


def _cmd_verify(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args)
    dm = all_pairs_distances(g)
    partition = _parse_partition_file(args.partition, g.n)
    witness = check_resolving_partition(dm, partition)
    if args.format == "json":
        _print_json(
            {
                "resolving": witness.resolving,
                "twins": list(witness.twins) if witness.twins else None,
            }
        )
    else:
        if witness.resolving:
            print(_good("resolving: yes"))
        else:
            print(_bad(f"resolving: no  twin pair: {witness.twins}"))
    return EXIT_OK if witness.resolving else EXIT_NOT_RESOLVING


def _parse_range(spec: str) -> tuple[int, int]:
    try:
        lo, _, hi = spec.partition("..")
        bounds = int(lo), int(hi)
    except ValueError:
        raise UdimError(f"bad range {spec!r}; expected A..B") from None
    if bounds[0] > bounds[1]:
        raise UdimError(f"empty range {spec!r}")
    return bounds


def _cmd_scan(args: argparse.Namespace) -> int:
    _check_caps(args)
    if args.jobs < 1:
        raise UdimError("--jobs must be positive")
    if args.random is not None and args.random < 0:
        raise UdimError("--random must be non-negative")
    graphs: list[UnicyclicGraph] = []
    ids: list[str] = []
    if args.exhaustive:
        lo, hi = _parse_range(args.exhaustive)
        for n in range(lo, hi + 1):
            for i, u in enumerate(gen_exhaustive_unicyclic(n, dedup=not args.labeled)):
                graphs.append(u)
                ids.append(f"n{n}#{i}")
        metadata = {
            "family": "exhaustive-labeled" if args.labeled else "exhaustive-classes",
            "range": f"{lo}..{hi}",
        }
    elif args.random is not None:
        if args.n is None:
            raise UdimError("--random needs --n")
        for i in range(args.random):
            graphs.append(gen_random_unicyclic(args.n, seed=args.seed + i))
            ids.append(f"n{args.n}/seed{args.seed + i}")
        metadata = {
            "family": "random",
            "prng": RANDOM_SCHEME,
            "n": args.n,
            "seed": args.seed,
            "count": args.random,
        }
    else:
        raise UdimError("scan needs --exhaustive A..B or --random N --n K")
    result = conjecture_scan(
        graphs, ids=ids, pd_cap=args.pd_cap, jobs=args.jobs, metadata=metadata
    )
    if args.format == "json":
        _print_json(result.to_json())
    else:
        print(f"scanned {result.count} instances (pd cap {result.pd_cap})")
        hist = "  ".join(
            f"{gap}: {count}" for gap, count in sorted(result.gap_histogram.items())
        )
        print(f"gap histogram: {hist}")
        print(f"conjecture violations (gap >= 2): {len(result.conjecture_violations)}")
        for item in result.conjecture_violations:
            print(f"  {item['instance']} tree {item['deleted_edge']} gap {item['gap']}")
        n_prop = len(result.proposition_violations)
        line = f"proposition violations (gap >= 4): {n_prop}"
        print(_good(line) if n_prop == 0 else _bad(line))
    return EXIT_OK if not result.proposition_violations else EXIT_BOUND_VIOLATION


def _cmd_gen(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args)
    if args.format == "json":
        cycle = None
        if not is_tree(g):
            cycle = list(validate_unicyclic(g).cycle)
        _print_json({"n": g.n, "edges": [list(e) for e in g.edges()], "cycle": cycle})
    else:
        sys.stdout.write(to_edge_list(g))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, with_file: bool = True) -> None:
    if with_file:
        parser.add_argument("file", nargs="?", help="edge-list file (or use --gen)")
    parser.add_argument("--gen", help="generator spec: c4k:K, sun:K, cycle:N, path:N")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    parser.add_argument("--pd-cap", type=int, default=DEFAULT_PD_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udim",
        description=(
            "Exact metric and partition dimension of trees and unicyclic "
            "graphs, certified bound constructions, and conjecture scanning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariants, exact values and the bound chain")
    _add_common(p)

    p = sub.add_parser("dim", help="exact metric dimension with witness set")
    _add_common(p)

    p = sub.add_parser("pd", help="exact partition dimension with witness partition")
    _add_common(p)

    p = sub.add_parser("construct", help="build and verify a named construction")
    p.add_argument("name", choices=[name for name, _, _ in CONSTRUCTIONS] + ["lift"])
    _add_common(p)

    p = sub.add_parser("verify", help="check a partition file against a graph")
    p.add_argument("partition", help="partition file: one part per line")
    _add_common(p)

    p = sub.add_parser("scan", help="pd gap scan over spanning trees")
    p.add_argument("--exhaustive", help="range A..B of vertex counts")
    p.add_argument("--labeled", action="store_true",
                   help="scan every labeled graph instead of one per class")
    p.add_argument("--random", type=int, help="number of random instances")
    p.add_argument("--n", type=int, help="vertex count for random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--pd-cap", type=int, default=DEFAULT_PD_CAP)

    p = sub.add_parser("gen", help="emit a generated graph as an edge list")
    _add_common(p, with_file=False)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for bound violations.
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "dim":
            return _cmd_exact(args, "dim")
        if args.command == "pd":
            return _cmd_exact(args, "pd")
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "gen":
            return _cmd_gen(args)
        raise UdimError(f"unknown command {args.command!r}")
    except (UdimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())
