"""Command-line front end: analyze, dim, pd, construct, verify, scan, gen.

Exit codes: 0 success, 1 input/config error, 2 proven-bound violation,
3 verification answered "not resolving".
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .constructions import CONSTRUCTIONS, lift_tree_partition
from .errors import UdimError
from .graphs import (
    Graph,
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


def _paint(text: str, code: str) -> str:
    if os.environ.get("UDIM_COLOR", "") != "0" and sys.stdout.isatty():
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


# ``--gen`` name -> (argument letter shown in the help, function building the graph).
# Each lambda looks the generator up at call time, so a wrapper installed on
# it (a profiler, the benchmark's tracer) sees every call.
GENERATORS = {
    "c4k": ("K", lambda k: gen_c4k(k).graph),
    "sun": ("K", lambda k: gen_sun(k).graph),
    "cycle": ("N", lambda n: gen_cycle(n).graph),
    "path": ("N", lambda n: gen_path(n)),
}


def _load_graph(args: argparse.Namespace) -> tuple[Graph, str]:
    """Resolve the single input source: a file path or a --gen spec."""
    _check_caps(args)
    if args.gen and getattr(args, "file", None):
        raise UdimError("give either an input file or --gen, not both")
    if args.gen:
        spec = args.gen
        try:
            kind, _, arg = spec.partition(":")
            value = int(arg)
        except ValueError:
            raise UdimError(f"bad generator spec {spec!r}; expected name:number") from None
        if kind not in GENERATORS:
            *names, last = GENERATORS
            raise UdimError(
                f"unknown generator {kind!r}; expected {', '.join(names)} or {last}"
            )
        return GENERATORS[kind][1](value), spec
    if getattr(args, "file", None):
        with open(args.file, "rb") as fh:
            return parse_edge_list(fh.read()), args.file
    raise UdimError("no input given; pass an edge-list file or --gen name:number")


def _parse_partition_file(path: str, n: int) -> OrderedPartition:
    parts: list[list[int]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise UdimError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
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
        _print_json(report)
    else:
        inv, exact = report["invariants"], report["exact"]
        print(f"instance: {report['instance']}")
        cyc = f" cycle={report['cycle']}" if report["cycle"] else ""
        print(f"n={report['n']} kind={report['kind']}{cyc}")
        fields = [f"{name}={inv[name]}" for name in ("n1", "ex", "rho", "kappa", "tau")]
        if inv["epsilon"] is not None:
            a, b = inv["epsilon_deleted_edge"]
            fields.append(f"epsilon={inv['epsilon']} (delete {a}-{b})")
        if inv["xi"] is not None:
            fields.append(f"xi={inv['xi']} theta={inv['theta']}")
        print("invariants: " + " ".join(fields))
        dim_s = "-" if exact["dim"] is None else str(exact["dim"])
        pd_s = "-" if exact["pd"] is None else str(exact["pd"])
        print(f"exact: dim={dim_s} pd={pd_s}")
        if exact["dim_witness"] is not None:
            print(f"  dim witness: {sorted(exact['dim_witness'])}")
        if exact["pd_witness"] is not None:
            print(f"  pd witness: {exact['pd_witness']}")
        print(f"{'bound':<28}{'target':<8}{'kind':<8}{'value':<8}{'applies':<9}ok")
        for rec in report["bounds"]:
            value = "-" if rec["value"] is None else str(rec["value"])
            print(
                f"{rec['name']:<28}{rec['target']:<8}{rec['kind']:<8}{value:<8}"
                f"{'yes' if rec['applicable'] else 'no':<9}{_yes_no(rec['satisfied'])}"
            )
        for name, cert in report["certificates"].items():
            status = _good("verified") if cert["verified"] else _bad("FAILED")
            print(
                f"certificate {name}: {status} size={cert['size']} "
                f"bound={cert['claimed_bound']}"
            )
        if report["violations"]:
            print(_bad(f"violations: {', '.join(report['violations'])}"))
        else:
            print(_good("violations: none"))
    return EXIT_BOUND_VIOLATION if report["violations"] else EXIT_OK


# ``dim``/``pd`` -> (solver named in the cap message, solver, independent
# checker, witness as printed).  The lambdas look their functions up at call
# time, like GENERATORS'.
EXACT = {
    "dim": ("metric-dimension", lambda dm, cap: metric_dimension_exact(dm, cap=cap),
            lambda dm, w: check_resolving_set(dm, w), sorted),
    "pd": ("partition-dimension", lambda dm, cap: partition_dimension_exact(dm, cap=cap),
           lambda dm, w: check_resolving_partition(dm, w), OrderedPartition.to_lists),
}


def _cmd_exact(args: argparse.Namespace) -> int:
    solver, solve, check, shown = EXACT[args.command]
    cap = getattr(args, f"{args.command}_cap")
    g, _ = _load_graph(args)
    check_cap(g.n, cap, solver)
    value, witness = solve(g.distances, cap)
    if not check(g.distances, witness).resolving:
        raise UdimError("internal error: solver witness failed re-verification")
    if args.format == "json":
        _print_json({args.command: value, "witness": shown(witness)})
    else:
        print(f"{args.command} = {value}\nwitness = {shown(witness)}")
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args)
    u = validate_unicyclic(g)
    if args.name == "lift":
        # Not a bound-chain certificate: it lifts the exact pd witness of the
        # minimum-leaf spanning tree.
        check_cap(u.graph.n, args.pd_cap, "partition-dimension")
        _, tree = epsilon(u)
        _, witness = partition_dimension_exact(tree.graph.distances, cap=args.pd_cap)
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
    partition = _parse_partition_file(args.partition, g.n)
    witness = check_resolving_partition(g.distances, partition)
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
    if args.exhaustive:
        if args.n is not None or args.seed is not None:
            raise UdimError("--n and --seed apply only to --random")
        lo, hi = _parse_range(args.exhaustive)
        families = [(n, gen_exhaustive_unicyclic(n)) for n in range(lo, hi + 1)]
        instances = (
            (f"n{n}#{i}", u) for n, family in families for i, u in enumerate(family)
        )
        metadata = {"family": "exhaustive-classes", "range": f"{lo}..{hi}"}
    elif args.random is not None:
        if args.n is None:
            raise UdimError("--random needs --n")
        if args.n < 3:
            raise UdimError("--n must be at least 3")
        hi = args.n
        first = args.seed or 0
        instances = (
            (f"n{args.n}/seed{seed}", gen_random_unicyclic(args.n, seed=seed))
            for seed in range(first, first + args.random)
        )
        metadata = {
            "family": "random",
            "prng": RANDOM_SCHEME,
            "n": args.n,
            "seed": first,
            "count": args.random,
        }
    else:
        raise UdimError("scan needs --exhaustive A..B or --random N --n K")
    # Every size and the pd cap are checked here, before the first graph is drawn.
    check_cap(hi, args.pd_cap, "partition-dimension")
    result = conjecture_scan(instances, pd_cap=args.pd_cap, jobs=args.jobs, metadata=metadata)
    if args.format == "json":
        _print_json(result)
    else:
        print(f"scanned {result['count']} instances (pd cap {result['pd_cap']})")
        hist = "  ".join(f"{gap}: {count}" for gap, count in result["gap_histogram"].items())
        print(f"gap histogram: {hist}")
        print(f"conjecture violations (gap >= 2): {len(result['conjecture_violations'])}")
        for item in result["conjecture_violations"]:
            print(f"  {item['instance']} tree {item['deleted_edge']} gap {item['gap']}")
        n_prop = len(result["proposition_violations"])
        line = f"proposition violations (gap >= 4): {n_prop}"
        print(_good(line) if n_prop == 0 else _bad(line))
    return EXIT_BOUND_VIOLATION if result["proposition_violations"] else EXIT_OK


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


def _add_common(parser: argparse.ArgumentParser, *caps: str, with_file: bool = True) -> None:
    """The input and format options, and ``--dim-cap``/``--pd-cap`` for each
    solver named in ``caps``: the caps the command's handler reads."""
    if with_file:
        parser.add_argument("file", nargs="?", help="edge-list file (or use --gen)")
    specs = ", ".join(f"{name}:{letter}" for name, (letter, _) in GENERATORS.items())
    parser.add_argument("--gen", help=f"generator spec: {specs}")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    for cap in caps:
        default = DEFAULT_DIM_CAP if cap == "dim" else DEFAULT_PD_CAP
        parser.add_argument(f"--{cap}-cap", type=int, default=default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each command binds its handler.

    Cached because building the tree costs about 2 ms, which in-process
    callers of ``main`` would otherwise pay on every call.
    """
    parser = argparse.ArgumentParser(
        prog="udim",
        description=(
            "Exact metric and partition dimension of trees and unicyclic "
            "graphs, certified bound constructions, and conjecture scanning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    _add_common(command("analyze", _cmd_analyze,
                        "invariants, exact values and the bound chain"), "dim", "pd")
    _add_common(command("dim", _cmd_exact, "exact metric dimension with witness set"), "dim")
    _add_common(command("pd", _cmd_exact,
                        "exact partition dimension with witness partition"), "pd")

    p = command("construct", _cmd_construct, "build and verify a named construction")
    p.add_argument("name", choices=[name for name, _, _ in CONSTRUCTIONS] + ["lift"])
    _add_common(p, "pd")  # the pd cap bounds the tree solve of ``lift``

    p = command("verify", _cmd_verify, "check a partition file against a graph")
    p.add_argument("partition", help="partition file: one part per line")
    _add_common(p)

    p = command("scan", _cmd_scan, "pd gap scan over spanning trees")
    family = p.add_mutually_exclusive_group()
    family.add_argument("--exhaustive",
                        help="range A..B of vertex counts, one graph per class")
    family.add_argument("--random", type=int, help="number of random instances")
    p.add_argument("--n", type=int, help="vertex count for random instances")
    p.add_argument("--seed", type=int, help="first seed of random instances (default 0)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--pd-cap", type=int, default=DEFAULT_PD_CAP)

    p = command("gen", _cmd_gen, "emit a generated graph as an edge list")
    _add_common(p, with_file=False)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for bound violations.
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (``udim ... | head``): that ends the output.
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (UdimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())
