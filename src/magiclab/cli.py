"""Command-line front end.

Thin wrappers over the library: every verdict printed here is produced by
the same public predicates the tests exercise.  Exit codes: 0 success,
1 usage or parse error, 2 a requested verification failed, 3 a time limit
cut a run short.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import families, merges, quotients, search
from .graphs import Graph, graph_from_json, graph_to_json
from .labelings import (
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    labeling_from_json,
    labeling_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_PARTIAL = 3

# Reference counts (#SR, #gr, #VT) for orders 16..23; the published
# classification that `table1` checks itself against.
TABLE1_EXPECTED = {
    16: (48, 1, 1),
    17: (0, 0, 0),
    18: (136, 2, 1),
    19: (0, 0, 0),
    20: (66, 2, 1),
    21: (57, 7, 0),
    22: (0, 0, 0),
    23: (675, 80, 0),
}
TABLE1_LONG_START = 24

THREADS_HELP = (
    "accepted for compatibility (at least 1); the search runs in one thread "
    "and the value does not change the result"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_graph(path: str) -> Graph:
    return graph_from_json(Path(path).read_text())


def _read_labeling(path: str):
    return labeling_from_json(Path(path).read_text())


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _cmd_gen(args) -> int:
    if args.family == "wreath":
        g = families.wreath(args.m)
    elif args.family == "circulant":
        g = families.circulant(args.m, _int_list(args.connections))
    elif args.family == "cartesian":
        g = families.cartesian_cycles(args.m, args.k)
    else:
        g = families.direct_cycles(args.m, args.k)
    print(graph_to_json(g))
    return EXIT_OK


def _cmd_label(args) -> int:
    maker = {
        "natural": families.wreath_natural_labeling,
        "degenerate": families.wreath_degenerate_labeling,
        "nondegenerate": families.wreath_nondegenerate_labeling,
        "nonsr": families.wreath_non_sr_labeling,
    }[args.kind]
    print(labeling_to_json(maker(args.m)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    l = _read_labeling(args.labeling)
    report = {
        "distance_magic": is_distance_magic(g, l),
        "self_reverse": is_self_reverse(g, l),
        "degenerate": is_degenerate(g, l),
        "connected": g.is_connected(),
        "regular4": g.is_regular(4),
    }
    print(json.dumps(report))
    required = [report["distance_magic"]]
    if args.sr:
        required.append(report["self_reverse"])
    if args.nondegenerate:
        required.append(not report["degenerate"])
    if args.connected:
        required.append(report["connected"])
    if args.regular:
        required.append(report["regular4"])
    return EXIT_OK if all(required) else EXIT_VERIFY


def _cmd_quotient(args) -> int:
    g = _read_graph(args.graph)
    l = _read_labeling(args.labeling)
    try:
        q = quotients.quotient(g, l)
    except quotients.QuotientError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VERIFY
    if args.format == "dot":
        sys.stdout.write(quotients.export_dot(q))
    else:
        print(quotients.quotient_to_json(q))
    return EXIT_OK


def _cmd_lift(args) -> int:
    q = quotients.quotient_from_json(Path(args.quotient).read_text())
    try:
        g, l = quotients.lift(q)
    except quotients.QuotientError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VERIFY
    print(json.dumps({
        "graph": json.loads(graph_to_json(g)),
        "labeling": json.loads(labeling_to_json(l)),
    }))
    return EXIT_OK


def _cmd_merge(args) -> int:
    g = _read_graph(args.left)
    h = _read_graph(args.right)
    c = merges.make_cyclet(g, _int_list(args.left_cyclet))
    c2 = merges.make_cyclet(h, _int_list(args.right_cyclet))
    merged = merges.merge(g, c, h, c2)
    payload = {"graph": json.loads(graph_to_json(merged))}
    if args.left_labeling and args.right_labeling:
        l = _read_labeling(args.left_labeling)
        l2 = _read_labeling(args.right_labeling)
        report = merges.check_merge_conditions(g, l, c, h, l2, c2)
        payload["conditions"] = {
            "balanced": report.balanced,
            "alternating": report.alternating,
            "sums_match": report.sums_match,
            "sr_condition_i": report.sr_condition_i,
            "sr_condition_ii": report.sr_condition_ii,
        }
        if report.mergeable:
            payload["labeling"] = json.loads(
                labeling_to_json(merges.merged_labeling(g, l, h, l2))
            )
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_extend(args) -> int:
    g = _read_graph(args.graph)
    l = _read_labeling(args.labeling)
    a, b = _int_list(args.edge)
    for _ in range(args.times):
        g, l = merges.extend_by_w4(g, l, a, b)
        a, b = g.n - 8 + 3, g.n - 8 + 7
    print(json.dumps({
        "graph": json.loads(graph_to_json(g)),
        "labeling": json.loads(labeling_to_json(l)),
    }))
    return EXIT_OK


def _cmd_witness(args) -> int:
    if args.non_wreath:
        pair = merges.witness_non_wreath(args.n)
    elif args.nondegenerate:
        pair = merges.witness_nondegenerate(args.n)
    else:
        pair = merges.witness(args.n)
    if pair is None:
        print(json.dumps({"present": False}))
        return EXIT_OK
    g, l = pair
    print(json.dumps({
        "present": True,
        "graph": json.loads(graph_to_json(g)),
        "labeling": json.loads(labeling_to_json(l)),
    }))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    opts = search.SearchOptions(
        require_self_reverse=not args.all_dm,
        require_nondegenerate=args.nondegenerate,
        time_limit=args.time_limit,
        thread_budget=args.threads,
    )
    if args.all_dm:
        pairs, report = search.enumerate_dm(args.order, opts)
    else:
        pairs, report = search.enumerate_sr(args.order, opts)
    if args.emit_dir:
        out = Path(args.emit_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, (g, l) in enumerate(pairs):
            payload = {
                "graph": json.loads(graph_to_json(g)),
                "labeling": json.loads(labeling_to_json(l)),
            }
            (out / f"find_{i:06d}.json").write_text(json.dumps(payload))
        (out / "report.json").write_text(json.dumps(report.to_dict()))
    print(json.dumps(report.to_dict()))
    return EXIT_OK if report.complete else EXIT_PARTIAL


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    n = int(text)
    return n, n


def _cmd_table1(args) -> int:
    n_min, n_max = _parse_range(args.range)
    if not (5 <= n_min <= n_max <= 30):
        raise _UsageError("table range must lie within 5..30")
    if n_max >= TABLE1_LONG_START and not args.allow_long:
        raise _UsageError(
            f"orders >= {TABLE1_LONG_START} run for minutes to hours; rerun with "
            f"--allow-long to confirm the long computation is intended"
        )
    opts = search.SearchOptions(
        require_nondegenerate=True,
        time_limit=args.time_limit,
        thread_budget=args.threads,
    )
    table = search.table1_report(n_min, n_max, opts)
    print(table.to_text())
    failed = False
    for n, sr, gr, vt in table.rows:
        expected = TABLE1_EXPECTED.get(n)
        if expected is None:
            continue
        ok = (sr, gr, vt) == expected
        failed = failed or not ok
        print(f"n={n}: {'PASS' if ok else 'FAIL'} expected {expected} got {(sr, gr, vt)}")
    print(json.dumps(table.to_dict()))
    if not table.complete:
        return EXIT_PARTIAL
    return EXIT_VERIFY if failed else EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="magiclab")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted for interface uniformity; all commands are deterministic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family graph as JSON")
    gen_sub = p.add_subparsers(dest="family", required=True)
    q = gen_sub.add_parser("wreath")
    q.add_argument("m", type=int)
    q = gen_sub.add_parser("circulant")
    q.add_argument("m", type=int, metavar="n")
    q.add_argument("connections", help="comma-separated residues, e.g. 1,5")
    q = gen_sub.add_parser("cartesian")
    q.add_argument("m", type=int)
    q.add_argument("k", type=int)
    q = gen_sub.add_parser("direct")
    q.add_argument("m", type=int)
    q.add_argument("k", type=int)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("label", help="emit a wreath labeling as JSON")
    p.add_argument("kind", choices=["natural", "degenerate", "nondegenerate", "nonsr"])
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("verify", help="check labeling properties")
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--sr", action="store_true")
    p.add_argument("--nondegenerate", action="store_true")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--regular", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("quotient", help="fold a labeled graph into its quotient")
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("lift", help="unfold a quotient into its two-fold cover")
    p.add_argument("--quotient", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("merge", help="merge two graphs along cyclets")
    p.add_argument("--left", required=True)
    p.add_argument("--left-cyclet", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--right-cyclet", required=True)
    p.add_argument("--left-labeling")
    p.add_argument("--right-labeling")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("extend", help="extend by 8-vertex blocks along a quotient edge")
    p.add_argument("--graph", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--edge", required=True, help="a,b with labels differing by 4")
    p.add_argument("--times", type=int, default=1)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("witness", help="produce an order witness if one exists")
    p.add_argument("n", type=int)
    p.add_argument("--nondegenerate", action="store_true")
    p.add_argument("--non-wreath", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("enumerate", help="enumerate labeling classes of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--nondegenerate", action="store_true")
    p.add_argument("--all-dm", action="store_true")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--emit-dir", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table1", help="reproduce the classification table")
    p.add_argument("range", help="e.g. 16..22 or a single order")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        # Covers unreadable files, malformed JSON and domain errors
        # (GraphError, LabelingError, MergeError, ... are ValueErrors).
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except search.SearchTimeLimit:
        print("error: time limit exceeded", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
