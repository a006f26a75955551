"""Command-line front end.

Subcommands: verify, certify, search, table, corpus.  Exit codes form a
stable contract: 0 decided / verified true, 1 verified false, 2 malformed
input, 3 open or budget-exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as corpus_mod
from . import serialize, table as table_mod
from .errors import FrameStarterError
from .search import SearchConfig, default_worker_count, search
from .starters import LEVELS, verify_skew
from .theory import StarterType, certify, exhaustion_certificate

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_OPEN = 3


def _emit(obj, as_json: bool, text: str):
    print(json.dumps(obj, indent=1) if as_json else text)


def cmd_verify(args) -> int:
    starter = serialize.load_starter(args.file)
    report = verify_skew(starter, verbose=args.verbose)
    holds = report.holds(args.property)
    h, u = starter.declared_type
    text = [f"type {h}^{u} in a group of order {starter.group.order}"]
    for level in LEVELS:
        text.append(f"  {level}: {'yes' if report.holds(level) else 'no'}")
    if report.witness and not holds:
        text.append(f"  witness: {report.witness}")
    if args.verbose and report.witnesses:
        text.extend(f"  - {w}" for w in report.witnesses)
    _emit(serialize.report_to_obj(report), args.json, "\n".join(text))
    return EXIT_OK if holds else EXIT_FALSE


def cmd_certify(args) -> int:
    t = StarterType.parse(args.type)
    if not t.admissible:
        raise FrameStarterError(
            f"type {t} has odd g - h; no starter of any kind exists"
        )
    cert = certify(t)
    if cert is None:
        _emit({"type": str(t), "decided": False}, args.json,
              f"type {t}: open (no theorem decides this type)")
        return EXIT_OPEN
    _emit(serialize.certificate_to_obj(cert), args.json,
          f"type {t}: no {cert.level} frame starter ({cert.theorem})\n"
          f"  {cert.statement}")
    return EXIT_OK


def cmd_search(args) -> int:
    t = StarterType.parse(args.type)
    cfg = SearchConfig(
        t,
        property=args.property,
        mode=args.mode,
        node_budget=args.budget,
        worker_count=args.workers,
        symmetry_reduction=not args.no_symmetry,
        progress_interval=args.progress,
    )

    progress = None
    if args.progress:
        def progress(nodes, depth, elapsed):
            print(json.dumps({"nodes": nodes, "depth": depth,
                              "elapsed_s": round(elapsed, 3)}),
                  file=sys.stderr, flush=True)

    outcome = search(cfg, progress)
    if args.out and outcome.starters:
        serialize.dump_starter(outcome.starters[0], args.out)
    obj = serialize.outcome_to_obj(outcome)
    text = [f"type {t} property={cfg.property} mode={cfg.mode}: "
            f"{outcome.result}",
            f"  nodes visited: {outcome.nodes_visited}",
            f"  wall time: {outcome.wall_time:.3f}s"]
    text.extend(f"  starter: {serialize.format_pairs(s)}"
                for s in outcome.starters)
    if outcome.result == "exhausted_none":
        cert = exhaustion_certificate(t, cfg.property, outcome.nodes_visited)
        obj["certificate"] = serialize.certificate_to_obj(cert)
        text.append(f"  certificate: {cert.statement}")
    _emit(obj, args.json, "\n".join(text))
    if outcome.result == "budget_exceeded":
        return EXIT_OPEN
    return EXIT_OK


def cmd_table(args) -> int:
    rows = table_mod.build_table(args.max_g, deep=args.deep,
                                 budget=args.budget, workers=args.workers)
    if args.json:
        print(json.dumps(table_mod.rows_to_obj(rows), indent=1))
    elif args.format == "csv":
        print(table_mod.render_csv(rows), end="")
    else:
        print(table_mod.render_markdown(rows))
    return EXIT_OK


def cmd_corpus(args) -> int:
    entries = corpus_mod.load_entries()
    if args.only:
        entries = tuple(e for e in entries if e.entry_id == args.only)
        if not entries:
            raise FrameStarterError(f"no corpus entry named {args.only!r}")

    if args.action == "list":
        rows = [{"id": e.entry_id, "type": str(e.claimed_type),
                 "property": e.claimed_property, "repaired": e.repaired}
                for e in entries]
        text = "\n".join(
            f"{e.entry_id}: type {e.claimed_type} ({e.claimed_property})"
            + (" [repaired transcription]" if e.repaired else "")
            for e in entries
        )
        _emit(rows, args.json, text)
        return EXIT_OK

    failures = 0
    rows = []
    lines = []
    for e in entries:
        report = verify_skew(e.starter)
        ok = report.holds(e.claimed_property)
        failures += not ok
        note = ""
        if e.repaired:
            note = f" [repaired: {e.note}]" if e.note else " [repaired]"
        lines.append(
            f"{e.entry_id}: type {e.claimed_type} {e.claimed_property} "
            f"{'pass' if ok else 'FAIL'}{note}"
            + ("" if ok else f" ({report.witness})")
        )
        rows.append({"id": e.entry_id, "type": str(e.claimed_type),
                     "property": e.claimed_property, "pass": ok,
                     "repaired": e.repaired,
                     "witness": None if ok else report.witness})
    lines.append(f"{len(entries) - failures}/{len(entries)} verified")
    _emit(rows, args.json, "\n".join(lines))
    return EXIT_OK if failures == 0 else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framestarters",
        description="Verify, search for, and certify the nonexistence of "
                    "(skew) frame starters in finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a starter JSON file")
    p.add_argument("file")
    p.add_argument("--property", choices=LEVELS, default="skew")
    p.add_argument("--verbose", action="store_true",
                   help="report every witness, not just the first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="apply the nonexistence theorems to a type")
    p.add_argument("--type", required=True, metavar="H^U")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", help="backtracking search for a starter type")
    p.add_argument("--type", required=True, metavar="H^U")
    p.add_argument("--property", choices=LEVELS, default="skew")
    p.add_argument("--mode", choices=("find_first", "exhaustive_count",
                                      "prove_nonexistence"),
                   default="find_first")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget (required for g > 60)")
    p.add_argument("--workers", type=int, default=default_worker_count())
    p.add_argument("--no-symmetry", action="store_true",
                   help="disable the negation symmetry reduction")
    p.add_argument("--out", metavar="FILE",
                   help="write the first found starter as JSON")
    p.add_argument("--progress", type=int, default=0, metavar="NODES",
                   help="emit a JSON progress line to stderr every N nodes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("table", help="existence table for small skew types")
    p.add_argument("--max-g", type=int, default=57)
    p.add_argument("--deep", action="store_true",
                   help="also search the hours-scale cells")
    p.add_argument("--budget", type=int, default=table_mod.DEFAULT_CELL_BUDGET,
                   help="per-cell node budget")
    p.add_argument("--workers", type=int, default=default_worker_count())
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("corpus", help="list or check the bundled starters")
    p.add_argument("action", choices=("list", "check"))
    p.add_argument("--only", metavar="ID", help="restrict to one entry")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input of any kind exits 2 with its location."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FrameStarterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
