"""Command-line front end.

Subcommands: verify, certify, search, table, corpus.  Exit codes form a
stable contract: 0 decided / verified true, 1 verified false, 2 malformed
input, 3 open or budget-exhausted, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus as corpus_mod
from . import serialize, table as table_mod
from .errors import FrameStarterError
from .search import BUDGET_FREE_MAX_ORDER, MODES, SearchConfig, search
from .starters import LEVELS, verify_skew
from .theory import StarterType, certify, starter_kind

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_OPEN = 3


def _emit(obj, as_json: bool, text: str):
    print(json.dumps(obj, indent=1) if as_json else text)


def cmd_verify(args) -> int:
    starter = serialize.load_starter(args.file)
    report = verify_skew(starter)
    obj = serialize.report_to_obj(report)
    if args.verbose and (witnesses := report.witnesses):
        obj["witnesses"] = list(witnesses)
    holds = obj[f"is_{args.property}"]
    text = [f"type {starter.h}^{starter.u} in a group of order "
            f"{starter.group.order}"]
    text.extend(f"  {level}: {'yes' if obj[f'is_{level}'] else 'no'}"
                for level in LEVELS)
    if obj["witness"] and not holds:
        text.append(f"  witness: {obj['witness']}")
    text.extend(f"  - {w}" for w in obj.get("witnesses", ()))
    _emit(obj, args.json, "\n".join(text))
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
          f"type {t}: no {starter_kind(cert.level)} ({cert.theorem})\n"
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
    # Only the rendering printed is built: both cost more than the search
    # on a count with many starters.
    if args.json:
        print(json.dumps(serialize.outcome_to_obj(outcome), indent=1))
    else:
        text = [f"type {t} property={cfg.property} mode={cfg.mode}: "
                f"{outcome.result}",
                f"  nodes visited: {outcome.nodes_visited}",
                f"  wall time: {outcome.wall_time:.3f}s"]
        text.extend(f"  starter: {serialize.format_pairs(s)}"
                    for s in outcome.starters)
        if (cert := outcome.certificate) is not None:
            text.append(f"  certificate: {cert.statement}")
        print("\n".join(text))
    if args.out and outcome.starters:
        serialize.dump_starter(outcome.starters[0], args.out)
    return EXIT_OPEN if outcome.result == "budget_exceeded" else EXIT_OK


def render_markdown(rows: list[table_mod.TableRow]) -> str:
    lines = ["| type | existence | authority | detail |",
             "|------|-----------|-----------|--------|"]
    lines += (f"| {r.starter_type} | {r.existence} | {r.authority} | {r.detail} |"
              for r in rows)
    return "\n".join(lines)


def render_csv(rows: list[table_mod.TableRow]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["type", "existence", "authority", "detail"])
    writer.writerows([str(r.starter_type), r.existence, r.authority, r.detail]
                     for r in rows)
    return buf.getvalue()


def rows_to_obj(rows: list[table_mod.TableRow]) -> list[dict]:
    out = []
    for row in rows:
        obj = {
            "type": str(row.starter_type),
            "existence": row.existence,
            "authority": row.authority,
            "detail": row.detail,
        }
        if row.certificate is not None:
            obj["theorem"] = row.certificate.theorem
        if row.outcome is not None:
            obj["nodes"] = row.outcome.nodes_visited
            obj["seconds"] = row.outcome.wall_time
            obj["nodes_per_s"] = round(row.outcome.nodes_visited
                                       / row.outcome.wall_time)
            if row.outcome.starters:
                obj["witness"] = serialize.starter_to_obj(
                    row.outcome.starters[0])
        out.append(obj)
    return out


def cmd_table(args) -> int:
    rows = table_mod.build_table(args.max_g, deep=args.deep, budget=args.budget)
    if args.json:
        print(json.dumps(rows_to_obj(rows), indent=1))
    elif args.format == "csv":
        print(render_csv(rows), end="")
    else:
        print(render_markdown(rows))
    return EXIT_OK


def cmd_corpus(args) -> int:
    entries = ((corpus_mod.load_entry(args.only),) if args.only
               else corpus_mod.load_entries())

    if args.action == "list":
        rows = [{"id": e.entry_id, "type": f"{e.starter.h}^{e.starter.u}",
                 "property": e.claimed_property, "repaired": e.repaired}
                for e in entries]
        text = "\n".join(
            f"{r['id']}: type {r['type']} ({r['property']})"
            + (" [repaired transcription]" if r["repaired"] else "")
            for r in rows
        )
        _emit(rows, args.json, text)
        return EXIT_OK

    failures = 0
    rows = []
    lines = []
    for e in entries:
        kind = f"{e.starter.h}^{e.starter.u}"
        report = verify_skew(e.starter)
        ok = report.holds(e.claimed_property)
        witness = None if ok else report.witness
        failures += not ok
        note = ""
        if e.repaired:
            note = f" [repaired: {e.note}]" if e.note else " [repaired]"
        lines.append(
            f"{e.entry_id}: type {kind} {e.claimed_property} "
            f"{'pass' if ok else 'FAIL'}{note}"
            + ("" if ok else f" ({witness})")
        )
        rows.append({"id": e.entry_id, "type": kind,
                     "property": e.claimed_property, "pass": ok,
                     "repaired": e.repaired,
                     "witness": witness})
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
    p.add_argument("--mode", choices=MODES, default="find_first")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget (required for g > "
                        f"{BUDGET_FREE_MAX_ORDER})")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for a search without --budget")
    p.add_argument("--no-symmetry", action="store_true",
                   help="disable the symmetry reduction (the maps x -> ax + c, "
                        "a a unit of Z_g and c a translation in H)")
    p.add_argument("--out", metavar="FILE",
                   help="write the first found starter as JSON")
    p.add_argument("--progress", type=int, default=0, metavar="NODES",
                   help="emit a JSON progress line to stderr every N nodes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("table", help="existence table for small skew types")
    p.add_argument("--max-g", type=int, default=57)
    p.add_argument("--deep", action="store_true",
                   help="also search the deep cells, within --budget")
    p.add_argument("--budget", type=int, default=table_mod.DEFAULT_CELL_BUDGET,
                   help="per-cell node budget")
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except FrameStarterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader left (`table | head -1`): drop the rest and exit as a
        # shell reports a pipeline member killed by SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
