"""Reproduce the existence table for small cyclic skew frame starters.

For every admissible type h^u with h > 1 and g = h*u below the requested
bound, run the certificate predicates; where they stay silent, search.
Each cell records whether the answer came from a theorem or from the
search engine, so the output can be compared against published tables
cell by cell.
"""

from __future__ import annotations

from .errors import InvalidTypeError
from .record import Record
from .search import (MAX_SEARCH_ORDER, SearchConfig, SearchOutcome,
                     check_budget, search)
from .serialize import format_pairs, starter_to_obj
from .theory import NonexistenceCertificate, StarterType, certify

#: Default per-cell search budget in nodes, at which the g <= 57 table
#: decides 89 cells (ROADMAP's baseline gives the time per budget-cut cell).
DEFAULT_CELL_BUDGET = 400_000

#: Cells that only an exhaustive search of 322,400 nodes (4^8) or more
#: decides (README's `table` section has their times); skipped unless deep
#: mode is requested, which searches them within the per-cell budget (at
#: the default, enough for 4^8 alone); a skipped row names its search.
DEEP_CELLS = frozenset({(2, 16), (4, 8), (4, 9), (4, 10)})


class TableRow(Record):
    __slots__ = _fields = ("starter_type", "existence", "authority", "detail",
                           "certificate", "outcome")

    def __init__(self, starter_type: StarterType,
                 existence: str,     # "yes" | "no" | "?"
                 authority: str,     # "theorem" | "search" | "none"
                 detail: str,
                 certificate: NonexistenceCertificate | None = None,
                 outcome: SearchOutcome | None = None):
        self._assign(starter_type, existence, authority, detail, certificate,
                     outcome)


def admissible_types(max_g: int) -> list[StarterType]:
    """Types h^u with h, u >= 2, g <= max_g and g - h even, in (h, u) order."""
    return [t for h in range(2, max_g // 2 + 1)
            for u in range(2, max_g // h + 1)
            if (t := StarterType(h, u)).admissible]


def build_row(t: StarterType, *, deep: bool, budget: int, workers: int = 1) -> TableRow:
    """One cell.  `workers` is unused: a budgeted search walks serially."""
    cert = certify(t)
    if cert is not None:
        return TableRow(t, "no", "theorem",
                        f"{cert.theorem}: {cert.statement}", certificate=cert)
    if (t.h, t.u) in DEEP_CELLS and not deep:
        return TableRow(t, "?", "none", "deep cell skipped; decide it with "
                        f"framestarters search --type {t} --mode prove_nonexistence")
    out = search(SearchConfig(t, node_budget=budget))  # skew, find_first
    cert, n = out.certificate, out.nodes_visited
    existence = {"found": "yes", "exhausted_none": "no"}.get(out.result, "?")
    detail = (f"witness found after {n} nodes: {format_pairs(out.starters[0])}"
              if out.starters else cert.statement if cert
              else f"budget exceeded after {n} nodes")
    return TableRow(t, existence, "none" if existence == "?" else "search",
                    detail, certificate=cert, outcome=out)


def build_table(max_g: int, *, deep: bool = False,
                budget: int = DEFAULT_CELL_BUDGET) -> list[TableRow]:
    if max_g > MAX_SEARCH_ORDER:
        raise InvalidTypeError(f"--max-g is capped at {MAX_SEARCH_ORDER}")
    if max_g < 4:
        raise InvalidTypeError("--max-g must be >= 4, the order of 2^2")
    check_budget(budget)  # before the first row, searched or not
    return [build_row(t, deep=deep, budget=budget)
            for t in admissible_types(max_g)]


def render_markdown(rows: list[TableRow]) -> str:
    lines = ["| type | existence | authority | detail |",
             "|------|-----------|-----------|--------|"]
    lines += (f"| {r.starter_type} | {r.existence} | {r.authority} | {r.detail} |"
              for r in rows)
    return "\n".join(lines)


def render_csv(rows: list[TableRow]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["type", "existence", "authority", "detail"])
    writer.writerows([str(r.starter_type), r.existence, r.authority, r.detail]
                     for r in rows)
    return buf.getvalue()


def rows_to_obj(rows: list[TableRow]) -> list[dict]:
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
                obj["witness"] = starter_to_obj(row.outcome.starters[0])
        out.append(obj)
    return out
