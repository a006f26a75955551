"""Ground truth for the benchmark's answers, kept apart from the engine.

Expected answers come from the data files beside this module: the
published existence table (plus recorded cells outside it) and starter
counts made by the unpruned oracle.  Every emitted starter is checked
twice: by the package's verifier and by `is_cyclic_starter`, a direct
reading of the definitions that shares no code with the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True, slots=True)
class Expected:
    existence: str                # "yes" | "no" | "open" | "deep"
    authority: str                # "search" | "theorem" | "none"
    count: int | None = None      # exact starter count (exhaustive questions)


def load_table57() -> dict[str, Expected]:
    cells = json.loads((DATA / "table57.json").read_text("utf-8"))["cells"]
    return {t: Expected(c["existence"], c["authority"] or "none")
            for t, c in cells.items()}


def load_exhaust18() -> dict[str, dict[str, Expected]]:
    counts = json.loads((DATA / "exhaust18.json").read_text("utf-8"))["counts"]
    return {t: {level: Expected("yes" if n else "no", "search", n)
                for level, n in by_level.items()}
            for t, by_level in counts.items()}


def is_cyclic_starter(g: int, h: int, pairs, level: str) -> bool:
    """Whether `pairs` is a frame/strong/skew starter over Z_g minus its order-h subgroup."""
    u = g // h                    # the subgroup is the multiples of u
    outside = [x for x in range(g) if x % u]
    if sorted(x for p in pairs for x in p) != outside:
        return False
    diffs = [(y - x) % g for x, y in pairs]
    if sorted(diffs + [-d % g for d in diffs]) != outside:
        return False
    if level == "frame":
        return True
    sums = [(x + y) % g for x, y in pairs]
    if any(s % u == 0 for s in sums) or len(set(sums)) != len(sums):
        return False
    return level == "strong" or sorted(sums + [-s % g for s in sums]) == outside


def problems(expected: Expected | None, existence: str, authority: str,
             starters, g: int, h: int, level: str, verify,
             verified: set) -> list[str]:
    """Every way one answer disagrees with its ground truth.

    Starters in `verified` passed both checks earlier and are skipped;
    those that pass now are added to it.
    """
    if expected is None:
        return ["no ground truth for this question"]
    out = []
    if expected.existence == "open" and existence == "yes":
        pass                      # deciding an open cell is a win if the witness holds
    elif (existence, authority) != (expected.existence, expected.authority):
        out.append(f"answered {existence}/{authority}, expected "
                   f"{expected.existence}/{expected.authority}")
    if existence == "yes" and not starters:
        out.append("answered yes without a witness")
    if expected.count is not None and len(starters) != expected.count:
        out.append(f"{len(starters)} starters, expected {expected.count}")
    if len({s.pairs for s in starters}) != len(starters):
        out.append("the same starter was emitted twice")
    for s in starters:
        if s.group.factors != (g,) or s.subgroup.order != h:
            out.append(f"emitted starter lives in {s.group} / {s.subgroup.order}")
            break
        key = (g, h, level, s.pairs)
        if key in verified:
            continue
        raw = [(p.first.coords[0], p.second.coords[0]) for p in s.pairs]
        if not (verify(s).holds(level) and is_cyclic_starter(g, h, raw, level)):
            out.append(f"emitted starter fails {level}: {raw}")
            break
        verified.add(key)
    return out
