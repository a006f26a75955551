"""Pruned exhaustive backtracking for cyclic frame starters.

One `Engine` holds what a search over Z_g \\ H at one property level needs,
built once from the starter type and the level, which it rejects unless
the type is cyclic and admissible: the candidate table of feasible pairs,
the static partner and placement masks, `full` (the elements of G \\ H)
and `mask_g` (the elements of Z_g), all as bitmasks over the dense
integers 0..g-1.  A search state is three occupancy masks: members,
+-differences and +-sums.  Two engine steps act on states, and nothing
else expands one:

- `place` adds one pair and rejects it when it is infeasible or collides
  with the state;
- `branch` returns the feasible placements of the most constrained open
  requirement (an uncovered element that must be paired, or an unused
  difference class that must be realized) in ascending order.  A
  requirement with no placement left empties the list and prunes the
  node; this fail-first order is what makes witnesses in groups of order
  ~50 reachable in seconds.

The search tree is canonical.  The root places the pair realizing the
difference class {1, -1} (every frame starter contains exactly one), and
below the root `Engine.run` calls `branch` once per node.  The branch is a
deterministic function of the state, so every starter is generated
exactly once and exhaustive counts are exact.  `canonical_first_branch`
walks the same tree one step at a time.

The engine returns raw pairings.  `search` builds each starter it reports
and checks it once with the independent verifier, in the calling process;
the acceleration structures are never trusted.  With several workers each
process runs the engine on its own stride of root pairs.

Symmetry reduction exploits negation x -> -x, which maps starters to
starters of the same kind.  Writing the root pair {x, x+1}, negation sends
the base point x to g-1-x, so exploring only x <= (g-1)/2 keeps one
representative of every orbit.  This prunes for existence questions;
exact counts are taken with the reduction switched off.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable

from .errors import FrameStarterError, InvalidTypeError
from .groups import GroupSpec, cyclic_subgroup
from .starters import LEVELS, FrameStarter, make_starter, verify_skew
from .theory import StarterType

MODES = ("find_first", "exhaustive_count", "prove_nonexistence")

#: Above this order an explicit node budget is mandatory; open cells get
#: expensive quickly and the tool must not silently run forever.
BUDGET_FREE_MAX_ORDER = 60

WORKERS_ENV_VAR = "FRAMESTARTERS_WORKERS"


@dataclass(frozen=True, slots=True)
class SearchConfig:
    target_type: StarterType
    property: str = "skew"
    mode: str = "find_first"
    node_budget: int | None = None
    worker_count: int = 1
    symmetry_reduction: bool = True
    progress_interval: int = 0

    def __post_init__(self):
        if self.property not in LEVELS:
            raise InvalidTypeError(f"unknown property {self.property!r}")
        if self.mode not in MODES:
            raise InvalidTypeError(f"unknown search mode {self.mode!r}")
        if self.node_budget is not None and self.node_budget < 1:
            raise InvalidTypeError("node budget must be >= 1 when given")
        if self.worker_count < 1:
            raise InvalidTypeError("worker count must be >= 1")
        if self.progress_interval < 0:
            raise InvalidTypeError("progress interval must be >= 0")


@dataclass(frozen=True, slots=True)
class SearchOutcome:
    result: str  # "found" | "exhausted_none" | "budget_exceeded"
    starters: tuple[FrameStarter, ...]
    nodes_visited: int
    wall_time: float
    config: SearchConfig


class _Stop(Exception):
    """Internal: first starter found in a stop-early mode."""


class _Budget(Exception):
    """Internal: node budget exhausted."""


class Engine:
    """Search state for one type and level, built once and shared by every node.

    A non-cyclic or inadmissible type raises InvalidTypeError.

    cand[x][y] is (pair_mask, diff_mask, sum_mask, (min, max)) for a
    feasible pair {x, y}, else None.  None encodes every per-pair
    rejection: a member or difference or sum in H, a self-negative
    difference (it could cover only one element of the difference
    partition), and for skew a self-negative sum.  partners[x] masks the
    feasible partners of x; classes lists each difference class d with the
    mask of base points x whose pair {x, x+d} is feasible.
    """

    __slots__ = ("g", "mask_g", "full", "strongish", "cand", "partners",
                 "classes")

    def __init__(self, t: StarterType, level: str):
        if not t.cyclic:
            raise InvalidTypeError("the engine only searches cyclic groups")
        if not t.admissible:
            raise InvalidTypeError(
                f"type {t} has odd g - h = {t.g - t.h}; no pairing exists"
            )
        g, r = t.g, t.u
        strongish = level in ("strong", "skew")
        skew = level == "skew"
        cand: list[list[tuple | None]] = [[None] * g for _ in range(g)]
        for x in range(1, g):
            if x % r == 0:
                continue
            row = cand[x]
            for y in range(1, g):
                if y == x or y % r == 0:
                    continue
                d = (y - x) % g
                if d % r == 0:
                    continue
                nd = g - d
                if d == nd:
                    continue
                sum_mask = 0
                if strongish:
                    s = (x + y) % g
                    if s % r == 0:
                        continue
                    sum_mask = 1 << s
                    if skew:
                        ns = (g - s) % g
                        if s == ns:
                            continue
                        sum_mask |= 1 << ns
                row[y] = ((1 << x) | (1 << y), (1 << d) | (1 << nd), sum_mask,
                          (x, y) if x < y else (y, x))
        self.g = g
        self.mask_g = (1 << g) - 1
        self.full = sum(1 << v for v in range(1, g) if v % r)
        self.strongish = strongish
        self.cand = cand
        self.partners = [sum(1 << y for y in range(g) if row[y] is not None)
                         for row in cand]
        self.classes = [
            (d, sum(1 << x for x in range(g) if cand[x][(x + d) % g] is not None))
            for d in range(1, (g - 1) // 2 + 1) if d % r
        ]

    def roots(self, symmetry: bool) -> list[tuple]:
        """Placements of the difference-class {1, -1} pair, the fixed root item.

        Negation maps the pair {x, x+1} to {g-1-x, g-x}, so with symmetry on
        only base points x <= (g-1)/2 are kept: one representative per orbit.
        """
        top = (self.g - 1) // 2 if symmetry else self.g - 2
        return [entry for x in range(1, top + 1)
                if (entry := self.cand[x][x + 1]) is not None]

    def place(self, state: tuple[int, int, int],
              pair: tuple[int, int]) -> tuple[int, int, int]:
        """The state with the pair added; InvalidTypeError when the pair is
        infeasible or shares a member, difference or sum with the state."""
        x, y = pair
        g = self.g
        entry = self.cand[x][y] if 0 <= x < g and 0 <= y < g else None
        if entry is None:
            raise InvalidTypeError(f"placed pair ({x}, {y}) is infeasible")
        used, used_diff, used_sum = state
        pm, dm, sm, _ = entry
        if used & pm or used_diff & dm or used_sum & sm:
            raise InvalidTypeError(
                f"placed pair ({x}, {y}) collides with an earlier pair")
        return used | pm, used_diff | dm, used_sum | sm

    def branch(self, used: int, used_diff: int, used_sum: int) -> list[tuple]:
        """Feasible placements (as candidate-table entries) of the most
        constrained open requirement, ascending; empty when the state is
        complete or provably dead.

        Element requirements carry an exact mask of feasible partners;
        class requirements an upper bound, so each placement is checked
        for collisions before it is returned.  The scan stops early at a
        single-option requirement; any zero-option requirement it skipped
        then surfaces one level deeper, which costs little in practice.
        """
        g = self.g
        mask_g = self.mask_g
        free = self.full & ~used
        notdiff = ~used_diff & mask_g
        notsum = ~used_sum & mask_g
        partners = self.partners
        strongish = self.strongish
        best_n = g + 1
        key = opts = 0
        by_class = False
        scan = free
        while scan:
            xb = scan & -scan
            scan ^= xb
            x = xb.bit_length() - 1
            m = free & partners[x] & (((notdiff << x) | (notdiff >> (g - x)))
                                      & mask_g)
            if strongish:
                m &= ((notsum >> x) | (notsum << (g - x))) & mask_g
            n = m.bit_count()
            if n == 0:
                return []
            if n < best_n:
                best_n, key, opts = n, x, m
                if n == 1:
                    break
        if best_n > 1:
            for d, placements in self.classes:
                if not (notdiff >> d) & 1:
                    continue
                pl = free & (((free >> d) | (free << (g - d))) & mask_g) \
                    & placements
                n = pl.bit_count()
                if n == 0:
                    return []
                if n < best_n:
                    best_n, key, opts, by_class = n, d, pl, True
                    if n == 1:
                        break
        cand = self.cand
        out = []
        while opts:
            ob = opts & -opts
            opts ^= ob
            v = ob.bit_length() - 1
            entry = cand[v][(v + key) % g] if by_class else cand[key][v]
            pm, dm, sm, _ = entry
            if not (used & pm or used_diff & dm or used_sum & sm):
                out.append(entry)
        return out

    def run(self, cfg: SearchConfig, roots: list[tuple],
            progress: Callable[[int, int, float], None] | None = None):
        """Explore the subtrees under the given root entries.

        Returns (status, raw_pairings, nodes) with status one of
        "exhausted", "found" (stop-early modes only) or "budget".
        """
        branch = self.branch
        full = self.full
        budget = cfg.node_budget
        interval = cfg.progress_interval if progress is not None else 0
        stop_early = cfg.mode != "exhaustive_count"
        nodes = 0
        solutions: list[tuple[tuple[int, int], ...]] = []
        stack: list[tuple[int, int]] = []
        started = time.perf_counter()

        def extend(options, used: int, used_diff: int, used_sum: int):
            nonlocal nodes
            for pm, dm, sm, pair in options:
                nodes += 1
                if budget is not None and nodes > budget:
                    raise _Budget
                if interval and nodes % interval == 0:
                    progress(nodes, len(stack), time.perf_counter() - started)
                stack.append(pair)
                u, ud, us = used | pm, used_diff | dm, used_sum | sm
                if u == full:
                    solutions.append(tuple(stack))
                    if stop_early:
                        raise _Stop
                else:
                    extend(branch(u, ud, us), u, ud, us)
                stack.pop()

        status = "exhausted"
        try:
            extend(roots, 0, 0, 0)
        except _Stop:
            status = "found"
        except _Budget:
            status = "budget"
            nodes -= 1  # the placement that tripped the budget never happened
        return status, solutions, nodes


def _verified_starter(g: int, h: int, level: str,
                      raw_pairs: Iterable[tuple[int, int]]) -> FrameStarter:
    group = GroupSpec((g,))
    sub = cyclic_subgroup(group, h)
    starter = make_starter(group, sub, raw_pairs)
    report = verify_skew(starter)
    if not report.holds(level):
        raise RuntimeError(
            f"search emitted a candidate failing {level} verification: "
            f"{report.witness}"
        )
    return starter


def default_worker_count() -> int:
    value = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if value.isdigit() and int(value) >= 1:
        return int(value)
    return 1


def search(cfg: SearchConfig,
           progress: Callable[[int, int, float], None] | None = None,
           ) -> SearchOutcome:
    """Run the backtracking search described by the config.

    find_first and prove_nonexistence stop at the first starter;
    exhaustive_count traverses the whole canonical tree.  exhausted_none is
    reported only after a complete traversal, never after a budget cut.
    With several workers the root placements are split statically into at
    most that many slices, one process each (node budget applies per
    process, progress reporting only when one slice runs in-process), and
    results merge in canonical starter order.
    Each reported starter is built and verified once, here.
    """
    t = cfg.target_type
    started = time.perf_counter()
    if cfg.node_budget is None and t.g > BUDGET_FREE_MAX_ORDER:
        raise FrameStarterError(
            f"searches with g = {t.g} > {BUDGET_FREE_MAX_ORDER} require an "
            f"explicit node budget"
        )
    engine = Engine(t, cfg.property)

    roots = engine.roots(cfg.symmetry_reduction)
    w = cfg.worker_count
    slices = [roots[i::w] for i in range(min(w, len(roots)))]
    if len(slices) <= 1:
        results = [engine.run(cfg, roots, progress)]
    else:
        with ProcessPoolExecutor(max_workers=len(slices)) as pool:
            results = list(pool.map(engine.run, repeat(cfg), slices))
    statuses = [status for status, _, _ in results]
    solutions = sorted((sol for _, sols, _ in results for sol in sols),
                       key=sorted)  # the pair order of FrameStarter
    if cfg.mode != "exhaustive_count":
        solutions = solutions[:1]
    starters = tuple(_verified_starter(t.g, t.h, cfg.property, sol)
                     for sol in solutions)
    if starters and (cfg.mode != "exhaustive_count"
                     or "budget" not in statuses):
        result = "found"
    elif "budget" in statuses:
        result = "budget_exceeded"
    else:
        result = "exhausted_none"
    return SearchOutcome(
        result=result,
        starters=starters,
        nodes_visited=sum(nodes for _, _, nodes in results),
        wall_time=time.perf_counter() - started,
        config=cfg,
    )


def canonical_first_branch(cfg: SearchConfig,
                           placed: Iterable[tuple[int, int]] = (),
                           ) -> list[tuple[int, int]]:
    """Candidate pairs for the next branch of the canonical tree.

    With nothing placed this is the root policy: the placements of the
    difference-class {1, -1} pair, negation-reduced when symmetry is on.
    Afterwards the pairs are placed one by one (InvalidTypeError for an
    infeasible or colliding pair) and the result is the engine's branch at
    that state; an empty list means the state is complete or provably dead.
    Types that `search` rejects raise InvalidTypeError here too.
    """
    engine = Engine(cfg.target_type, cfg.property)
    placed = list(placed)
    if not placed:
        options = engine.roots(cfg.symmetry_reduction)
    else:
        state = (0, 0, 0)
        for pair in placed:
            state = engine.place(state, pair)
        options = engine.branch(*state)
    return [pair for *_, pair in options]


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate every perfect pairing of G \ H with no
# pruning and no symmetry, then test the finished pairing.  Deliberately
# independent of the engine above; only sane for g <= ~16.

def _pairing_properties(g: int, r: int,
                        pairs: list[tuple[int, int]]) -> tuple[bool, bool, bool]:
    n = 2 * len(pairs)
    diffs = []
    for x, y in pairs:
        d = (y - x) % g
        diffs.append(d)
        diffs.append(g - d)
    frame = all(d % r for d in diffs) and len(set(diffs)) == n
    sums = [(x + y) % g for x, y in pairs]
    strong = frame and all(s % r for s in sums) and len(set(sums)) == len(sums)
    pm = sums + [(g - s) % g for s in sums]
    skew = strong and all(v % r for v in pm) and len(set(pm)) == n
    return frame, strong, skew


def naive_enumerate(t: StarterType, level: str) -> list[FrameStarter]:
    """All starters of the type at the given level, by unpruned enumeration."""
    if not t.cyclic:
        raise InvalidTypeError("the oracle enumerates cyclic groups only")
    if not t.admissible:
        raise InvalidTypeError(f"type {t} admits no pairing")
    g, r = t.g, t.u
    idx = LEVELS.index(level)
    elements = [v for v in range(1, g) if v % r]
    hits: list[tuple[tuple[int, int], ...]] = []
    pairs: list[tuple[int, int]] = []

    def rec(remaining: list[int]):
        if not remaining:
            if _pairing_properties(g, r, pairs)[idx]:
                hits.append(tuple(pairs))
            return
        x = remaining[0]
        for i in range(1, len(remaining)):
            y = remaining[i]
            pairs.append((x, y))
            rec(remaining[1:i] + remaining[i + 1:])
            pairs.pop()

    rec(elements)
    return [_verified_starter(g, t.h, level, sol) for sol in hits]
