"""Pruned exhaustive backtracking for cyclic frame starters.

- `SearchConfig` checks every search rule when it is built (admissible
  type, g <= MAX_SEARCH_ORDER, a budget when g > BUDGET_FREE_MAX_ORDER),
  so every config can run; `search(cfg)` is the one way into the engine
  and returns a `SearchOutcome`.
- `Engine` holds what a search over Z_g \\ H at one level needs, built
  once: the feasible pairs as bitmasks over 0..g-1.  A state is three
  occupancy masks (members, +-differences, +-sums), and `branch` lists
  the placements of the most constrained open requirement, fail-first.
  The root places the pair of difference class {1, -1}, and the branch
  is a function of the state, so the tree is canonical: every starter is
  generated once and exhaustive counts are exact.
- Symmetry reduction under the affine maps x -> ax + c keeps only the
  least root of each orbit (`roots`) and drops from each root's subtree
  the pairs that an earlier root covers (`root_masks`); an exhaustive
  count runs without it.
- `Engine.run` alone enters the roots and reads the budget, the progress
  interval and the stop-early rule.  Below each root it drives a stepper
  with the contract of `fs_leaves` in `_kernel.c`: the C kernel
  (`native.walker`, for g <= native.MAX_ORDER, when it builds) or the
  Python stepper (`Engine._python_step`), which mirrors `fs_step` and is
  its test oracle.  Both walk only the Engine's masks, visit the same
  nodes in the same order and hand each leaf over as an ascending tuple
  of the search's Pairs (`Engine.pairs`); `SearchOutcome.kernel` says
  which ran.
- `search` builds each reported starter from its leaf and checks it with
  the independent verifier, in the calling process; the acceleration
  structures are never trusted.
- `naive_enumerate` is the brute-force oracle, independent of the engine.

ROADMAP holds the measurements: the sum-class threshold under item 3,
the share of each tree under its first root under item 5 and the cost of
building and verifying a starter under item 7.
"""

from __future__ import annotations

import time
from functools import lru_cache, partial
from math import gcd
from typing import Callable, Iterable

from . import __version__
from .errors import InvalidTypeError
from .groups import GroupSpec
from .record import Record
from .starters import LEVELS, FrameStarter, Pair, make_starter, verify_skew
from .theory import NonexistenceCertificate, StarterType, starter_kind

MODES = ("find_first", "exhaustive_count", "prove_nonexistence")

#: Above this order an explicit node budget is mandatory; open cells get
#: expensive quickly and the tool must not silently run forever.
BUDGET_FREE_MAX_ORDER = 60

#: Hard ceiling on g for any search (and so for the table): building the
#: engine's masks takes O(g^2) time before the first node, whatever the
#: budget (their memory is O(g) per root).
MAX_SEARCH_ORDER = 200


def check_budget(node_budget: int | None) -> None:
    """Reject a node budget below 1 (no budget is fine)."""
    if node_budget is not None and node_budget < 1:
        raise InvalidTypeError("node budget must be >= 1 when given")


class SearchConfig(Record):
    __slots__ = _fields = ("target_type", "property", "mode", "node_budget",
                           "worker_count", "symmetry_reduction",
                           "progress_interval")

    def __init__(self, target_type: StarterType, property: str = "skew",
                 mode: str = "find_first", node_budget: int | None = None,
                 worker_count: int = 1, symmetry_reduction: bool = True,
                 progress_interval: int = 0):
        if property not in LEVELS:
            raise InvalidTypeError(f"unknown property {property!r}")
        if mode not in MODES:
            raise InvalidTypeError(f"unknown search mode {mode!r}")
        check_budget(node_budget)
        if worker_count < 1:
            raise InvalidTypeError("worker count must be >= 1")
        if node_budget is not None:
            # A budget is spent in tree order, as one worker spends it.
            worker_count = 1
        if progress_interval < 0:
            raise InvalidTypeError("progress interval must be >= 0")
        t = target_type
        if node_budget is None and t.g > BUDGET_FREE_MAX_ORDER:
            raise InvalidTypeError(f"searches with g = {t.g} > "
                                   f"{BUDGET_FREE_MAX_ORDER} require an "
                                   "explicit node budget")
        if not t.admissible:
            raise InvalidTypeError(
                f"type {t} has odd g - h = {t.g - t.h}; no pairing exists")
        if t.g > MAX_SEARCH_ORDER:
            raise InvalidTypeError(f"type {t} has g = {t.g}; searches are "
                                   f"capped at g <= {MAX_SEARCH_ORDER}")
        if mode == "exhaustive_count":
            # A count needs the whole tree.
            symmetry_reduction = False
        self._assign(target_type, property, mode, node_budget, worker_count,
                     symmetry_reduction, progress_interval)


class SearchOutcome(Record):
    __slots__ = _fields = ("result", "starters", "nodes_visited", "wall_time",
                           "config", "kernel")

    def __init__(self, result: str, starters: tuple[FrameStarter, ...],
                 nodes_visited: int, wall_time: float, config: SearchConfig,
                 kernel: str):
        """result: "found" | "exhausted_none" | "budget_exceeded"; kernel:
        "native" | "python", which expansion loop ran."""
        self._assign(result, starters, nodes_visited, wall_time, config, kernel)

    @property
    def certificate(self) -> NonexistenceCertificate | None:
        """The certificate of an exhausted_none outcome; None otherwise.  It
        names the symmetry reduction's maps, which set the node count, the
        kernel that walked the tree, and the search mode and package
        version that reproduce the search."""
        if self.result != "exhausted_none":
            return None
        cfg, t = self.config, self.config.target_type
        shifts = ", ".join(map(str, translations(t, cfg.property)))
        reduction = (f"with symmetry reduction by the units of Z_{t.g} and "
                     f"the translations by {{{shifts}}}"
                     if cfg.symmetry_reduction else "without symmetry reduction")
        return NonexistenceCertificate(
            t, cfg.property, "search-exhaustion",
            f"exhaustive backtracking over type {t} {reduction} on the "
            f"{self.kernel} kernel visited {self.nodes_visited} nodes and "
            f"found no {starter_kind(cfg.property)} (mode {cfg.mode}, "
            f"framestarters {__version__})")


def translations(t: StarterType, level: str) -> range:
    """The c in H for which x -> x + c maps every starter of the type at the
    level to one of the same level: all of H at the frame and strong
    levels, where a translate keeps the differences and moves every sum by
    2c, and at the skew level only the c with 4c = 0, since s + 2c =
    -(s' + 2c) exactly when s + s' = -4c.  Either set is a subgroup of H,
    the multiples of the range's step."""
    return range(0, t.g, t.g // (gcd(t.h, 4) if level == "skew" else t.h))


class _Pairs(dict):
    """The one Pair of each placement (lo, hi) of a search, by its code
    lo | hi << 8 (hi < MAX_SEARCH_ORDER < 256): built on first sight from
    its two members, which `group` decodes, and shared by every leaf."""

    __slots__ = ("group",)

    def __init__(self, group: GroupSpec):
        super().__init__()
        self.group = group

    def __missing__(self, code: int) -> Pair:
        decode = self.group.decode
        pair = self[code] = Pair(decode(code & 255), decode(code >> 8))
        return pair


class Engine:
    """Search state for one type and level, built once and shared by every node.

    `search` builds it from a validated config, so the type is admissible
    with g <= MAX_SEARCH_ORDER.

    A pair {x, y} is feasible when its members, its difference and (strong
    and skew) its sum all lie outside H.  partners[x] masks the feasible
    partners of x.  classes[d] masks the base points x whose pair {x, x+d}
    is feasible, for each difference class d in class_mask (the
    representatives 1 <= d <= (g-1)/2 outside H), and is 0 for every other
    d.  sums[v] masks the x whose pair {x, v-x} is feasible, so it holds
    each feasible pair of sum v twice, once by each member.  sum_mask holds
    the sum classes {t, -t} a skew starter must hit, each exactly once
    since its +-sums partition G \\ H, by the same representatives as
    class_mask; it is 0 at the frame and strong levels.  sum_bits[s] is
    what a pair of sum s adds to the used sums: {s} when strong, {s, -s}
    when skew, 0 at the frame level.  A placement is a
    pair (lo, hi) with lo < hi; it adds the differences
    1 << hi-lo | 1 << g-hi+lo.  For an admissible type no difference or
    sum outside H is its own negative (for even g, g/2 = (h/2)u lies in
    H), so difference and skew sum masks always have two bits.  The masks
    are lists of ints, since above g = 64 a mask outgrows 64 bits;
    `native.walker` copies them into uint64 arrays.  `symmetry` says
    whether the search is symmetry-reduced: `roots` and `root_masks` read
    it and `step`, the step of the level's `translations`.  `pairs` is the
    search's table of Pairs, through which both steppers hand over leaves.
    """

    __slots__ = ("g", "mask_g", "full", "symmetry", "step", "sum_bits",
                 "partners", "classes", "class_mask", "sums", "sum_mask",
                 "pairs")

    def __init__(self, t: StarterType, level: str, symmetry: bool):
        g, r = t.g, t.u
        strongish = level in ("strong", "skew")
        mask_g = (1 << g) - 1
        # A pair's feasibility reads residues mod u alone: residue[j] masks
        # the elements congruent to j, and residue[0] is H.  y partners x
        # unless y - x lies in H (y in x's residue) or, strong and skew,
        # x + y does (y in -x's), and x bases a pair {x, x+d} unless x or
        # x + d lies in H or, strong and skew, 2x + d does.
        residue = [sum(1 << v for v in range(j, g, r)) for j in range(r)]
        full = mask_g & ~residue[0]
        twice = [0] * r  # by k mod u: the x with 2x + k in H
        for j in range(r):
            twice[-2 * j % r] |= residue[j]
        # partners[x] and sums[v] read x and v mod u alone: u values,
        # repeated h times.
        self.partners = [full & ~residue[x]
                         & ~(residue[-x % r] if strongish else 0)
                         if x else 0 for x in range(r)] * t.h
        self.classes = [0] * g
        self.class_mask = 0
        for d in range(1, (g - 1) // 2 + 1):
            if d % r:
                self.classes[d] = (full & (full >> d | full << g - d)
                                   & ~(twice[d % r] if strongish else 0))
                self.class_mask |= 1 << d
        # x pairs with v - x unless either lies in H, their difference
        # v - 2x does or, strong and skew, their sum v does.
        self.sums = [full & ~residue[v] & ~twice[-v % r]
                     if v or not strongish else 0 for v in range(r)] * t.h
        self.sum_mask = self.class_mask if level == "skew" else 0
        self.sum_bits = [(1 << s | (1 << -s % g if level == "skew" else 0))
                         if strongish and s % r else 0 for s in range(g)]
        self.g = g
        self.mask_g = mask_g
        self.full = full
        self.symmetry = symmetry
        self.step = translations(t, level).step
        self.pairs = _Pairs(t.group())

    def roots(self) -> list[tuple[int, int]]:
        """Placements of the difference-class {1, -1} pair, the fixed root item.

        With symmetry on, only the roots {x, x+1} whose base is its own key
        (`root_masks`) are kept, x <= (step-1)/2: one per orbit of bases
        under translation by `translations` and negation.
        """
        top = (self.step - 1) // 2 if self.symmetry else self.g - 2
        return [(x, x + 1) for x in range(1, top + 1)
                if self.classes[1] >> x & 1]

    def root_masks(self, x: int) -> tuple[list[int], list[int], list[int]]:
        """(partners, classes, sums) below the root pair {x, x+1}.

        With symmetry on, the subtree of root x drops every pair {p, p+d}
        of unit difference d whose key is below x.  An affine map
        z -> d^-1 z + c, c in `translations` (step | g), sends that pair to
        the {1, -1} pair {b + c, b + c + 1}, b = p/d mod g, and negation
        sends it on to base g-1-b-c; the key is the least base so reached,
        min(b mod step, (-1-b) mod step).  A starter holding a pair of key
        k < x has an orbit member rooted at base k; the orbit member of
        least root base keeps all of its pairs, so every orbit under the
        affine maps keeps a representative.  The pairs of key k are
        {bd, (b+1)d} for b = k or -1-k (mod step), and no key of a feasible
        pair lies below 1, so the root drops the keys 1 .. x-1 from copies
        of the engine's masks.  With symmetry off they are the engine's own.
        """
        if not self.symmetry:
            return self.partners, self.classes, self.sums
        g, step = self.g, self.step
        partners, classes = self.partners[:], self.classes[:]
        sums = self.sums[:]
        units = [d for d in range(1, (g + 1) // 2) if gcd(d, g) == 1]
        for k in range(1, x):
            for b in (*range(k, g, step), *range(step - 1 - k, g, step)):
                for d in units:
                    p = b * d % g
                    if classes[d] >> p & 1:
                        q = (p + d) % g
                        classes[d] ^= 1 << p
                        partners[p] ^= 1 << q
                        partners[q] ^= 1 << p
                        sums[(p + q) % g] ^= 1 << p | 1 << q
        return partners, classes, sums

    def branch(self, used: int, used_diff: int, used_sum: int,
               masks: tuple[list[int], list[int], list[int]],
               ) -> list[tuple[int, int]]:
        """Feasible placements of the most constrained open requirement,
        ascending; empty when the state is complete or provably dead.

        Element requirements carry an exact mask of feasible partners.  A
        class requirement's mask is exact in members and difference but
        not in the sum, so each of its placements is checked against the
        used sums before it is returned.  At the skew level, when the
        tightest of these has more than _SUM_SCAN_ABOVE placements, the open
        sum classes {t, -t} are scanned too, ascending by t: a class's
        placements are the pairs {x, y} of the element masks with
        x + y = +-t, an exact count, taken for every class in one pass over
        those pairs.  A sum class replaces the choice only with strictly
        fewer placements, and only its pairs are listed, sorted by (lo, hi).
        Each scan stops early at a single-option requirement; any
        zero-option requirement it skipped then surfaces one level deeper,
        which costs little in practice.  `masks` are the current root's
        (partners, classes, sums), `root_masks`; the kernel counts a sum
        class from `sums`, and this loop, its test oracle, does not.
        """
        g = self.g
        free = self.full & ~used
        notdiff = ~used_diff & self.mask_g
        notsum = ~used_sum & self.mask_g
        # doubled, so that one shift rotates: within g bits (here, within
        # free) m2 >> g - k is m rotated left by k and m2 >> k right
        notdiff2 = notdiff | notdiff << g
        notsum2 = notsum | notsum << g
        free2 = free | free << g
        partners, classes, _ = masks
        best_n = g + 1
        key = opts = 0
        by_class = False
        scan = free
        while scan:
            xb = scan & -scan
            scan ^= xb
            x = xb.bit_length() - 1
            m = free & partners[x] & notdiff2 >> g - x & notsum2 >> x
            n = m.bit_count()
            if n == 0:
                return []
            if n < best_n:
                best_n, key, opts = n, x, m
                if n == 1:
                    break
        if best_n > 1:
            scan = notdiff & self.class_mask
            while scan:
                db = scan & -scan
                scan ^= db
                d = db.bit_length() - 1
                pl = free & free2 >> d & classes[d]
                n = pl.bit_count()
                if n == 0:
                    return []
                if n < best_n:
                    best_n, key, opts, by_class = n, d, pl, True
                    if n == 1:
                        break
        scan = notsum & self.sum_mask if best_n > _SUM_SCAN_ABOVE else 0
        if scan:
            # (x, the feasible partners y > x of x) for each free x, by the
            # element scan's masks, and the number of those pairs by sum
            above = []
            counts = [0] * g
            xs = free
            while xs:
                xb = xs & -xs
                xs ^= xb
                x = xb.bit_length() - 1
                m = free & partners[x] & notdiff2 >> g - x & notsum2 >> x \
                    & -(xb << 1)
                above.append((x, m))
                while m:
                    yb = m & -m
                    m ^= yb
                    counts[(x - 1 + yb.bit_length()) % g] += 1
            chosen = 0
            while scan:
                tb = scan & -scan
                scan ^= tb
                t = tb.bit_length() - 1
                n = counts[t] + counts[g - t]
                if n == 0:
                    return []
                if n < best_n:
                    best_n, chosen = n, t
                    if n == 1:
                        break
            if chosen:
                return [(x, y) for x, m in above
                        for y in sorted(((chosen - x) % g, (-chosen - x) % g))
                        if m >> y & 1]
        sum_bits = self.sum_bits
        out = []
        while opts:
            ob = opts & -opts
            opts ^= ob
            v = ob.bit_length() - 1
            if not by_class:
                out.append((key, v) if key < v else (v, key))
                continue
            y = (v + key) % g
            if not used_sum & sum_bits[(v + y) % g]:
                out.append((v, y) if v < y else (y, v))
        return out

    def run(self, cfg: SearchConfig, roots: list[tuple[int, int]],
            progress: Callable[[int, int, float], None] | None = None, *,
            native: bool = False):
        """Explore the subtrees under the given root pairs and return
        (leaves, nodes, cut): leaves maps each root that has a leaf to its
        leaves in tree order, and cut says the node budget stopped the walk.
        A leaf is a tuple of the search's Pairs (`pairs`), ascending.  This
        loop alone enters the roots: as it enters root x it calls
        `root_masks(x)`, starts a stepper, native (from `native.walker`,
        which copies the search's own arrays once) or Python, on them and
        adds the nodes of the roots before.  Each step returns the leaves
        reached since the last; the walk stops at the first leaf unless it
        counts, and the native stepper then returns one leaf per step, not
        a batch.  The stepper pauses before the node that would pass the
        budget, before each progress node and at least every _CHUNK nodes,
        so budgets, progress and Ctrl-C behave alike.
        """
        stop_early = cfg.mode != "exhaustive_count"
        if native:
            from .native import walker
            stepper = walker(self, stop_early)
        else:
            stepper = self._python_step
        budget = cfg.node_budget
        interval = cfg.progress_interval if progress is not None else 0
        next_event = interval
        nodes = 0
        found: dict[tuple[int, int], list[tuple[Pair, ...]]] = {}
        started = time.perf_counter()
        for root in roots:
            step = stepper(root, self.root_masks(root[0]))
            walked = nodes  # the nodes of the roots before this one
            while True:
                pause = nodes + _CHUNK
                if budget is not None:
                    pause = min(pause, budget)
                if interval:
                    pause = min(pause, next_event - 1)
                status, nodes, depth, leaves = step(pause - walked)
                nodes += walked
                if leaves:
                    found.setdefault(root, []).extend(leaves)
                    if stop_early:
                        return found, nodes, False
                if status == _PAUSE:
                    if nodes == budget:  # the next node would pass the budget
                        return found, nodes, True
                    if nodes + 1 == next_event:
                        progress(next_event, depth,
                                 time.perf_counter() - started)
                        next_event += interval
                elif status == _DONE:
                    break
        return found, nodes, False

    def _python_step(self, root: tuple[int, int],
                     masks: tuple[list[int], list[int], list[int]]):
        """`fs_step` (see _kernel.c) in Python below one root, over a stack
        of frames [used, used_diff, used_sum, placements, next index] and
        the root's `root_masks`; its leaves come as a list, of one leaf at
        a leaf and empty otherwise, so a walk that stops early needs no
        other stepper.  A leaf is sorted and mapped through `pairs`, as
        `native.walker` hands it over."""
        g, full, branch = self.g, self.full, self.branch
        sum_bits, pair = self.sum_bits, self.pairs.__getitem__
        frames = [[0, 0, 0, [root], 0]]
        nodes = 0

        def step(pause_at: int):
            nonlocal nodes
            while True:
                fr = frames[-1]
                used, ud, us, placements, i = fr
                if i == len(placements):
                    if len(frames) == 1:
                        return _DONE, nodes, 0, []
                    frames.pop()
                    continue
                if nodes == pause_at:
                    return _PAUSE, nodes, len(frames) - 1, []
                nodes += 1
                x, y = placements[i]
                fr[4] = i + 1
                used |= 1 << x | 1 << y
                ud |= 1 << y - x | 1 << g - y + x
                us |= sum_bits[(x + y) % g]
                if used == full:
                    leaf = sorted(f[3][f[4] - 1] for f in frames)
                    return (_LEAF, nodes, len(frames) - 1,
                            [tuple(pair(x | y << 8) for x, y in leaf)])
                if placements := branch(used, ud, us, masks):
                    frames.append([used, ud, us, placements, 0])

        return step


#: fs_step's return codes (see _kernel.c) and the most nodes a stepper
#: visits before handing control back to `Engine.run`; a search with several
#: workers walks its first _CHUNK in-process, about 10 ms on the native
#: kernel, one pool start-up.
_DONE, _LEAF, _PAUSE = range(3)
_CHUNK = 1 << 18
#: `branch` scans the skew sum classes only when the element and class scans
#: leave more than this many placements (so does `_kernel.c`).  A lower
#: threshold prunes harder but slows every node; this is the lowest at which
#: the kernel walks faster than with no scan (ROADMAP item 3 has the sweep).
_SUM_SCAN_ABOVE = 3


def _verified_starters(level: str, starters: Iterable[FrameStarter],
                       ) -> tuple[FrameStarter, ...]:
    """The starters, each checked at the level by the independent verifier
    as it is built (construction checks its pair count, members and
    order)."""
    verified = []
    for starter in starters:
        if not (report := verify_skew(starter)).holds(level):
            raise RuntimeError(
                f"search emitted a candidate failing {level} verification: "
                f"{report.witness}"
            )
        verified.append(starter)
    return tuple(verified)


def search(cfg: SearchConfig,
           progress: Callable[[int, int, float], None] | None = None,
           ) -> SearchOutcome:
    """Run the backtracking search described by the config.

    find_first and prove_nonexistence stop at the first starter;
    exhaustive_count traverses the whole canonical tree and holds every
    starter in memory, which a node budget bounds, as no tree has more leaves
    than nodes.  exhausted_none is reported only after a complete traversal,
    never after a budget cut.  A budgeted config has one worker, so a budget
    cuts the serial walk.  Several workers first walk one _CHUNK (2^18 nodes)
    in-process, as one does, and a walk that ends there is the answer.  A
    larger tree is walked again by one process per stride of root pairs, which
    report no progress; nodes_visited counts their walk alone.  The stride
    gains as far as the roots share the tree, so not on a reduced tree
    whose first root holds nearly all of it (ROADMAP item 5 gives the
    shares).  The slices' leaves merge back by root, in tree order, so
    every worker count reports the serial starters.  Each
    reported starter is built and verified once, here.
    """
    t = cfg.target_type
    # Chosen once, for every worker slice, and not timed as the search.
    from .native import MAX_ORDER, load_kernel  # importing the package skips it
    native = t.g <= MAX_ORDER and load_kernel() is not None
    started = time.perf_counter()
    engine = Engine(t, cfg.property, cfg.symmetry_reduction)
    roots = engine.roots()
    run = partial(engine.run, native=native)
    k = min(cfg.worker_count, len(roots))  # 1 whenever there is a budget
    head = cfg if k == 1 else SearchConfig(**{
        **dict(zip(cfg._fields, cfg._values())), "node_budget": _CHUNK})
    results = [run(head, roots, progress)]
    if k > 1 and results[0][2]:  # the tree outgrew the head start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=k) as pool:
            results = list(pool.map(run, [cfg] * k,
                                    [roots[i::k] for i in range(k)]))
    cut = any(c for _, _, c in results)
    found = {}
    for by_root, _, _ in results:
        found.update(by_root)
    leaves = [leaf for root in roots for leaf in found.get(root, ())]
    if cfg.mode != "exhaustive_count":
        leaves = leaves[:1]
    starters = ()
    if leaves:
        group = engine.pairs.group
        group.pair_codes(list(engine.pairs.values()))  # one batch, every Pair
        sub = t.subgroup(group)
        starters = _verified_starters(
            cfg.property, (FrameStarter(group, sub, leaf) for leaf in leaves))
    if starters and (cfg.mode != "exhaustive_count" or not cut):
        result = "found"
    elif cut:
        result = "budget_exceeded"
    else:
        result = "exhausted_none"
    return SearchOutcome(result=result, starters=starters,
                         nodes_visited=sum(nodes for _, nodes, _ in results),
                         wall_time=time.perf_counter() - started, config=cfg,
                         kernel="native" if native else "python")


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
    if not t.admissible:
        raise InvalidTypeError(f"type {t} admits no pairing")
    hits = _naive_pairings(t.g, t.u)[LEVELS.index(level)]
    group = t.group()
    sub = t.subgroup(group)
    return list(_verified_starters(
        level, (make_starter(group, sub, p) for p in hits)))


@lru_cache(maxsize=1)
def _naive_pairings(g: int, r: int) -> tuple[tuple, tuple, tuple]:
    """The frame, strong and skew pairings of Z_g \\ H, H the multiples of r,
    from one walk over every perfect pairing, each in walk order."""
    elements = [v for v in range(1, g) if v % r]
    hits: tuple[list, list, list] = ([], [], [])
    pairs: list[tuple[int, int]] = []

    def rec(remaining: list[int]):
        if not remaining:
            for found, holds in zip(hits, _pairing_properties(g, r, pairs)):
                if holds:
                    found.append(tuple(pairs))
            return
        x = remaining[0]
        for i in range(1, len(remaining)):
            y = remaining[i]
            pairs.append((x, y))
            rec(remaining[1:i] + remaining[i + 1:])
            pairs.pop()

    rec(elements)
    return tuple(map(tuple, hits))
