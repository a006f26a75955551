"""The Python search kernel: `branch` and `walker`, the twins of
`_kernel.c`'s `branch` and `fs_step` and their test oracle.

`Engine.run` imports this module on its first Python walk (g > 64, or no
native kernel), so importing the package compiles none of it.  Both walk
only the Engine's masks and hand each leaf over as an ascending tuple of
the search's Pairs (`Engine.pairs`).
"""

from __future__ import annotations

from .search import _DONE, _LEAF, _PAUSE, _SUM_SCAN_ABOVE


def branch(engine, used: int, used_diff: int, used_sum: int,
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
    (partners, classes, sums), `Engine.root_masks`; the kernel counts a
    sum class from `sums`, and this loop, its test oracle, does not.
    """
    g = engine.g
    free = engine.full & ~used
    notdiff = ~used_diff & engine.mask_g
    notsum = ~used_sum & engine.mask_g
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
        scan = notdiff & engine.class_mask
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
    scan = notsum & engine.sum_mask if best_n > _SUM_SCAN_ABOVE else 0
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
    sum_bits = engine.sum_bits
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


def walker(engine, stop_early: bool):
    """The Python walk of one search, with `native.walker`'s contract:
    returns `stepper(root, masks)`, which runs `fs_step` (see _kernel.c)
    in Python below one root, over a stack of frames [used, used_diff,
    used_sum, placements, next index] and the root's `Engine.root_masks`.
    Its leaves come as a list, of one leaf at a leaf and empty otherwise,
    so `stop_early` changes nothing here.  A leaf is sorted and mapped
    through `engine.pairs`, as `native.walker` hands it over."""
    g, full = engine.g, engine.full
    sum_bits, pair = engine.sum_bits, engine.pairs.__getitem__

    def stepper(root: tuple[int, int],
                masks: tuple[list[int], list[int], list[int]]):
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
                if placements := branch(engine, used, ud, us, masks):
                    frames.append([used, ud, us, placements, 0])

        return step

    return stepper
