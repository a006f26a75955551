"""Property test: the engine's candidate table against a direct reading of
the pair rules.

For random admissible cyclic types with g <= 64 (the native kernel's
range) at every level, every table the engine builds (the flat difference
and sum masks, `partners`, `classes` with `class_mask`, and the roots)
is compared with one computed here from the rules alone: a pair {x, y} of
Z_g is feasible when its members, its difference and (strong and skew)
its sum all lie outside H.  Only the element set of H comes from the
package.
"""

import importlib

from hypothesis import given, settings
from hypothesis import strategies as st

from framestarters import StarterType
from framestarters.starters import LEVELS

search_mod = importlib.import_module("framestarters.search")

TYPES = [t for h in range(1, 33) for u in range(2, 65)
         if (t := StarterType(h, u)).g <= 64 and t.admissible]


def _reference(g, h_set, level):
    """(diff, sums, partners, classes, class_mask, entries) by the rules."""
    strongish = level in ("strong", "skew")

    def feasible(x, y):
        return (x != y and x not in h_set and y not in h_set
                and (y - x) % g not in h_set
                and not (strongish and (x + y) % g in h_set))

    diff, sums, entries = [], [], {}
    for x in range(g):
        for y in range(g):
            d, s = (y - x) % g, (x + y) % g
            ok = feasible(x, y)
            dm = (1 << d | 1 << -d % g) if ok else 0
            sm = 0
            if ok and strongish:
                sm = 1 << s | (1 << -s % g if level == "skew" else 0)
            diff.append(dm)
            sums.append(sm)
            entries[x, y] = ((1 << x | 1 << y, dm, sm, (min(x, y), max(x, y)))
                             if ok else None)
    partners = [sum(1 << y for y in range(g) if feasible(x, y))
                for x in range(g)]
    class_ds = [d for d in range(1, g) if 2 * d < g and d not in h_set]
    classes = [sum(1 << x for x in range(g) if feasible(x, (x + d) % g))
               if d in class_ds else 0 for d in range(g)]
    return (diff, sums, partners, classes, sum(1 << d for d in class_ds),
            entries)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TYPES), st.sampled_from(LEVELS))
def test_candidate_table_reads_the_pair_rules(t, level):
    g = t.g
    h_set = {e.coords[0] for e in t.subgroup().elements}
    diff, sums, partners, classes, class_mask, entries = \
        _reference(g, h_set, level)
    engine = search_mod.Engine(t, level, False)
    assert engine.diff_masks == diff
    assert engine.sum_masks == sums
    assert engine.partners == partners
    assert engine.classes == classes
    assert engine.class_mask == class_mask
    for symmetry, top in ((True, (g - 1) // 2), (False, g - 2)):
        assert search_mod.Engine(t, level, symmetry).roots() == [
            (x, x + 1) for x in range(1, top + 1)
            if entries[x, x + 1] is not None]
