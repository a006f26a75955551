"""Property test: the engine's masks against a direct reading of the rules.

For random admissible cyclic types with g <= 64 (the native kernel's
range) at every level, every mask the engine builds (`partners`,
`classes` with `class_mask`, `sums` with `sum_mask`, `sum_bits`, the roots
and each root's `root_masks`) is compared with one computed here from the
rules alone: a pair {x, y} of Z_g is feasible when its members, its
difference and (strong and skew) its sum all lie outside H, and sums[v]
holds the x whose pair {x, v-x} is feasible, under the engine's partners
and under each root's.  With symmetry on, S is H at
the frame and strong levels and {c in H : 4c = 0} at skew, the key of a
base b is the least of (b + c) mod g and (g-1-b-c) mod g over c in S, a
root {x, x+1} is kept when its key is x, and its subtree drops every pair
{p, p+d} of unit difference d whose key, b = p/d mod g, is below x.  Only
the element set of H comes from the package.
"""

import importlib
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from framestarters import StarterType
from framestarters.starters import LEVELS

search_mod = importlib.import_module("framestarters.search")

TYPES = [t for h in range(1, 33) for u in range(2, 65)
         if (t := StarterType(h, u)).g <= 64 and t.admissible]


def _feasible(g, h_set, level):
    """Whether the pair {x, y} is feasible, by the rules."""
    strongish = level in ("strong", "skew")

    def feasible(x, y):
        return (x != y and x not in h_set and y not in h_set
                and (y - x) % g not in h_set
                and not (strongish and (x + y) % g in h_set))

    return feasible


def _reference(g, h_set, level):
    """(feasible, partners, classes, class_mask, sum_bits) by the rules."""
    strongish = level in ("strong", "skew")
    feasible = _feasible(g, h_set, level)
    partners = [sum(1 << y for y in range(g) if feasible(x, y))
                for x in range(g)]
    class_ds = [d for d in range(1, g) if 2 * d < g and d not in h_set]
    classes = [sum(1 << x for x in range(g) if feasible(x, (x + d) % g))
               if d in class_ds else 0 for d in range(g)]
    sum_bits = [0 if not strongish or s in h_set
                else 1 << s | (1 << -s % g if level == "skew" else 0)
                for s in range(g)]
    return (feasible, partners, classes, sum(1 << d for d in class_ds),
            sum_bits)


def _key(g, shifts, b):
    """The least root base that translation by S and negation reach from b."""
    return min(min((b + c) % g, (g - 1 - b - c) % g) for c in shifts)


def _key_filter(g, shifts, partners, classes, base):
    """`partners` and `classes` below the root pair {base, base+1}, without
    the pairs whose affine key is below base."""
    partners, classes = partners[:], classes[:]
    for d in range(1, (g + 1) // 2):
        if gcd(d, g) != 1:
            continue
        inv = pow(d, -1, g)
        for p in range(1, g):
            b = inv * p % g
            if classes[d] >> p & 1 and _key(g, shifts, b) < base:
                q = (p + d) % g
                classes[d] ^= 1 << p
                partners[p] ^= 1 << q
                partners[q] ^= 1 << p
    return partners, classes


def _sums(g, partners):
    """sums[v]: the x whose pair {x, v-x} is feasible under partners."""
    return [sum(1 << x for x in range(g) if partners[x] >> (v - x) % g & 1)
            for v in range(g)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TYPES), st.sampled_from(LEVELS))
@example(StarterType(3, 9), "skew")  # odd g, several roots
@example(StarterType(4, 8), "skew")  # even g, several roots
def test_candidate_table_reads_the_pair_rules(t, level):
    g = t.g
    h_set = {e.coords[0] for e in t.subgroup().elements}
    feasible, partners, classes, class_mask, sum_bits = \
        _reference(g, h_set, level)
    engine = search_mod.Engine(t, level, False)
    assert engine.partners == partners
    assert engine.classes == classes
    assert engine.class_mask == class_mask
    assert engine.sum_bits == sum_bits
    assert engine.sums == _sums(g, partners)
    assert engine.sum_mask == (class_mask if level == "skew" else 0)
    shifts = [c for c in h_set if level != "skew" or 4 * c % g == 0]
    for symmetry in (True, False):
        engine = search_mod.Engine(t, level, symmetry)
        roots = engine.roots()
        assert roots == [(x, x + 1) for x in range(1, g - 1)
                         if feasible(x, x + 1)
                         and (not symmetry or _key(g, shifts, x) == x)]
        # one root at a time, last first: no root's masks read another's
        for x, _ in reversed(roots):
            want = (_key_filter(g, shifts, partners, classes, x) if symmetry
                    else (partners, classes))
            got = engine.root_masks(x)
            assert got == (*want, _sums(g, want[0])), (symmetry, x)


def test_tables_repeat_by_residue_class():
    # partners[x] and sums[v] read x and v mod u alone, so the engine builds
    # u rows and repeats them h times; the rules give the same rows.
    for t in TYPES:
        g, h_set = t.g, {e.coords[0] for e in t.subgroup().elements}
        for level in LEVELS:
            engine = search_mod.Engine(t, level, False)
            feasible = _feasible(g, h_set, level)
            rows = [sum(1 << y for y in range(g) if feasible(x, y))
                    for x in range(t.u)]
            assert engine.partners == rows * t.h, (t, level)
            assert engine.sums == engine.sums[:t.u] * t.h, (t, level)
            assert engine.sums[:t.u] == [
                sum(1 << x for x in range(g) if feasible(x, (v - x) % g))
                for v in range(t.u)], (t, level)
