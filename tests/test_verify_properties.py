"""Property test: verify_skew against a direct reading of the definitions.

Pairings of G \\ H are drawn over small admissible cyclic types and over
Z_3 x Z_3: uniformly random ones, which are almost never frame starters,
and known frame, strong and skew starters with at most one swap of
members between two pairs.  The reference below reads the definitions
on plain coordinate tuples with its own modular arithmetic; only the
element set of H comes from the package.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from framestarters import (
    GroupSpec,
    StarterType,
    generated_subgroup,
    make_starter,
    trivial_subgroup,
    verify_skew,
)
from framestarters.starters import LEVELS

CYCLIC = [(t.group(), t.subgroup())
          for h in range(1, 13) for u in range(2, 25)
          if (t := StarterType(h, u)).g <= 24 and t.admissible]
Z3Z3 = GroupSpec((3, 3))
PRODUCT = [(Z3Z3, trivial_subgroup(Z3Z3)),
           (Z3Z3, generated_subgroup(Z3Z3, [Z3Z3.element((1, 1))]))]


def _definitions(factors, h_set, pairs):
    """(frame, strong, skew) read straight from the definitions."""
    def combine(x, y, sign):
        return tuple((a + sign * b) % m for a, b, m in zip(x, y, factors))

    def neg(x):
        return tuple(-a % m for a, m in zip(x, factors))

    outside = sorted(x for x in itertools.product(*map(range, factors))
                     if x not in h_set)
    members = sorted(x for p in pairs for x in p)
    diffs = [combine(y, x, -1) for x, y in pairs]
    frame = (members == outside
             and sorted(diffs + [neg(d) for d in diffs]) == outside)
    sums = [combine(x, y, 1) for x, y in pairs]
    strong = (frame and not any(t in h_set for t in sums)
              and len(set(sums)) == len(sums))
    skew = strong and sorted(sums + [neg(t) for t in sums]) == outside
    return frame, strong, skew


def _perfect_pairings(items):
    if not items:
        yield []
        return
    for i in range(1, len(items)):
        for rest in _perfect_pairings(items[1:i] + items[i + 1:]):
            yield [(items[0], items[i])] + rest


def _outside(group, sub):
    return [x.coords for x in group.elements() if x not in sub]


def _seeds():
    """Every frame starter over the groups with at most 10 elements outside
    H, plus a strong, non-skew 3^7 starter."""
    out = []
    for group, sub in CYCLIC + PRODUCT:
        outside = _outside(group, sub)
        h_set = {x.coords for x in sub.elements}
        if len(outside) <= 10:
            out += [(group, sub, p) for p in _perfect_pairings(outside)
                    if _definitions(group.factors, h_set, p)[0]]
    t = StarterType(3, 7)
    out.append((t.group(), t.subgroup(), [
        ((x,), (y,)) for x, y in [(1, 2), (3, 9), (4, 6), (5, 17), (8, 18),
                                  (10, 13), (11, 16), (12, 20), (15, 19)]]))
    return out


SEEDS = _seeds()


@st.composite
def pairings(draw):
    if draw(st.booleans()):
        group, sub = draw(st.sampled_from(CYCLIC + PRODUCT))
        order = draw(st.permutations(_outside(group, sub)))
        return group, sub, list(zip(order[::2], order[1::2]))
    group, sub, pairs = draw(st.sampled_from(SEEDS))
    pairs = list(pairs)
    if len(pairs) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=2,
                             max_size=2, unique=True))
        (a, b), (c, d) = pairs[i], pairs[j]
        pairs[i], pairs[j] = (a, d), (c, b)
    return group, sub, pairs


@settings(max_examples=400, deadline=None)
@given(pairings())
def test_verify_skew_matches_definitions(drawn):
    group, sub, pairs = drawn
    report = verify_skew(make_starter(group, sub, pairs))
    h_set = {x.coords for x in sub.elements}
    assert tuple(map(report.holds, LEVELS)) == \
        _definitions(group.factors, h_set, pairs)
    assert (report.witness is None) == report.holds("skew")
    # every witness names a failing level, the first the weakest one; the
    # witness text is decoded from the verifier's element codes
    failing = [level for level in LEVELS if not report.holds(level)]
    assert report.witness == (report.witnesses[0] if failing else None)
    if failing:
        assert report.witness.split(":")[0] == failing[0]
    assert {w.split(":")[0] for w in report.witnesses} <= set(failing)
