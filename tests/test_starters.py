import copy
import itertools
import pickle
import random

import pytest

from framestarters import (
    Element,
    FrameStarter,
    GroupSpec,
    NotComparableError,
    Pair,
    StarterType,
    StructureError,
    UnsupportedOperationError,
    complement,
    cyclic_subgroup,
    generated_subgroup,
    half_set,
    make_starter,
    naive_enumerate,
    negate_starter,
    quadratic_sum_check,
    serialize,
    trivial_subgroup,
    type_census,
    verify_orthogonal,
    verify_skew,
)
from framestarters import starters as starters_mod
from framestarters.starters import LEVELS
from framestarters.algebra import patterned_starter, strong_to_adder

Z7 = GroupSpec((7,))
Z7_TRIV = trivial_subgroup(Z7)


def _starter(entries, entry_id, corpus_by_id):
    return corpus_by_id[entry_id].starter


def test_pair_canonical_order():
    p = Pair(Z7.element(5), Z7.element(2))
    assert (p.first, p.second) == (Z7.element(2), Z7.element(5))
    with pytest.raises(StructureError):
        Pair(Z7.element(3), Z7.element(3))
    q = Pair(p.second, p.first)
    assert q == p and hash(q) == hash(p)
    assert p._replace(first=Z7.element(6)) == Pair(Z7.element(5), Z7.element(6))
    with pytest.raises(StructureError):
        p._replace(second=p.first)
    assert repr(p) == "Pair(Element(2), Element(5))"
    # sorting Pairs is sorting by (first, second)
    z3z3 = GroupSpec((3, 3))
    elements = list(z3z3.elements())
    pairs = [Pair(x, y) for x in elements for y in elements if x != y]
    assert sorted(pairs) == sorted(pairs, key=lambda p: (p.first, p.second))
    assert all(p.first < p.second for p in pairs)


def test_construction_guards():
    with pytest.raises(StructureError):
        make_starter(Z7, Z7_TRIV, [(1, 2)])  # wrong pair count
    with pytest.raises(StructureError):
        make_starter(Z7, Z7_TRIV, [(0, 1), (2, 3), (4, 5)])  # member in H
    z10 = GroupSpec((10,))
    with pytest.raises(StructureError):
        # odd g - h leaves no possible pairing
        make_starter(z10, cyclic_subgroup(z10, 5), [(1, 2), (3, 4)])


def test_ready_pairs_are_still_checked():
    # make_starter takes a Pair as it is; construction still checks it
    def pairs(*xy):
        return [Pair(Element((x,)), Element((y,))) for x, y in xy]

    with pytest.raises(StructureError, match="subgroup"):
        make_starter(Z7, Z7_TRIV, pairs((0, 1), (2, 3), (4, 5)))
    with pytest.raises(StructureError, match="outside"):
        make_starter(Z7, Z7_TRIV, pairs((1, 2), (3, 4), (5, 9)))
    with pytest.raises(StructureError, match="expected 3 pairs"):
        make_starter(Z7, Z7_TRIV, pairs((1, 2), (3, 4)))


def test_construction_rejects_non_canonical_elements():
    # 11 is 4 in Z_7: this pairing covers 4 twice and misses 1
    with pytest.raises(StructureError, match="outside"):
        FrameStarter(Z7, Z7_TRIV, tuple(
            Pair(Element((x,)), Element((y,)))
            for x, y in [(4, 5), (11, 2), (3, 6)]))
    with pytest.raises(StructureError, match="outside"):
        FrameStarter(Z7, Z7_TRIV, (Pair(Element((-1,)), Element((1,))),
                                   Pair(Z7.element(2), Z7.element(3)),
                                   Pair(Z7.element(4), Z7.element(5))))
    z3z3 = GroupSpec((3, 3))
    with pytest.raises(StructureError, match="outside"):
        make_starter(z3z3, trivial_subgroup(z3z3), [
            (Element((0, 3)), (0, 2)), ((1, 0), (2, 0)),
            ((1, 1), (2, 2)), ((1, 2), (2, 1))])
    # raw values that are not elements are still reduced
    assert make_starter(Z7, Z7_TRIV, [(4, 5), (8, 2), (3, 6)]).pairs[0] == \
        Pair(Z7.element(1), Z7.element(2))


def test_make_starter_mixes_pairs_and_raw_values():
    def pair(x, y):
        return Pair(Z7.element(x), Z7.element(y))

    want = (pair(1, 2), pair(3, 6), pair(4, 5))
    raw = [(4, 5), (8, 2), (3, 6)]  # 8 reduces to 1
    for pairs in (raw, [pair(4, 5), (8, 2), pair(3, 6)],
                  [(4, 5), pair(1, 2), (3, 6)], list(want)):
        assert make_starter(Z7, Z7_TRIV, pairs).pairs == want, pairs
        # a one-shot iterator is read once, in its order
        seen = []
        starter = make_starter(Z7, Z7_TRIV,
                               (seen.append(p) or p for p in pairs))
        assert starter.pairs == want and seen == pairs, pairs
    # a non-canonical Element in a raw pair is rejected, next to a Pair too
    for pairs in ([(Element((9,)), 2), (3, 6), (4, 5)],
                  [(Element((9,)), 2), pair(3, 6), pair(4, 5)]):
        with pytest.raises(StructureError) as err:
            make_starter(Z7, Z7_TRIV, pairs)
        assert str(err.value) == "Element(9) has coordinate 9 outside [0, 7)"


def test_verify_frame_examples(corpus_by_id):
    assert verify_skew(corpus_by_id["example-1"].starter).holds("frame")

    bad = make_starter(Z7, Z7_TRIV, [(1, 2), (3, 5), (4, 6)])
    report = verify_skew(bad)
    assert not report.holds("frame")
    assert "difference" in report.witness

    assert verify_skew(patterned_starter(Z7, Z7_TRIV)).holds("frame")


def test_verify_strong_examples(corpus_by_id):
    assert verify_skew(corpus_by_id["example-3"].starter).holds("strong")

    patterned = patterned_starter(Z7, Z7_TRIV)
    report = verify_skew(patterned)
    assert report.holds("frame") and not report.holds("strong")
    assert "sum" in report.witness and "subgroup" in report.witness

    assert verify_skew(corpus_by_id["example-2"].starter).holds("strong")


def test_verify_skew_examples(corpus_by_id):
    for entry_id in ("example-2", "example-1", "example-28"):
        report = verify_skew(corpus_by_id[entry_id].starter)
        assert report.holds("skew"), report.witness


def test_example_2_sums_by_hand(corpus_by_id):
    s = corpus_by_id["example-2"].starter
    sums = sorted(s.group.add(p.first, p.second).coords[0] for p in s.pairs)
    assert sums == [3, 5, 6]  # +-{3,5,6} = {3,4,5,6,2,1} = Z_7 minus {0}


def test_implication_chain(corpus_by_id):
    starters = [e.starter for e in corpus_by_id.values()]
    starters.append(patterned_starter(Z7, Z7_TRIV))
    starters.append(make_starter(Z7, Z7_TRIV, [(1, 2), (3, 5), (4, 6)]))
    for s in starters:
        report = verify_skew(s)
        assert (not report.holds("skew")) or report.holds("strong")
        assert (not report.holds("strong")) or report.holds("frame")


def test_partition_property(corpus_entries):
    for entry in corpus_entries:
        s = entry.starter
        members = [x for p in s.pairs for x in (p.first, p.second)]
        expected = set(complement(s.group, s.subgroup))
        assert len(members) == len(expected)
        assert set(members) == expected
        diffs = [v for p in s.pairs
                 for v in (s.group.sub(p.second, p.first),
                           s.group.sub(p.first, p.second))]
        assert len(diffs) == len(expected)
        assert set(diffs) == expected


def test_verbose_collects_all_witnesses():
    bad = make_starter(Z7, Z7_TRIV, [(1, 2), (3, 5), (4, 6)])
    report = verify_skew(bad)
    assert len(report.witnesses) >= 2
    assert report.witness == report.witnesses[0]


def _witness_cases(strong_3_7):
    """(starter, (frame, strong, skew), every witness in report order)."""
    z10 = GroupSpec((10,))
    z3z3 = GroupSpec((3, 3))
    one, two, three = (Element((v,)) for v in (1, 2, 3))
    return [
        (make_starter(Z7, Z7_TRIV, [(1, 2), (3, 5), (4, 6)]),
         (False, False, False),
         ("frame: difference Element(2) duplicated "
          "(pair Pair(Element(4), Element(6)))",
          "frame: difference Element(5) duplicated "
          "(pair Pair(Element(4), Element(6)))",
          "strong: sum Element(3) duplicated "
          "(pair Pair(Element(4), Element(6)))",
          "skew: sum value Element(3) duplicated "
          "(pair Pair(Element(4), Element(6)))",
          "skew: sum value Element(4) duplicated "
          "(pair Pair(Element(4), Element(6)))")),
        (FrameStarter(Z7, Z7_TRIV, (Pair(one, two), Pair(one, three),
                                    Pair(Z7.element(4), Z7.element(6)))),
         (False, False, False),
         ("frame: element Element(1) covered twice",
          "frame: difference Element(2) duplicated "
          "(pair Pair(Element(4), Element(6)))",
          "frame: difference Element(5) duplicated "
          "(pair Pair(Element(4), Element(6)))",
          "strong: sum Element(3) duplicated "
          "(pair Pair(Element(4), Element(6)))",
          "skew: sum value Element(4) duplicated "
          "(pair Pair(Element(1), Element(3)))",
          "skew: sum value Element(3) duplicated "
          "(pair Pair(Element(1), Element(3)))",
          "skew: sum value Element(3) duplicated "
          "(pair Pair(Element(4), Element(6)))",
          "skew: sum value Element(4) duplicated "
          "(pair Pair(Element(4), Element(6)))")),
        (make_starter(z10, cyclic_subgroup(z10, 2),
                      [(1, 6), (2, 3), (4, 8), (7, 9)]),
         (False, False, False),
         ("frame: difference Element(5) lies in the subgroup "
          "(pair Pair(Element(1), Element(6)))",
          "frame: difference Element(5) lies in the subgroup "
          "(pair Pair(Element(1), Element(6)))",
          "strong: sum Element(5) lies in the subgroup "
          "(pair Pair(Element(2), Element(3)))")),
        (patterned_starter(Z7, Z7_TRIV),
         (True, False, False),
         ("strong: sum Element(0) lies in the subgroup "
          "(pair Pair(Element(1), Element(6)))",
          "strong: sum Element(0) lies in the subgroup "
          "(pair Pair(Element(2), Element(5)))",
          "strong: sum Element(0) lies in the subgroup "
          "(pair Pair(Element(3), Element(4)))")),
        (strong_3_7,
         (True, True, False),
         ("skew: sum value Element(11) duplicated "
          "(pair Pair(Element(12), Element(20)))",
          "skew: sum value Element(10) duplicated "
          "(pair Pair(Element(12), Element(20)))")),
        (make_starter(z3z3, trivial_subgroup(z3z3),
                      [((0, 1), (1, 0)), ((0, 2), (1, 1)),
                       ((1, 2), (2, 0)), ((2, 1), (2, 2))]),
         (False, False, False),
         ("frame: difference Element(1, 2) duplicated "
          "(pair Pair(Element(0, 2), Element(1, 1)))",
          "frame: difference Element(2, 1) duplicated "
          "(pair Pair(Element(0, 2), Element(1, 1)))",
          "strong: sum Element(1, 0) duplicated "
          "(pair Pair(Element(2, 1), Element(2, 2)))",
          "skew: sum value Element(1, 0) duplicated "
          "(pair Pair(Element(2, 1), Element(2, 2)))",
          "skew: sum value Element(2, 0) duplicated "
          "(pair Pair(Element(2, 1), Element(2, 2)))")),
    ]


def test_witness_text_is_pinned(strong_3_7):
    for s, flags, witnesses in _witness_cases(strong_3_7):
        report = verify_skew(s)
        assert tuple(map(report.holds, LEVELS)) == flags
        assert report.witness == witnesses[0]
        assert report.witnesses == witnesses


def test_witness_formats_the_first_violation_alone(strong_3_7, monkeypatch):
    # `witness` takes one violation from the generator and formats no
    # other; `witnesses` formats every one, on each read
    bad, _, witnesses = _witness_cases(strong_3_7)[0]

    def violations(s):
        yield "the first witness"
        raise AssertionError("a second violation was formatted")

    monkeypatch.setattr(starters_mod, "_violations", violations)
    assert verify_skew(bad).witness == "the first witness"
    monkeypatch.undo()
    report = verify_skew(bad)
    assert report.witnesses == report.witnesses == witnesses
    assert report.witness == witnesses[0]


#: Every read of a report, by name.
_READS = {
    **{f"holds({level})": lambda r, level=level: r.holds(level)
       for level in LEVELS},
    "witnesses": lambda r: r.witnesses,
    "witness": lambda r: r.witness,
}


def test_report_reads_agree_in_any_order(strong_3_7):
    # A report decides its levels and formats its witnesses anew on each
    # read, so no order of reads may change what any read returns.
    starters = [s for s, _, _ in _witness_cases(strong_3_7)] + [
        s for g in range(3, 13) for h in range(1, g // 2 + 1)
        if g % h == 0 and (t := StarterType(h, g // h)).admissible
        for level in LEVELS for s in naive_enumerate(t, level)]
    assert len(starters) > 80
    firsts = [("holds(frame)", "holds(strong)", "holds(skew)", "witnesses"),
              ("holds(frame)", "holds(strong)", "holds(skew)", "witness")]
    for s in starters:
        report = verify_skew(s)
        want = {name: read(report) for name, read in _READS.items()}
        for i, order in enumerate(itertools.permutations(range(4))):
            report = verify_skew(s)
            for name in [firsts[i % 2][k] for k in order] + [*_READS][::-1]:
                assert _READS[name](report) == want[name], (s, order, name)


def test_report_rejects_an_unknown_level(strong_3_7):
    report = verify_skew(strong_3_7)
    with pytest.raises(ValueError):
        report.holds("bogus")
    assert report.holds("strong") and not report.holds("skew")
    with pytest.raises(ValueError):
        report.holds("bogus")


def test_report_on_a_non_frame_starter_fails_above_frame():
    bad = make_starter(Z7, Z7_TRIV, [(1, 2), (3, 5), (4, 6)])
    report = verify_skew(bad)
    assert report.holds("strong") is False and report.holds("skew") is False
    assert report.holds("frame") is False
    report = verify_skew(bad)
    assert report.holds("skew") is False and report.holds("strong") is False


def test_orthogonal_with_negation(corpus_by_id):
    s = corpus_by_id["example-2"].starter
    ok, adder = verify_orthogonal(s, negate_starter(s))
    assert ok
    # the adder translating S onto -S is -(x+y), pair by pair
    expected = {p: s.group.neg(s.group.add(p.first, p.second)) for p in s.pairs}
    assert dict(adder.entries) == expected
    assert sorted(a.coords[0] for a in adder.elements()) == [1, 2, 4]


def test_orthogonal_all_strong_corpus(corpus_entries):
    for entry in corpus_entries:
        ok, adder = verify_orthogonal(entry.starter, negate_starter(entry.starter))
        assert ok, entry.entry_id
        for a in adder.elements():
            assert a not in entry.starter.subgroup


def test_self_orthogonality_fails(corpus_by_id):
    s = corpus_by_id["example-2"].starter
    ok, adder = verify_orthogonal(s, s)
    assert not ok and adder is None


def test_orthogonal_patterned_with_strong(corpus_by_id):
    s = corpus_by_id["example-2"].starter
    ok, adder = verify_orthogonal(patterned_starter(Z7, Z7_TRIV), s)
    assert ok
    assert sorted(a.coords[0] for a in adder.elements()) == [3, 5, 6]


def test_orthogonal_not_comparable():
    # duplicate difference classes cannot be aligned
    s1 = make_starter(Z7, Z7_TRIV, [(1, 2), (3, 4), (5, 6)])
    s2 = make_starter(Z7, Z7_TRIV, [(2, 3), (4, 5), (6, 1)])
    with pytest.raises(NotComparableError, match="not a frame starter"):
        verify_orthogonal(s1, s2)
    # distinct difference classes, but the difference 5 lies in H
    z10 = GroupSpec((10,))
    s = make_starter(z10, cyclic_subgroup(z10, 2),
                     [(1, 6), (2, 3), (4, 8), (7, 9)])
    with pytest.raises(NotComparableError, match="not a frame starter"):
        verify_orthogonal(s, s)
    z13 = GroupSpec((13,))
    other = patterned_starter(z13, trivial_subgroup(z13))
    with pytest.raises(NotComparableError):
        verify_orthogonal(patterned_starter(Z7, Z7_TRIV), other)


def test_subgroup_compares_by_its_elements():
    # {0, 5, 10} in Z_15, given by its order and by the generator 10
    z15 = GroupSpec((15,))
    by_order = cyclic_subgroup(z15, 3)
    by_generator = generated_subgroup(z15, [z15.element(10)])
    assert by_order == by_generator
    assert hash(by_order) == hash(by_generator)
    assert (patterned_starter(z15, by_order)
            == patterned_starter(z15, by_generator))
    pairs_1 = [[1, 2], [3, 6], [4, 13], [7, 14], [8, 12], [9, 11]]
    pairs_2 = [[1, 7], [2, 3], [4, 8], [6, 14], [9, 12], [11, 13]]
    ok, adder = verify_orthogonal(make_starter(z15, by_order, pairs_1),
                                  make_starter(z15, by_generator, pairs_2))
    assert ok and adder.subgroup == by_order
    # the same starter read from JSON naming H either way
    by_order_obj, by_generator_obj = (
        {"group": {"factors": [15]}, "subgroup": sub, "pairs": pairs_1}
        for sub in ({"order": 3}, {"generators": [10]}))
    assert (serialize.starter_from_obj(by_order_obj)
            == serialize.starter_from_obj(by_generator_obj))


def test_orthogonal_patterned_matches_adder_closed_form(corpus_entries,
                                                        strong_3_7):
    # a strong starter is orthogonal to the patterned starter through the
    # adder strong_to_adder computes from pair sums alone
    starters = [e.starter for e in corpus_entries if e.starter.group.order % 2]
    for s in starters + [strong_3_7]:
        patterned = patterned_starter(s.group, s.subgroup)
        assert verify_orthogonal(patterned, s) == (True, strong_to_adder(s))


def test_type_census_example_26(corpus_by_id):
    s = corpus_by_id["example-26"].starter
    # independent recount straight from the pair list
    expected = {}
    for p in s.pairs:
        i, j = sorted((p.first.coords[0] % 3, p.second.coords[0] % 3))
        expected[(i, j)] = expected.get((i, j), 0) + 1
    census = type_census(s, 3)
    assert dict(census.counts) == expected
    assert expected == {
        (0, 0): 2, (0, 1): 4, (0, 2): 4, (1, 1): 2, (1, 2): 4, (2, 2): 2,
    }
    assert census.total() == 18


def test_type_census_conservation(corpus_entries):
    for entry in corpus_entries:
        s = entry.starter
        if not s.group.is_cyclic:
            continue
        g, h = s.group.order, s.subgroup.order
        for m in (3, 4, 5):
            if g % m:
                continue
            assert type_census(s, m).total() == (g - h) // 2


def test_type_census_example_1_mod5(corpus_by_id):
    assert type_census(corpus_by_id["example-1"].starter, 5).total() == 4


def test_quadratic_sum_check(corpus_by_id):
    s2 = corpus_by_id["example-2"].starter
    sums = [s2.group.add(p.first, p.second) for p in s2.pairs]
    assert sum(e.coords[0] ** 2 for e in sums) == 70  # 5^2 + 6^2 + 3^2
    assert quadratic_sum_check(s2) == 0
    assert quadratic_sum_check(corpus_by_id["example-26"].starter) == 0
    assert quadratic_sum_check(corpus_by_id["example-28"].starter) == 0
    with pytest.raises(UnsupportedOperationError):
        quadratic_sum_check(corpus_by_id["example-1"].starter)


def test_half_set():
    assert half_set(StarterType(3, 5)) == {1, 2, 3, 4, 6, 7}
    assert half_set(StarterType(1, 7)) == {1, 2, 3}
    assert len(half_set(StarterType(3, 7))) == (21 - 3) // 2
    with pytest.raises(UnsupportedOperationError):
        half_set(StarterType(2, 5))


def test_half_set_squares_vanish_for_skew_corpus(corpus_entries):
    for entry in corpus_entries:
        s = entry.starter
        if not s.group.is_cyclic or s.group.order % 2 == 0:
            continue
        g = s.group.order
        total = sum(j * j for j in half_set(StarterType(s.h, s.u)))
        assert total % g == 0, entry.entry_id


def test_starters_are_sorted_and_hashable(corpus_entries):
    # the same pairs in any order build an equal starter with the same hash
    # and the same code rows, cyclic and product groups alike
    rng = random.Random(5)
    for s in (e.starter for e in corpus_entries):
        assert list(s.pairs) == sorted(s.pairs)
        orders = [s.pairs[::-1], s.pairs[1:] + s.pairs[:1]]
        orders += [tuple(rng.sample(s.pairs, len(s.pairs))) for _ in range(3)]
        for pairs in orders:
            t = FrameStarter(s.group, s.subgroup, pairs)
            assert t == s and hash(t) == hash(s) and t.pairs == s.pairs
            assert t.codes == s.codes == s.group.pair_codes(s.pairs)


def test_empty_starter_is_skew():
    # H = G leaves G \ H empty: zero pairs, every level holds vacuously
    z3z3 = GroupSpec((3, 3))
    for group, sub in ((Z7, cyclic_subgroup(Z7, 7)),
                       (z3z3, generated_subgroup(z3z3, [(1, 0), (0, 1)]))):
        s = make_starter(group, sub, [])
        assert s == FrameStarter(group, sub, ())
        assert s.pairs == () and s.codes == ()
        report = verify_skew(s)
        assert tuple(map(report.holds, LEVELS)) == (True, True, True)
        assert report.witnesses == () and report.witness is None


def test_member_in_h_is_named_as_before():
    # a member of H is rejected whether it is a pair's first or second
    # member, and with two, the first in sorted pair order is named
    z15, z3z3 = GroupSpec((15,)), GroupSpec((3, 3))
    h15 = cyclic_subgroup(z15, 3)
    h9 = generated_subgroup(z3z3, [(1, 0)])
    rest = [(2, 3), (4, 7), (8, 9), (11, 12), (13, 14)]
    for group, sub, pairs, member in (
            (z15, h15, [(5, 6)] + rest, "Element(5)"),
            (z15, h15, [(1, 5), (2, 3), (4, 6), (7, 8), (9, 11), (12, 13)],
             "Element(5)"),
            (z15, h15, [(12, 13), (9, 10), (7, 8), (4, 6), (2, 3), (1, 5)],
             "Element(5)"),
            (z3z3, h9, [((1, 0), (1, 1)), ((0, 1), (0, 2)), ((2, 1), (2, 2))],
             "Element(1, 0)"),
            (z3z3, h9, [((2, 1), (2, 2)), ((0, 2), (1, 1)), ((0, 1), (1, 0))],
             "Element(1, 0)")):
        ready = tuple(Pair(*map(group.element, p)) for p in pairs)
        for build in (lambda: make_starter(group, sub, pairs),
                      lambda: FrameStarter(group, sub, ready)):
            with pytest.raises(StructureError) as err:
                build()
            assert str(err.value) == f"pair member {member} lies in the subgroup"


def test_pair_codes_never_skip_a_check(monkeypatch):
    def pairs(*xy):
        return [Pair(Element((x,)), Element((y,))) for x, y in xy]

    good = pairs((1, 2), (3, 5), (4, 6))
    # 8 is 1 in Z_7: rejected on its pair's first sight and again after the
    # canonical pair {1, 2} is in the group's table
    for group in (GroupSpec((7,)), Z7):
        with pytest.raises(StructureError, match="outside"):
            FrameStarter(group, trivial_subgroup(group),
                         tuple(pairs((8, 2), (3, 5), (4, 6))))
        make_starter(group, trivial_subgroup(group), good)
        with pytest.raises(StructureError, match="outside"):
            FrameStarter(group, trivial_subgroup(group),
                         tuple(pairs((8, 2), (3, 5), (4, 6))))
    # a Pair already in the table is checked against each starter's own H
    z15 = GroupSpec((15,))
    known = pairs((1, 5), (2, 4), (3, 7), (6, 14), (8, 12), (9, 10), (11, 13))
    make_starter(z15, trivial_subgroup(z15), known)
    with pytest.raises(StructureError,
                       match=r"pair member Element\(5\) lies in the subgroup"):
        make_starter(z15, cyclic_subgroup(z15, 3), known[:6])
    # an equal but distinct group checks the Pairs that Z7 already knows
    checked = []
    check = GroupSpec._check

    def spy(self, *elements):
        checked.append(self)
        check(self, *elements)

    monkeypatch.setattr(GroupSpec, "_check", spy)
    other = GroupSpec((7,))
    assert other == Z7 and other is not Z7
    make_starter(other, trivial_subgroup(other), good)
    assert any(g is other for g in checked)


def test_verify_reads_no_stale_codes(strong_3_7, corpus_entries, monkeypatch):
    # a pickled, a deep-copied and a copied starter each carry the codes a
    # fresh group gives, and verify as the original does with the group's
    # table out of reach: the verifier reads the starter alone
    cases = [s for s, _, _ in _witness_cases(strong_3_7)]
    cases += [e.starter for e in corpus_entries]
    checked = []
    for s in cases:
        fresh = tuple(GroupSpec(s.group.factors).pair_codes(s.pairs))
        report = verify_skew(s)
        want = (*map(report.holds, LEVELS), report.witnesses)
        copies = (pickle.loads(pickle.dumps(s)), copy.deepcopy(s),
                  copy.copy(s))
        # a pickled or deep-copied group starts with an empty table
        for c in copies[:2]:
            assert s.group._pair_codes and not c.group._pair_codes
        for c in copies:
            assert c == s and hash(c) == hash(s) and "codes" not in repr(c)
            assert c.codes == fresh
        checked.append((want, copies))

    def refuse(self, pairs):
        raise AssertionError("the verifier read the group's table")

    monkeypatch.setattr(GroupSpec, "pair_codes", refuse)
    for want, copies in checked:
        for c in copies:
            report = verify_skew(c)
            assert (*map(report.holds, LEVELS), report.witnesses) == want


def test_equal_starters_print_alike(strong_3_7):
    # H's elements print sorted, not in the order its frozenset was built
    copied = pickle.loads(pickle.dumps(strong_3_7))
    assert copied == strong_3_7 and repr(copied) == repr(strong_3_7)
    assert "elements=frozenset({Element(0), Element(7), Element(14)})" \
        in repr(copied.subgroup)
