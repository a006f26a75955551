import sys

import pytest

import framestarters
from framestarters import (
    GroupSpec,
    InvalidTypeError,
    SearchConfig,
    SearchOutcome,
    StarterType,
    StructureError,
    UnsupportedOperationError,
    adder_is_skew,
    adder_to_strong,
    census_certificate,
    census_identities,
    certify,
    cyclic_subgroup,
    generated_subgroup,
    half_set,
    patterned_starter,
    residue_class_sizes,
    strong_to_adder,
    sum_of_squares_closed_form,
    prior_theorem_certificate,
    prior_theorem_certificate_group,
    quadratic_congruence_certificate,
    trivial_subgroup,
    verify_skew,
)


def test_starter_type_parsing():
    t = StarterType.parse("3^13")
    assert (t.h, t.u, t.g) == (3, 13, 39)
    assert str(t) == "3^13"
    assert t.admissible
    assert not StarterType(3, 4).admissible  # g - h = 9 odd
    with pytest.raises(InvalidTypeError):
        StarterType.parse("3*13")
    with pytest.raises(InvalidTypeError):  # more digits than int() converts
        StarterType.parse("1^" + "1" * (sys.get_int_max_str_digits() + 1))
    with pytest.raises(InvalidTypeError):
        StarterType(0, 5)
    with pytest.raises(InvalidTypeError):
        StarterType(3, 1)


def test_quadratic_congruence_examples():
    # g = 21, h = 3: (2*21*3 - 1)(21 - 3) = 125 * 18 = 2250 = 125 * 18, so 0 mod 18
    assert (2 * 21 * 3 - 1) * (21 - 3) % 18 == 0
    assert quadratic_congruence_certificate(StarterType(3, 7)) is None

    # g = 9, h = 1: 17 * 8 = 136 == 4 mod 6
    assert (2 * 9 - 1) * 8 % 6 == 4
    cert = quadratic_congruence_certificate(StarterType(1, 9))
    assert cert is not None and cert.level == "skew" and cert.theorem == "C18"

    # g = 27, h = 3: 161 * 24 = 3864 == 12 mod 18
    assert (2 * 27 * 3 - 1) * 24 % 18 == 12
    cert = quadratic_congruence_certificate(StarterType(3, 9))
    assert cert is not None and cert.theorem == "C19"

    assert quadratic_congruence_certificate(StarterType(2, 8)) is None  # even order


def test_mod3_census_examples():
    cert = census_certificate(StarterType(2, 21), 3)
    assert cert is not None and cert.theorem == "T21" and cert.level == "skew"
    assert census_certificate(StarterType(4, 12), 3) is not None
    assert census_certificate(StarterType(3, 9), 3) is None  # h*k divisible by 3
    assert census_certificate(StarterType(2, 8), 3) is None  # u not a multiple of 3


def test_mod4_census_examples():
    cert = census_certificate(StarterType(2, 12), 4)
    assert cert is not None and cert.theorem == "T24" and cert.level == "skew"
    assert "Z_24" in cert.statement and "Z_12" in cert.statement
    assert census_certificate(StarterType(2, 28), 4) is not None
    assert census_certificate(StarterType(4, 8), 4) is None  # h*k divisible by 4
    assert census_certificate(StarterType(2, 9), 4) is None  # u not a multiple of 4


def test_prior_theorem_examples():
    cert = prior_theorem_certificate(StarterType(5, 5))
    assert cert is not None and cert.theorem == "T10" and cert.level == "strong"

    # 2^6 is hit by the frame-level order condition before the 6t rule;
    # either way nothing at strong level can exist.
    cert = prior_theorem_certificate(StarterType(2, 6))
    assert cert is not None
    assert cert.rules_out("strong") and cert.rules_out("skew")

    cert = prior_theorem_certificate(StarterType(8, 6))
    assert cert is not None and cert.theorem == "T12"

    assert prior_theorem_certificate(StarterType(2, 5)) is None


def test_prior_theorems_on_product_groups():
    # cyclic Z_16 over its order-4 subgroup: quotient is Z_4, ruled out
    z16 = GroupSpec((16,))
    cert = prior_theorem_certificate_group(z16, cyclic_subgroup(z16, 4))
    assert cert is not None and cert.theorem == "T11"

    # Z_4 x Z_4 over the 2-torsion subgroup: quotient is Z_2 x Z_2, so the
    # order-4-quotient rule stays silent (and indeed a starter exists).
    z4z4 = GroupSpec((4, 4))
    sub = generated_subgroup(z4z4, [z4z4.element((0, 2)), z4z4.element((2, 0))])
    assert prior_theorem_certificate_group(z4z4, sub) is None

    # order rules apply regardless of presentation
    z2z10 = GroupSpec((2, 10))
    sub2 = generated_subgroup(z2z10, [z2z10.element((1, 5))])
    assert sub2.order == 2
    cert = prior_theorem_certificate_group(z2z10, sub2)
    assert cert is not None and cert.theorem == "T9"

    # Z_12 over its order-3 subgroup: G/H is Z_4 but h is odd, so T11
    # does not apply (and no other order rule does)
    z12 = GroupSpec((12,))
    assert prior_theorem_certificate_group(z12, cyclic_subgroup(z12, 3)) is None


def test_certify_examples():
    cert = certify(StarterType(3, 11))
    assert cert is not None and cert.theorem == "C19"
    assert certify(StarterType(4, 11)) is None
    assert certify(StarterType(6, 9)) is None
    assert certify(StarterType(2, 25)) is None
    assert certify(StarterType(4, 4)).theorem == "T11"
    # frame-level conclusions outrank the skew-level congruences
    assert certify(StarterType(2, 6)).level == "frame"


def test_exhaustion_certificate_names_its_kernel():
    # the node count depends on the symmetry reduction, so both are named
    for symmetry, nodes, reduction in (
            (True, 13940, "with symmetry reduction by the units of Z_28 and "
                          "the translations by {0, 7, 14, 21}"),
            (False, 191829, "without symmetry reduction")):
        cfg = SearchConfig(StarterType(4, 7), mode="prove_nonexistence",
                           symmetry_reduction=symmetry)
        for kernel in ("native", "python"):
            cert = SearchOutcome("exhausted_none", (), nodes, 0.0, cfg,
                                 kernel).certificate
            assert cert.theorem == "search-exhaustion"
            assert (cert.starter_type, cert.level) == (StarterType(4, 7),
                                                       "skew")
            assert cert.statement == (
                f"exhaustive backtracking over type 4^7 {reduction} on the "
                f"{kernel} kernel visited {nodes} nodes and found no skew "
                f"frame starter (mode prove_nonexistence, framestarters "
                f"{framestarters.__version__})")
    # the mode and the package version reproduce the search
    count = SearchConfig(StarterType(4, 7), mode="exhaustive_count")
    cert = SearchOutcome("exhausted_none", (), 191829, 0.0, count,
                         "native").certificate
    assert cert.statement.endswith(
        f"(mode exhaustive_count, framestarters {framestarters.__version__})")


def test_certificate_rules_out_levels():
    frame_cert = certify(StarterType(2, 6))
    assert frame_cert.rules_out("frame")
    skew_cert = certify(StarterType(3, 9))
    assert skew_cert.rules_out("skew")
    assert not skew_cert.rules_out("strong")
    assert not skew_cert.rules_out("frame")


def test_patterned_starter():
    z7 = GroupSpec((7,))
    s = patterned_starter(z7, trivial_subgroup(z7))
    assert {(p.first.coords[0], p.second.coords[0]) for p in s.pairs} == \
        {(1, 6), (2, 5), (3, 4)}
    report = verify_skew(s)
    assert report.holds("frame") and not report.holds("strong")

    z9 = GroupSpec((9,))
    s9 = patterned_starter(z9, cyclic_subgroup(z9, 3))
    assert {(p.first.coords[0], p.second.coords[0]) for p in s9.pairs} == \
        {(1, 8), (2, 7), (4, 5)}

    z15 = GroupSpec((15,))
    s15 = patterned_starter(z15, cyclic_subgroup(z15, 3))
    assert len(s15.pairs) == 6
    bases = {min(p.first.coords[0], 15 - p.first.coords[0]) for p in s15.pairs}
    assert bases == half_set(StarterType(3, 5))

    with pytest.raises(UnsupportedOperationError):
        patterned_starter(GroupSpec((10,)), cyclic_subgroup(GroupSpec((10,)), 2))


def test_strong_to_adder_example(corpus_by_id):
    s = corpus_by_id["example-2"].starter
    adder = strong_to_adder(s)
    entries = {(p.first.coords[0], p.second.coords[0]): a.coords[0]
               for p, a in adder.entries}
    # halving the sums 5, 6, 3 in Z_7 gives 6, 3, 5 on the patterned pairs
    assert entries == {(3, 4): 6, (2, 5): 3, (1, 6): 5}
    assert adder_is_skew(adder)


def test_adder_roundtrip_odd_corpus(corpus_entries, strong_3_7):
    # the skew corpus plus one strong, non-skew starter
    starters = [e.starter for e in corpus_entries if e.starter.group.order % 2]
    for s in starters + [strong_3_7]:
        adder = strong_to_adder(s)
        back = adder_to_strong(adder)
        assert back.pairs == s.pairs
        assert adder_is_skew(adder) == verify_skew(s).holds("skew")
    assert not adder_is_skew(strong_to_adder(strong_3_7))


def test_strong_to_adder_rejects_non_strong():
    z7 = GroupSpec((7,))
    patterned = patterned_starter(z7, trivial_subgroup(z7))
    with pytest.raises(StructureError, match="sum"):
        strong_to_adder(patterned)
    with pytest.raises(UnsupportedOperationError):
        strong_to_adder(corpus_even_starter())


def corpus_even_starter():
    from framestarters import corpus

    return corpus.load_entry("example-1").starter


def test_adder_to_strong_rejects_unpatterned(corpus_by_id):
    s = corpus_by_id["example-2"].starter
    adder = strong_to_adder(s)
    broken = type(adder)(adder.group, adder.subgroup,
                         ((s.pairs[0], adder.entries[0][1]),)
                         + adder.entries[1:])
    with pytest.raises(StructureError, match="patterned"):
        adder_to_strong(broken)


def test_sum_of_squares_closed_form():
    # direct sums computed from scratch
    direct_15_3 = sum(j * j for j in range(15) if j % 5 != 0)
    assert direct_15_3 == 890
    assert sum_of_squares_closed_form(15, 3) == 890

    assert sum(j * j for j in range(1, 7)) == 91
    assert sum_of_squares_closed_form(7, 1) == 91

    assert sum_of_squares_closed_form(9, 9) == 0

    with pytest.raises(UnsupportedOperationError):
        sum_of_squares_closed_form(10, 2)
    with pytest.raises(InvalidTypeError):
        sum_of_squares_closed_form(15, 4)


def test_sum_of_squares_matches_brute_force_small():
    for g in range(3, 302, 2):
        for h in (d for d in range(1, g + 1) if g % d == 0):
            r = g // h
            direct = sum(j * j for j in range(g) if j % r != 0)
            assert sum_of_squares_closed_form(g, h) == direct


def test_half_set_congruence_iff_quadratic_certificate():
    # the half-set square sum vanishes mod g exactly when no certificate fires
    for g in range(3, 202, 2):
        for h in (d for d in range(1, g) if g % d == 0 and g // d >= 2):
            t = StarterType(h, g // h)
            total = sum(j * j for j in half_set(t)) % g
            cert = quadratic_congruence_certificate(t)
            assert (total != 0) == (cert is not None), (g, h)


def test_residue_class_sizes(corpus_by_id):
    s = corpus_by_id["example-26"].starter
    t = StarterType(s.h, s.u)
    assert residue_class_sizes(t, 3) == [12, 12, 12]
    s31 = corpus_by_id["example-31"].starter
    assert residue_class_sizes(StarterType(s31.h, s31.u), 4) == [8, 8, 8, 8]
    assert sum(residue_class_sizes(t, 13)) == 36

    # with H inside the kernel (m | u) the sizes collapse to the textbook
    # constants g/m - h, g/m, ..., g/m
    assert residue_class_sizes(StarterType(3, 21), 3) == [18, 21, 21]
    assert residue_class_sizes(StarterType(2, 16), 4) == [6, 8, 8, 8]


def test_census_identities_on_corpus(corpus_entries):
    checked = 0
    for entry in corpus_entries:
        s = entry.starter
        if not s.group.is_cyclic:
            continue
        for m in (3, 4):
            if s.group.order % m:
                continue
            for name, (lhs, rhs) in census_identities(s, m).items():
                assert lhs == rhs, (entry.entry_id, m, name)
                checked += 1
    assert checked > 30


def test_census_pinned_counts(corpus_by_id):
    from framestarters import type_census

    # mod-3 analysis pins the {0,0} count; mod-4 pins the {1,3} count
    assert type_census(corpus_by_id["example-26"].starter, 3).count(0, 0) == 2
    assert type_census(corpus_by_id["example-27"].starter, 3).count(0, 0) == 3
    assert type_census(corpus_by_id["example-30"].starter, 4).count(1, 3) == 1
    assert type_census(corpus_by_id["example-31"].starter, 4).count(1, 3) == 2
    assert type_census(corpus_by_id["example-33"].starter, 4).count(1, 3) == 3


def test_starter_type_of(corpus_by_id):
    s = corpus_by_id["example-26"].starter
    assert (s.h, s.u, s.group.is_cyclic) == (3, 13, True)
    s3 = corpus_by_id["example-3"].starter
    assert (s3.h, s3.u, s3.group.is_cyclic) == (4, 4, False)
