import random

import pytest

from framestarters import (
    Element,
    GroupSpec,
    InvalidHomomorphismError,
    InvalidTypeError,
    StructureError,
    UnsupportedOperationError,
    cyclic_subgroup,
    generated_subgroup,
    reduce_mod,
    trivial_subgroup,
)

Z7 = GroupSpec((7,))
Z10 = GroupSpec((10,))
Z39 = GroupSpec((39,))
Z4Z4 = GroupSpec((4, 4))


def test_modular_arithmetic():
    assert Z10.add(Z10.element(7), Z10.element(9)) == Z10.element(6)
    assert Z4Z4.sub(Z4Z4.element((3, 2)), Z4Z4.element((1, 1))) == Z4Z4.element((2, 1))
    assert Z7.neg(Z7.element(3)) == Z7.element(4)


def test_decode_inverts_encode():
    # Z_g decodes by its own fast path, a product group by mixed radix
    for group in [GroupSpec((g,)) for g in range(2, 65)] + [GroupSpec((2, 3, 4))]:
        elements = list(group.elements())
        assert [group.encode(a) for a in elements] == list(range(group.order))
        assert [group.decode(group.encode(a)) for a in elements] == elements


def test_element_canonicalization():
    assert Z10.element(-3) == Z10.element(7)
    assert Z4Z4.element((5, -1)) == Z4Z4.element((1, 3))


def test_element_is_an_ordered_immutable_value():
    a, b = Element((1, 3)), Element(coords=(2, 0))
    assert a < b and sorted([b, a]) == [a, b]
    assert a == Z4Z4.element((5, -1)) and hash(a) == hash(Element((1, 3)))
    assert (repr(a), repr(Z7.element(3))) == ("Element(1, 3)", "Element(3)")
    with pytest.raises(AttributeError):
        a.coords = (0, 0)


def test_structural_errors():
    with pytest.raises(StructureError):
        Z10.add(Z10.element(1), Element((1, 2)))
    with pytest.raises(StructureError):
        Z10.add(Z10.element(1), Element((11,)))  # not canonically reduced
    with pytest.raises(StructureError):
        Z4Z4.neg(Element((1, -1)))
    with pytest.raises(StructureError):
        Z4Z4.element(3)  # bare int only denotes cyclic elements
    with pytest.raises(StructureError):
        GroupSpec(())
    with pytest.raises(StructureError):
        GroupSpec((1, 4))
    with pytest.raises(StructureError):
        GroupSpec((2**20, 2**20))  # order cap


def test_cyclic_subgroup_examples():
    assert {e.coords[0] for e in cyclic_subgroup(Z10, 2).elements} == {0, 5}
    assert {e.coords[0] for e in cyclic_subgroup(Z39, 3).elements} == {0, 13, 26}
    assert {e.coords[0] for e in cyclic_subgroup(Z7, 1).elements} == {0}
    with pytest.raises(InvalidTypeError):
        cyclic_subgroup(Z10, 3)
    with pytest.raises(UnsupportedOperationError):
        cyclic_subgroup(Z4Z4, 4)


def test_generated_subgroup_examples():
    h = generated_subgroup(Z4Z4, [Z4Z4.element((0, 2)), Z4Z4.element((2, 0))])
    assert {e.coords for e in h.elements} == {(0, 0), (0, 2), (2, 0), (2, 2)}
    assert h.order == 4
    assert generated_subgroup(Z7, [Z7.element(0)]).elements == trivial_subgroup(Z7).elements
    assert {e.coords[0] for e in generated_subgroup(Z10, [Z10.element(5)]).elements} == {0, 5}


def test_halve_examples():
    # oracle: the unique b with 2b = 5 in Z_7, found by enumeration
    expected = [b for b in range(7) if (b + b) % 7 == 5]
    assert expected == [6]
    assert Z7.halve(Z7.element(5)) == Z7.element(6)
    assert Z7.halve(Z7.element(0)) == Z7.element(0)
    assert Z39.halve(Z39.element(2)) == Z39.element(1)
    with pytest.raises(UnsupportedOperationError):
        Z10.halve(Z10.element(4))


def test_halve_inverts_doubling():
    rng = random.Random(7)
    for spec in (Z7, Z39, GroupSpec((3, 9)), GroupSpec((5, 7, 9))):
        for _ in range(40):
            a = spec.element([rng.randrange(m) for m in spec.factors])
            assert spec.halve(spec.add(a, a)) == a


def test_add_neg_identity():
    rng = random.Random(11)
    for spec in (Z7, Z10, Z4Z4, GroupSpec((2, 3, 4))):
        for _ in range(40):
            a = spec.element([rng.randrange(m) for m in spec.factors])
            assert spec.add(a, spec.neg(a)) == spec.identity


def test_reduce_mod_examples():
    assert reduce_mod(Z39, Z39.element(29), 3) == 2
    assert reduce_mod(GroupSpec((20,)), GroupSpec((20,)).element(8), 4) == 0
    assert reduce_mod(GroupSpec((21,)), GroupSpec((21,)).element(0), 3) == 0
    with pytest.raises(InvalidHomomorphismError):
        reduce_mod(Z10, Z10.element(3), 4)
    with pytest.raises(InvalidHomomorphismError):
        reduce_mod(Z4Z4, Z4Z4.element((1, 1)), 2)


def test_reduce_mod_is_homomorphism():
    rng = random.Random(13)
    for g, m in ((39, 3), (20, 4), (60, 5), (60, 6)):
        spec = GroupSpec((g,))
        for _ in range(60):
            a = spec.element(rng.randrange(g))
            b = spec.element(rng.randrange(g))
            lhs = reduce_mod(spec, spec.add(a, b), m)
            rhs = (reduce_mod(spec, a, m) + reduce_mod(spec, b, m)) % m
            assert lhs == rhs


def test_cyclic_subgroups_closed_up_to_1000():
    # Full O(h^2) closure for small subgroups, sampled closure above that;
    # cardinality and the canonical {0, r, 2r, ...} form checked throughout.
    rng = random.Random(17)
    for g in range(2, 1001):
        spec = GroupSpec((g,))
        for h in (d for d in range(1, g + 1) if g % d == 0):
            sub = cyclic_subgroup(spec, h)
            r = g // h
            values = {e.coords[0] for e in sub.elements}
            assert len(values) == h
            assert values == {(i * r) % g for i in range(h)}
            members = sorted(values)
            if h <= 32:
                pairs = [(a, b) for a in members for b in members]
            else:
                pairs = [(rng.choice(members), rng.choice(members))
                         for _ in range(64)]
            for a, b in pairs:
                assert (a + b) % g in values


def test_dense_index_roundtrip():
    for spec in (Z7, Z4Z4, GroupSpec((2, 3, 5))):
        elems = list(spec.elements())
        assert len(set(elems)) == len(elems) == spec.order
        assert elems == sorted(elems)
        # an element's code is its index here and decodes back to it
        assert [spec.encode(e) for e in elems] == list(range(spec.order))
        assert all(spec.decode(spec.encode(e)) == e for e in elems)
        for sub in (trivial_subgroup(spec),
                    *(generated_subgroup(spec, [a]) for a in elems[1::5])):
            assert sub.codes == {spec.encode(e) for e in sub.elements} \
                == {i for i, e in enumerate(elems) if e in sub}
