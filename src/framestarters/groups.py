"""Arithmetic for finite abelian groups given as products of cyclic factors.

Elements are stored canonically reduced (coordinate i in [0, m_i)), so
equality and hashing are plain tuple operations.  `GroupSpec.element`
reduces ints and coordinate tuples; an `Element` handed to the group's
operations or to starter construction must already be canonical, and one
with a coordinate outside [0, m_i) raises StructureError.

Element codes are this module's alone: `GroupSpec.encode` writes an
element's mixed-radix code, coordinate 0 leading (its index in
`elements()`; x in Z_g), and `GroupSpec.decode` reads it back.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    InvalidHomomorphismError,
    InvalidTypeError,
    StructureError,
    UnsupportedOperationError,
)
from .record import Record

#: A sanity cap on group orders; everything this package targets is orders
#: of magnitude smaller.
MAX_ORDER = 2**31


class Element(NamedTuple):
    """A group element as a tuple of canonical residues, one per factor.

    A named tuple, so hashing, equality and ordering are the built-in tuple
    operations on `coords`.
    """

    coords: tuple[int, ...]

    def __repr__(self) -> str:
        if len(self.coords) == 1:
            return f"Element({self.coords[0]})"
        return f"Element{self.coords}"


class GroupSpec(Record):
    """The group Z_{m_1} x ... x Z_{m_k}, each factor m_i >= 2.

    Its value is `factors`; `order` and the table of pair codes
    (`pair_codes`) are derived.
    """

    __slots__ = ("factors", "order", "_pair_codes")
    _fields = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        factors = tuple(int(m) for m in factors)
        if not factors:
            raise StructureError("a group needs at least one cyclic factor")
        if any(m < 2 for m in factors):
            raise StructureError(f"every factor must be >= 2, got {factors}")
        order = math.prod(factors)
        if order > MAX_ORDER:
            raise StructureError(f"group order {order} exceeds cap {MAX_ORDER}")
        self._assign(factors, order, {})

    def __reduce__(self):  # a copy starts with no pair codes
        return GroupSpec, (self.factors,)

    def __repr__(self) -> str:
        return f"GroupSpec(factors={self.factors!r}, order={self.order!r})"

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) == 1

    @property
    def identity(self) -> Element:
        return Element((0,) * len(self.factors))

    def element(self, value) -> Element:
        """Build a canonical element from an int (cyclic) or coordinate iterable."""
        if isinstance(value, Element):
            self._check(value)
            return value
        if isinstance(value, int):
            if not self.is_cyclic:
                raise StructureError(
                    "bare integers only denote elements of cyclic groups"
                )
            return Element((value % self.factors[0],))
        coords = tuple(int(c) for c in value)
        if len(coords) != len(self.factors):
            raise StructureError(
                f"expected {len(self.factors)} coordinates, got {len(coords)}"
            )
        return Element(tuple(c % m for c, m in zip(coords, self.factors)))

    def _check(self, *elements: Element):
        """Raise StructureError unless every element is canonical here: one
        coordinate per factor, coordinate i in [0, m_i).  One pass per factor."""
        coords = [a.coords for a in elements]
        k = len(self.factors)
        if set(map(len, coords)) - {k}:
            c = next(c for c in coords if len(c) != k)
            raise StructureError(
                f"element has {len(c)} coordinates, group has {k} factors")
        for i, (col, m) in enumerate(zip(zip(*coords), self.factors)):
            if min(col) < 0 or max(col) >= m:
                a = next(a for a in elements if not 0 <= a.coords[i] < m)
                raise StructureError(
                    f"{a!r} has coordinate {a.coords[i]} outside [0, {m})")

    def pair_codes(self, pairs: Sequence) -> tuple[tuple[int, ...], ...]:
        """Per pair (a, b): the codes (`encode`) of a, b, d = b - a, -d,
        t = a + b and -t, checked and encoded on first sight: a batch of new
        pairs a factor at a time, which is faster than `encode` per member."""
        table = self._pair_codes
        try:
            return tuple(map(table.__getitem__, pairs))
        except KeyError:
            new = list(itertools.filterfalse(table.__contains__, pairs))
            self._check(*itertools.chain.from_iterable(new))
            codes = [[0] * len(new)] * 6
            for xs, ys, m in zip(zip(*[a.coords for a, _ in new]),
                                 zip(*[b.coords for _, b in new]), self.factors):
                d = [(y - x) % m for x, y in zip(xs, ys)]
                t = [(x + y) % m for x, y in zip(xs, ys)]
                codes = [[c * m + v for c, v in zip(high, low)] for high, low in zip(
                    codes, (xs, ys, d, [-v % m for v in d], t, [-v % m for v in t]))]
            table.update(zip(new, zip(*codes)))
            return tuple(map(table.__getitem__, pairs))

    def encode(self, a: Element) -> int:
        """The code of a canonical element: its index in `elements()`."""
        code = 0
        for c, m in zip(a.coords, self.factors):
            code = code * m + c
        return code

    def decode(self, code: int) -> Element:
        """The element of a code in [0, order); `encode`'s inverse."""
        if len(self.factors) == 1:
            return Element((code % self.order,))
        coords = []
        for m in reversed(self.factors):
            code, c = divmod(code, m)
            coords.append(c)
        return Element(tuple(reversed(coords)))

    def add(self, a: Element, b: Element) -> Element:
        self._check(a, b)
        return Element(
            tuple((x + y) % m for x, y, m in zip(a.coords, b.coords, self.factors))
        )

    def neg(self, a: Element) -> Element:
        self._check(a)
        return Element(tuple((-x) % m for x, m in zip(a.coords, self.factors)))

    def sub(self, a: Element, b: Element) -> Element:
        self._check(a, b)
        return Element(
            tuple((x - y) % m for x, y, m in zip(a.coords, b.coords, self.factors))
        )

    def halve(self, a: Element) -> Element:
        """The unique b with b + b = a; defined only in odd-order groups."""
        if self.order % 2 == 0:
            raise UnsupportedOperationError(
                "halving needs an odd group order (doubling must be a bijection)"
            )
        self._check(a)
        return Element(
            tuple((x * ((m + 1) // 2)) % m for x, m in zip(a.coords, self.factors))
        )

    def elements(self) -> Iterator[Element]:
        """Every element, coordinates in lexicographic order."""
        return map(Element, itertools.product(*map(range, self.factors)))


class SubgroupSpec(Record):
    """A subgroup, given by its element set; `order` and the elements'
    `codes` (`GroupSpec.encode`) are derived."""

    __slots__ = ("group", "elements", "order", "codes")
    _fields = ("group", "elements")

    def __init__(self, group: GroupSpec, elements: frozenset[Element]):
        self._assign(group, elements, len(elements),
                     frozenset(map(group.encode, elements)))
        if group.identity not in elements:
            raise StructureError("subgroup is missing the identity")
        if group.order % self.order != 0:
            raise StructureError(
                f"subgroup size {self.order} does not divide {group.order}"
            )

    def __contains__(self, a: Element) -> bool:
        return a in self.elements

    def __repr__(self) -> str:
        # sorted: a frozenset's order depends on how it was built, and
        # equal subgroups print alike
        elements = ", ".join(map(repr, sorted(self.elements)))
        return (f"SubgroupSpec(group={self.group!r}, "
                f"elements=frozenset({{{elements}}}), order={self.order})")


def cyclic_subgroup(spec: GroupSpec, h: int) -> SubgroupSpec:
    """The unique subgroup {0, r, 2r, ...} of order h in a cyclic group, r = g/h."""
    if not spec.is_cyclic:
        raise UnsupportedOperationError("cyclic_subgroup needs a cyclic group")
    g = spec.order
    if h < 1 or g % h != 0:
        raise InvalidTypeError(f"subgroup order {h} does not divide {g}")
    r = g // h
    members = frozenset(Element((i * r % g,)) for i in range(h))
    return SubgroupSpec(spec, members)


def generated_subgroup(spec: GroupSpec, gens: Iterable[Element]) -> SubgroupSpec:
    """Closure of the generators under addition (finite, so inverses come free)."""
    gens = tuple(spec.element(x) for x in gens)
    if not gens:
        raise StructureError("need at least one generator")
    closure = {spec.identity}
    frontier = [spec.identity]
    while frontier:
        a = frontier.pop()
        for x in gens:
            b = spec.add(a, x)
            if b not in closure:
                closure.add(b)
                frontier.append(b)
    return SubgroupSpec(spec, frozenset(closure))


def trivial_subgroup(spec: GroupSpec) -> SubgroupSpec:
    return SubgroupSpec(spec, frozenset({spec.identity}))


def reduce_mod(spec: GroupSpec, a: Element, m: int) -> int:
    """Image of a cyclic element under the reduction-mod-m homomorphism."""
    if not spec.is_cyclic:
        raise InvalidHomomorphismError("reduction needs a cyclic group")
    if m < 2 or spec.order % m != 0:
        raise InvalidHomomorphismError(
            f"x -> x mod {m} is not a homomorphism on a group of order {spec.order}"
        )
    spec._check(a)
    return a.coords[0] % m


def complement(spec: GroupSpec, sub: SubgroupSpec) -> list[Element]:
    """G minus H, in the order of `elements` (deterministic everywhere downstream)."""
    return [a for a in spec.elements() if a not in sub.elements]
