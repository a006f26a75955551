"""Arithmetic for finite abelian groups given as products of cyclic factors.

Elements are always stored canonically reduced (coordinate i in [0, m_i)),
so equality and hashing are plain tuple operations.  Cyclic elements also
admit a dense integer index 0..g-1 (the residue itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    InvalidHomomorphismError,
    InvalidTypeError,
    StructureError,
    UnsupportedOperationError,
)

#: A sanity cap on group orders; everything this package targets is orders
#: of magnitude smaller.
MAX_ORDER = 2**31


@dataclass(frozen=True, order=True, slots=True)
class Element:
    """A group element as a tuple of canonical residues, one per factor."""

    coords: tuple[int, ...]

    def __repr__(self) -> str:
        if len(self.coords) == 1:
            return f"Element({self.coords[0]})"
        return f"Element{self.coords}"


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """The group Z_{m_1} x ... x Z_{m_k}, each factor m_i >= 2."""

    factors: tuple[int, ...]
    order: int = field(init=False, compare=False)

    def __post_init__(self):
        factors = tuple(int(m) for m in self.factors)
        if not factors:
            raise StructureError("a group needs at least one cyclic factor")
        if any(m < 2 for m in factors):
            raise StructureError(f"every factor must be >= 2, got {factors}")
        order = math.prod(factors)
        if order > MAX_ORDER:
            raise StructureError(f"group order {order} exceeds cap {MAX_ORDER}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "order", order)

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

    def _check(self, a: Element):
        if len(a.coords) != len(self.factors):
            raise StructureError(
                f"element has {len(a.coords)} coordinates, group has "
                f"{len(self.factors)} factors"
            )

    def add(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return Element(
            tuple((x + y) % m for x, y, m in zip(a.coords, b.coords, self.factors))
        )

    def neg(self, a: Element) -> Element:
        self._check(a)
        return Element(tuple((-x) % m for x, m in zip(a.coords, self.factors)))

    def sub(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
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

    def index(self, a: Element) -> int:
        """Dense mixed-radix index in 0..order-1 (the residue itself if cyclic)."""
        self._check(a)
        i = 0
        for c, m in zip(a.coords, self.factors):
            i = i * m + c
        return i

    def from_index(self, i: int) -> Element:
        if not 0 <= i < self.order:
            raise StructureError(f"index {i} out of range 0..{self.order - 1}")
        coords = []
        for m in reversed(self.factors):
            i, c = divmod(i, m)
            coords.append(c)
        return Element(tuple(reversed(coords)))

    def elements(self) -> Iterator[Element]:
        for i in range(self.order):
            yield self.from_index(i)


@dataclass(frozen=True, slots=True)
class SubgroupSpec:
    """A subgroup given by generators, with its element set materialized."""

    group: GroupSpec
    generators: tuple[Element, ...]
    elements: frozenset[Element]
    order: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "order", len(self.elements))
        if self.group.identity not in self.elements:
            raise StructureError("subgroup is missing the identity")
        if self.group.order % self.order != 0:
            raise StructureError(
                f"subgroup size {self.order} does not divide {self.group.order}"
            )

    def __contains__(self, a: Element) -> bool:
        return a in self.elements


def cyclic_subgroup(spec: GroupSpec, h: int) -> SubgroupSpec:
    """The unique subgroup {0, r, 2r, ...} of order h in a cyclic group, r = g/h."""
    if not spec.is_cyclic:
        raise UnsupportedOperationError("cyclic_subgroup needs a cyclic group")
    g = spec.order
    if h < 1 or g % h != 0:
        raise InvalidTypeError(f"subgroup order {h} does not divide {g}")
    r = g // h
    members = frozenset(Element((i * r % g,)) for i in range(h))
    return SubgroupSpec(spec, (spec.element(r % g),), members)


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
    return SubgroupSpec(spec, gens, frozenset(closure))


def trivial_subgroup(spec: GroupSpec) -> SubgroupSpec:
    return SubgroupSpec(spec, (spec.identity,), frozenset({spec.identity}))


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
    """G minus H, ordered by dense index (deterministic everywhere downstream)."""
    return [a for a in spec.elements() if a not in sub.elements]
