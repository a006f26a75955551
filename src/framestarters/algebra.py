"""The starter algebra behind the proofs: negation, orthogonality and
adders, the patterned starter and the strong-starter <-> adder
correspondence, the mod-m type census and the sum-of-squares and census
identities behind the nonexistence certificates.  Loaded on first use: no
search, table row or corpus load runs it.
"""

from __future__ import annotations

from typing import Mapping

from .errors import (InvalidHomomorphismError, InvalidTypeError,
                     NotComparableError, StructureError,
                     UnsupportedOperationError)
from .groups import Element, GroupSpec, SubgroupSpec, complement, reduce_mod
from .record import Record
from .starters import FrameStarter, Pair, verify_skew
from .theory import StarterType


def negate_starter(s: FrameStarter) -> FrameStarter:
    """The starter -S = {{-x, -y}}; shares every frame/strong/skew property."""
    g = s.group
    return FrameStarter(
        g, s.subgroup, tuple(Pair(g.neg(p.first), g.neg(p.second)) for p in s.pairs)
    )


class Adder(Record):
    """Translation elements matching one starter onto an orthogonal mate.

    entries maps each pair {x, y} of the base starter to the element a with
    {x + a, y + a} a pair of the mate.
    """

    __slots__ = _fields = ("group", "subgroup", "entries")

    def __init__(self, group: GroupSpec, subgroup: SubgroupSpec,
                 entries: tuple[tuple[Pair, Element], ...]):
        self._assign(group, subgroup, entries)

    def elements(self) -> list[Element]:
        return [a for _, a in self.entries]


def verify_orthogonal(s1: FrameStarter, s2: FrameStarter,
                      ) -> tuple[bool, Adder | None]:
    """Check orthogonality of two frame starters over the same (G, H).

    Each difference class {d, -d} occurs once in a frame starter and
    d != -d, so every pair of s1 has one translate onto the s2 pair of its
    class.  Returns (True, adder) when these are distinct and stay outside
    H; (False, None) otherwise.  Other inputs are not comparable.
    """
    if s1.group != s2.group or s1.subgroup != s2.subgroup:
        raise NotComparableError("starters live over different (G, H)")
    for s in (s1, s2):
        if not (report := verify_skew(s)).holds("frame"):
            raise NotComparableError(f"not a frame starter: {report.witness}")
    group = s1.group
    # base[e] is the member of the s2 pair that p.first must move onto
    # when p has difference e.
    base: dict[Element, Element] = {}
    for q in s2.pairs:
        d = group.sub(q.second, q.first)
        base[d] = q.first
        base[group.neg(d)] = q.second
    entries = tuple(
        (p, group.sub(base[group.sub(p.second, p.first)], p.first))
        for p in s1.pairs
    )
    adders = {a for _, a in entries}
    if len(adders) < len(entries) or any(a in s1.subgroup for a in adders):
        return False, None
    return True, Adder(group, s1.subgroup, entries)


class TypeCensus(Record):
    """Pair counts classified by the residue multiset of their members."""

    __slots__ = _fields = ("modulus", "counts")

    def __init__(self, modulus: int, counts: Mapping[tuple[int, int], int]):
        self._assign(modulus, counts)

    def count(self, i: int, j: int) -> int:
        return self.counts.get((min(i, j), max(i, j)), 0)

    def total(self) -> int:
        return sum(self.counts.values())


def type_census(s: FrameStarter, m: int) -> TypeCensus:
    """Count pairs by the residues of their members under x -> x mod m."""
    counts: dict[tuple[int, int], int] = {}
    for p in s.pairs:
        i = reduce_mod(s.group, p.first, m)
        j = reduce_mod(s.group, p.second, m)
        key = (min(i, j), max(i, j))
        counts[key] = counts.get(key, 0) + 1
    return TypeCensus(m, counts)


def quadratic_sum_check(s: FrameStarter) -> int:
    """Sum of squared pair sums mod g; zero for every strong starter when g is odd."""
    if not s.group.is_cyclic:
        raise UnsupportedOperationError("quadratic sum check needs a cyclic group")
    g = s.group.order
    if g % 2 == 0:
        raise UnsupportedOperationError("quadratic sum check needs odd group order")
    return sum((p.first.coords[0] + p.second.coords[0]) ** 2 for p in s.pairs) % g


# ---------------------------------------------------------------------------
# Patterned starter and the strong-starter <-> adder correspondence.

def patterned_starter(group: GroupSpec, sub: SubgroupSpec) -> FrameStarter:
    """The frame starter {{x, -x}} over G \\ H; exists whenever |G| is odd."""
    if group.order % 2 == 0:
        raise UnsupportedOperationError(
            "patterned starter needs odd group order (x = -x must not occur)"
        )
    return FrameStarter(group, sub, tuple(
        {Pair(x, group.neg(x)) for x in complement(group, sub)}))


def strong_to_adder(s: FrameStarter) -> Adder:
    """Adder for the patterned starter matching a strong starter S.

    The pair {x, y} with sum 2a translates the patterned pair
    {(x-y)/2, (y-x)/2} by a onto {x, y}.
    """
    group = s.group
    if group.order % 2 == 0:
        raise UnsupportedOperationError("adder correspondence needs odd order")
    if not (report := verify_skew(s)).holds("strong"):
        raise StructureError(f"not a strong frame starter: {report.witness}")
    entries = []
    for p in s.pairs:
        a = group.halve(group.add(p.first, p.second))
        half_diff = group.halve(group.sub(p.first, p.second))
        entries.append((Pair(half_diff, group.neg(half_diff)), a))
    entries.sort(key=lambda e: e[0])
    return Adder(group, s.subgroup, tuple(entries))


def adder_to_strong(adder: Adder) -> FrameStarter:
    """Rebuild the strong starter {{s+a, -s+a}} from a patterned-starter adder."""
    group = adder.group
    if group.order % 2 == 0:
        raise UnsupportedOperationError("adder correspondence needs odd order")
    pairs = []
    for p, a in adder.entries:
        if p.second != group.neg(p.first):
            raise StructureError(f"pair {p!r} is not of the patterned form {{x, -x}}")
        pairs.append(Pair(group.add(p.first, a), group.add(p.second, a)))
    return FrameStarter(group, adder.subgroup, tuple(pairs))


def adder_is_skew(adder: Adder) -> bool:
    """Whether the +- adder elements partition G \\ H."""
    group = adder.group
    values: set[Element] = set()
    for a in adder.elements():
        na = group.neg(a)
        if a in adder.subgroup or a == na or a in values or na in values:
            return False
        values.add(a)
        values.add(na)
    return len(values) == group.order - adder.subgroup.order


# ---------------------------------------------------------------------------
# Sums of squares and the census identities behind the mod-m predicates.

def sum_of_squares_closed_form(g: int, h: int) -> int:
    """Closed form of sum(j^2) over the canonical representatives of G \\ H."""
    if g % 2 == 0:
        raise UnsupportedOperationError("closed form requires odd g")
    if h < 1 or g % h != 0:
        raise InvalidTypeError(f"h = {h} does not divide g = {g}")
    numerator = g * (2 * g * h - 1) * (g - h)
    assert numerator % (6 * h) == 0  # exact by the derivation over the integers
    return numerator // (6 * h)


def half_set(t: StarterType) -> set[int]:
    """{j : 1 <= j <= (g-1)/2, j % u != 0}; one value per +- orbit of Z_g \\ H."""
    if t.g % 2 == 0:
        raise UnsupportedOperationError("half set needs odd group order")
    return {j for j in range(1, (t.g - 1) // 2 + 1) if j % t.u}


def residue_class_sizes(t: StarterType, m: int) -> list[int]:
    """n_i = number of elements of Z_g \\ H congruent to i mod m."""
    if m < 2 or t.g % m != 0:
        raise InvalidHomomorphismError(
            f"x -> x mod {m} is not a homomorphism on order {t.g}"
        )
    sizes = [t.g // m] * m
    for k in range(t.h):  # H = {k*u : k < h}
        sizes[k * t.u % m] -= 1
    return sizes


def census_identities(s: FrameStarter, m: int) -> dict[str, tuple[int, int]]:
    """Linear identities a cyclic frame starter's mod-m census satisfies.

    Returns name -> (lhs, rhs), written fraction-free.  Member and
    difference identities hold for any frame starter; sum identities are
    included when the starter is skew.  When H lies in the kernel (m | u)
    the right-hand sides collapse to the textbook constants behind
    `census_certificate`.
    """
    skew = verify_skew(s).holds("skew")
    census = type_census(s, m)
    n = residue_class_sizes(StarterType(s.h, s.u), m)
    out: dict[str, tuple[int, int]] = {}

    for i in range(m):
        lhs = 2 * census.count(i, i)
        for j in range(m):
            if j != i:
                lhs += census.count(i, j)
        out[f"members_{i}"] = (lhs, n[i])

    # Pairs whose difference (for skew starters also: whose sum) falls in
    # the +-c residue class cover exactly the classes c and -c of G \ H.
    ops = [("diff", lambda i, j: j - i)]
    if skew:
        ops.append(("sum", lambda i, j: i + j))
    for name, op in ops:
        for c in range(m):
            nc = (-c) % m
            if nc < c:
                continue
            lhs = sum(census.count(i, j) for i in range(m) for j in range(i, m)
                      if op(i, j) % m in (c, nc))
            rhs = n[c] if c == nc else n[c] + n[nc]
            out[f"{name}_class_{c}"] = (2 * lhs, rhs)

    if skew:
        pair_total = (s.group.order - s.subgroup.order) // 2
        if m == 3:
            # Combining members_0, diff_class_0 and sum_class_0 pins the
            # number of pairs with both members congruent to 0.
            out["same_zero_pairs"] = (6 * census.count(0, 0),
                                      4 * n[0] - 2 * pair_total)
        if m == 4:
            # The odd-residue analysis pins the {1,3} pair count.
            out["opposite_odd_pairs"] = (4 * census.count(1, 3), n[1])
    return out
