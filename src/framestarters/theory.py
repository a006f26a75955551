"""Nonexistence predicates, certificates, and algebraic identities.

Every predicate here decides, from a starter type alone, that no starter
with some property level can exist.  Certificates carry the instantiated
congruence so a reader can recheck the arithmetic by hand.  All congruence
work is exact integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    InvalidHomomorphismError,
    InvalidTypeError,
    StructureError,
    UnsupportedOperationError,
)
from .groups import Element, GroupSpec, SubgroupSpec, complement, cyclic_subgroup
from .starters import LEVELS, Adder, FrameStarter, Pair, type_census, verify_skew

_TYPE_RE = re.compile(r"^(\d+)\^(\d+)$")


@dataclass(frozen=True, slots=True)
class StarterType:
    """Type h^u: subgroup order h, index u = g/h, group order g = h*u."""

    h: int
    u: int
    cyclic: bool = True

    def __post_init__(self):
        if self.h < 1:
            raise InvalidTypeError(f"subgroup order must be >= 1, got {self.h}")
        if self.u < 2:
            raise InvalidTypeError(f"type index must be >= 2, got {self.u}")

    @property
    def g(self) -> int:
        return self.h * self.u

    @property
    def admissible(self) -> bool:
        """Whether (g - h)/2 pairs can exist at all."""
        return (self.g - self.h) % 2 == 0

    @classmethod
    def parse(cls, text: str) -> "StarterType":
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise InvalidTypeError(f"cannot parse starter type {text!r}; want h^u")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.h}^{self.u}"

    def group(self) -> GroupSpec:
        if not self.cyclic:
            raise InvalidTypeError("only cyclic types map to a canonical group")
        return GroupSpec((self.g,))

    def subgroup(self, spec: GroupSpec | None = None) -> SubgroupSpec:
        return cyclic_subgroup(spec or self.group(), self.h)


def starter_type_of(s: FrameStarter) -> StarterType:
    h, u = s.declared_type
    return StarterType(h, u, cyclic=s.group.is_cyclic)


@dataclass(frozen=True, slots=True)
class NonexistenceCertificate:
    """An instantiated theorem hypothesis ruling out a starter kind."""

    starter_type: StarterType
    level: str
    theorem: str
    statement: str

    def rules_out(self, level: str) -> bool:
        """Whether this certificate forbids starters verified at `level`.

        A certificate at level L rules out every starter satisfying L, hence
        also everything above L in LEVELS ("no frame starter" is the
        strongest possible claim).
        """
        return LEVELS.index(level) >= LEVELS.index(self.level)


def quadratic_congruence_certificate(t: StarterType) -> NonexistenceCertificate | None:
    """Skew nonexistence for odd g when (2gh-1)(g-h) is not 0 mod 6h."""
    if not t.cyclic:
        return None
    g, h = t.g, t.h
    if g % 2 == 0:
        return None
    value = (2 * g * h - 1) * (g - h)
    residue = value % (6 * h)
    if residue == 0:
        return None
    theorem = {1: "C18", 3: "C19", 5: "C20"}.get(h, "T17")
    statement = (
        f"(2gh-1)(g-h) = (2*{g}*{h}-1)*({g}-{h}) = {value} "
        f"== {residue} (mod {6 * h}), not 0, so no cyclic skew frame starter "
        f"of type {t} exists"
    )
    return NonexistenceCertificate(t, "skew", theorem, statement)


def census_certificate(t: StarterType, m: int) -> NonexistenceCertificate | None:
    """Skew nonexistence for types h^(mk) when h*k is not 0 mod m, m = 3 or 4.

    Counting pair types in the image of a hypothetical starter under
    x -> x mod m pins the census: mod 3 it forces 3 | h(k-3)/2, mod 4 it
    forces 16 | g; both are impossible when h*k is not 0 mod m.
    """
    theorem = {3: "T21", 4: "T24"}.get(m)
    if theorem is None:
        raise UnsupportedOperationError(f"no census theorem modulo {m}")
    if not t.cyclic or t.u % m != 0:
        return None
    k = t.u // m
    if (t.h * k) % m == 0:
        return None
    statement = (
        f"type {t} has u = {m}*{k}; h*k = {t.h}*{k} = {t.h * k} "
        f"== {(t.h * k) % m} (mod {m}), not 0, so no cyclic skew frame starter "
        f"of type {t} exists"
    )
    if m == 4 and t.h == 2:
        # The h=2 specialization is sometimes quoted with the ambient group
        # written as Z_{4k}; a type 2^(4k) starter lives in Z_{8k}.
        statement += f" (type {t} lives in Z_{t.g}, not Z_{t.g // 2})"
    return NonexistenceCertificate(t, "skew", theorem, statement)


def _quotient_is_z4(group: GroupSpec, sub: SubgroupSpec) -> bool:
    """Whether G/H is cyclic of order 4 (needs an element of order 4 mod H)."""
    if group.order != 4 * sub.order:
        return False
    for x in group.elements():
        two_x = group.add(x, x)
        if x not in sub.elements and two_x not in sub.elements:
            return True
    return False


def _prior_certificates(t: StarterType, quotient_z4: bool):
    """T9-T12 for the type; quotient_z4 says whether G/H is cyclic of order 4."""
    h, u = t.h, t.u
    if h % 4 == 2 and u % 4 in (2, 3):
        yield NonexistenceCertificate(
            t, "frame", "T9",
            f"h = {h} == 2 (mod 4) and u = {u} == {u % 4} (mod 4), so no "
            f"frame starter of type {t} exists in any abelian group",
        )
    if u == 5 and h % 2 == 1:
        yield NonexistenceCertificate(
            t, "strong", "T10",
            f"g = 5h with h = {h} odd, so no strong frame starter of type {t} "
            f"exists in any abelian group",
        )
    if h % 2 == 0 and quotient_z4:
        yield NonexistenceCertificate(
            t, "strong", "T11",
            f"h = {h} is even and G/H is cyclic of order 4, so no strong "
            f"frame starter of type {t} exists",
        )
    if u == 6:
        yield NonexistenceCertificate(
            t, "strong", "T12",
            f"g = 6h (h = {h}), so no strong frame starter of type {t} exists "
            f"in any abelian group",
        )


def prior_theorem_certificate(t: StarterType) -> NonexistenceCertificate | None:
    """First applicable of the order-based nonexistence results T9-T12.

    The order-4-quotient rule only fires for cyclic types, where G/H is
    cyclic of order u; other presentations go through the group-based
    variant below, which inspects the quotient.
    """
    return next(_prior_certificates(t, t.cyclic and t.u == 4), None)


def prior_theorem_certificate_group(group: GroupSpec, sub: SubgroupSpec,
                                    ) -> NonexistenceCertificate | None:
    """T9-T12 for an arbitrary finite abelian group presentation."""
    if group.order % sub.order != 0:
        raise InvalidTypeError("subgroup order must divide the group order")
    t = StarterType(sub.order, group.order // sub.order,
                    cyclic=group.is_cyclic)
    return next(_prior_certificates(t, _quotient_is_z4(group, sub)), None)


def certify(t: StarterType) -> NonexistenceCertificate | None:
    """Strongest applicable certificate, or None when the type stays open.

    Frame-level results are checked first, then strong, then skew, so the
    first hit is the strongest conclusion available.
    """
    return (prior_theorem_certificate(t) or quadratic_congruence_certificate(t)
            or census_certificate(t, 3) or census_certificate(t, 4))


def exhaustion_certificate(t: StarterType, level: str, nodes: int,
                           ) -> NonexistenceCertificate:
    """Certificate wrapping a completed exhaustive search that found nothing."""
    return NonexistenceCertificate(
        t, level, "search-exhaustion",
        f"exhaustive backtracking over type {t} visited {nodes} nodes and "
        f"found no {level} frame starter",
    )


# ---------------------------------------------------------------------------
# Patterned starter and the strong-starter <-> adder correspondence.

def patterned_starter(group: GroupSpec, sub: SubgroupSpec) -> FrameStarter:
    """The frame starter {{x, -x}} over G \\ H; exists whenever |G| is odd."""
    if group.order % 2 == 0:
        raise UnsupportedOperationError(
            "patterned starter needs odd group order (x = -x must not occur)"
        )
    pairs = []
    seen: set[Element] = set()
    for x in complement(group, sub):
        if x in seen:
            continue
        nx = group.neg(x)
        seen.add(x)
        seen.add(nx)
        pairs.append(Pair(x, nx))
    return FrameStarter(group, sub, tuple(pairs))


def strong_to_adder(s: FrameStarter) -> Adder:
    """Adder for the patterned starter matching a strong starter S.

    The pair {x, y} with sum 2a translates the patterned pair
    {(x-y)/2, (y-x)/2} by a onto {x, y}.
    """
    group = s.group
    if group.order % 2 == 0:
        raise UnsupportedOperationError("adder correspondence needs odd order")
    report = verify_skew(s)
    if not report.is_strong:
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


def residue_class_sizes(group: GroupSpec, sub: SubgroupSpec, m: int) -> list[int]:
    """n_i = number of elements of G \\ H congruent to i mod m."""
    if not group.is_cyclic:
        raise UnsupportedOperationError("residue classes need a cyclic group")
    if m < 2 or group.order % m != 0:
        raise InvalidHomomorphismError(
            f"x -> x mod {m} is not a homomorphism on order {group.order}"
        )
    sizes = [group.order // m] * m
    for x in sub.elements:
        sizes[x.coords[0] % m] -= 1
    return sizes


def census_identities(s: FrameStarter, m: int, *, skew: bool,
                      ) -> dict[str, tuple[int, int]]:
    """Linear identities every (skew) frame starter's mod-m census satisfies.

    Returns name -> (lhs, rhs), written fraction-free.  Member and
    difference identities hold for any frame starter; sum identities need
    the skew property.  When H lies in the kernel (m | u) the right-hand
    sides collapse to the textbook constants behind `census_certificate`.
    """
    census = type_census(s, m)
    n = residue_class_sizes(s.group, s.subgroup, m)
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
