"""Starter types, nonexistence predicates and their certificates.

Every predicate here decides, from a starter type alone, that no starter
with some property level can exist.  Certificates carry the instantiated
congruence so a reader can recheck the arithmetic by hand.  All congruence
work is exact integer arithmetic.  The identities behind the predicates
live in `algebra`.
"""

from __future__ import annotations

import re

from .errors import InvalidTypeError, UnsupportedOperationError
from .groups import GroupSpec, SubgroupSpec, cyclic_subgroup
from .record import Record
from .starters import LEVELS

_TYPE_RE = re.compile(r"^(\d+)\^(\d+)$")


class StarterType(Record):
    """Type h^u: the order-h subgroup H of Z_g, index u = g/h, g = h*u."""

    __slots__ = _fields = ("h", "u")

    def __init__(self, h: int, u: int):
        if h < 1:
            raise InvalidTypeError(f"subgroup order must be >= 1, got {h}")
        if u < 2:
            raise InvalidTypeError(f"type index must be >= 2, got {u}")
        self._assign(h, u)

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
        try:
            h, u = int(m.group(1)), int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise InvalidTypeError("starter type has an integer too long "
                                   "to read; want h^u") from None
        return cls(h, u)

    def __str__(self) -> str:
        return f"{self.h}^{self.u}"

    def group(self) -> GroupSpec:
        return GroupSpec((self.g,))

    def subgroup(self, spec: GroupSpec | None = None) -> SubgroupSpec:
        return cyclic_subgroup(spec or self.group(), self.h)


class NonexistenceCertificate(Record):
    """An instantiated theorem hypothesis ruling out a starter kind."""

    __slots__ = _fields = ("starter_type", "level", "theorem", "statement")

    def __init__(self, starter_type: StarterType, level: str, theorem: str,
                 statement: str):
        self._assign(starter_type, level, theorem, statement)

    def rules_out(self, level: str) -> bool:
        """Whether this certificate forbids starters verified at `level`.

        A certificate at level L rules out every starter satisfying L, hence
        also everything above L in LEVELS ("no frame starter" is the
        strongest possible claim).
        """
        return LEVELS.index(level) >= LEVELS.index(self.level)


def quadratic_congruence_certificate(t: StarterType) -> NonexistenceCertificate | None:
    """Skew nonexistence for odd g when (2gh-1)(g-h) is not 0 mod 6h."""
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
    if t.u % m != 0:
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

    G/H is Z_u, so the order-4-quotient rule fires exactly when u = 4.
    """
    return next(_prior_certificates(t, t.u == 4), None)


def prior_theorem_certificate_group(group: GroupSpec, sub: SubgroupSpec,
                                    ) -> NonexistenceCertificate | None:
    """T9-T12 for an arbitrary finite abelian group presentation."""
    if group.order % sub.order != 0:
        raise InvalidTypeError("subgroup order must divide the group order")
    t = StarterType(sub.order, group.order // sub.order)
    return next(_prior_certificates(t, _quotient_is_z4(group, sub)), None)


def certify(t: StarterType) -> NonexistenceCertificate | None:
    """Strongest applicable certificate, or None when the type stays open.

    Frame-level results are checked first, then strong, then skew, so the
    first hit is the strongest conclusion available.
    """
    return (prior_theorem_certificate(t) or quadratic_congruence_certificate(t)
            or census_certificate(t, 3) or census_certificate(t, 4))


def starter_kind(level: str) -> str:
    """The starters of a level in prose: "frame starter", "skew frame starter"."""
    return "frame starter" if level == "frame" else f"{level} frame starter"
