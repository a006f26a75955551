"""Frame starter model and verification of the defining properties.

A frame starter over G \\ H is a set of (g-h)/2 unordered pairs whose
members partition G \\ H and whose +- differences partition G \\ H again.
"Strong" adds distinct pair sums outside H, "skew" requires the +- sums
to partition G \\ H.  Construction reads each pair's integer codes from
its group, which checks and encodes a pair once, and the starter keeps
them.  The verifier, `verify_skew(s)`, is the report's constructor: the
report reads the starter alone and never throws on a bad starter;
`holds(level)` decides the level asked, `witness` formats the first
violation and `witnesses` every one, on each read, from the same codes
(`GroupSpec.decode`).
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .errors import NotComparableError, StructureError, UnsupportedOperationError
from .groups import Element, GroupSpec, SubgroupSpec, reduce_mod
from .record import Record


class Pair(NamedTuple("Pair", [("first", Element), ("second", Element)])):
    """An unordered pair stored with members in lexicographic coordinate
    order; a named tuple, so it hashes, compares and sorts as a tuple."""

    __slots__ = ()
    _make = classmethod(lambda cls, members: cls(*members))  # _replace too

    def __new__(cls, a: Element, b: Element):
        if a == b:
            raise StructureError(f"degenerate pair {{{a}, {a}}}")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    def __repr__(self) -> str:
        return f"Pair({self.first!r}, {self.second!r})"


class FrameStarter(Record):
    """Candidate frame starter; cheap structural checks run at construction.

    Construction guarantees the pair count is (g-h)/2 and every member is
    a canonical element of G \\ H, the group checking each distinct Pair
    once (`GroupSpec.pair_codes`), and keeps each pair's code row in `codes`
    (`pairs` order; not compared, hashed or shown).  Partitions are the
    verifier's job.
    """

    __slots__ = ("group", "subgroup", "pairs", "codes")
    _fields = ("group", "subgroup", "pairs")

    def __init__(self, group: GroupSpec, subgroup: SubgroupSpec,
                 pairs: tuple[Pair, ...]):
        if subgroup.group is not group and subgroup.group != group:
            raise StructureError("subgroup belongs to a different group")
        g, h = group.order, subgroup.order
        if (g - h) % 2 != 0:
            raise StructureError(f"g - h = {g - h} is odd; no pairing exists")
        if len(pairs := tuple(pairs)) != (g - h) // 2:
            raise StructureError(
                f"expected {(g - h) // 2} pairs for type {h}^{g // h}, "
                f"got {len(pairs)}")
        codes = group.pair_codes(pairs)  # rows sort as their Pairs do
        if codes != (rows := tuple(sorted(codes))):
            codes, pairs = rows, tuple(p for _, p in sorted(zip(codes, pairs)))
        columns = zip(*codes)  # first members, then second members
        if not (subgroup.codes.isdisjoint(next(columns, ()))
                and subgroup.codes.isdisjoint(next(columns, ()))):
            x = next(x for p in pairs for x in p if x in subgroup)
            raise StructureError(f"pair member {x!r} lies in the subgroup")
        _set_group(self, group)
        _set_subgroup(self, subgroup)
        _set_pairs(self, pairs)
        _set_codes(self, codes)

    @property
    def h(self) -> int:
        return self.subgroup.order

    @property
    def u(self) -> int:
        return self.group.order // self.subgroup.order


# The fields' slot descriptors: a frozen instance is written through them,
# which is cheaper than object.__setattr__ by name.
_set_group, _set_subgroup, _set_pairs, _set_codes = (
    FrameStarter.__dict__[name].__set__
    for name in ("group", "subgroup", "pairs", "codes"))


def make_starter(group: GroupSpec, subgroup: SubgroupSpec, raw_pairs) -> FrameStarter:
    """Build a starter from pairs.  A `Pair` is taken as it is; a raw pair
    of values goes through `GroupSpec.element`, which reduces ints (cyclic)
    and coordinate tuples and rejects an element that is not canonical."""
    return FrameStarter(group, subgroup, (
        p if isinstance(p, Pair) else Pair(*map(group.element, p))
        for p in raw_pairs))


def negate_starter(s: FrameStarter) -> FrameStarter:
    """The starter -S = {{-x, -y}}; shares every frame/strong/skew property."""
    g = s.group
    return FrameStarter(
        g, s.subgroup, tuple(Pair(g.neg(p.first), g.neg(p.second)) for p in s.pairs)
    )


#: Property levels ordered weakest to strongest: skew implies strong
#: implies frame.
LEVELS = ("frame", "strong", "skew")


class VerificationReport:
    """The one verifier, `verify_skew(s)`: which of frame, strong and skew
    the starter satisfies, and why not.

    The report holds the starter alone, and every read recomputes from
    it.  `holds(level)` decides the level, weakest first, since skew
    implies strong implies frame: `holds("frame")` never builds the sum
    sets.  `witnesses` formats every violation in report order and
    `witness` formats only the first, or is None for a skew starter, so a
    caller that asks only `holds(level)` formats no text.
    """

    __slots__ = ("starter",)

    def __init__(self, starter: FrameStarter):
        self.starter = starter

    def holds(self, level: str) -> bool:
        """Check frame, then strong, then skew up to `level`, by set sizes
        over the starter's code columns: the members, d = second - first,
        -d, t = first + second and -t of every pair (`FrameStarter.codes`),
        so one code path serves every group and the group's table is never
        read.  A failing level fails every level above it."""
        top = LEVELS.index(level)
        s = self.starter
        n, in_h = len(s.codes), s.subgroup.codes
        firsts, seconds, diffs, neg_diffs, sums, neg_sums = (
            zip(*s.codes) if n else ((),) * 6)
        # Construction pins the pair count and membership in G \ H, so the
        # members partition G \ H exactly when no element repeats.
        if not (len({*firsts, *seconds}) == 2 * n
                and in_h.isdisjoint(diffs)
                and len({*diffs, *neg_diffs}) == 2 * n):
            return False
        # H is closed under negation, so with no sum in H no -sum is either.
        return top == 0 or (len(set(sums)) == n and in_h.isdisjoint(sums)
                            and (top == 1 or len({*sums, *neg_sums}) == 2 * n))

    @property
    def witnesses(self) -> tuple[str, ...]:
        return tuple(_violations(self.starter))

    @property
    def witness(self) -> str | None:
        return next(_violations(self.starter), None)


verify_skew = VerificationReport


def _violations(s: FrameStarter) -> Iterator[str]:
    """Every violation, formatted in report order: members, differences,
    sums, then +-sums, each in pair order, from the starter's codes, which
    `VerificationReport` decides from too; the group only decodes them."""
    in_h, element = s.subgroup.codes, s.group.decode
    rows = list(zip(s.pairs, s.codes))

    def partition(level, what, columns):
        seen = set()
        for p, codes in rows:
            for v in codes[columns]:
                if v in in_h or v in seen:
                    how = "lies in the subgroup" if v in in_h else "duplicated"
                    yield f"{level}: {what} {element(v)!r} {how} (pair {p!r})"
                seen.add(v)

    seen = set()
    for x in (x for p in s.pairs for x in p):
        if x in seen:
            yield f"frame: element {x!r} covered twice"
        seen.add(x)
    yield from partition("frame", "difference", slice(2, 4))
    yield from partition("strong", "sum", slice(4, 5))

    # A self-negative sum contributes one value twice, which the duplicate
    # check flags, so no separate 2t = 0 test is needed.
    seen = set()
    for p, codes in rows:
        for v in codes[4:]:
            if v in seen and v not in in_h:
                yield f"skew: sum value {element(v)!r} duplicated (pair {p!r})"
            seen.add(v)


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
