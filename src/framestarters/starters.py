"""Frame starter model and verification of the defining properties.

A frame starter over G \\ H is a set of (g-h)/2 unordered pairs whose
members partition G \\ H and whose +- differences partition G \\ H again.
"Strong" adds distinct pair sums outside H, "skew" requires the +- sums
to partition G \\ H.  Verification never throws on a bad starter; it
reports which properties hold and the first offending witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Mapping

from .errors import NotComparableError, StructureError, UnsupportedOperationError
from .groups import Element, GroupSpec, SubgroupSpec, reduce_mod


@dataclass(frozen=True, order=True, slots=True)
class Pair:
    """An unordered pair stored with members in lexicographic coordinate order."""

    first: Element
    second: Element

    def __post_init__(self):
        if self.first == self.second:
            raise StructureError(f"degenerate pair {{{self.first}, {self.first}}}")
        if self.second < self.first:
            first, second = self.second, self.first
            object.__setattr__(self, "first", first)
            object.__setattr__(self, "second", second)

    def __repr__(self) -> str:
        return f"Pair({self.first!r}, {self.second!r})"


#: Pair's own ordering, as a key of built-in tuple comparisons.
_PAIR_ORDER = attrgetter("first", "second")


@dataclass(frozen=True, slots=True)
class FrameStarter:
    """Candidate frame starter; cheap structural checks run at construction.

    Construction guarantees the pair count is (g-h)/2 and every member is
    a canonical element of G \\ H.  The partition properties are the
    verifier's job.
    """

    group: GroupSpec
    subgroup: SubgroupSpec
    pairs: tuple[Pair, ...]

    def __post_init__(self):
        if self.subgroup.group != self.group:
            raise StructureError("subgroup belongs to a different group")
        g, h = self.group.order, self.subgroup.order
        if (g - h) % 2 != 0:
            raise StructureError(f"g - h = {g - h} is odd; no pairing exists")
        pairs = tuple(sorted(self.pairs, key=_PAIR_ORDER))
        if len(pairs) != (g - h) // 2:
            raise StructureError(
                f"expected {(g - h) // 2} pairs for type {h}^{g // h}, "
                f"got {len(pairs)}"
            )
        members = [x for p in pairs for x in (p.first, p.second)]
        self.group._check(*members)
        if not self.subgroup.elements.isdisjoint(members):
            x = next(x for x in members if x in self.subgroup.elements)
            raise StructureError(f"pair member {x!r} lies in the subgroup")
        object.__setattr__(self, "pairs", pairs)

    @property
    def h(self) -> int:
        return self.subgroup.order

    @property
    def u(self) -> int:
        return self.group.order // self.subgroup.order

    def members(self) -> Iterator[Element]:
        for p in self.pairs:
            yield p.first
            yield p.second

    def sums(self) -> list[Element]:
        return [self.group.add(p.first, p.second) for p in self.pairs]

    def differences(self) -> list[tuple[Element, Element]]:
        """Per pair, the ordered (+d, -d) difference couple."""
        out = []
        for p in self.pairs:
            d = self.group.sub(p.second, p.first)
            out.append((d, self.group.neg(d)))
        return out


def make_starter(group: GroupSpec, subgroup: SubgroupSpec, raw_pairs) -> FrameStarter:
    """Build a starter from raw pair values: ints (cyclic) and coordinate
    tuples are reduced; elements are taken as they are, and construction
    rejects one that is not canonical."""
    def element(v):
        return v if isinstance(v, Element) else group.element(v)

    pairs = tuple(Pair(element(x), element(y)) for x, y in raw_pairs)
    return FrameStarter(group, subgroup, pairs)


def negate_starter(s: FrameStarter) -> FrameStarter:
    """The starter -S = {{-x, -y}}; shares every frame/strong/skew property."""
    g = s.group
    return FrameStarter(
        g, s.subgroup, tuple(Pair(g.neg(p.first), g.neg(p.second)) for p in s.pairs)
    )


#: Property levels ordered weakest to strongest: skew implies strong
#: implies frame.
LEVELS = ("frame", "strong", "skew")


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of verification; skew implies strong implies frame by design."""

    is_frame: bool
    is_strong: bool
    is_skew: bool
    witness: str | None = None
    witnesses: tuple[str, ...] = ()

    def holds(self, level: str) -> bool:
        return (self.is_frame, self.is_strong, self.is_skew)[LEVELS.index(level)]


def verify_skew(s: FrameStarter, verbose: bool = False) -> VerificationReport:
    """The one verifier: which of frame, strong and skew the starter satisfies.

    `report.holds(level)` answers for one level.  `witness` is the first
    violation found; with verbose, `witnesses` lists every one.

    The levels are decided by set sizes over coordinate tuples, computed
    one column of residues per factor; witness text is formatted only for
    a starter that fails, and then only as much as the report returns.
    """
    n = len(s.pairs)
    firsts = [p.first.coords for p in s.pairs]
    seconds = [p.second.coords for p in s.pairs]
    # Per pair d = second - first, -d, t = first + second and -t, one
    # column of residues per factor, then zipped into coordinate tuples.
    cols: tuple[list[list[int]], ...] = ([], [], [], [])
    for xs, ys, m in zip(zip(*firsts), zip(*seconds), s.group.factors):
        d = [(y - x) % m for x, y in zip(xs, ys)]
        t = [(x + y) % m for x, y in zip(xs, ys)]
        for out, col in zip(cols, (d, [-v % m for v in d],
                                   t, [-v % m for v in t])):
            out.append(col)
    diffs, neg_diffs, sums, neg_sums = (list(zip(*c)) for c in cols)
    in_h = {x.coords for x in s.subgroup.elements}

    # Construction pins the pair count and membership in G \ H, so the
    # members partition G \ H exactly when no element repeats.  H is closed
    # under negation, so with no sum in H no -sum is either.
    clean = (len(set(firsts + seconds)) == 2 * n,
             len(set(diffs + neg_diffs)) == 2 * n and in_h.isdisjoint(diffs),
             len(set(sums)) == n and in_h.isdisjoint(sums))
    is_frame = clean[0] and clean[1]
    is_strong = is_frame and clean[2]
    is_skew = is_strong and len(set(sums + neg_sums)) == 2 * n
    if is_skew:
        return VerificationReport(True, True, True)
    found = _violations(s, clean, in_h, diffs, neg_diffs, sums, neg_sums)
    witnesses = tuple(found) if verbose else ()
    return VerificationReport(
        is_frame=is_frame,
        is_strong=is_strong,
        is_skew=False,
        witness=witnesses[0] if verbose else next(found),
        witnesses=witnesses,
    )


def _violations(s: FrameStarter, clean: tuple[bool, bool, bool], in_h: set,
                diffs: list, neg_diffs: list, sums: list,
                neg_sums: list) -> Iterator[str]:
    """Every violation of `s`, formatted in report order: members,
    differences, sums, then +-sums, each in pair order.  `clean` says which
    of the first three scans has nothing to report, so they are skipped.
    """
    seen: set = set()
    for p in s.pairs if not clean[0] else ():
        for x in (p.first, p.second):
            if x.coords in seen:
                yield f"frame: element {x!r} covered twice"
            seen.add(x.coords)

    seen = set()
    for p, d, nd in zip(s.pairs, diffs, neg_diffs) if not clean[1] else ():
        for v in (d, nd):
            if v in in_h:
                yield (f"frame: difference {Element(v)!r} lies in the subgroup "
                       f"(pair {p!r})")
            elif v in seen:
                yield f"frame: difference {Element(v)!r} duplicated (pair {p!r})"
            seen.add(v)

    seen = set()
    for p, t in zip(s.pairs, sums) if not clean[2] else ():
        if t in in_h:
            yield f"strong: sum {Element(t)!r} lies in the subgroup (pair {p!r})"
        elif t in seen:
            yield f"strong: sum {Element(t)!r} duplicated (pair {p!r})"
        seen.add(t)

    # A self-negative sum contributes one value twice, which the duplicate
    # check flags, so no separate 2t = 0 test is needed.
    seen = set()
    for p, t, nt in zip(s.pairs, sums, neg_sums):
        for v in (t, nt):
            if v in seen and v not in in_h:
                yield f"skew: sum value {Element(v)!r} duplicated (pair {p!r})"
            seen.add(v)


@dataclass(frozen=True, slots=True)
class Adder:
    """Translation elements matching one starter onto an orthogonal mate.

    entries maps each pair {x, y} of the base starter to the element a with
    {x + a, y + a} a pair of the mate.
    """

    group: GroupSpec
    subgroup: SubgroupSpec
    entries: tuple[tuple[Pair, Element], ...]

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
        report = verify_skew(s)
        if not report.is_frame:
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


@dataclass(frozen=True)
class TypeCensus:
    """Pair counts classified by the residue multiset of their members."""

    modulus: int
    counts: Mapping[tuple[int, int], int]

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
