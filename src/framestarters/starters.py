"""Frame starter model and verification of the defining properties.

A frame starter over G \\ H is a set of (g-h)/2 unordered pairs whose
members partition G \\ H and whose +- differences partition G \\ H again.
"Strong" adds distinct pair sums outside H, "skew" requires the +- sums
to partition G \\ H.  Verification never throws on a bad starter; it
reports which properties hold and the first offending witness.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def members(self) -> tuple[Element, Element]:
        return (self.first, self.second)

    def __repr__(self) -> str:
        return f"Pair({self.first!r}, {self.second!r})"


@dataclass(frozen=True, slots=True)
class FrameStarter:
    """Candidate frame starter; cheap structural checks run at construction.

    Construction guarantees the pair count is (g-h)/2 and every member lies
    in G \\ H.  The partition properties are the verifiers' job.
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
        pairs = tuple(sorted(self.pairs))
        if len(pairs) != (g - h) // 2:
            raise StructureError(
                f"expected {(g - h) // 2} pairs for type {h}^{g // h}, "
                f"got {len(pairs)}"
            )
        for p in pairs:
            for x in p.members():
                self.group._check(x)
                if x in self.subgroup:
                    raise StructureError(f"pair member {x!r} lies in the subgroup")
        object.__setattr__(self, "pairs", pairs)

    @property
    def h(self) -> int:
        return self.subgroup.order

    @property
    def u(self) -> int:
        return self.group.order // self.subgroup.order

    @property
    def declared_type(self) -> tuple[int, int]:
        return (self.h, self.u)

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
    """Build a starter from raw pair values (ints or coordinate tuples)."""
    pairs = tuple(
        Pair(group.element(x), group.element(y)) for x, y in raw_pairs
    )
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
    """
    group, sub = s.group, s.subgroup
    frame_bad: list[str] = []
    strong_bad: list[str] = []
    skew_bad: list[str] = []

    # Construction pins the pair count and membership in G \ H, so the
    # members partition G \ H exactly when no element repeats.
    seen_members: set[Element] = set()
    for p in s.pairs:
        for x in p.members():
            if x in seen_members:
                frame_bad.append(f"frame: element {x!r} covered twice")
            seen_members.add(x)

    seen_diffs: set[Element] = set()
    for p in s.pairs:
        d = group.sub(p.second, p.first)
        for v in (d, group.neg(d)):
            if v in sub:
                frame_bad.append(
                    f"frame: difference {v!r} lies in the subgroup (pair {p!r})"
                )
            elif v in seen_diffs:
                frame_bad.append(f"frame: difference {v!r} duplicated (pair {p!r})")
            seen_diffs.add(v)

    # A self-negative sum contributes one value twice, which the duplicate
    # check below flags, so no separate 2t = 0 test is needed.
    seen_sums: set[Element] = set()
    seen_pm_sums: set[Element] = set()
    for p in s.pairs:
        t = group.add(p.first, p.second)
        if t in sub:
            strong_bad.append(f"strong: sum {t!r} lies in the subgroup (pair {p!r})")
        elif t in seen_sums:
            strong_bad.append(f"strong: sum {t!r} duplicated (pair {p!r})")
        seen_sums.add(t)
        for v in (t, group.neg(t)):
            if v in seen_pm_sums and v not in sub:
                skew_bad.append(f"skew: sum value {v!r} duplicated (pair {p!r})")
            seen_pm_sums.add(v)

    is_frame = not frame_bad
    is_strong = is_frame and not strong_bad
    is_skew = is_strong and not skew_bad
    all_witnesses = tuple(frame_bad + strong_bad + skew_bad)
    return VerificationReport(
        is_frame=is_frame,
        is_strong=is_strong,
        is_skew=is_skew,
        witness=all_witnesses[0] if all_witnesses else None,
        witnesses=all_witnesses if verbose else (),
    )


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


def _difference_class(group: GroupSpec, p: Pair) -> tuple[Element, Element]:
    d = group.sub(p.second, p.first)
    nd = group.neg(d)
    return (d, nd) if d < nd else (nd, d)


def verify_orthogonal(s1: FrameStarter, s2: FrameStarter,
                      ) -> tuple[bool, Adder | None]:
    """Check orthogonality after aligning pairs by their difference classes.

    Returns (True, adder) when the per-pair translates are distinct and
    stay outside H; (False, None) otherwise.  Starters whose difference
    multisets cannot be aligned are not comparable at all.
    """
    if s1.group != s2.group or s1.subgroup != s2.subgroup:
        raise NotComparableError("starters live over different (G, H)")
    group = s1.group

    by_class: dict[tuple[Element, Element], Pair] = {}
    for q in s2.pairs:
        key = _difference_class(group, q)
        if key in by_class:
            raise NotComparableError(f"duplicate difference class {key} in mate")
        by_class[key] = q

    matched: list[tuple[Pair, Pair]] = []
    seen: set[tuple[Element, Element]] = set()
    for p in s1.pairs:
        key = _difference_class(group, p)
        if key in seen:
            raise NotComparableError(f"duplicate difference class {key}")
        seen.add(key)
        q = by_class.get(key)
        if q is None:
            raise NotComparableError(f"no mate pair with difference class {key}")
        matched.append((p, q))

    # Each matched pair admits one translate, or two when the difference is
    # its own negative (then both orientations of the mate line up).
    options: list[list[Element]] = []
    for p, q in matched:
        d1 = group.sub(p.second, p.first)
        cand = []
        if group.sub(q.second, q.first) == d1:
            cand.append(group.sub(q.first, p.first))
        if group.sub(q.first, q.second) == d1:
            a = group.sub(q.second, p.first)
            if a not in cand:
                cand.append(a)
        options.append(cand)

    def assign(i: int, used: set[Element]) -> list[Element] | None:
        if i == len(options):
            return []
        for a in options[i]:
            if a in s1.subgroup or a in used:
                continue
            used.add(a)
            rest = assign(i + 1, used)
            used.discard(a)
            if rest is not None:
                return [a] + rest
        return None

    adders = assign(0, set())
    if adders is None:
        return False, None
    entries = tuple((p, a) for (p, _), a in zip(matched, adders))
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


def half_set(spec: GroupSpec, sub: SubgroupSpec) -> set[int]:
    """{j : 1 <= j <= (g-1)/2, j not a multiple of r}; one value per +- orbit of G \\ H."""
    if not spec.is_cyclic:
        raise UnsupportedOperationError("half set needs a cyclic group")
    g = spec.order
    if g % 2 == 0:
        raise UnsupportedOperationError("half set needs odd group order")
    r = g // sub.order
    return {j for j in range(1, (g - 1) // 2 + 1) if j % r != 0}
