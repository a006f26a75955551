"""The brute-force oracle: enumerate every perfect pairing of G \\ H with no
pruning and no symmetry, then test the finished pairing.  Deliberately
independent of the search engine; only sane for g <= ~16.  Loaded on
first use: no search, table row or corpus load runs it.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidTypeError
from .search import _verified_starters
from .starters import LEVELS, FrameStarter, make_starter
from .theory import StarterType


def _pairing_properties(g: int, r: int,
                        pairs: list[tuple[int, int]]) -> tuple[bool, bool, bool]:
    n = 2 * len(pairs)
    diffs = []
    for x, y in pairs:
        d = (y - x) % g
        diffs.append(d)
        diffs.append(g - d)
    frame = all(d % r for d in diffs) and len(set(diffs)) == n
    sums = [(x + y) % g for x, y in pairs]
    strong = frame and all(s % r for s in sums) and len(set(sums)) == len(sums)
    pm = sums + [(g - s) % g for s in sums]
    skew = strong and all(v % r for v in pm) and len(set(pm)) == n
    return frame, strong, skew


def naive_enumerate(t: StarterType, level: str) -> list[FrameStarter]:
    """All starters of the type at the given level, by unpruned enumeration."""
    if not t.admissible:
        raise InvalidTypeError(f"type {t} admits no pairing")
    hits = _naive_pairings(t.g, t.u)[LEVELS.index(level)]
    group = t.group()
    sub = t.subgroup(group)
    return list(_verified_starters(
        level, (make_starter(group, sub, p) for p in hits)))


@lru_cache(maxsize=1)
def _naive_pairings(g: int, r: int) -> tuple[tuple, tuple, tuple]:
    """The frame, strong and skew pairings of Z_g \\ H, H the multiples of r,
    from one walk over every perfect pairing, each in walk order."""
    elements = [v for v in range(1, g) if v % r]
    hits: tuple[list, list, list] = ([], [], [])
    pairs: list[tuple[int, int]] = []

    def rec(remaining: list[int]):
        if not remaining:
            for found, holds in zip(hits, _pairing_properties(g, r, pairs)):
                if holds:
                    found.append(tuple(pairs))
            return
        x = remaining[0]
        for i in range(1, len(remaining)):
            y = remaining[i]
            pairs.append((x, y))
            rec(remaining[1:i] + remaining[i + 1:])
            pairs.pop()

    rec(elements)
    return tuple(map(tuple, hits))
