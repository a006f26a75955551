"""A fixed reference kernel that gauges how fast the machine runs Python now.

On a shared host the same pure-Python work can take 1.5x longer for tens
of seconds at a time while neighbours are busy, which is wider than any
regression bound.  The benchmark times this kernel between the questions
of a pass and scales each stretch of the pass by REF_S / (kernel time
around it): the result is the pass time at the speed where the kernel
takes REF_S seconds.  The kernel is the benchmark's own code, so no change
to the package can move it; it is a bitmask backtracking search like the
engine's, so it slows down with the machine in much the same way.
"""

from __future__ import annotations

import time

#: Nominal kernel time; calibrated times are "seconds at this speed".
REF_S = 0.015
QUEENS_N = 10
QUEENS_SOLUTIONS = 724
#: Kernel runs per sample.  The sample is their mean: the fastest would
#: catch the machine's brief fast moments and misjudge the stretch around.
REPEATS = 3


def queens(n: int) -> int:
    """Number of ways to place n non-attacking queens on an n x n board."""
    full = (1 << n) - 1

    def place(cols: int, left: int, right: int) -> int:
        if cols == full:
            return 1
        count = 0
        free = full & ~(cols | left | right)
        while free:
            bit = free & -free
            free ^= bit
            count += place(cols | bit, ((left | bit) << 1) & full,
                           (right | bit) >> 1)
        return count

    return place(0, 0, 0)


def ref_seconds() -> float:
    """Mean time of one kernel run now."""
    t = time.perf_counter()
    found = [queens(QUEENS_N) for _ in range(REPEATS)]
    seconds = (time.perf_counter() - t) / REPEATS
    if found != [QUEENS_SOLUTIONS] * REPEATS:
        raise RuntimeError(f"reference kernel found {found} solutions, "
                           f"not {QUEENS_SOLUTIONS}")
    return seconds


def scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` measured between two kernel samples, at reference speed."""
    return seconds * REF_S / ((ref_before + ref_after) / 2)
