"""Regenerate exhaust18.json, the ground truth of the exhaust18 workload.

For every admissible cyclic type h^u with g = h*u <= 18 and every property
level, count the starters with `naive_enumerate`, the unpruned oracle that
shares no code with the backtracking engine.  The run takes a few minutes
on one core.  From the repository root:

    python3 bench/data/make_exhaust18.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from framestarters import StarterType, naive_enumerate  # noqa: E402

MAX_G = 18
LEVELS = ("frame", "strong", "skew")


def main() -> None:
    types = [StarterType(h, u)
             for h in range(1, MAX_G + 1) for u in range(2, MAX_G + 1)
             if h * u <= MAX_G and (h * u - h) % 2 == 0]
    counts = {}
    for t in types:
        counts[str(t)] = {level: len(naive_enumerate(t, level))
                          for level in LEVELS}
        print(t, counts[str(t)], flush=True)
    out = {"generator": "bench/data/make_exhaust18.py",
           "oracle": "framestarters.naive_enumerate",
           "counts": counts}
    path = Path(__file__).with_name("exhaust18.json")
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
