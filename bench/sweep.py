"""Run the benchmark over several seeds and summarise the spread per metric.

    python3 bench/sweep.py --workloads decide,table57 --seeds 1-10 \
        --out bench/results/example.json

Each run is `bench/run.py` in a fresh interpreter with the run length from
BENCHMARK.json.  For every metric the summary gives the median, the
quartiles as `statistics.quantiles(values, n=4)` computes them, and their
distance as a share of the median next to a third of the metric's bound.
Use it for before/after comparisons: the same seeds and run length on
both commits.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float], bound: float | None) -> dict:
    med = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
    spread = (q3 - q1) / med if med else 0.0
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread,
           "values": values}
    if bound is not None:
        out["bound"] = bound
        out["within_third_of_bound"] = spread < bound / 3
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="range such as 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            result["run_s"] = time.perf_counter() - started
            runs.append(result)
            print(f"{workload} seed {seed}: {result['run_s']:.1f} s, "
                  f"failed {result['failed']}", flush=True)
        names = runs[0]["metrics"]
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs],
                                   bounds.get(name) if not args.trace else None)
                   for name in names}
        report["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "run_s": [r["run_s"] for r in runs],
            "metrics": summary,
        }
        for name, s in summary.items():
            flag = {True: "", False: "  <-- spread over a third of bound",
                    None: ""}[s.get("within_third_of_bound")]
            print(f"  {workload:9s} {name:40s} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.3f}{flag}")
        if args.out:    # after each workload: an interrupted sweep keeps its runs
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(report, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
