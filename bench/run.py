"""Layered benchmark: decide cells through the public API and time each layer.

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Workloads (one pass asks every question once, in an order shuffled by the
seed; answers and counts must not depend on that order):

  decide     4^7 prove_nonexistence, 3^19 and 5^11 find_first at W=1.
             Almost all time is engine expansion: moved by pruning,
             symmetry and nodes/s, not by the verifier.
  table57    build_row over every admissible type with g <= 57 at a
             400,000-node budget, as build_table(57) does.  Five
             budget-bound cells dominate, so wall time is a nodes/s
             measure and a pruning win shows as a higher `decided`.
  exhaust18  exhaustive_count, symmetry off, on every admissible cyclic
             type with g <= 18 at frame, strong and skew.  Dominated by
             leaf re-verification; a symmetry change should not move it.
  parallel2  4^7 prove_nonexistence and 5^11 find_first at worker_count=2:
             the only workload that runs the process pool.

Times are taken twice: as measured, and scaled by a reference kernel timed
between questions (calibrate.py) to one fixed machine speed.  The gated
end-to-end times are the scaled ones, because this shared machine's speed
drifts by more than a regression bound over minutes; the measured ones are
printed on the line before the result.

`--trace 0` times passes and prints the end-to-end metrics.  `--trace 1`
alternates untraced and traced passes, runs the probes for what no span
isolates, prints the per-layer metrics and writes the spans to
bench/out/.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from calibrate import ref_seconds, scale
from spans import Tracer
from truth import Expected, load_exhaust18, load_table57, problems

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("decide", "table57", "exhaust18", "parallel2")
TABLE_MAX_G = 57
TABLE_BUDGET = 400_000
#: (label, h, u, mode) of the cells the per-cell metrics name.
NAMED_CELLS = (("4_7-prove", 4, 7, "prove_nonexistence"),
               ("3_19-find", 3, 19, "find_first"),
               ("5_11-find", 5, 11, "find_first"))
PARALLEL_CELLS = ("4_7-prove", "5_11-find")
#: Fresh interpreters that repeat the set-up, so `setup_s` is a median.
SETUP_CHILDREN = 10
#: A pass times the reference kernel again once this much work has run.
REF_EVERY_S = 0.5


@dataclass(frozen=True, slots=True)
class Question:
    key: str
    type: object                    # framestarters.StarterType
    expected: Expected | None
    kind: str = "search"            # "search" | "row"
    level: str = "skew"
    mode: str = "find_first"
    workers: int = 1
    symmetry: bool = True
    cell: str | None = None         # label of a named cell


@dataclass(slots=True)
class Answer:
    existence: str                  # "yes" | "no" | "open" | "deep" | "error"
    authority: str
    nodes: int
    leaves: int                     # starters emitted
    seconds: float = 0.0

    def signature(self):
        return (self.existence, self.authority, self.nodes, self.leaves)


@dataclass(slots=True)
class Pass:
    wall: float                                   # as measured
    scaled: float                                 # at reference speed
    answers: list = field(default_factory=list)   # [(Question, Answer)]
    window: list | None = None                    # span index range if traced

    @property
    def nodes(self) -> int:
        return sum(a.nodes for _, a in self.answers)

    @property
    def leaves(self) -> int:
        return sum(a.leaves for _, a in self.answers)

    def count(self, existence=("yes", "no"), authority=None) -> int:
        return sum(a.existence in existence
                   and (authority is None or a.authority == authority)
                   for _, a in self.answers)


class Bench:
    """Set-up state: the package's modules and one workload's questions."""

    def __init__(self, workload: str):
        self.fs = importlib.import_module("framestarters")
        if SRC not in Path(self.fs.__file__).resolve().parents:
            raise RuntimeError(f"framestarters was imported from "
                               f"{self.fs.__file__}, not from {SRC}")
        # The package re-exports the function `search` under the name of
        # its module, so the modules are taken from the import system.
        self.search_mod = importlib.import_module("framestarters.search")
        self.table_mod = importlib.import_module("framestarters.table")
        self.corpus_mod = importlib.import_module("framestarters.corpus")
        self.attempted = self.failed = 0
        self.signatures: dict[str, tuple] = {}
        self.verified: set = set()      # starters that already passed checks
        self.tracer = Tracer((
            (self.table_mod, "build_row", "table.build_row"),
            (self.table_mod, "certify", "theory.certify"),
            (self.table_mod, "search", "search.search"),
            (self.search_mod, "make_starter", "starters.make_starter"),
            (self.search_mod, "verify_skew", "starters.verify_skew"),
            (self.corpus_mod, "load_entries", "corpus.load_entries"),
        ))
        with self.tracer.installed() as self.corpus_window:
            self.corpus = self.corpus_mod.load_entries()
        self.table57 = load_table57()
        if workload == "decide":
            self.questions = self.named(1)
        elif workload == "parallel2":
            self.questions = [q for q in self.named(2)
                              if q.cell in PARALLEL_CELLS]
        elif workload == "table57":
            labels = {(h, u): label for label, h, u, _ in NAMED_CELLS}
            self.questions = [
                Question(str(t), t, self.table57.get(str(t)), kind="row",
                         cell=labels.get((t.h, t.u)))
                for t in self.table_mod.admissible_types(TABLE_MAX_G)]
        elif workload == "exhaust18":
            self.questions = [
                Question(f"{t} {level}", self.fs.StarterType.parse(t), exp,
                         level=level, mode="exhaustive_count", symmetry=False)
                for t, by_level in load_exhaust18().items()
                for level, exp in by_level.items()]
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def named(self, workers: int) -> list[Question]:
        return [Question(f"{label} W{workers}", self.fs.StarterType(h, u),
                         self.table57[f"{h}^{u}"], mode=mode,
                         workers=workers, cell=label)
                for label, h, u, mode in NAMED_CELLS]

    def config(self, q: Question, **changes):
        fields = dict(property=q.level, mode=q.mode, worker_count=q.workers,
                      symmetry_reduction=q.symmetry)
        fields.update(changes)
        return self.fs.SearchConfig(q.type, **fields)

    def ask(self, q: Question) -> tuple[str, str, object]:
        """(existence, authority, SearchOutcome or None) for one question."""
        if q.kind == "row":
            row = self.table_mod.build_row(q.type, deep=False,
                                           budget=TABLE_BUDGET, workers=1)
            existence = row.existence
            if existence == "?":
                existence = "open" if row.outcome is not None else "deep"
            return existence, row.authority, row.outcome
        out = self.tracer.call("search.search", self.search_mod.search,
                               self.config(q))
        existence = ("yes" if out.starters else
                     "no" if out.result == "exhausted_none" else "open")
        return existence, "search" if existence != "open" else "none", out

    def run_pass(self, questions, rng: random.Random) -> Pass:
        """Ask every question once in a shuffled order, then check answers.

        Only the timing, counts and failures are kept, so memory does not
        grow with the number of passes.
        """
        order = rng.sample(questions, len(questions))
        gc.collect()
        raw = []
        wall = scaled = stretch = 0.0
        ref = ref_seconds()
        for i, q in enumerate(order):
            t = time.perf_counter()
            try:
                existence, authority, out = self.ask(q)
            except Exception:       # a question that raises is a failed answer
                traceback.print_exc()
                existence, authority, out = "error", "none", None
            seconds = time.perf_counter() - t
            raw.append((q, existence, authority, out, seconds))
            stretch += seconds
            if stretch >= REF_EVERY_S or i == len(order) - 1:
                ref_after = ref_seconds()
                wall += stretch
                scaled += scale(stretch, ref, ref_after)
                ref, stretch = ref_after, 0.0
        result = Pass(wall, scaled)
        for q, existence, authority, out, seconds in raw:
            starters = out.starters if out is not None else ()
            a = Answer(existence, authority,
                       out.nodes_visited if out is not None else 0,
                       len(starters), seconds)
            result.answers.append((q, a))
            self.check(q, a, starters)
        return result

    def check(self, q: Question, a: Answer, starters) -> None:
        """Count an answer that disagrees with ground truth or with another
        pass's answer to the same question."""
        errs = problems(q.expected, a.existence, a.authority, starters,
                        q.type.g, q.type.h, q.level, self.fs.verify_skew,
                        self.verified)
        sig = self.signatures.setdefault(q.key, a.signature())
        if sig != a.signature():
            errs.append(f"{a.signature()} differs from an earlier pass's {sig}")
        for e in errs:
            print(f"FAILED {q.key}: {e}", file=sys.stderr)
        self.attempted += 1
        self.failed += bool(errs)


def set_up(workload: str) -> tuple[Bench, float]:
    """The set-up and its time at reference speed."""
    ref = ref_seconds()
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    bench = Bench(workload)
    return bench, scale(time.perf_counter() - started, ref, ref_seconds())


def setup_samples(args) -> list[float]:
    samples = []
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload",
             args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return samples


@dataclass(slots=True)
class Runs:
    plain: list = field(default_factory=list)       # untraced passes
    traced: list = field(default_factory=list)      # traced passes (--trace 1)


def run_passes(bench: Bench, args) -> Runs:
    """Passes while the next one fits in --seconds; at least one.

    With --trace 1 every untraced pass is followed by a traced one.
    """
    rng = random.Random(args.seed)
    deadline = time.perf_counter() + args.seconds
    runs = Runs()
    while True:
        started = time.perf_counter()
        runs.plain.append(bench.run_pass(bench.questions, rng))
        if args.trace:
            with bench.tracer.installed() as window:
                runs.traced.append(bench.run_pass(bench.questions, rng))
            runs.traced[-1].window = window
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return runs


def cell_answers(passes: list[Pass]) -> dict[str, list[Answer]]:
    """Answers to the named cells in these passes, keyed by cell label."""
    out: dict[str, list[Answer]] = {label: [] for label, *_ in NAMED_CELLS}
    for p in passes:
        for q, a in p.answers:
            if q.cell:
                out[q.cell].append(a)
    return out


def end_to_end(runs: Runs, setup: list[float]) -> dict:
    plain = runs.plain
    m = {"setup_s": (median(setup), "s"),
         "wall_s": (median(p.scaled for p in plain), "s")}
    m["decided"] = (plain[0].count(), "count")
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    m["peak_rss_mb"] = (rss_kib / 1024, "MB")
    return m


def probe_setup_ms(bench: Bench, plain: Pass) -> float:
    """Mean time of a node_budget=1 search per searched cell, at W=1.

    One node in, the engine has built its candidate table and masks and
    made one branching decision; nothing else of the search has run.
    """
    cells = [q for q, a in plain.answers if a.authority == "search"
             or a.existence == "open"]
    times = []
    for q in cells:
        cfg = bench.config(q, node_budget=1, worker_count=1)
        samples = []
        for _ in range(3):
            t = time.perf_counter()
            bench.search_mod.search(cfg)
            samples.append(time.perf_counter() - t)
        times.append(median(samples))
    return 1000 * sum(times) / len(times)


def probe_pool_startup_ms(bench: Bench) -> float:
    """2^5 find_first (a handful of nodes) at W=2 minus at W=1."""
    q = Question("2^5", bench.fs.StarterType(2, 5), None)
    samples = {1: [], 2: []}
    for _ in range(5):
        for w in (1, 2):
            t = time.perf_counter()
            bench.search_mod.search(bench.config(q, worker_count=w))
            samples[w].append(time.perf_counter() - t)
    return 1000 * (median(samples[2]) - median(samples[1]))


def probe_certify_us(bench: Bench) -> float:
    types = bench.table_mod.admissible_types(TABLE_MAX_G)
    reps = 20
    t = time.perf_counter()
    for _ in range(reps):
        for st in types:
            bench.table_mod.certify(st)
    return 1e6 * (time.perf_counter() - t) / (reps * len(types))


def probe_corpus_verify_us(bench: Bench) -> float:
    reps = 5
    t = time.perf_counter()
    for _ in range(reps):
        for entry in bench.corpus:
            bench.fs.verify_skew(entry.starter)
    return 1e6 * (time.perf_counter() - t) / (reps * len(bench.corpus))


def per_layer(bench: Bench, runs: Runs, parallel: list[Pass]) -> dict:
    tracer = bench.tracer
    traced, plain = runs.traced, runs.plain
    sums = [tracer.summary(p.window) for p in traced]
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def per_pass(f):
        return median(f(s, p) for s, p in zip(sums, traced))

    def ns(s, *names, key="total_ns"):
        return sum(s.get(n, zero)[key] for n in names)

    # Named cells: from this workload's untraced passes where it holds
    # them (at its worker count), otherwise from the W=1 probe.
    serial, pooled = (cell_answers([p]) for p in parallel)
    held = cell_answers(plain)
    cells = {label: held[label] or serial[label] for label in held}

    p0 = traced[0]
    m = {"search.nodes": (p0.nodes, "count")}
    for label, answers in cells.items():
        m[f"search.nodes.{label}"] = (answers[0].nodes, "count")
        m[f"cell_s.{label}"] = (median(a.seconds for a in answers), "s")
    m["search.nodes_per_s"] = (
        per_pass(lambda s, p: p.nodes / (ns(s, "search.search") / 1e9)),
        "1/s")
    m["search.setup_ms"] = (probe_setup_ms(bench, plain[0]), "ms")
    m["search.leaves"] = (p0.leaves, "count")
    m["starters_per_s"] = (median(p.leaves / p.wall for p in plain), "1/s")
    m["search.verify_calls_per_leaf"] = (
        sums[0].get("starters.verify_skew", zero)["calls"] / p0.leaves,
        "count")
    for short, name in (("make_us", "starters.make_starter"),
                        ("verify_us", "starters.verify_skew")):
        m[f"starters.{short}"] = (per_pass(
            lambda s, p: ns(s, name) / 1000 / max(1, s.get(name, zero)
                                                  ["calls"])), "us")
    m["starters.corpus_verify_us"] = (probe_corpus_verify_us(bench), "us")
    m["starters.verify_share"] = (per_pass(
        lambda s, p: ns(s, "starters.make_starter", "starters.verify_skew")
        / 1e9 / p.wall), "ratio")
    m["search.pool_startup_ms"] = (probe_pool_startup_ms(bench), "ms")
    for label, _, _, _ in NAMED_CELLS:
        s1, s2 = serial[label][0], pooled[label][0]
        m[f"search.parallel_node_ratio.{label}"] = (s2.nodes / s1.nodes,
                                                    "ratio")
        m[f"search.parallel_speedup.{label}"] = (s1.seconds / s2.seconds,
                                                 "ratio")
    m["theory.certify_us"] = (probe_certify_us(bench), "us")
    m["theory.certified"] = (p0.count(("no",), "theorem"), "count")
    for layer, names in (("search", ("search.search",)),
                         ("starters", ("starters.make_starter",
                                       "starters.verify_skew")),
                         ("theory", ("theory.certify",)),
                         ("table", ("table.build_row",))):
        m[f"{layer}.self_ms"] = (
            per_pass(lambda s, p: ns(s, *names, key="self_ns") / 1e6), "ms")
    m["corpus.load_ms"] = (
        ns(tracer.summary(bench.corpus_window), "corpus.load_entries") / 1e6,
        "ms")
    m["trace.overhead_ms"] = (
        1000 * (median(p.scaled for p in traced)
                - median(p.scaled for p in plain)),
        "ms")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "framestarters" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    bench, setup_s = set_up(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    runs = run_passes(bench, args)
    if args.trace:
        rng = random.Random(args.seed)
        parallel = [bench.run_pass(bench.named(w), rng) for w in (1, 2)]
        metrics = per_layer(bench, runs, parallel)
        bench.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(runs, [setup_s] + setup_samples(args))

    print(f"{args.workload}: {len(runs.plain)} passes; pass s as measured "
          + " ".join(f"{p.wall:.3f}" for p in runs.plain)
          + "; at reference speed "
          + " ".join(f"{p.scaled:.3f}" for p in runs.plain))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
