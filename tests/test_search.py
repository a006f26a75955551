import concurrent.futures
import functools
import importlib
import os
import re
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

import framestarters
from framestarters import (
    FrameStarterError,
    GroupSpec,
    InvalidTypeError,
    SearchConfig,
    StarterType,
    naive_enumerate,
    search,
    verify_skew,
)
from framestarters.serialize import format_pairs
from framestarters.starters import LEVELS

search_mod = importlib.import_module("framestarters.search")
native_mod = importlib.import_module("framestarters.native")
oracle_mod = importlib.import_module("framestarters.oracle")
pykernel_mod = importlib.import_module("framestarters.pykernel")


def cfg(h, u, level="skew", mode="find_first", **kw):
    return SearchConfig(StarterType(h, u), property=level, mode=mode, **kw)


def test_config_validation(monkeypatch):
    with pytest.raises(InvalidTypeError):
        SearchConfig(StarterType(1, 7), property="weird")
    with pytest.raises(InvalidTypeError):
        SearchConfig(StarterType(1, 7), mode="count_all")
    with pytest.raises(InvalidTypeError):
        SearchConfig(StarterType(1, 7), node_budget=0)
    with pytest.raises(InvalidTypeError):
        search(cfg(1, 201, node_budget=1))  # above the g ceiling, budget or not
    with pytest.raises(InvalidTypeError):
        SearchConfig(StarterType(1, 7), worker_count=0)
    with pytest.raises(InvalidTypeError):
        SearchConfig(StarterType(1, 7), progress_interval=-1)
    with pytest.raises(InvalidTypeError):
        search(SearchConfig(StarterType(3, 4)))  # odd g - h
    with pytest.raises(FrameStarterError):
        search(cfg(1, 61))  # g > 60 needs an explicit budget
    # every search rule is checked when the config is built
    with pytest.raises(InvalidTypeError):
        SearchConfig(StarterType(3, 4))
    with pytest.raises(InvalidTypeError):
        SearchConfig(StarterType(1, 61))
    with pytest.raises(InvalidTypeError):
        SearchConfig(StarterType(1, 201), node_budget=1)
    # a count needs the whole tree, so it never runs symmetry-reduced
    assert not SearchConfig(StarterType(1, 7), mode="exhaustive_count") \
        .symmetry_reduction

    # The budget rule comes before the engine's O(g^2)-time set-up.
    def no_engine(*args):
        raise AssertionError("engine built before the budget check")

    monkeypatch.setattr(search_mod, "Engine", no_engine)
    with pytest.raises(FrameStarterError):
        search(cfg(1, 100001))


def test_spec_search_examples():
    assert search(cfg(3, 7, mode="prove_nonexistence")).result == "exhausted_none"
    out = search(cfg(4, 5))
    assert out.result == "found"
    assert verify_skew(out.starters[0]).holds("skew")
    assert search(cfg(6, 5, mode="prove_nonexistence")).result == "exhausted_none"


def test_search_strong_examples(strong_3_7):
    out = search(cfg(5, 5, level="strong", mode="prove_nonexistence"))
    assert out.result == "exhausted_none"
    assert out.config.property == "strong"
    assert search(cfg(2, 5, level="strong")).result == "found"
    assert search(cfg(1, 7)).result == "found"
    assert search(cfg(3, 7, level="strong")).starters == (strong_3_7,)


def test_found_starters_are_verified():
    for h, u in ((2, 5), (4, 5), (1, 7), (5, 7)):
        out = search(cfg(h, u))
        assert out.result == "found"
        report = verify_skew(out.starters[0])
        assert report.holds("skew")
        assert (out.starters[0].h, out.starters[0].u) == (h, u)


def test_unverified_candidate_raises(monkeypatch):
    # the verifier is the last word: a candidate it rejects is an engine bug
    class Failing:
        witness = "frame: planted"

        def holds(self, level):
            return False

    monkeypatch.setattr(search_mod, "verify_skew", lambda s: Failing())
    with pytest.raises(RuntimeError, match="planted"):
        search(cfg(2, 5))


def test_search_formats_no_witness(monkeypatch):
    # A frame-level count of 2^9 emits 4,800 starters, most of them not
    # skew; the search reads only holds(level), so no witness is formatted.
    starters_mod = importlib.import_module("framestarters.starters")

    def formatted(*columns):
        raise AssertionError("a witness was formatted on the search path")

    monkeypatch.setattr(starters_mod, "_violations", formatted)
    out = search(cfg(2, 9, "frame", "exhaustive_count"))
    assert len(out.starters) == 4800
    monkeypatch.undo()
    sample = [s for s in out.starters[::50] if not verify_skew(s).holds("skew")]
    assert len(sample) > 50
    for s in sample:
        assert verify_skew(s).witness == verify_skew(s).witnesses[0]


def _leaves(by_root):
    """The leaves of `Engine.run`'s map from root to leaves, in tree order."""
    return [leaf for leaves in by_root.values() for leaf in leaves]


def test_starters_are_the_raw_pairings_in_tree_order():
    # every exhaust18 cell with g <= 14 at every level: the starters hold,
    # in order, the engine's leaves as they come (tree order, root by root,
    # each leaf ascending), with their group's rows
    for t in (StarterType(h, u) for h in range(1, 15) for u in range(2, 15)
              if h * u <= 14 and (h * u - h) % 2 == 0):
        for level in LEVELS:
            c = SearchConfig(t, property=level, mode="exhaustive_count")
            engine = search_mod.Engine(t, level, False)
            by_root, _, _ = engine.run(c, engine.roots())
            assert list(by_root) == sorted(by_root), (t, level)
            out = search(c)
            assert [s.pairs for s in out.starters] == _leaves(by_root), \
                (t, level)
            for s in out.starters:
                assert list(s.pairs) == sorted(s.pairs)
                assert s.codes == s.group.pair_codes(s.pairs)


def test_starters_of_one_search_share_pairs(monkeypatch):
    t = StarterType(1, 11)
    out = search(SearchConfig(t, property="frame", mode="exhaustive_count"))
    a, b = out.starters[:2]
    shared = [(p, q) for p in a.pairs for q in b.pairs if p == q]
    assert shared and all(p is q for p, q in shared)
    # the oracle builds its own Pairs, without the search's table
    def no_table(table, code):
        raise AssertionError("naive_enumerate read the search's pair table")

    monkeypatch.setattr(search_mod._Pairs, "__missing__", no_table)
    naive = naive_enumerate(t, "frame")
    assert {s.pairs for s in out.starters} == {s.pairs for s in naive}
    searched = {id(p) for s in out.starters for p in s.pairs}
    assert not any(id(p) in searched for s in naive for p in s.pairs)


@pytest.mark.parametrize("kernel", ["native", "python"])
def test_one_search_builds_each_pair_once(kernel, monkeypatch, request):
    # A search builds the Pair of a placement when a leaf first holds it,
    # decoding its two members alone, and every starter shares that Pair.
    if kernel == "native":
        request.getfixturevalue("native")
    else:
        monkeypatch.setattr(native_mod, "load_kernel", lambda: None)
    built, decoded = [], []
    pair, decode = search_mod.Pair, GroupSpec.decode

    def build(a, b):
        built.append((a, b))
        return pair(a, b)

    def spy(self, code):
        decoded.append(code)
        return decode(self, code)

    monkeypatch.setattr(search_mod, "Pair", build)
    monkeypatch.setattr(GroupSpec, "decode", spy)
    for c, leaves in ((cfg(2, 9, "frame", "exhaustive_count"), 4800),
                      (cfg(3, 19), 1)):  # 30,590 nodes, one leaf
        built.clear()
        decoded.clear()
        out = search(c)
        assert (out.kernel, len(out.starters)) == (kernel, leaves)
        held = [p for s in out.starters for p in s.pairs]
        assert len(built) == len(set(held)) == len(set(map(id, held)))
        assert sorted(decoded) == sorted(x.coords[0] for p in set(held)
                                         for x in p)


def test_frame_count_reads_the_table_once_per_starter(monkeypatch):
    # one batch before the first starter, then one read per constructor;
    # the verifier reads each starter's own codes, the group's shared rows
    calls = []
    pair_codes = GroupSpec.pair_codes

    def spy(self, pairs):
        calls.append(len(pairs))
        return pair_codes(self, pairs)

    monkeypatch.setattr(GroupSpec, "pair_codes", spy)
    out = search(cfg(2, 9, "frame", "exhaustive_count"))
    assert (out.nodes_visited, len(out.starters)) == (35127, 4800)
    assert len(calls) == 4801
    a, b = out.starters[:2]
    shared = [(x, y) for p, x in zip(a.pairs, a.codes)
              for q, y in zip(b.pairs, b.codes) if p == q]
    assert shared and all(x is y for x, y in shared)


def test_naive_enumerate_walks_each_type_once(monkeypatch):
    # with a cache of its own, 1^9 walks its 7!! = 105 pairings once, each
    # tested once for all three levels
    tested = []
    properties = oracle_mod._pairing_properties

    def spy(g, r, pairs):
        tested.append(tuple(pairs))
        return properties(g, r, pairs)

    monkeypatch.setattr(oracle_mod, "_pairing_properties", spy)
    monkeypatch.setattr(oracle_mod, "_naive_pairings",
                        functools.lru_cache(maxsize=1)(
                            oracle_mod._naive_pairings.__wrapped__))
    t = StarterType(1, 9)
    found = {level: naive_enumerate(t, level) for level in LEVELS}
    assert len(tested) == len(set(tested)) == 105
    assert found == {level: naive_enumerate(t, level) for level in LEVELS}
    assert len(tested) == 105
    frame, strong, skew = ({s.pairs for s in found[level]} for level in LEVELS)
    assert skew <= strong <= frame and frame


def test_oracle_equivalence_small_sample():
    # the full g <= 16 sweep lives in the acceptance suite
    for h, u in ((1, 7), (2, 5), (1, 9), (4, 3)):
        t = StarterType(h, u)
        for level in ("frame", "strong", "skew"):
            naive = naive_enumerate(t, level)
            out = search(SearchConfig(t, property=level, mode="exhaustive_count",
                                      symmetry_reduction=False))
            assert len(out.starters) == len(naive), (h, u, level)
            assert set(s.pairs for s in out.starters) == \
                set(s.pairs for s in naive)


def test_symmetry_reduction_preserves_existence():
    for h, u in ((1, 7), (1, 9), (2, 5), (2, 8), (3, 5), (4, 5), (2, 9)):
        for level in ("frame", "strong", "skew"):
            on = search(SearchConfig(StarterType(h, u), property=level,
                                     mode="find_first", symmetry_reduction=True))
            off = search(SearchConfig(StarterType(h, u), property=level,
                                      mode="find_first", symmetry_reduction=False))
            assert (on.result == "found") == (off.result == "found"), (h, u, level)


def test_symmetry_explores_orbit_representatives():
    roots_on = search_mod.Engine(StarterType(1, 9), "skew", True).roots()
    roots_off = search_mod.Engine(StarterType(1, 9), "skew", False).roots()
    g = 9
    assert set(roots_on) <= set(roots_off)
    # every off-root's negation orbit has a representative among the on-roots
    for x, y in roots_off:
        assert (x, y) in roots_on or (g - 1 - x, g - x) in roots_on


def test_determinism_single_worker():
    a = search(cfg(3, 13))
    b = search(cfg(3, 13))
    assert a.nodes_visited == b.nodes_visited
    assert a.starters == b.starters
    assert a.result == b.result


def _check_parallel_equivalence():
    base = dict(level="skew", mode="exhaustive_count", symmetry_reduction=False)
    seq = search(cfg(2, 5, **base, worker_count=1))
    par = search(cfg(2, 5, **base, worker_count=3))
    assert seq.starters == par.starters
    assert seq.result == par.result == "found"
    assert len({id(s.subgroup) for s in par.starters}) == 1  # one (Z_g, H)

    # find_first reports the serial witness, not the first of the slices
    seq = search(cfg(1, 15, level="strong", worker_count=1))
    for w in (2, 3):
        par = search(cfg(1, 15, level="strong", worker_count=w))
        assert par.starters == seq.starters, w

    for h, u in ((1, 9), (2, 8), (3, 5)):
        for level in ("frame", "strong", "skew"):
            kw = dict(level=level, mode="exhaustive_count",
                      symmetry_reduction=False)
            seq = search(cfg(h, u, **kw, worker_count=1))
            par = search(cfg(h, u, **kw, worker_count=2))
            assert seq.starters == par.starters, (h, u, level)
            assert seq.result == par.result, (h, u, level)

    seq = search(cfg(4, 7, mode="prove_nonexistence", worker_count=1))
    par = search(cfg(4, 7, mode="prove_nonexistence", worker_count=2))
    assert seq.result == par.result == "exhausted_none"
    assert seq.nodes_visited == par.nodes_visited == 13940
    assert seq.kernel == par.kernel  # chosen once, for every slice


def test_parallel_equivalence():
    _check_parallel_equivalence()  # every tree here ends in the head start


def test_parallel_equivalence_past_head_start(monkeypatch):
    # A head start of a few nodes sends the same cells to a real pool.
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(search_mod, "_CHUNK", 3)
    _check_parallel_equivalence()
    assert len(started) == 13  # every W > 1 search above fanned out


def test_pool_sized_by_root_slices(monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    kw = dict(mode="exhaustive_count", symmetry_reduction=False)
    assert search(cfg(2, 5, worker_count=32)).result == "found"
    assert search(cfg(1, 11, **kw, worker_count=3)).result == "found"
    assert sizes == []  # both trees end in the head start: no pool
    monkeypatch.setattr(search_mod, "_CHUNK", 1)
    assert search(cfg(1, 7, worker_count=32)).result == "found"  # 2 roots
    assert sizes == [2]
    out = search(cfg(4, 2, mode="prove_nonexistence", worker_count=4))
    assert out.result == "exhausted_none"  # no roots: no pool at all
    assert sizes == [2]
    seq = search(cfg(1, 11, **kw))  # 8 roots
    par = search(cfg(1, 11, **kw, worker_count=3))
    assert sizes == [2, 3]
    assert par.starters == seq.starters and len(par.starters) == 4
    assert par.nodes_visited == seq.nodes_visited  # the head start not counted


def test_head_start_progress_matches_one_worker():
    events = {}
    for w in (1, 2):
        seen = events[w] = []
        c = cfg(4, 7, mode="prove_nonexistence", progress_interval=5_000,
                worker_count=w)
        search(c, lambda nodes, depth, _: seen.append((nodes, depth)))
    assert [n for n, _ in events[1]] == [5_000, 10_000]
    assert events[2] == events[1]
    # a budget past the head start is walked in order, with every event
    for w in (1, 2):
        seen = events[w] = []
        c = cfg(6, 9, node_budget=400_000, progress_interval=100_000,
                worker_count=w)
        search(c, lambda nodes, depth, _: seen.append((nodes, depth)))
    assert [n for n, _ in events[1]] == [100_000, 200_000, 300_000, 400_000]
    assert events[2] == events[1]


def test_import_loads_no_process_pool():
    code = ("import sys, framestarters; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))")
    src = str(Path(framestarters.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cached_kernel_search_imports_no_build_modules(native):
    # only a kernel build needs subprocess and platform; the library is
    # cached now, and -I -S keeps site and the environment from loading them
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from framestarters import SearchConfig, StarterType, search; "
            "out = search(SearchConfig(StarterType(4, 7), "
            "mode='prove_nonexistence')); "
            "print(out.kernel, *sorted({'subprocess', 'platform'} "
            "& set(sys.modules)))")
    src = str(Path(framestarters.__file__).parents[1])
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["native"]


def test_parallel_find_first():
    out = search(cfg(5, 7, worker_count=2))
    assert out.result == "found"
    assert verify_skew(out.starters[0]).holds("skew")
    assert out.starters == search(cfg(5, 7, worker_count=1)).starters


def test_budget_exceeded(monkeypatch):
    for w in (1, 2):
        out = search(cfg(6, 9, node_budget=5000, worker_count=w))
        assert out.result == "budget_exceeded"
        assert out.nodes_visited == 5000
        assert out.starters == ()
    out = search(cfg(6, 9, node_budget=300_000, worker_count=2))
    assert out.result == "budget_exceeded"
    assert out.nodes_visited == 300_000
    # A budget past the head start cuts the serial walk at every worker
    # count; a pool given 1/W of the budget each found a starter here
    # that the serial walk reaches only past the budget.
    monkeypatch.setattr(search_mod, "_CHUNK", 16)
    for budget in (1722, 2871, 4020, 5168):
        seq, par = (search(cfg(3, 13, node_budget=budget, worker_count=w))
                    for w in (1, 2))
        assert (par.result, par.nodes_visited, par.starters) \
            == (seq.result, seq.nodes_visited, seq.starters) \
            == ("budget_exceeded", budget, ()), budget


def test_budgeted_config_has_one_worker():
    c = cfg(3, 13, node_budget=1000, worker_count=2)
    assert c.worker_count == 1
    assert cfg(3, 13, worker_count=2).worker_count == 2  # no budget
    with pytest.raises(InvalidTypeError):  # still checked first
        cfg(3, 13, node_budget=1000, worker_count=0)


def test_exhaustive_count_with_budget_reports_partial():
    full = search(cfg(1, 7, mode="exhaustive_count", symmetry_reduction=False))
    assert full.result == "found" and len(full.starters) == 2
    cut = search(cfg(1, 7, mode="exhaustive_count", symmetry_reduction=False,
                     node_budget=full.nodes_visited - 1))
    assert cut.result == "budget_exceeded"


def test_structurally_empty_type_exhausts_immediately():
    out = search(cfg(4, 2, mode="prove_nonexistence"))
    assert out.result == "exhausted_none"
    assert out.nodes_visited == 0


def test_canonical_first_branch_walkthrough():
    engine = search_mod.Engine(StarterType(1, 7), "skew", True)

    def branch(*placed):
        return pykernel_mod.branch(engine, *_skew_state(7, placed),
                                   engine.root_masks(placed[0][0]))

    # no requirement of Z_7 has more than 3 placements, so the sum classes
    # are never scanned (test_sum_class_branch_on_both_kernels scans them)
    assert engine.roots() == [(1, 2), (2, 3)]
    assert branch((2, 3)) == [(1, 5)]
    assert branch((2, 3), (1, 5)) == [(4, 6)]
    assert branch((1, 2)) == []  # provably dead state
    assert branch((2, 3), (1, 5), (4, 6)) == []  # complete
    assert not engine.partners[1] >> 6 & 1  # the pair's sum lies in H
    out = search(cfg(1, 7))
    assert out.nodes_visited == 4
    assert format_pairs(out.starters[0]) == "{1, 5}, {2, 3}, {4, 6}"


def test_wall_time_and_config_echo():
    out = search(cfg(2, 5))
    assert out.wall_time >= 0
    assert out.config.target_type == StarterType(2, 5)


def test_wall_time_leaves_out_the_kernel_load(monkeypatch):
    # a first search's one-time kernel load or build is not the search's
    # time; the first call of load_kernel pays it, later calls are cached
    load, delays = native_mod.load_kernel, iter([0.05])

    def slow_first_load():
        time.sleep(next(delays, 0))
        return load()

    monkeypatch.setattr(native_mod, "load_kernel", slow_first_load)
    assert search(cfg(2, 5)).wall_time < 0.05


def test_naive_enumerate_guards():
    with pytest.raises(InvalidTypeError):
        naive_enumerate(StarterType(3, 4), "skew")


# ---------------------------------------------------------------------------
# The native kernel walks the Python stepper's tree: same pairings, nodes
# and cuts.

def _both_kernels(engine, c, roots):
    """Both kernels' walks, whose leaves are the same objects, the search's
    own Pairs, each leaf ascending by (lo, hi)."""
    py, nat = engine.run(c, roots), engine.run(c, roots, native=True)
    for a, b in zip(_leaves(py[0]), _leaves(nat[0])):
        assert all(p is q for p, q in zip(a, b)) and len(a) == len(b)
        assert all(p.second > p.first for p in a)
        assert all(p.first < q.first for p, q in zip(a, a[1:])), a
    return py, nat


def test_native_parity_oracle_sweep(native):
    for t in (StarterType(h, u) for h in range(1, 17) for u in range(2, 17)):
        if t.g > 16 or not t.admissible:
            continue
        for level in LEVELS:
            c = SearchConfig(t, property=level, mode="exhaustive_count")
            for symmetry in (True, False):  # the whole tree, reduced or not
                engine = search_mod.Engine(t, level, symmetry)
                py, nat = _both_kernels(engine, c, engine.roots())
                assert py == nat, (str(t), level, symmetry)


@pytest.mark.parametrize("h, u, mode, nodes", [
    (4, 7, "prove_nonexistence", 13_940),
    (3, 19, "find_first", 30_590),
    (5, 11, "find_first", 13_151),
])
def test_native_parity_named_cells(native, h, u, mode, nodes):
    c = cfg(h, u, mode=mode)
    engine = search_mod.Engine(c.target_type, "skew", True)
    py, nat = _both_kernels(engine, c, engine.roots())
    assert py == nat
    assert py[1] == nodes and len(py[0]) == (mode == "find_first")


@pytest.mark.parametrize("kernel", ["native", "python"])
def test_each_roots_masks_built_when_the_walk_reaches_it(kernel, monkeypatch,
                                                         request):
    if kernel == "native":
        request.getfixturevalue("native")
    called = []
    build = search_mod.Engine.root_masks

    def spy(self, x):
        called.append(x)
        return build(self, x)

    monkeypatch.setattr(search_mod.Engine, "root_masks", spy)
    for h, u, mode, nodes, leaves, reached in (
            (3, 19, "find_first", 30_590, 1, [1]),  # a witness under root 1
            (5, 11, "find_first", 13_151, 1, [1]),
            (4, 7, "prove_nonexistence", 13_940, 0, [1, 2])):  # every root
        c = cfg(h, u, mode=mode)
        engine = search_mod.Engine(c.target_type, "skew", True)
        roots = engine.roots()
        assert len(roots) >= 2
        called.clear()
        raw, n, _ = engine.run(c, roots, native=kernel == "native")
        assert (n, len(raw), called) == (nodes, leaves, reached), (h, u)


@pytest.mark.parametrize("h, u, level, budget", [
    (2, 32, "skew", 20_000),
    (8, 8, "skew", 20_000),
    (4, 16, "strong", 1_000_000),  # g > 60 needs a budget; it finds first
    (2, 32, "frame", 1_000_000),
])
def test_native_parity_at_the_widest_masks(native, h, u, level, budget):
    # At g = 64 the difference bits and the mask rotations reach bit 63.
    # The worker's stride of roots starts at a root with a filtered row.
    for symmetry in (True, False):
        c = cfg(h, u, level, node_budget=budget, symmetry_reduction=symmetry)
        engine = search_mod.Engine(c.target_type, level, symmetry)
        roots = engine.roots()
        py, nat = _both_kernels(engine, c, roots)
        assert py == nat, symmetry
        assert py[2] if budget == 20_000 else len(py[0]) == 1, symmetry
        py, nat = _both_kernels(engine, c, roots[1::2])
        assert py == nat, symmetry


def _walk_shape(engine, root, native, limit=None):
    """The depth of each node below one root, in walk order, and the leaves:
    the stepper pauses before every node, up to limit nodes."""
    start = (native_mod if native else pykernel_mod).walker(engine, False)
    step = start(root, engine.root_masks(root[0]))
    depths, leaves = [], []
    while limit is None or len(depths) < limit:
        status, _, depth, found = step(len(depths))
        leaves += found
        if status == search_mod._DONE:
            break
        if status == search_mod._PAUSE:  # before node number len(depths)
            depths.append(depth)
    return depths, leaves


def _skew_state(g, placed):
    """The members, +-differences and +-sums of the placed pairs."""
    state = [0, 0, 0]
    for x, y in placed:
        d, s = (y - x) % g, (x + y) % g
        for i, mask in enumerate((1 << x | 1 << y, 1 << d | 1 << -d % g,
                                  1 << s | 1 << -s % g)):
            state[i] |= mask
    return state


def test_sum_class_branch_on_both_kernels(native):
    # 2^7 below the root {1, 2}: the tightest element, 4, has 4 placements
    # and the sum class {5, 9} 3, so each kernel opens 3 children, not 4.
    engine = search_mod.Engine(StarterType(2, 7), "skew", True)
    state = _skew_state(14, [(1, 2)])
    for sum_mask, want in ((engine.sum_mask, [(3, 6), (8, 11), (10, 13)]),
                           (0, [(4, 6), (4, 8), (4, 9), (4, 12)])):
        engine.sum_mask = sum_mask  # 0: no sum-class scan
        assert pykernel_mod.branch(engine, *state, engine.root_masks(1)) == want
        py, nat = (_walk_shape(engine, (1, 2), kernel)
                   for kernel in (False, True))
        assert py == nat and py[0].count(1) == len(want), sum_mask
    # 2^9 below the root {2, 3}: the sum class {3, 15} has no placement
    # left, so the root is a dead end; without the scan the walk goes on.
    engine = search_mod.Engine(StarterType(2, 9), "skew", True)
    state = _skew_state(18, [(2, 3)])
    assert pykernel_mod.branch(engine, *state, engine.root_masks(2)) == []
    for kernel in (False, True):
        assert _walk_shape(engine, (2, 3), kernel) == ([0], []), kernel
    engine.sum_mask = 0
    assert len(pykernel_mod.branch(engine, *state, engine.root_masks(2))) == 5
    assert len(_walk_shape(engine, (2, 3), True)[0]) > 1


@pytest.mark.parametrize("h, u, limit", [
    (3, 9, None),   # odd g = 27, the whole tree
    (6, 5, None),   # even g = 30
    (2, 32, 1_000),  # g = 64, the first nodes of each root
    (8, 8, 1_000),
])
def test_native_parity_where_sum_classes_branch(native, h, u, limit):
    # Node by node, both kernels walk the same tree, and it is not the
    # tree without the sum-class scan.
    engine = search_mod.Engine(StarterType(h, u), "skew", True)

    def shapes():
        py, nat = ([_walk_shape(engine, root, kernel, limit)
                    for root in engine.roots()] for kernel in (False, True))
        assert py == nat, engine.sum_mask
        return py

    scanned = shapes()
    engine.sum_mask = 0  # no sum-class scan
    assert shapes() != scanned


def test_native_parity_budget_cuts(native):
    cells = ((3, 7, "prove_nonexistence", (1, 2, 500, 562, 563, 564)),
             (1, 11, "exhaustive_count", (1, 20, 40, 67, 68, 69)),
             (6, 9, "find_first", (1_000, 4_321)))
    for h, u, mode, budgets in cells:
        for budget in budgets:
            c = cfg(h, u, mode=mode, node_budget=budget)
            engine = search_mod.Engine(c.target_type, "skew",
                                       c.symmetry_reduction)
            py, nat = _both_kernels(engine, c, engine.roots())
            assert py == nat, (h, u, budget)
    # the budget applies at node budget + 1, exactly as in the Python kernel
    c = cfg(3, 7, mode="prove_nonexistence", node_budget=562)
    engine = search_mod.Engine(c.target_type, "skew", True)
    assert engine.run(c, engine.roots(), native=True) == ({}, 562, True)


@pytest.mark.parametrize("h, u, mode", [
    (3, 7, "prove_nonexistence"),  # with the symmetry reduction
    (4, 7, "prove_nonexistence"),
    (1, 11, "exhaustive_count"),  # without it
])
def test_walk_across_root_boundaries(native, monkeypatch, h, u, mode):
    # Engine.run enters each root: a budget, a progress event or a head
    # start that falls on the end of a root's subtree, or one node either
    # side of it, must give what it gives inside one.
    c = cfg(h, u, mode=mode)
    engine = search_mod.Engine(c.target_type, "skew", c.symmetry_reduction)
    roots = engine.roots()
    ends = [engine.run(c, roots[:i])[1] for i in range(1, len(roots) + 1)]
    total = ends[-1]
    assert len(ends) >= 2 and ends == sorted(set(ends)), ends
    for end in ends:
        for budget in (end - 1, end, end + 1):
            b = cfg(h, u, mode=mode, node_budget=budget)
            py, nat = _both_kernels(engine, b, roots)
            assert py == nat, (budget, ends)
            assert py[1:] == (min(budget, total), budget < total), budget
        for interval in (end, end + 1):
            p = cfg(h, u, mode=mode, progress_interval=interval)
            runs = []
            for kernel in (False, True):
                events = []
                result = engine.run(
                    p, roots,
                    lambda nodes, depth, _: events.append((nodes, depth)),
                    native=kernel)
                runs.append((result, events))
            assert runs[0] == runs[1], (interval, ends)
            assert [n for n, _ in events] == \
                list(range(interval, total + 1, interval)), interval
            if interval == end + 1 <= total:  # before the next root's node
                assert events[0] == (end + 1, 0), interval
    seq = search(c)
    for end in ends:
        monkeypatch.setattr(search_mod, "_CHUNK", end)
        par = search(cfg(h, u, mode=mode, worker_count=2))
        assert (par.result, par.starters, par.nodes_visited) == \
            (seq.result, seq.starters, seq.nodes_visited), end


def test_native_progress_events(native):
    for interval, budget in ((100, None), (100, 300), (1, None), (7, 100)):
        c = cfg(3, 7, mode="prove_nonexistence", progress_interval=interval,
                node_budget=budget)
        engine = search_mod.Engine(c.target_type, "skew", True)
        seen = {}
        for kernel in (False, True):
            events = seen[kernel] = []
            result = engine.run(
                c, engine.roots(),
                lambda nodes, depth, _: events.append((nodes, depth)),
                native=kernel)
            events.append(result)
        assert seen[False] == seen[True], (interval, budget)
    c = cfg(3, 7, mode="prove_nonexistence", progress_interval=100)
    events = []
    search(c, lambda nodes, depth, _: events.append(nodes))
    assert events == [100, 200, 300, 400, 500]


@pytest.mark.parametrize("kernel", ["native", "python"])
def test_search_result_under_each_kernel(kernel, monkeypatch, request):
    if kernel == "native":
        request.getfixturevalue("native")
    else:
        monkeypatch.setattr(native_mod, "load_kernel", lambda: None)
    for c, result, nodes, leaves in (
            (cfg(3, 19), "found", 30_590, 1),
            (cfg(5, 11), "found", 13_151, 1),
            (cfg(4, 7, mode="prove_nonexistence"), "exhausted_none", 13_940, 0),
            (cfg(4, 11, node_budget=10_000), "budget_exceeded", 10_000, 0)):
        out = search(c)
        assert (out.result, out.nodes_visited, len(out.starters), out.kernel) \
            == (result, nodes, leaves, kernel), c.target_type


def test_failed_kernel_build_falls_back_to_python(monkeypatch, tmp_path):
    before = search(cfg(5, 7))
    broken = tmp_path / "_kernel.c"
    broken.write_text("#error this kernel does not compile\n")
    monkeypatch.setattr(native_mod, "_KERNEL_SOURCE", broken)
    monkeypatch.setattr(native_mod, "load_kernel",
                        functools.cache(native_mod.load_kernel.__wrapped__))
    after = search(cfg(5, 7))
    assert after.kernel == "python"
    assert (after.result, after.nodes_visited, after.starters) == \
        (before.result, before.nodes_visited, before.starters)
    assert not any((tmp_path / "__pycache__").iterdir())  # no temp file left
    assert native_mod.load_kernel() is None  # the failure is remembered


def test_kernel_constants_match_python():
    # _kernel.c's masks are uint64_t, one bit per element, and its branch
    # scans the sum classes above the same count as pykernel.branch, so the
    # kernel's two shared #defines must equal their Python twins
    defines = {name: int(value) for name, value in re.findall(
        r"^#define (\w+) +(\d+)\b", native_mod._KERNEL_SOURCE.read_text(),
        re.MULTILINE)}
    assert defines["MAXG"] == native_mod.MAX_ORDER == 64
    assert defines["SUM_SCAN_ABOVE"] == search_mod._SUM_SCAN_ABOVE


def _library_name(source):
    key = source.read_bytes() + native_mod._host_cpu()
    return f"_kernel-{zlib.crc32(key):08x}.so"


def test_kernel_builds_into_a_fresh_cache(native, tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    source.write_bytes(native_mod._KERNEL_SOURCE.read_bytes())
    cache = tmp_path / "__pycache__"
    lib = native_mod._build_kernel(source)
    assert lib.fs_size() > 0
    assert [p.name for p in cache.iterdir()] == [_library_name(source)]
    native_mod._build_kernel(source)  # a second load reuses the library
    assert len(list(cache.iterdir())) == 1
    # a checkout shared with another kind of CPU builds a library for it
    monkeypatch.setattr(native_mod, "_host_cpu", lambda: b"flags\t: other")
    native_mod._build_kernel(source)
    assert len(list(cache.iterdir())) == 2


def test_rejected_host_flag_still_builds_a_native_kernel(native, tmp_path,
                                                         monkeypatch):
    source = tmp_path / "_kernel.c"
    source.write_bytes(native_mod._KERNEL_SOURCE.read_bytes())
    monkeypatch.setattr(native_mod, "_CC_COMMANDS",
                        (("cc", "-O2", "-march=no-such-cpu"), ("cc", "-O2")))
    lib = native_mod._build_kernel(source)
    monkeypatch.setattr(native_mod, "load_kernel", lambda: lib)
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == \
        [_library_name(source)]  # and no temporary file left
    for h, u in ((4, 7), (3, 7)):
        c = cfg(h, u, mode="prove_nonexistence")
        engine = search_mod.Engine(c.target_type, "skew", True)
        py, nat = _both_kernels(engine, c, engine.roots())
        assert py == nat and py[0] == {}, (h, u)
        assert search(c).kernel == "native"


@pytest.mark.parametrize("kernel", ["native", "python"])
def test_progress_exception_propagates_from_each_kernel(kernel, monkeypatch,
                                                        request):
    if kernel == "native":
        request.getfixturevalue("native")
    else:
        monkeypatch.setattr(native_mod, "load_kernel", lambda: None)

    def interrupt(nodes, depth, elapsed):
        raise RuntimeError(f"stopped at node {nodes}")

    c = cfg(3, 7, mode="prove_nonexistence", progress_interval=500)
    with pytest.raises(RuntimeError, match="stopped at node 500"):
        search(c, interrupt)


def test_pause_and_resume_every_few_nodes(native, monkeypatch):
    # None of these trees reaches _CHUNK (2^18) nodes, which only 6^9's
    # 300k and 400k budgets above cross; at 7 every walk below pauses and
    # resumes many times, and must return what one uninterrupted walk does.
    def walk(c):
        engine = search_mod.Engine(c.target_type, "skew", c.symmetry_reduction)
        roots = engine.roots()
        runs = []
        for kernel in (False, True):
            events = []
            result = engine.run(
                c, roots, lambda nodes, depth, _: events.append((nodes, depth)),
                native=kernel)
            silent = engine.run(c, roots, native=kernel)  # no progress pauses
            runs.append((result, events, silent))
        return runs

    # 4^7 pauses across root changes, each root with its own masks.
    for c in (cfg(3, 7, mode="prove_nonexistence", progress_interval=100),
              cfg(4, 7, mode="prove_nonexistence", progress_interval=10_000),
              cfg(1, 11, mode="exhaustive_count", progress_interval=10),
              cfg(6, 9, node_budget=4_321, progress_interval=1_000)):
        whole = walk(c)
        with monkeypatch.context() as m:
            m.setattr(search_mod, "_CHUNK", 7)
            chunked = walk(c)
        assert whole[0] == whole[1] == chunked[0] == chunked[1], c.target_type
        assert whole[0][1], c.target_type  # progress events were compared


def test_native_parity_across_leaf_batches(native, monkeypatch):
    # A batch of 3 leaves puts batch ends all through every count, so budget
    # cuts, progress pauses and the tree's end fall inside a batch.
    monkeypatch.setattr(native_mod, "_BATCH", 3)
    for t in (StarterType(h, u) for h in range(1, 17) for u in range(2, 17)):
        if t.g > 16 or not t.admissible:
            continue
        for level in LEVELS:
            c = SearchConfig(t, property=level, mode="exhaustive_count")
            engine = search_mod.Engine(t, level, False)
            py, nat = _both_kernels(engine, c, engine.roots())
            assert py == nat, (str(t), level)
    # a batch stays within its root: 2^8's 4 strong starters below root
    # (1, 2) come as a batch of 3, then 1 with the root's end
    engine = search_mod.Engine(StarterType(2, 8), "strong", False)
    step = native_mod.walker(engine, False)((1, 2), engine.root_masks(1))
    batches = [step(1 << 40) for _ in range(2)]
    assert [(status, len(leaves)) for status, _, _, leaves in batches] == \
        [(search_mod._LEAF, 3), (search_mod._DONE, 1)]
    c = cfg(1, 11, mode="exhaustive_count")
    engine = search_mod.Engine(c.target_type, "skew", False)
    for budget in (1, 20, 40, 67, 68, 69):
        c = cfg(1, 11, mode="exhaustive_count", node_budget=budget)
        py, nat = _both_kernels(engine, c, engine.roots())
        assert py == nat, budget
    for interval in (1, 10, 30):
        c = cfg(1, 11, mode="exhaustive_count", progress_interval=interval)
        runs = []
        for kernel in (False, True):
            events = []
            result = engine.run(
                c, engine.roots(),
                lambda nodes, depth, _: events.append((nodes, depth)),
                native=kernel)
            runs.append((result, events))
        assert runs[0] == runs[1] and runs[0][1], interval
    # at g = 64 every frame starter holds a pair of hi = 63
    c = cfg(2, 32, "frame", mode="exhaustive_count", node_budget=5_000)
    engine = search_mod.Engine(c.target_type, "frame", False)
    py, nat = _both_kernels(engine, c, engine.roots())
    assert py == nat and py[2] and len(_leaves(py[0])) > 30  # over ten batches
    assert all(any(p.second.coords == (63,) for p in leaf)
               for leaf in _leaves(py[0]))


def test_orders_above_64_run_the_python_kernel():
    c = cfg(1, 65, node_budget=200)
    out = search(c)
    assert out.kernel == "python"
    assert out.nodes_visited <= 200
    engine = search_mod.Engine(c.target_type, "skew", True)
    with pytest.raises(ValueError, match="g <= 64"):
        engine.run(c, engine.roots(), native=True)
