import importlib

import pytest

from framestarters import (
    FrameStarterError,
    InvalidTypeError,
    SearchConfig,
    StarterType,
    VerificationReport,
    naive_enumerate,
    search,
    verify_skew,
)
from framestarters.serialize import format_pairs

search_mod = importlib.import_module("framestarters.search")


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

    # The budget rule comes before the engine's O(g^2) candidate table.
    def no_engine(*args):
        raise AssertionError("engine built before the budget check")

    monkeypatch.setattr(search_mod, "Engine", no_engine)
    with pytest.raises(FrameStarterError):
        search(cfg(1, 100001))


def test_spec_search_examples():
    assert search(cfg(3, 7, mode="prove_nonexistence")).result == "exhausted_none"
    out = search(cfg(4, 5))
    assert out.result == "found"
    assert verify_skew(out.starters[0]).is_skew
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
        assert report.is_skew
        assert (out.starters[0].h, out.starters[0].u) == (h, u)


def test_unverified_candidate_raises(monkeypatch):
    # the verifier is the last word: a candidate it rejects is an engine bug
    failing = VerificationReport(False, False, False, witness="frame: planted")
    monkeypatch.setattr(search_mod, "verify_skew", lambda s: failing)
    with pytest.raises(RuntimeError, match="planted"):
        search(cfg(2, 5))


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
    engine = search_mod.Engine(StarterType(1, 9), "skew")
    roots_on = [pair for *_, pair in engine.roots(True)]
    roots_off = [pair for *_, pair in engine.roots(False)]
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


def test_parallel_equivalence():
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
    assert seq.nodes_visited == par.nodes_visited == 157834


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

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", InProcessPool)
    assert search(cfg(2, 5, worker_count=32)).result == "found"  # 2 roots
    assert sizes == [2]
    out = search(cfg(4, 2, mode="prove_nonexistence", worker_count=4))
    assert out.result == "exhausted_none"  # no roots: no pool at all
    assert sizes == [2]
    kw = dict(mode="exhaustive_count", symmetry_reduction=False)
    seq = search(cfg(1, 11, **kw))  # 8 roots
    par = search(cfg(1, 11, **kw, worker_count=3))
    assert sizes == [2, 3]
    assert par.starters == seq.starters and len(par.starters) == 4


def test_parallel_find_first():
    out = search(cfg(5, 7, worker_count=2))
    assert out.result == "found"
    assert verify_skew(out.starters[0]).is_skew
    assert out.starters == search(cfg(5, 7, worker_count=1)).starters


def test_budget_exceeded():
    out = search(cfg(6, 9, node_budget=5000))
    assert out.result == "budget_exceeded"
    assert out.nodes_visited == 5000
    assert out.starters == ()


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
    engine = search_mod.Engine(StarterType(1, 7), "skew")

    def branch(*placed):
        state = [0, 0, 0]
        for x, y in placed:
            for i, mask in enumerate(engine.cand[x][y][:3]):
                state[i] |= mask
        return [pair for *_, pair in engine.branch(*state)]

    assert [pair for *_, pair in engine.roots(True)] == [(1, 2), (2, 3)]
    assert branch((2, 3)) == [(1, 5)]
    assert branch((2, 3), (1, 5)) == [(4, 6)]
    assert branch((1, 2)) == []  # provably dead state
    assert branch((2, 3), (1, 5), (4, 6)) == []  # complete
    assert engine.cand[1][6] is None  # the pair's sum lies in the subgroup
    out = search(cfg(1, 7))
    assert out.nodes_visited == 4
    assert format_pairs(out.starters[0]) == "{1, 5}, {2, 3}, {4, 6}"


def test_wall_time_and_config_echo():
    out = search(cfg(2, 5))
    assert out.wall_time >= 0
    assert out.config.target_type == StarterType(2, 5)


def test_naive_enumerate_guards():
    with pytest.raises(InvalidTypeError):
        naive_enumerate(StarterType(3, 4), "skew")
