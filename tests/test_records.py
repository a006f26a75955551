import copy
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import framestarters
from framestarters import (
    Adder,
    GroupSpec,
    NonexistenceCertificate,
    SearchConfig,
    SearchOutcome,
    StarterType,
    TypeCensus,
    cyclic_subgroup,
    make_starter,
)
from framestarters.corpus import CorpusEntry
from framestarters.table import TableRow


def _starter(pairs=((1, 3), (2, 6), (4, 5))):
    z7 = GroupSpec((7,))
    return make_starter(z7, cyclic_subgroup(z7, 1), pairs)


def _config(mode="prove_nonexistence"):
    return SearchConfig(StarterType(4, 7), mode=mode)


def _certificate(level="skew"):
    return NonexistenceCertificate(StarterType(3, 5), level, "C19", "no")


#: Per record class: a maker of one value, called twice for two equal
#: values, and a value that differs from it in one field.
CASES = {
    "GroupSpec": (lambda: GroupSpec((2, 3)), GroupSpec((6,))),
    "SubgroupSpec": (lambda: cyclic_subgroup(GroupSpec((6,)), 3),
                     cyclic_subgroup(GroupSpec((6,)), 2)),
    "FrameStarter": (_starter, _starter(((1, 2), (3, 5), (4, 6)))),
    "Adder": (lambda: Adder(GroupSpec((7,)), cyclic_subgroup(GroupSpec((7,)), 1),
                            ((_starter().pairs[0], GroupSpec((7,)).element(2)),)),
              Adder(GroupSpec((7,)), cyclic_subgroup(GroupSpec((7,)), 1), ())),
    "TypeCensus": (lambda: TypeCensus(3, {(0, 1): 2, (1, 2): 1}),
                   TypeCensus(3, {(0, 1): 3})),
    "StarterType": (lambda: StarterType(3, 7), StarterType(7, 3)),
    "NonexistenceCertificate": (_certificate, _certificate("strong")),
    "SearchConfig": (_config, _config("find_first")),
    "SearchOutcome": (lambda: SearchOutcome("exhausted_none", (), 12, 0.25,
                                            _config(), "python"),
                      SearchOutcome("exhausted_none", (), 12, 0.25,
                                    _config(), "native")),
    "TableRow": (lambda: TableRow(StarterType(3, 5), "no", "theorem", "C19: no",
                                  certificate=_certificate()),
                 TableRow(StarterType(3, 5), "no", "theorem", "C19: no")),
    "CorpusEntry": (lambda: CorpusEntry("z7", _starter(), "skew", False, ""),
                    CorpusEntry("z7", _starter(), "skew", True, "")),
}

#: Each class's repr of the value its maker builds, as the same classes
#: printed it when they were generated by the dataclasses module.
REPRS = {
    "GroupSpec": "GroupSpec(factors=(2, 3), order=6)",
    "SubgroupSpec": "SubgroupSpec(group=GroupSpec(factors=(6,), order=6), "
                    "elements=frozenset({Element(0), Element(2), Element(4)}), "
                    "order=3)",
    "FrameStarter": "FrameStarter(group=GroupSpec(factors=(7,), order=7), "
                    "subgroup=SubgroupSpec(group=GroupSpec(factors=(7,), "
                    "order=7), elements=frozenset({Element(0)}), order=1), "
                    "pairs=(Pair(Element(1), Element(3)), Pair(Element(2), "
                    "Element(6)), Pair(Element(4), Element(5))))",
    "Adder": "Adder(group=GroupSpec(factors=(7,), order=7), "
             "subgroup=SubgroupSpec(group=GroupSpec(factors=(7,), order=7), "
             "elements=frozenset({Element(0)}), order=1), "
             "entries=((Pair(Element(1), Element(3)), Element(2)),))",
    "TypeCensus": "TypeCensus(modulus=3, counts={(0, 1): 2, (1, 2): 1})",
    "StarterType": "StarterType(h=3, u=7)",
    "NonexistenceCertificate": "NonexistenceCertificate(starter_type="
                               "StarterType(h=3, u=5), level='skew', "
                               "theorem='C19', statement='no')",
    "SearchConfig": "SearchConfig(target_type=StarterType(h=4, u=7), "
                    "property='skew', mode='prove_nonexistence', "
                    "node_budget=None, worker_count=1, "
                    "symmetry_reduction=True, progress_interval=0)",
    "SearchOutcome": "SearchOutcome(result='exhausted_none', starters=(), "
                     "nodes_visited=12, wall_time=0.25, config=SearchConfig("
                     "target_type=StarterType(h=4, u=7), property='skew', "
                     "mode='prove_nonexistence', node_budget=None, "
                     "worker_count=1, symmetry_reduction=True, "
                     "progress_interval=0), kernel='python')",
    "TableRow": "TableRow(starter_type=StarterType(h=3, u=5), existence='no', "
                "authority='theorem', detail='C19: no', certificate="
                "NonexistenceCertificate(starter_type=StarterType(h=3, u=5), "
                "level='skew', theorem='C19', statement='no'), outcome=None)",
    "CorpusEntry": "CorpusEntry(entry_id='z7', starter=FrameStarter(group="
                   "GroupSpec(factors=(7,), order=7), subgroup=SubgroupSpec("
                   "group=GroupSpec(factors=(7,), order=7), elements=frozenset("
                   "{Element(0)}), order=1), pairs=(Pair(Element(1), "
                   "Element(3)), Pair(Element(2), Element(6)), Pair(Element(4), "
                   "Element(5)))), claimed_property='skew', repaired=False, "
                   "note='')",
}


@pytest.mark.parametrize("name", CASES)
def test_record_contract(name):
    make, other = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and a != other
    if name == "TypeCensus":  # its counts are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == REPRS[name]
    assert not hasattr(a, "__dict__")  # slots only
    for field in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    for c in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(c) is type(a) and c == a and repr(c) == repr(a)
        for field in type(a).__slots__:
            assert getattr(c, field) == getattr(a, field)


def test_record_construction_by_keyword_and_default():
    t = StarterType(u=7, h=4)
    assert t == StarterType(4, 7)
    assert SearchConfig(t) == SearchConfig(
        target_type=t, property="skew", mode="find_first", node_budget=None,
        worker_count=1, symmetry_reduction=True, progress_interval=0)
    # the checks rewrite two fields, as they always have
    cfg = SearchConfig(t, mode="exhaustive_count", node_budget=9,
                       worker_count=2)
    assert (cfg.worker_count, cfg.symmetry_reduction) == (1, False)
    row = TableRow(t, "?", "none", "skipped")
    assert (row.certificate, row.outcome) == (None, None)


#: The names the package exports from a module it loads on first use, as
#: no search, table row or corpus load runs them.
LAZY = {**dict.fromkeys((
    "Adder", "TypeCensus", "adder_is_skew", "adder_to_strong",
    "census_identities", "half_set", "negate_starter", "patterned_starter",
    "quadratic_sum_check", "residue_class_sizes", "strong_to_adder",
    "sum_of_squares_closed_form", "type_census", "verify_orthogonal",
), "algebra"), "naive_enumerate": "oracle"}


def test_import_runs_no_code_generation():
    # the record classes are written out, and csv is imported by the one
    # function that writes it; the benchmark's set-up imports load none of
    # the modules that only a proof, the oracle, the Python kernel, the
    # native kernel or the command line runs, and bind none of the names
    # exported from them; -I -S keeps site and the environment out
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import framestarters, framestarters.table, framestarters.corpus; "
            "print(*sorted(set(sys.argv[2:]) & set(sys.modules)), "
            "*sorted(set(sys.argv[2:]) & set(vars(framestarters))))")
    src = str(Path(framestarters.__file__).parents[1])
    unloaded = ["dataclasses", "inspect", "csv",
                *(f"framestarters.{name}" for name in
                  ("algebra", "oracle", "pykernel", "native", "cli")), *LAZY]
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, src,
                          *unloaded],
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == []


@pytest.mark.parametrize("name, module", sorted(LAZY.items()))
def test_lazy_export_is_its_module_attribute(name, module):
    # each resolves on first use to its module's own object; a name the
    # package does not export is still an AttributeError
    owner = importlib.import_module(f"framestarters.{module}")
    assert getattr(framestarters, name) is getattr(owner, name)
    with pytest.raises(AttributeError):
        getattr(framestarters, f"{name}_unknown")
