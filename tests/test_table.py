"""`framestarters table --max-g 57 --json`, pinned row by row, and the
module names that the benchmark reaches into.

The record in tests/data/table57_golden.json is the table's JSON with each
row's timings (`seconds`, `nodes_per_s`) removed: every row's detail and
certificate wording, the searched cells' node counts and the witnesses.
Regenerate it only when the output is meant to change:

    PYTHONPATH=src python tests/test_table.py > tests/data/table57_golden.json
"""

import contextlib
import importlib
import inspect
import io
import json
from pathlib import Path

from framestarters import StarterType
from framestarters.cli import main

GOLDEN = Path(__file__).parent / "data" / "table57_golden.json"


def _table57() -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["table", "--max-g", "57", "--json"]) == 0
    rows = json.loads(out.getvalue())
    for row in rows:
        row.pop("seconds", None)
        row.pop("nodes_per_s", None)
    return rows


def test_table57_output_is_pinned(native):
    # The node counts and certificates name the kernel, so the record is
    # the native kernel's.
    golden = json.loads(GOLDEN.read_text())
    rows = _table57()
    assert len(rows) == len(golden) == 98
    assert [r for r, g in zip(rows, golden) if r != g] == []


def test_bench_tracer_names_exist():
    # bench/run.py's Bench.__init__ wraps these names in its tracer around
    # the corpus load, at every --trace level, and Bench.ask calls build_row
    # with these keywords: a missing name or keyword fails every benchmark
    # run at set-up.
    modules = {name: importlib.import_module(f"framestarters.{name}")
               for name in ("search", "table", "corpus")}
    for module, name in (("table", "build_row"), ("table", "certify"),
                         ("table", "search"), ("search", "make_starter"),
                         ("search", "verify_skew"), ("corpus", "load_entries")):
        assert callable(getattr(modules[module], name, None)), (module, name)
    inspect.signature(modules["table"].build_row).bind(
        StarterType(2, 5), deep=False, budget=400000, workers=1)


if __name__ == "__main__":
    print(json.dumps(_table57(), indent=1))
