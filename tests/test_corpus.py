"""The bundled corpus: plain starter files beside the package."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import framestarters
from framestarters import SchemaError, corpus


def test_corpus_loads_without_importlib_resources():
    # the files are found beside the module, so loading them imports no
    # resource machinery; -I -S keeps site and the environment out
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import framestarters.corpus as c; c.load_entries(); "
            "print(*sorted({'importlib.resources', 'tempfile'} "
            "& set(sys.modules)))")
    src = str(Path(framestarters.__file__).parents[1])
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == []


def test_each_file_names_its_entry():
    paths = sorted(corpus._DATA.glob("example-*.json"))
    assert len(paths) == 11
    for path in paths:
        assert json.loads(path.read_text(encoding="utf-8"))["id"] == path.stem


def test_entries_come_in_numeric_order(corpus_entries):
    assert [e.entry_id for e in corpus_entries] == [
        f"example-{n}" for n in (1, 2, 3, *range(26, 34))]


def test_corpus_reads_only_example_files(tmp_path, monkeypatch,
                                         corpus_by_id):
    obj = json.loads((corpus._DATA / "example-2.json").read_text())
    (tmp_path / "example-10.json").write_text(
        json.dumps({**obj, "id": "example-10"}))
    for name in ("records.json", "example-notes.json", "example-9.txt"):
        (tmp_path / name).write_text("not JSON")
    monkeypatch.setattr(corpus, "_DATA", tmp_path)
    entries = corpus.load_entries()
    assert [e.entry_id for e in entries] == ["example-10"]
    assert entries[0].starter == corpus_by_id["example-2"].starter
    # a malformed starter file is a schema error that names the file
    (tmp_path / "example-9.json").write_text('{"id": "example-9", ')
    for load in (corpus.load_entries, lambda: corpus.load_entry("example-9")):
        with pytest.raises(SchemaError, match="example-9.json: invalid JSON"):
            load()
    assert corpus.load_entry("example-10") == entries[0]
