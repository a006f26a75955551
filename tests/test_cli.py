import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import framestarters
from framestarters import (GroupSpec, corpus, serialize, starters, theory,
                           trivial_subgroup, verify_skew)
from framestarters.cli import main
from framestarters.corpus import load_entry
from framestarters.theory import patterned_starter
from framestarters.table import DEEP_CELLS, admissible_types, build_row
from framestarters.theory import StarterType


@pytest.fixture()
def corpus_file(tmp_path):
    def write(entry_id):
        path = tmp_path / f"{entry_id}.json"
        serialize.dump_starter(load_entry(entry_id).starter, path)
        return str(path)
    return write


def test_verify_exit_codes(corpus_file, tmp_path, capsys):
    assert main(["verify", corpus_file("example-2"), "--property", "skew"]) == 0

    z7 = GroupSpec((7,))
    patterned = tmp_path / "patterned-z7.json"
    serialize.dump_starter(patterned_starter(z7, trivial_subgroup(z7)), patterned)
    assert main(["verify", str(patterned), "--property", "strong"]) == 1
    out = capsys.readouterr().out
    assert "sum" in out and "subgroup" in out
    assert main(["verify", str(patterned), "--property", "frame"]) == 0

    # --verbose prints one line per witness, --json lists them all
    non_frame = tmp_path / "non-frame-z7.json"
    non_frame.write_text('{"group": {"factors": [7]}, "subgroup": '
                         '{"order": 1}, "pairs": [[1, 2], [3, 5], [4, 6]]}')
    witnesses = verify_skew(serialize.load_starter(non_frame)).witnesses
    assert len(witnesses) >= 2
    capsys.readouterr()
    assert main(["verify", str(non_frame), "--verbose"]) == 1
    out = capsys.readouterr().out
    assert [l for l in out.splitlines() if l.startswith("  - ")] == \
        [f"  - {w}" for w in witnesses]
    assert main(["verify", str(non_frame), "--verbose", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["witnesses"] == list(witnesses)

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"group": {"factors": []}, "pairs": []}')
    assert main(["verify", str(malformed)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"group": {"factors": [7]}, "note": "\xe9"}')
    assert main(["verify", str(latin1)]) == 2

    # the README 2^5 example with 3 written as 13, a residue outside Z_10
    out_of_range = tmp_path / "out-of-range.json"
    out_of_range.write_text('{"group": {"factors": [10]}, "subgroup": '
                            '{"order": 2}, "pairs": [[13, 4], [7, 9], '
                            '[8, 1], [2, 6]]}')
    capsys.readouterr()
    assert main(["verify", str(out_of_range)]) == 2
    assert capsys.readouterr().err.startswith("error: $.pairs[0][0]: ")

    huge = tmp_path / "huge-int.json"
    huge.write_text('{"group": {"factors": [%s]}, "pairs": []}'
                    % ("1" * (sys.get_int_max_str_digits() + 1)))
    assert main(["verify", str(huge)]) == 2


def test_verify_json_output(corpus_file, tmp_path, capsys):
    assert main(["verify", corpus_file("example-1"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_skew"] is True

    # the four report keys always; "witnesses" only under --verbose, and
    # only when there is one
    non_frame = tmp_path / "non-frame-z7.json"
    non_frame.write_text('{"group": {"factors": [7]}, "subgroup": '
                         '{"order": 1}, "pairs": [[1, 2], [3, 5], [4, 6]]}')
    report_keys = ["is_frame", "is_strong", "is_skew", "witness"]
    for path, verbose_keys in ((str(non_frame), report_keys + ["witnesses"]),
                               (corpus_file("example-2"), report_keys)):
        for flags, keys in (([], report_keys), (["--verbose"], verbose_keys)):
            main(["verify", path, "--json", *flags])
            assert list(json.loads(capsys.readouterr().out)) == keys


def test_certify_exit_codes(capsys):
    assert main(["certify", "--type", "3^15"]) == 0
    assert "C19" in capsys.readouterr().out

    assert main(["certify", "--type", "6^3"]) == 0
    assert "type 6^3: no frame starter (T9)" in capsys.readouterr().out

    assert main(["certify", "--type", "4^11"]) == 3
    assert "open" in capsys.readouterr().out

    # a starter of this type exists, so the theorems must stay silent
    assert main(["certify", "--type", "2^25"]) == 3

    assert main(["certify", "--type", "banana"]) == 2
    assert main(["certify", "--type", "3^4"]) == 2  # odd g - h
    capsys.readouterr()
    digits = "1" * (sys.get_int_max_str_digits() + 1)  # past int()'s limit
    assert main(["certify", "--type", f"1^{digits}"]) == 2
    assert digits not in capsys.readouterr().err


def test_certify_json(capsys):
    assert main(["certify", "--type", "2^12", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["theorem"] in ("T21", "T24")


def test_search_command(tmp_path, capsys):
    out_file = tmp_path / "witness.json"
    code = main(["search", "--type", "5^7", "--property", "skew",
                 "--mode", "find_first", "--out", str(out_file), "--json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["result"] == "found"
    assert out_file.exists()
    assert main(["verify", str(out_file), "--property", "skew"]) == 0
    capsys.readouterr()

    code = main(["search", "--type", "2^8", "--mode", "prove_nonexistence",
                 "--json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["result"] == "exhausted_none"
    assert obj["certificate"]["theorem"] == "search-exhaustion"
    assert str(obj["nodes_visited"]) in obj["certificate"]["statement"]
    # the "no" names the kernel and the symmetry reduction that produced it
    assert obj["kernel"] in ("native", "python")
    assert f"on the {obj['kernel']} kernel" in obj["certificate"]["statement"]
    assert "with symmetry reduction by the units of Z_16" \
        in obj["certificate"]["statement"]
    assert obj["certificate"]["statement"].endswith(
        f"(mode prove_nonexistence, framestarters {framestarters.__version__})")
    assert main(["search", "--type", "2^8", "--mode", "prove_nonexistence",
                 "--no-symmetry", "--json"]) == 0
    unreduced = json.loads(capsys.readouterr().out)
    assert unreduced["nodes_visited"] > obj["nodes_visited"]
    assert f"type 2^8 without symmetry reduction on the {obj['kernel']} " \
        f"kernel visited {unreduced['nodes_visited']} nodes" \
        in unreduced["certificate"]["statement"]

    for extra in ([], ["--json"]):
        assert main(["search", "--type", "2^3", "--property", "frame",
                     "--mode", "prove_nonexistence", *extra]) == 0
        out = capsys.readouterr().out
        assert "found no frame starter" in out and "frame frame" not in out

    assert main(["search", "--type", "6^9", "--budget", "1000"]) == 3
    capsys.readouterr()
    missing = tmp_path / "no-such-dir" / "witness.json"
    assert main(["search", "--type", "2^5", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {missing}: ")
    # the find is shown before the write fails, so it is not lost
    found = framestarters.search(
        framestarters.SearchConfig(StarterType(2, 5))).starters[0]
    assert f"  starter: {serialize.format_pairs(found)}\n" in captured.out
    assert main(["search", "--type", "2^61"]) == 2  # budget required, g > 60
    assert main(["search", "--type", "nope"]) == 2
    digits = "1" * (sys.get_int_max_str_digits() + 1)  # past int()'s limit
    assert main(["search", "--type", f"{digits}^3"]) == 2
    capsys.readouterr()

    # a count needs the whole tree: 75 starters (38 negation orbits), and
    # the echoed config says the reduction was off
    code = main(["search", "--type", "3^5", "--property", "frame",
                 "--mode", "exhaustive_count", "--json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["starters"]) == 75
    assert obj["config"]["symmetry_reduction"] is False

    # a budget is walked in tree order, and the echoed config says so
    assert main(["search", "--type", "6^9", "--budget", "1000",
                 "--workers", "2", "--json"]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["config"]["worker_count"] == 1
    assert obj["nodes_visited"] == 1000


def test_search_progress_stream(capsys):
    assert main(["search", "--type", "3^7", "--mode", "prove_nonexistence",
                 "--progress", "500"]) == 0
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert err_lines
    event = json.loads(err_lines[0])
    assert set(event) == {"nodes", "depth", "elapsed_s"}


def test_table_small(capsys):
    assert main(["table", "--max-g", "20", "--budget", "100000", "--json"]) == 0
    rows = {r["type"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows["2^5"]["existence"] == "yes"
    assert rows["4^5"]["existence"] == "yes"
    assert rows["2^8"] == dict(rows["2^8"], existence="no", authority="search")


def test_table_rows_say_how_long_they_took(capsys):
    assert main(["table", "--max-g", "20", "--budget", "100000", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    searched = [r for r in rows if "nodes" in r]
    assert searched and all(r["authority"] != "theorem" for r in searched)
    for r in searched:
        assert r["seconds"] > 0
        assert r["nodes_per_s"] == round(r["nodes"] / r["seconds"])
    theorem = [r for r in rows if r["authority"] == "theorem"]
    assert theorem
    assert not any("seconds" in r or "nodes_per_s" in r for r in theorem)


def test_table_includes_search_no_cell(capsys):
    assert main(["table", "--max-g", "21", "--budget", "100000", "--json"]) == 0
    rows = {r["type"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows["3^7"]["existence"] == "no"
    assert rows["3^7"]["authority"] == "search"
    # the row carries the search's exhaustion certificate
    assert rows["3^7"]["theorem"] == "search-exhaustion"
    statement = rows["3^7"]["detail"]
    assert f"visited {rows['3^7']['nodes']} nodes" in statement
    assert "native kernel" in statement or "python kernel" in statement
    assert "with symmetry reduction by the units of Z_21" in statement


def test_table_formats(capsys):
    assert main(["table", "--max-g", "12", "--budget", "50000"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("| type |")
    assert main(["table", "--max-g", "12", "--budget", "50000",
                 "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "type,existence,authority,detail"
    # markdown has the same four columns
    lines = md.splitlines()
    assert lines[0] == "| type | existence | authority | detail |"
    assert any(line.startswith("| 2^5 | yes | search | witness found after ")
               for line in lines)


def test_table_into_closed_pipe_exits_141():
    # `framestarters table | head -1`: the reader is gone before the write
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(framestarters.__file__).parents[1]),
                      os.environ.get("PYTHONPATH"))))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "framestarters.cli", "table",
             "--max-g", "57"], stdout=write_end, stderr=subprocess.PIPE,
            env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr
    assert proc.returncode == 141  # 128 + SIGPIPE, as a shell reports it


def test_table_caps_max_g(capsys):
    assert main(["table", "--max-g", "5000"]) == 2


def test_table_rejects_max_g_below_the_smallest_type(capsys):
    # 2^2 (g = 4) is the smallest table type; a smaller bound is an error,
    # not an empty table
    assert main(["table", "--max-g", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-g must be >= 4" in captured.err
    assert main(["table", "--max-g", "4", "--json"]) == 0
    assert [row["type"] for row in json.loads(capsys.readouterr().out)] == ["2^2"]


def test_deep_cells_skipped_by_default():
    row = build_row(StarterType(2, 16), deep=False, budget=1000, workers=1)
    assert row.existence == "?" and "deep" in row.detail
    assert (2, 16) in DEEP_CELLS


def test_deep_cell_decided_by_search():
    # 4^8 is a deep cell: --deep searches it, within the cell budget; its
    # proof, 322,400 nodes, fits the default budget of 400,000
    row = build_row(StarterType(4, 8), deep=True, budget=400_000)
    assert (row.existence, row.authority) == ("no", "search")
    assert row.outcome.nodes_visited == 322_400
    assert row.certificate.theorem == "search-exhaustion"
    row = build_row(StarterType(4, 8), deep=True, budget=300_000)
    assert (row.existence, row.authority) == ("?", "none")
    assert row.detail == "budget exceeded after 300000 nodes"
    assert row.outcome is not None and row.certificate is None


def test_budget_exhausted_cell_prints_question_mark():
    row = build_row(StarterType(6, 9), deep=False, budget=2000, workers=1)
    assert row.existence == "?"
    assert "budget" in row.detail


def test_admissible_types_skip_odd_gaps():
    types = {str(t) for t in admissible_types(20)}
    assert "2^5" in types and "3^3" in types
    assert "3^4" not in types  # odd g - h
    assert all(StarterType.parse(t).h > 1 for t in types)


def test_corpus_commands(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert out.count("example-") == 11
    for fragment in ("1^7", "2^5", "4^4", "3^13", "3^19", "5^7", "5^11",
                     "4^5", "8^5", "2^25", "4^13"):
        assert fragment in out

    assert main(["corpus", "check"]) == 0
    out = capsys.readouterr().out
    assert "11/11 verified" in out

    assert main(["corpus", "check", "--only", "example-26"]) == 0
    out = capsys.readouterr().out
    assert "repaired" in out and "pass" in out

    assert main(["corpus", "check", "--only", "example-99"]) == 2


def test_each_verdict_is_read_once(monkeypatch, strong_3_7, capsys):
    # A command decides each level and formats each witness list once, and
    # builds a search's certificate once, whatever it prints.
    calls = collections.Counter()

    def count(owner, name, key):
        f = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(starters.VerificationReport, "holds", "holds")
    count(starters, "_violations", "violations")
    count(theory.NonexistenceCertificate, "__init__", "certificate")

    def reads(argv, code):
        calls.clear()
        assert main(argv) == code
        capsys.readouterr()
        return calls["holds"], calls["violations"], calls["certificate"]

    non_frame = str(Path(__file__).parent / "data" / "verify" / "non-frame-z7.json")
    for flags in ((), ("--json",)):
        assert reads(["verify", non_frame, "--verbose", *flags], 1) == (3, 2, 0)
    assert reads(["verify", non_frame], 1)[1] == 1
    assert reads(["search", "--type", "4^7", "--mode", "prove_nonexistence"],
                 0)[2] == 1

    planted = corpus.CorpusEntry("planted", strong_3_7, "skew", False, "")
    monkeypatch.setattr(corpus, "load_entries", lambda: (planted,))
    assert reads(["corpus", "check"], 1)[1] == 1


def test_table_rejects_bad_budget_and_workers(capsys):
    # 2^2 is the only cell of g <= 4 and a theorem decides it, so no search
    # would ever check the budget
    assert main(["table", "--max-g", "4", "--budget", "0"]) == 2
    assert "node budget must be >= 1" in capsys.readouterr().err
    # every cell is budgeted, so there is no worker count to give
    with pytest.raises(SystemExit) as exc:
        main(["table", "--max-g", "4", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
