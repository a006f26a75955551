import json

import pytest

from framestarters import GroupSpec, serialize, trivial_subgroup
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


def test_verify_json_output(corpus_file, capsys):
    assert main(["verify", corpus_file("example-1"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["is_skew"] is True


def test_certify_exit_codes(capsys):
    assert main(["certify", "--type", "3^15"]) == 0
    assert "C19" in capsys.readouterr().out

    assert main(["certify", "--type", "4^11"]) == 3
    assert "open" in capsys.readouterr().out

    # a starter of this type exists, so the theorems must stay silent
    assert main(["certify", "--type", "2^25"]) == 3

    assert main(["certify", "--type", "banana"]) == 2
    assert main(["certify", "--type", "3^4"]) == 2  # odd g - h


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

    assert main(["search", "--type", "6^9", "--budget", "1000"]) == 3
    capsys.readouterr()
    missing = tmp_path / "no-such-dir" / "witness.json"
    assert main(["search", "--type", "2^5", "--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {missing}: ")
    assert main(["search", "--type", "2^61"]) == 2  # budget required, g > 60
    assert main(["search", "--type", "nope"]) == 2


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


def test_table_includes_search_no_cell(capsys):
    assert main(["table", "--max-g", "21", "--budget", "100000", "--json"]) == 0
    rows = {r["type"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows["3^7"]["existence"] == "no"
    assert rows["3^7"]["authority"] == "search"


def test_table_formats(capsys):
    assert main(["table", "--max-g", "12", "--budget", "50000"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("| type |")
    assert main(["table", "--max-g", "12", "--budget", "50000",
                 "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "type,existence,authority,detail"


def test_table_caps_max_g(capsys):
    assert main(["table", "--max-g", "5000"]) == 2


def test_deep_cells_skipped_by_default():
    row = build_row(StarterType(2, 16), deep=False, budget=1000, workers=1)
    assert row.existence == "?" and "deep" in row.detail
    assert (2, 16) in DEEP_CELLS


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
