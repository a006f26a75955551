import json
import sys

import pytest

from framestarters import GroupSpec, SchemaError, SearchConfig, StarterType, search
from framestarters import serialize


def test_starter_roundtrip_cyclic(corpus_by_id):
    s = corpus_by_id["example-26"].starter
    obj = serialize.starter_to_obj(s)
    assert obj["group"] == {"factors": [39]}
    assert obj["subgroup"] == {"order": 3}
    assert all(isinstance(v, int) for pair in obj["pairs"] for v in pair)
    assert serialize.starter_from_obj(obj) == s


def test_starter_roundtrip_product(corpus_by_id):
    s = corpus_by_id["example-3"].starter
    obj = serialize.starter_to_obj(s)
    assert obj["group"] == {"factors": [4, 4]}
    assert "generators" in obj["subgroup"]
    assert serialize.starter_from_obj(obj) == s


def test_file_roundtrip(tmp_path, corpus_by_id):
    s = corpus_by_id["example-30"].starter
    path = tmp_path / "starter.json"
    serialize.dump_starter(s, path)
    assert serialize.load_starter(path) == s


@pytest.mark.parametrize("mutate, fragment", [
    (lambda o: o.update(group={"factors": []}), "factors"),
    (lambda o: o.update(group={"factors": [10, "x"]}), "factors"),
    (lambda o: o.update(subgroup={}), "subgroup"),
    (lambda o: o.update(subgroup={"order": 3}), "order"),
    (lambda o: o.update(pairs=o["pairs"][:-1]), "pairs"),
    (lambda o: o["pairs"].append([1]), "pairs"),
    (lambda o: o["pairs"][0].__setitem__(0, [1, 2]), "pairs[0]"),
    (lambda o: o.update(pairs="nope"), "pairs"),
    # JSON true/false are Python bools, which are ints
    (lambda o: o["pairs"][0].__setitem__(1, True), "pairs[0][1]"),
    (lambda o: o.update(group={"factors": [True, 10]}), "factors"),
    (lambda o: o.update(subgroup={"order": True}), "subgroup.order"),
    # residues outside [0, m) are not reduced silently
    (lambda o: o["pairs"][0].__setitem__(0, 13), "pairs[0][0]"),
    (lambda o: o["pairs"][1].__setitem__(0, -7), "pairs[1][0]"),
    (lambda o: o.update(subgroup={"generators": [13]}), "generators[0]"),
    # group and subgroup constructor errors re-wrapped with their location
    (lambda o: o.update(group={"factors": [1]}), "$.group.factors: "),
    (lambda o: o.update(subgroup={"generators": []}),
     "$.subgroup.generators: "),
])
def test_schema_errors_carry_location(corpus_by_id, mutate, fragment):
    obj = serialize.starter_to_obj(corpus_by_id["example-1"].starter)
    mutate(obj)
    with pytest.raises(SchemaError) as err:
        serialize.starter_from_obj(obj)
    assert fragment in str(err.value)


def test_load_starter_rejects_bad_json(tmp_path, monkeypatch):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        serialize.load_starter(path)
    path.write_bytes(b'{"group": {"factors": [7]}, "note": "\xe9"}')
    with pytest.raises(SchemaError):
        serialize.load_starter(path)  # not UTF-8
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(SchemaError):
        serialize.load_starter(path)  # nested deeper than the parser recurses
    path.write_text("[%s]" % ("1" * (sys.get_int_max_str_digits() + 1)))
    with pytest.raises(SchemaError):
        serialize.load_starter(path)  # more digits than int() converts

    # too few pairs for the group: rejected before any subgroup is built
    def no_subgroup(*args):
        raise AssertionError("subgroup built before the pair count was checked")

    monkeypatch.setattr(serialize, "cyclic_subgroup", no_subgroup)
    monkeypatch.setattr(serialize, "generated_subgroup", no_subgroup)
    for sub in ('{"order": 5000000}', '{"generators": [1]}'):
        path.write_text('{"group": {"factors": [20000000]}, '
                        f'"subgroup": {sub}, "pairs": []}}')
        with pytest.raises(SchemaError) as err:
            serialize.load_starter(path)
        assert err.value.location == "$.pairs"


def test_outcome_serialization():
    out = search(SearchConfig(StarterType(2, 5)))
    obj = serialize.outcome_to_obj(out)
    assert obj["result"] == "found"
    assert obj["config"]["type"] == "2^5"
    assert len(obj["starters"]) == 1
    assert obj["kernel"] == out.kernel
    assert out.certificate is None and "certificate" not in obj
    json.dumps(obj)  # must be plain JSON data
    # only an exhausted_none outcome carries a certificate, written last
    out = search(SearchConfig(StarterType(2, 8), mode="prove_nonexistence"))
    obj = serialize.outcome_to_obj(out)
    assert list(obj)[-1] == "certificate"
    assert obj["certificate"] == serialize.certificate_to_obj(out.certificate)
    assert obj["certificate"]["theorem"] == "search-exhaustion"


def test_certificate_serialization():
    from framestarters import certify

    cert = certify(StarterType(3, 9))
    obj = serialize.certificate_to_obj(cert)
    assert obj["type"] == "3^9" and obj["level"] == "skew"
    json.dumps(obj)


def test_bare_int_rejected_in_product_group():
    obj = {
        "group": {"factors": [4, 4]},
        "subgroup": {"generators": [[0, 2], [2, 0]]},
        "pairs": [[3, [1, 2]]],
    }
    with pytest.raises(SchemaError):
        serialize.starter_from_obj(obj)


def test_group_roundtrip():
    for factors in ((7,), (4, 4), (2, 3, 5)):
        spec = GroupSpec(factors)
        assert serialize.group_from_obj(serialize.group_to_obj(spec)) == spec
