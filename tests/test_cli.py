import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlgp.cli import (
    ALBERT_FIELDS,
    FLAG_NAMES,
    INSTANCE_FIELDS,
    ParseError,
    main,
    parse_instance,
    serialize_instance,
)
from twistlgp.lgp import Inconsistent


EC_DOC = {
    "m": 3,
    "g": 1,
    "group": {"kind": "named", "name": "C2"},
    "character": [1, 2],
    "flags": {
        "dl_commutative": True,
        "dl_cm_field": True,
        "geometrically_simple": True,
    },
}

UNKNOWN_DOC = {
    "m": 2,
    "g": 4,
    "group": {"kind": "product", "factors": ["C2", "C2"]},
    "flags": {"dl_commutative": True},
}


# uses every field; each one is valid and consistent with the others
FULL_DOC = {
    "m": 3,
    "g": 1,
    "group": "C2",
    "character": [1, 2],
    "flags": {"dl_commutative": True, "dl_cm_field": True, "geometrically_simple": True},
    "albert": {"g": 1, "m": 3, "center_degree": 2, "d": 1, "delta": 1, "e0": 1},
    "declared_decomposition_subgroups": [[0, 1]],
}

# S3 with a nontrivial character mod 3, so no criterion holds without flags
S3_DOC = {"m": 3, "group": "S3", "character": [1, 2, 2, 1, 1, 2]}


def write_doc(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_minimal_instance():
    text = json.dumps(
        {"m": 3, "group": "C1", "flags": {"dl_equals_d": True}}
    )
    instance = parse_instance(text)
    assert instance.m == 3 and instance.group.order == 1
    assert instance.dl_equals_d
    assert instance.character.is_trivial


def test_parse_errors():
    with pytest.raises(ParseError, match="m"):
        parse_instance(json.dumps({"group": "C1"}))
    with pytest.raises(ParseError, match="m"):
        parse_instance(json.dumps({"m": 0, "group": "C1"}))
    with pytest.raises(ParseError, match="group"):
        parse_instance(json.dumps({"m": 3}))
    with pytest.raises(ParseError, match="line"):
        parse_instance("{not json")
    with pytest.raises(ParseError, match="unknown field"):
        parse_instance(json.dumps({"m": 3, "group": "C1", "mystery": 1}))
    with pytest.raises(ParseError, match="flags"):
        parse_instance(json.dumps({"m": 3, "group": "C1", "flags": {"bad": True}}))
    with pytest.raises(ParseError, match="character"):
        parse_instance(json.dumps({"m": 6, "group": "C2", "character": [1, 3]}))
    c2 = {"m": 3, "group": "C2"}
    subgroups = "declared_decomposition_subgroups"
    for field, extra in [
        ("m", {"m": True}),
        ("m", {"m": 3.0}),
        ("g", {"g": True}),
        ("character", {"character": [1.5, 2]}),
        ("character", {"character": "ab"}),
        ("character", {"character": [True, 2]}),
        ("flags", {"flags": {"dl_commutative": "false"}}),
        ("flags", {"flags": {"dl_commutative": 1}}),
        ("albert", {"albert": {"g": "x"}}),
        ("albert", {"albert": {"g": 1, "m": True}}),
        ("albert", {"albert": {"g": 1, "delta": 0, "e0": 1}}),
        ("albert", {"albert": {"g": 1, "m": 2**64 + 1, "center_degree": 2}}),
        (subgroups, {subgroups: 5}),
        (subgroups, {subgroups: [[0, 7]]}),
        (subgroups, {subgroups: [[0, -1]]}),
        (subgroups, {subgroups: [[0, 1.0]]}),
        (subgroups, {subgroups: [[0, True]]}),
        (subgroups, {subgroups: [5]}),
        ("group", {"group": {"kind": "table", "order": True, "table": [[0]]}}),
        ("group", {"group": {"kind": "table", "order": 1.0, "table": [[0]]}}),
        ("group", {"group": {"kind": "table", "order": 2, "table": [[0, 1], [1, 1.7]]}}),
        ("group", {"group": {"kind": "table", "order": 2, "table": [[0, 1], [1, "1"]]}}),
        ("group", {"group": {"kind": "table", "order": 2, "table": [[0, 1], [1, True]]}}),
        ("group", {"group": {"kind": "table", "order": 2, "table": [[0, 1], "10"]}}),
        ("group", {"group": {"kind": "table", "order": 1, "table": {"0": [0]}}}),
        ("group", {"group": {"kind": "table", "order": 1, "table": [[0]], "name": 5}}),
    ]:
        with pytest.raises(ParseError) as info:
            parse_instance(json.dumps({**c2, **extra}))
        assert info.value.field == field, extra


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
FUZZ_PATHS = (
    [(name,) for name in sorted(INSTANCE_FIELDS)]
    + [("flags", name) for name in FLAG_NAMES]
    + [("albert", name) for name in sorted(ALBERT_FIELDS)]
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(path=st.sampled_from(FUZZ_PATHS), value=JSON_VALUES)
def test_parse_instance_raises_only_its_own_errors(path, value):
    doc = copy.deepcopy(FULL_DOC)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        parse_instance(json.dumps(doc))
    except (ParseError, Inconsistent):
        pass


def test_inconsistent_instances_rejected():
    from twistlgp.lgp import Inconsistent

    doc = {"m": 3, "group": "C2", "character": [1, 2], "flags": {"mu_m_in_d": True}}
    with pytest.raises(Inconsistent):
        parse_instance(json.dumps(doc))


def test_round_trip():
    text = json.dumps(EC_DOC)
    instance = parse_instance(text)
    again = parse_instance(json.dumps(serialize_instance(instance)))
    assert again == instance
    doc2 = dict(UNKNOWN_DOC)
    doc2["declared_decomposition_subgroups"] = [[0, 1]]
    instance2 = parse_instance(json.dumps(doc2))
    assert parse_instance(json.dumps(serialize_instance(instance2))) == instance2
    # serialize_instance writes absent albert fields as null
    for doc in (FULL_DOC, {**EC_DOC, "albert": {"g": 1}}):
        instance = parse_instance(json.dumps(doc))
        assert parse_instance(json.dumps(serialize_instance(instance))) == instance


def test_decide_exit_codes(tmp_path, capsys):
    holds = write_doc(tmp_path, EC_DOC, "ec.json")
    assert main(["decide", holds]) == 0
    out = capsys.readouterr().out
    assert "verdict: HOLDS" in out
    assert "full-decomposition-group" in out

    unknown = write_doc(tmp_path, UNKNOWN_DOC, "unknown.json")
    assert main(["decide", unknown]) == 2
    out = capsys.readouterr().out
    assert "verdict: UNKNOWN" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["decide", str(bad)]) == 1
    assert "error" in capsys.readouterr().err

    # the string "false" must not count as asserting the Hilbert 90 hypothesis
    s3_unknown = write_doc(tmp_path, S3_DOC, "s3.json")
    assert main(["decide", s3_unknown]) == 2
    assert "verdict: UNKNOWN" in capsys.readouterr().out
    denied = write_doc(tmp_path, {**S3_DOC, "flags": {"dl_commutative": "false"}}, "denied.json")
    assert main(["decide", denied]) == 1
    captured = capsys.readouterr()
    assert "HOLDS" not in captured.out
    assert f"error: {denied}: flags: " in captured.err


def test_decide_batch_directory(tmp_path, capsys):
    write_doc(tmp_path, EC_DOC, "a_holds.json")
    write_doc(tmp_path, UNKNOWN_DOC, "b_unknown.json")
    assert main(["decide", str(tmp_path)]) == 2  # one unknown dominates
    out = capsys.readouterr().out
    assert out.index("a_holds.json") < out.index("b_unknown.json")
    assert "verdict: HOLDS" in out and "verdict: UNKNOWN" in out
    # a malformed file in the middle fails alone; later files are still decided
    write_doc(tmp_path, {**EC_DOC, "character": "ab"}, "b_malformed.json")
    assert main(["decide", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "b_malformed.json: character: " in captured.err
    assert captured.out.index("b_malformed.json") < captured.out.index("verdict: UNKNOWN")
    (tmp_path / "c_bad.json").write_text("{")
    assert main(["decide", str(tmp_path)]) == 1
    capsys.readouterr()
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["decide", str(empty)]) == 1
    capsys.readouterr()


def test_decide_json_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, EC_DOC)
    assert main(["decide", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["decide", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["status"] == "HOLDS"
    assert payload["criterion"] == "full-decomposition-group"


def test_cohomology_command(capsys):
    code = main(
        ["cohomology", "--group", "C6", "--module", "mu:3", "--degree", "2", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariant_factors"] == [3]
    assert payload["degree"] == 2
    # representatives are serialized as tuple -> coordinates maps
    rep = payload["representatives"][0]
    assert all("," in key for key in rep)


def test_cohomology_with_oracle(capsys):
    code = main(
        [
            "cohomology", "--group", "C4", "--module", "mu:9", "--degree", "1",
            "--oracle", "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["agrees"]
    assert payload["oracle"]["invariant_factors"] == payload["invariant_factors"]


def test_cohomology_module_grammar(capsys):
    module = json.dumps({"orders": [3], "action": {"0": [[1]], "1": [[2]]}})
    code = main(
        ["cohomology", "--group", "C2", "--module", module, "--degree", "1", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariant_factors"] == []
    mu = json.dumps({"kind": "mu", "m": 3, "character": [1, 2]})
    code = main(
        ["cohomology", "--group", "C2", "--module", mu, "--degree", "1", "--json"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["invariant_factors"] == []


def test_sha_command(capsys):
    code = main(["sha", "--group", "C2xC2", "--module", "mu:2"])
    assert code == 1  # C2xC2 is not a named group; needs the product spec
    capsys.readouterr()
    group = json.dumps({"kind": "product", "factors": ["C2", "C2"]})
    code = main(["sha", "--group", group, "--module", "mu:2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariant_factors"] == []
    assert len(payload["family"]) == len(
        json.loads(json.dumps(payload["family"]))
    )
    # trivial-subgroup family gives all of H^1
    code = main(
        ["sha", "--group", group, "--module", "mu:2", "--family", "[[0]]", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariant_factors"] == [2, 2]
    # declaring the full group as a decomposition subgroup kills everything
    code = main(
        [
            "sha", "--group", group, "--module", "mu:2",
            "--family", "[[0]]", "--declared", "[[0,1,2,3]]", "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariant_factors"] == []
    assert [0, 1, 2, 3] in payload["family"]


def test_admissible_m_command(capsys):
    assert main(["admissible-m", "--genus", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["admissible_m"] == [3, 5, 7, 9, 13, 21]
    assert main(["admissible-m", "--genus", "4"]) == 0
    out = capsys.readouterr().out
    assert "[3, 5, 15]" in out and "Fermat" in out
    assert main(["admissible-m", "--genus", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "note" in payload


def test_verify_paper_filter(capsys):
    assert main(["verify-paper", "--filter", "admissible"]) == 0
    out = capsys.readouterr().out
    assert "admissible-m-tables" in out
    assert "oracle-equivalence" not in out
    assert main(["verify-paper", "--filter", "no-such-check"]) == 1
    capsys.readouterr()


def test_verify_paper_detects_tampering(capsys, monkeypatch):
    import twistlgp.verify as verify_mod

    monkeypatch.setattr(
        verify_mod, "admissible_m", lambda g: [3] if g != 6 else [3, 5]
    )
    code = main(["verify-paper", "--filter", "admissible"])
    assert code == 1
    err = capsys.readouterr().err
    assert "admissible-m-tables" in err
