import copy
import json
import os
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlgp import albert, cli
from twistlgp.cli import (
    ALBERT_FIELDS,
    FLAG_NAMES,
    INSTANCE_FIELDS,
    ParseError,
    main,
    parse_instance,
    serialize_instance,
)
from twistlgp.lgp import Inconsistent, decide


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


def test_round_trip_with_every_flag_and_albert_field_set():
    # the trivial group and character admit every flag at once
    doc = {
        "m": 3,
        "group": {"kind": "table", "order": 1, "table": [[0]], "name": "C1"},
        "character": [1],
        "flags": {name: True for name in FLAG_NAMES},
        "declared_decomposition_subgroups": [[0]],
        "g": 1,
        "albert": {"g": 1, "m": 3, "center_degree": 2, "d": 1, "delta": 1, "e0": 1},
    }
    instance = parse_instance(json.dumps(doc))
    assert all(getattr(instance, name) for name in FLAG_NAMES)
    out = serialize_instance(instance)
    assert out == doc
    assert list(out["albert"]) == ["g", "m", "center_degree", "d", "delta", "e0"]
    assert parse_instance(json.dumps(out)) == instance


def test_the_schema_and_its_error_texts():
    # read from Instance and AlbertProfile, the schema and its texts stay as
    # they were when cli spelled them out
    assert FLAG_NAMES == (
        "dl_equals_d", "dl_commutative", "dl_cm_field", "mu_m_in_d", "geometrically_simple",
    )
    assert ALBERT_FIELDS == {"g", "m", "center_degree", "d", "delta", "e0"}
    assert INSTANCE_FIELDS == {
        "m", "g", "group", "character", "flags", "albert", "declared_decomposition_subgroups",
    }
    for extra, text in [
        (
            {"flags": {"bad": True}},
            "flags: allowed flags are dl_equals_d, dl_commutative, dl_cm_field, "
            "mu_m_in_d, geometrically_simple",
        ),
        (
            {"albert": {"g": 1, "bad": 2}},
            "albert: allowed fields are center_degree, d, delta, e0, g, m",
        ),
        ({"mystery": 1}, "mystery: unknown field"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_instance(json.dumps({"m": 3, "group": "C1", **extra}))
        assert str(info.value) == text


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


def test_large_twist_order_or_dimension_needs_no_factorization(monkeypatch):
    # phi(m) | 2g is decided from phi(m) >= sqrt(m/2) before factorizing m:
    # scanning 2g^2 candidates at g = 1024, or trial-dividing the prime
    # 2^61 - 1, would not finish
    factorized = []
    factorize = albert.factorize
    monkeypatch.setattr(albert, "factorize", lambda n: factorized.append(n) or factorize(n))
    flags = {"mu_m_in_d": True, "geometrically_simple": True}
    doc = {"m": 3, "g": 1024, "group": "C1", "flags": flags}
    verdict = decide(parse_instance(json.dumps(doc)))
    c7 = next(e for e in verdict.trace if e.criterion == "small-dimension-case-analysis")
    assert c7.outcome == "fired"
    assert c7.hypotheses["shortcut"]["criterion"] == "twist-order-coprime-to-rank"
    doc = {"m": 2**61 - 1, "g": 1, "group": "C1", "flags": {"mu_m_in_d": True}}
    verdict = decide(parse_instance(json.dumps(doc)))
    c2 = next(e for e in verdict.trace if e.criterion == "twist-order-coprime-to-rank")
    assert c2.outcome == "failed"
    assert c2.reason.startswith("inconsistent profile")
    assert len(factorized) < 20 and max(factorized, default=0) < 10**4


def test_a_missing_table_field_is_named(tmp_path, capsys):
    doc = write_doc(tmp_path, {"m": 2, "group": {"kind": "table", "order": 2}}, "table.json")
    assert main(["decide", doc]) == 1
    assert "group: table group spec is missing 'table'" in capsys.readouterr().err
    spec = json.dumps({"kind": "table", "order": 2})
    assert main(["cohomology", "--group", spec, "--module", "mu:2", "--degree", "1"]) == 1
    assert "error: table group spec is missing 'table'" in capsys.readouterr().err


def test_huge_twist_order_and_genus_finish(tmp_path, capsys):
    # phi(2^61 - 1) and the primes p with p - 1 | 2g for g near 10^18 lie far
    # past what trial division reaches
    doc = {"m": 2**61 - 1, "g": 10**12, "group": "C1", "flags": {"mu_m_in_d": True}}
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    assert main(["decide", path, "--json"]) == 0
    assert time.perf_counter() - start < 2
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["criterion"]) == ("HOLDS", "full-decomposition-group")
    c2 = next(e for e in payload["trace"] if e["criterion"] == "twist-order-coprime-to-rank")
    assert c2["outcome"] == "failed" and c2["reason"]
    start = time.perf_counter()
    assert main(["admissible-m", "--genus", str(10**18 + 3), "--json"]) == 0
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().out)["admissible_m"] == [3]


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
    assert payload["oracle"]["agrees"] is True
    assert payload["oracle"]["invariant_factors"] == payload["invariant_factors"]


@pytest.mark.parametrize(
    "group, degree, reason",
    [("C2", "0", "degree 0 has no oracle"), ("S3", "2", "normalized cochains exceed the budget")],
)
def test_cohomology_with_a_skipped_oracle(capsys, group, degree, reason):
    # a skipped oracle compared nothing, so it reports "agrees": null
    argv = ["cohomology", "--group", group, "--module", "mu:3", "--degree", degree, "--oracle"]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["agrees"] is None
    assert reason in payload["oracle"]["skipped"]
    assert "invariant_factors" not in payload["oracle"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("oracle skipped: ") and reason in lines[-1]


def test_cohomology_oracle_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_h1", lambda group, module, budget: (7,))
    argv = ["cohomology", "--group", "C4", "--module", "mu:2", "--degree", "1", "--oracle"]
    assert main(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["oracle"] == {"invariant_factors": [7], "agrees": False}
    assert "oracle disagrees" in captured.err
    assert main(argv) == 1
    assert "oracle agrees: False" in capsys.readouterr().out


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


BAD_ARGUMENTS = [
    ["cohomology", "--group", "C2", "--module", '{"kind":"mu","m":2.5}', "--degree", "1"],
    ["cohomology", "--group", "C2", "--module", "[1]", "--degree", "1"],
    ["cohomology", "--group", "C2", "--module", '{"orders":[2],"action":[[[1]],[[1]]]}',
     "--degree", "1"],
    ["cohomology", "--group", "C2", "--module", '{"orders":[3],"action":{"0":[[1]],"1":[[1.5]]}}',
     "--degree", "1"],
    ["cohomology", "--group", "C2", "--module", '{"orders":[3],"action":{"0":[[1]]}}',
     "--degree", "1"],
    ["cohomology", "--group", "C2", "--module", '{"orders":[3.0],"action":{"0":[[1]],"1":[[1]]}}',
     "--degree", "1"],
    ["cohomology", "--group", "C2", "--module", '{"kind":"mu","m":3,"character":5}',
     "--degree", "1"],
    ["cohomology", "--group", '{"kind":"product","factors":5}', "--module", "mu:2",
     "--degree", "1"],
    ["cohomology", "--group", '{"kind":"named","name":5}', "--module", "mu:2", "--degree", "1"],
    ["cohomology", "--group", "C2", "--module", "mu:2", "--degree", "1", "--oracle",
     "--budget", "0"],
    ["sha", "--group", "C4", "--module", "mu:2", "--family", "5"],
    ["sha", "--group", "C4", "--module", "mu:2", "--declared", "5"],
    ["sha", "--group", "C4", "--module", "mu:2", "--family", "[[0,9]]"],
    ["sha", "--group", "C4", "--module", "mu:2", "--family", "[[0,2.0]]"],
    ["sha", "--group", "C4", "--module", "mu:2", "--declared", "[[0,true]]"],
    ["cohomology", "--group", "C2", "--module", "mu:1_0", "--degree", "1"],
    ["cohomology", "--group", "C2", "--module", "mu: 3", "--degree", "1"],
    ["cohomology", "--group", "C2", "--module", "mu:+3", "--degree", "1"],
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=lambda argv: " ".join(argv[1:]))
def test_cohomology_and_sha_reject_bad_arguments(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


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


def test_a_rank_zero_module_spec_is_the_zero_module(capsys):
    # an empty action matrix is the 0 x 0 one, as "orders": [1] already
    # gave the zero module; on a module of rank 1 it is the wrong shape
    for orders in ([], [1]):
        action = {"0": [[1]] * len(orders), "1": [[1]] * len(orders)}
        spec = json.dumps({"orders": orders, "action": action})
        for command in (["cohomology", "--degree", "2"], ["sha"]):
            assert main([*command, "--group", "C2", "--module", spec, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["invariant_factors"] == [] and payload["representatives"] == []
    spec = json.dumps({"orders": [2], "action": {"0": [], "1": []}})
    assert main(["cohomology", "--group", "C2", "--module", spec, "--degree", "2"]) == 1
    assert capsys.readouterr().err == "error: action matrix has wrong shape\n"


NOT_AN_ACTION = [
    ("C3", {"orders": [3], "action": {"0": [[1]], "1": [[2]], "2": [[1]]}},
     "action matrices incompatible at (2, 1)"),
    ("C2", {"orders": [2, 4], "action": {"0": [[1, 0], [0, 1]], "1": [[1, 0], [1, 1]]}},
     "action is not well defined on the module"),
]


@pytest.mark.parametrize("group, module, message", NOT_AN_ACTION)
def test_a_module_that_is_not_an_action_is_refused_by_name(group, module, message, capsys):
    spec = json.dumps(module)
    for command in (["cohomology", "--degree", "1"], ["sha"]):
        assert main([*command, "--group", group, "--module", spec]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
    # python -O strips assert statements: the check must not be one
    root = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root.parent / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-O", "-m", "twistlgp", "cohomology", "--group", group,
         "--module", spec, "--degree", "1"],
        capture_output=True, env=env,
    )
    assert (run.returncode, run.stdout, run.stderr) == (1, b"", f"error: {message}\n".encode())


def test_a_misspelled_spec_key_is_named(tmp_path, capsys):
    # a key outside its form's grammar was ignored: "charcter" gave the
    # trivial character's H^0 = Z/6 instead of Z/2
    mu = {"kind": "mu", "m": 6, "character": [1, 5]}
    assert main(["cohomology", "--group", "C2", "--module", json.dumps(mu), "--degree", "0"]) == 0
    assert capsys.readouterr().out == "H^0 = Z/2\n"
    explicit = {"orders": [3], "action": {"0": [[1]], "1": [[2]]}}
    table = {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]], "name": "T2"}
    for command, group, module, key in [
        ("cohomology", "C2", {"kind": "mu", "m": 6, "charcter": [1, 5]}, "charcter"),
        ("cohomology", "C2", {**explicit, "kind": "explicit"}, "kind"),
        ("sha", "C2", {**explicit, "oders": [3]}, "oders"),
        ("sha", "C2", {"kind": "mu", "m": 2, "orders": [2]}, "orders"),
    ]:
        argv = [command, "--group", group, "--module", json.dumps(module)]
        assert main(argv + (["--degree", "0"] if command == "cohomology" else [])) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: module: unknown key {key!r}\n" and captured.out == ""
    for spec, message in [
        ({"kind": "named", "name": "C2", "nmae": "C3"}, "named group spec has unknown key 'nmae'"),
        ({**table, "orders": 2}, "table group spec has unknown key 'orders'"),
        ({"kind": "product", "factors": ["C2"], "factor": ["C3"]},
         "product group spec has unknown key 'factor'"),
        ({"kind": "product", "factors": [{**table, "x": 1}]},
         "table group spec has unknown key 'x'"),
    ]:
        for command in (["cohomology", "--degree", "0"], ["sha"]):
            assert main([*command, "--group", json.dumps(spec), "--module", "mu:2"]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(ParseError) as info:
            parse_instance(json.dumps({"m": 2, "group": spec}))
        assert info.value.field == "group" and str(info.value) == f"group: {message}"
        path = write_doc(tmp_path, {"m": 2, "group": spec})
        assert main(["decide", path]) == 1
        assert capsys.readouterr().err == f"error: {path}: group: {message}\n"
    # every key of each form is still accepted, the optional ones included
    assert main(["sha", "--group", json.dumps(table), "--module", json.dumps(explicit)]) == 0
    assert parse_instance(json.dumps({"m": 2, "group": table})).group.name == "T2"


def test_a_factorization_past_the_proof_bound_is_recorded(tmp_path, capsys):
    # m = p q with p, q near 10^12 and 10^13: C2 cannot factor m.  With
    # nothing else firing, decide re-raises the size error; with the whole
    # group declared, C1 fires and C2's entry records it
    m = 1000000000039 * 10000000000037
    doc = {"m": m, "g": isqrt(m // 8) + 10, "group": "S3", "flags": {"mu_m_in_d": True}}
    path = write_doc(tmp_path, doc)
    assert main(["decide", path, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: cannot prove or refute that 10000000000427000000001443 is prime\n"
    )
    full = write_doc(tmp_path, {**doc, "declared_decomposition_subgroups": [list(range(6))]})
    assert main(["decide", full, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["criterion"]) == ("HOLDS", "full-decomposition-group")
    c2 = next(e for e in payload["trace"] if e["criterion"] == "twist-order-coprime-to-rank")
    assert c2["outcome"] == "failed" and c2["hypotheses"] == {}
    assert c2["reason"] == (
        "size bound exceeded: cannot prove or refute that 10000000000427000000001443 is prime"
    )


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


def test_admissible_m_command_large_genus(capsys, monkeypatch):
    # built from the primes p with p - 1 | 2g: scanning the 10^12 odd
    # m <= 2g^2 with a factorization each would not finish
    calls = []

    def counted(fn):
        def wrapped(n):
            calls.append(n)
            assert len(calls) < 1000, "admissible-m scanned the candidates"
            return fn(n)
        return wrapped

    monkeypatch.setattr(albert, "factorize", counted(albert.factorize))
    monkeypatch.setattr(albert, "is_prime", counted(albert.is_prime))
    assert main(["admissible-m", "--genus", "1000000", "--json"]) == 0
    monkeypatch.undo()
    values = json.loads(capsys.readouterr().out)["admissible_m"]
    assert values[:6] == [3, 5, 11, 15, 17, 25] and values == sorted(set(values))
    assert all(m % 2 == 1 and 2 * 10**6 % albert.totient(m) == 0 for m in values)
    # a divisor d of 2g with d + 1 composite past the trial-division bound
    assert main(["admissible-m", "--genus", "500018000049", "--json"]) == 0
    values = json.loads(capsys.readouterr().out)["admissible_m"]
    assert values[-2:] == [111115111123, 333345333367]


def test_verify_paper_filter(capsys):
    assert main(["verify-paper", "--filter", "admissible"]) == 0
    out = capsys.readouterr().out
    assert "admissible-m-tables" in out
    assert "oracle-equivalence" not in out
    for mode in ([], ["--json"]):
        assert main(["verify-paper", "--filter", "no-such-check", *mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no check matches" in captured.err



@pytest.mark.parametrize(
    "argv", [["--budget", "0"], ["--filter", "admissible", "--budget", "-5"]]
)
def test_verify_paper_rejects_a_bad_budget_before_any_check(argv, capsys, monkeypatch):
    import twistlgp.verify as verify_mod

    def refuse(*_args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify_mod, "CHECKS", (("admissible-m-tables", "", refuse),))
    for mode in ([], ["--json"]):
        assert main(["verify-paper", *argv, *mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: budget must be positive\n"

def test_verify_paper_detects_tampering(capsys, monkeypatch):
    import twistlgp.verify as verify_mod

    monkeypatch.setattr(
        verify_mod, "admissible_m", lambda g: [3] if g != 6 else [3, 5]
    )
    code = main(["verify-paper", "--filter", "admissible"])
    assert code == 1
    err = capsys.readouterr().err
    assert "admissible-m-tables" in err


def test_verify_paper_json_matches_the_recorded_output():
    # a cold ``python -m twistlgp verify-paper --json``, byte for byte against
    # tests/data/verify_paper.json; a change that moves representatives on
    # purpose regenerates that file and says so
    root = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root.parent / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-m", "twistlgp", "verify-paper", "--json"],
        capture_output=True, env=env, check=True,
    )
    assert run.stdout == (root / "data" / "verify_paper.json").read_bytes()


def test_decide_json_matches_the_recorded_output():
    # ``python -m twistlgp decide tests/data/instances --json`` from the
    # root of the checkout, byte for byte against
    # tests/data/decide_instances.json; the documents are the decide-batch
    # benchmark's, each group written as its table, and some are UNKNOWN,
    # so the exit status is 2
    root = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root.parent / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-m", "twistlgp", "decide", "tests/data/instances", "--json"],
        capture_output=True, env=env, cwd=root.parent,
    )
    assert run.returncode == 2, run.stderr
    assert run.stdout == (root / "data" / "decide_instances.json").read_bytes()
