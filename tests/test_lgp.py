import json
from math import gcd
from pathlib import Path

import pytest

from twistlgp import groups, lgp, verify
from twistlgp.albert import AlbertProfile, admissible_m
from twistlgp.cli import parse_instance
from twistlgp.cohomology import cohomology
from twistlgp.gmodules import CyclotomicCharacter, descend_to_quotient, mu_module
from twistlgp.groups import (
    Subgroup,
    cyclic,
    dihedral,
    direct_product,
    quaternion,
    quotient,
    subgroup_generated,
    subgroups,
    symmetric,
)
from twistlgp.lgp import (
    CatalogIncomplete,
    Inconsistent,
    Instance,
    case_machine_easylgp,
    decide,
    groups_of_order,
    validate,
)


def make_instance(group, m, character=None, **kwargs):
    if character is None:
        character = CyclotomicCharacter.trivial(group, m)
    return Instance(m=m, group=group, character=character, **kwargs)


def fired_criteria(verdict):
    return [e.criterion for e in verdict.trace if e.outcome == "fired"]


def entry(verdict, criterion):
    return next(e for e in verdict.trace if e.criterion == criterion)


def test_validate_mu_in_d_needs_trivial_character():
    c2 = cyclic(2)
    chi = CyclotomicCharacter(c2, 3, (1, 2))
    inst = make_instance(c2, 3, character=chi, mu_m_in_d=True)
    with pytest.raises(Inconsistent):
        validate(inst)


def test_validate_dl_equals_d_needs_trivial_group():
    inst = make_instance(cyclic(2), 3, dl_equals_d=True)
    with pytest.raises(Inconsistent):
        validate(inst)
    validate(make_instance(cyclic(1), 3, dl_equals_d=True))


def test_validate_cm_implies_commutative():
    with pytest.raises(Inconsistent):
        validate(make_instance(cyclic(2), 3, dl_cm_field=True))


def test_validate_foreign_subgroup():
    s3 = symmetric(3)
    c6 = cyclic(6)
    sub = subgroup_generated(c6, [2])
    inst = make_instance(s3, 3, declared_decomposition_subgroups=(sub,))
    with pytest.raises(Inconsistent):
        validate(inst)


def test_cm_elliptic_curve_example():
    # g = 1, m = 3, G = C2 acting by -1; CM field
    c2 = cyclic(2)
    chi = CyclotomicCharacter(c2, 3, (1, 2))
    inst = make_instance(
        c2,
        3,
        character=chi,
        g=1,
        dl_commutative=True,
        dl_cm_field=True,
        geometrically_simple=True,
    )
    verdict = decide(inst)
    assert verdict.holds
    assert verdict.criterion == "full-decomposition-group"  # G is cyclic
    # the trace also shows that the no-invariant-roots criterion fires
    assert entry(verdict, "no-invariant-roots").outcome == "fired"


def test_ggl_example():
    # m = 3, G = (Z/3)^* = C2 with the full cyclotomic character
    c2 = cyclic(2)
    chi = CyclotomicCharacter(c2, 3, (1, 2))
    inst = make_instance(
        c2,
        3,
        character=chi,
        dl_commutative=True,
        geometrically_simple=True,
    )
    verdict = decide(inst)
    assert verdict.holds
    fired = fired_criteria(verdict)
    assert "no-invariant-roots" in fired
    e4 = entry(verdict, "no-invariant-roots")
    assert e4.hypotheses["fixed_invariant_factors"] == []


def test_s3_cm_example():
    # g = 6, m = 3, G = S3, CM field, mu_3 in D
    s3 = symmetric(3)
    inst = make_instance(
        s3,
        3,
        g=6,
        dl_commutative=True,
        dl_cm_field=True,
        mu_m_in_d=True,
        geometrically_simple=True,
    )
    verdict = decide(inst)
    assert verdict.holds
    e6 = entry(verdict, "coprime-index-decomposition")
    assert e6.outcome == "fired"
    c3 = next(s for s in subgroups(s3) if s.order == 3)
    assert tuple(e6.hypotheses["normal_subgroup"]) == c3.elements
    assert e6.hypotheses["index"] == 2


def test_negative_control_m2_g4():
    # m = 2, g = 4, G = C2 x C2, only commutativity: must stay UNKNOWN
    group = direct_product(cyclic(2), cyclic(2))
    inst = make_instance(group, 2, g=4, dl_commutative=True)
    verdict = decide(inst)
    assert verdict.status == "UNKNOWN"
    assert verdict.criterion is None
    assert not fired_criteria(verdict)
    assert len(verdict.trace) == 8  # every criterion was attempted


def test_c5_fires_with_full_group_when_orders_coprime():
    # commutative, trivial character, gcd(m, |G|) = 1: C5 fires with N = G
    group = cyclic(4)
    inst = make_instance(group, 3, dl_commutative=True)
    verdict = decide(inst)
    e5 = entry(verdict, "coprime-normal-collapse")
    assert e5.outcome == "fired"
    assert tuple(e5.hypotheses["normal_subgroup"]) == tuple(group.elements())


def test_cyclic_groups_never_unknown():
    from twistlgp.gmodules import all_characters

    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        for m in (2, 3, 9):
            group = cyclic(n)
            for chi in all_characters(group, m):
                for flags in ({}, {"dl_commutative": True}, {"g": n}):
                    verdict = decide(
                        make_instance(group, m, character=chi, **flags)
                    )
                    assert verdict.holds
                    assert (
                        entry(verdict, "full-decomposition-group").outcome == "fired"
                    )


def test_monotonicity_in_declared_subgroups():
    cases = []
    s3 = symmetric(3)
    cases.append(make_instance(s3, 3, dl_commutative=True, dl_cm_field=True))
    group = direct_product(cyclic(2), cyclic(2))
    cases.append(make_instance(group, 3, dl_commutative=True))
    cases.append(make_instance(group, 2, dl_commutative=True))
    for inst in cases:
        base = decide(inst)
        for sub in subgroups(inst.group):
            richer = Instance(
                m=inst.m,
                group=inst.group,
                character=inst.character,
                g=inst.g,
                dl_equals_d=inst.dl_equals_d,
                dl_commutative=inst.dl_commutative,
                dl_cm_field=inst.dl_cm_field,
                mu_m_in_d=inst.mu_m_in_d,
                geometrically_simple=inst.geometrically_simple,
                albert=inst.albert,
                declared_decomposition_subgroups=inst.declared_decomposition_subgroups + (sub,),
            )
            richer_verdict = decide(richer)
            if base.holds:
                assert richer_verdict.holds


def test_declared_full_decomposition_group_fires():
    group = direct_product(cyclic(2), cyclic(2))
    full = Subgroup(group, tuple(group.elements()))
    inst = make_instance(group, 2, declared_decomposition_subgroups=(full,))
    verdict = decide(inst)
    assert verdict.criterion == "full-decomposition-group"


def test_decide_deterministic():
    s3 = symmetric(3)
    inst = make_instance(
        s3, 3, g=6, dl_commutative=True, dl_cm_field=True, mu_m_in_d=True
    )
    v1 = decide(inst)
    v2 = decide(inst)
    assert v1.to_dict() == v2.to_dict()


def test_trace_soundness_recheck():
    # rerun the operations named in fired hypotheses and compare
    s3 = symmetric(3)
    inst = make_instance(
        s3, 3, g=6, dl_commutative=True, dl_cm_field=True, mu_m_in_d=True
    )
    verdict = decide(inst)
    e5 = entry(verdict, "coprime-normal-collapse")
    if e5.outcome == "fired":
        elems = tuple(e5.hypotheses["normal_subgroup"])
        normal = Subgroup(s3, elems)
        q, proj = quotient(s3, normal)
        module = mu_module(s3, 3, inst.character)
        coeff, _ = descend_to_quotient(module, proj)
        h2 = cohomology(q, coeff, 2)
        assert list(h2.invariant_factors) == e5.hypotheses["h2_invariant_factors"]
    e6 = entry(verdict, "coprime-index-decomposition")
    assert e6.outcome == "fired"
    elems = tuple(e6.hypotheses["normal_subgroup"])
    normal = Subgroup(s3, elems)
    assert normal.is_normal()
    assert normal.is_cyclic
    from math import gcd

    assert gcd(s3.order // normal.order, 3) == 1


def test_groups_of_order():
    assert [g.name for g in groups_of_order(1)] == ["C1"]
    assert len(groups_of_order(4)) == 2
    assert len(groups_of_order(6)) == 2
    assert len(groups_of_order(8)) == 5
    assert len(groups_of_order(9)) == 2
    assert len(groups_of_order(15)) == 1
    assert len(groups_of_order(25)) == 2  # p^2 rule
    assert len(groups_of_order(33)) == 1  # 3 * 11, 11 != 1 mod 3
    assert len(groups_of_order(26)) == 2  # 2 * 13: cyclic and dihedral
    with pytest.raises(CatalogIncomplete):
        groups_of_order(12)
    with pytest.raises(CatalogIncomplete):
        groups_of_order(16)
    with pytest.raises(CatalogIncomplete):
        groups_of_order(21)  # 7 = 1 mod 3: a nonabelian group exists


def test_groups_of_order_names_up_to_15():
    # the names reach the case machine's output; order 6 says S3, not D3
    names = {
        1: ["C1"], 2: ["C2"], 3: ["C3"], 4: ["C4", "C2xC2"], 5: ["C5"],
        6: ["C6", "S3"], 7: ["C7"], 8: ["C8", "C4xC2", "C2xC2xC2", "D4", "Q8"],
        9: ["C9", "C3xC3"], 10: ["C10", "D5"], 11: ["C11"], 13: ["C13"],
        14: ["C14", "D7"], 15: ["C15"],
    }
    for n, expected in names.items():
        assert [g.name for g in groups_of_order(n)] == expected, n
    with pytest.raises(CatalogIncomplete):
        groups_of_order(12)


def test_case_machine_shortcut():
    # g = 2, m = 5: phi(5) = 4 = 2g, so d = 1 and the shortcut fires
    analysis = case_machine_easylgp(2, 5)
    assert analysis.resolved
    assert analysis.shortcut is not None
    assert analysis.shortcut["certificate"]["value"] == 1
    assert analysis.cases == ()


def test_case_machine_g3_m3():
    analysis = case_machine_easylgp(3, 3)
    assert analysis.resolved
    assert analysis.shortcut is None
    orders = sorted({c["order"] for c in analysis.cases})
    assert orders == [1, 2, 3]
    assert all(c["resolved_by"] is not None for c in analysis.cases)


def test_case_machine_g6_m3():
    analysis = case_machine_easylgp(6, 3)
    assert analysis.resolved
    names = {c["group"]: c for c in analysis.cases}
    assert "S3" in names
    assert names["S3"]["resolved_by"] == "coprime-index-decomposition"
    assert names["S3"]["index"] == 2
    import re

    cyclic_cases = [
        c for c in analysis.cases if re.fullmatch(r"C\d+", c["group"]) and c["order"] > 1
    ]
    assert all(c["resolved_by"] == "full-decomposition-group" for c in cyclic_cases)
    # C2 x C2 is not cyclic and resolves through a coprime-index subgroup
    assert names["C2xC2"]["resolved_by"] == "coprime-index-decomposition"


def test_case_machine_inadmissible():
    analysis = case_machine_easylgp(1, 5)  # phi(5) = 4 does not divide 2
    assert not analysis.resolved
    assert "not an admissible twist order" in analysis.reason
    with pytest.raises(ValueError):
        case_machine_easylgp(3, 4)


def test_c7_full_reproduction():
    placeholder = direct_product(cyclic(2), cyclic(2))
    expected_branch = {}
    for g in range(1, 9):
        for m in admissible_m(g):
            if (g, m) in ((3, 3), (6, 3)):
                expected_branch[(g, m)] = "small-dimension-case-analysis"
            else:
                expected_branch[(g, m)] = "twist-order-coprime-to-rank"
    for (g, m), branch in expected_branch.items():
        inst = make_instance(
            placeholder, m, g=g, mu_m_in_d=True, geometrically_simple=True
        )
        verdict = decide(inst)
        assert verdict.holds, (g, m)
        assert verdict.criterion == branch, (g, m, verdict.criterion)


def test_c7_notes_g8():
    placeholder = direct_product(cyclic(2), cyclic(2))
    analysis = case_machine_easylgp(8, 3)
    assert analysis.resolved
    assert any("g = 8" in note for note in analysis.notes)


def test_albert_profile_passthrough():
    # d given in the profile feeds criterion C2 directly
    group = direct_product(cyclic(2), cyclic(2))
    inst = make_instance(
        group,
        3,
        g=6,
        mu_m_in_d=True,
        albert=AlbertProfile(g=6, m=3, center_degree=12),
    )
    verdict = decide(inst)
    assert verdict.criterion == "twist-order-coprime-to-rank"
    cert = entry(verdict, "twist-order-coprime-to-rank").hypotheses["certificate"]
    assert cert["rule"] == "center-degree"


def _old_choices(group, m, declared):
    """The C5 subgroup, C6 subgroup and case-machine witness as chosen by
    scanning every normal subgroup from subgroups(), largest first."""
    normals = sorted(
        (s for s in subgroups(group) if s.is_normal()), key=lambda s: (-s.order, s.elements)
    )
    declared_elements = {d.elements for d in declared}
    c5 = next(s for s in normals if gcd(s.order, m) == 1)
    c6 = next(
        (
            s for s in normals
            if gcd(s.index, m) == 1 and (s.is_cyclic or s.elements in declared_elements)
        ),
        None,
    )
    witness = next(
        (s for s in normals if gcd(s.index, m) == 1 and s.is_cyclic and s.order > 1), None
    )
    return c5, c6, witness


def test_lattice_free_choices_match_the_full_lattice():
    c2, c3 = cyclic(2), cyclic(3)
    cases = [
        cyclic(1), cyclic(6), symmetric(3), dihedral(4), quaternion(),
        direct_product(c2, c2, c2), dihedral(5), cyclic(12), dihedral(6), symmetric(4),
        direct_product(quaternion(), c2), direct_product(dihedral(4), c2),
        direct_product(c3, symmetric(3)), direct_product(dihedral(4), symmetric(3)),
        direct_product(symmetric(4), c2), direct_product(c2, c2, c2, c2, c2),
    ]
    for group in cases:
        # declare every other non-cyclic subgroup, normal or not
        non_cyclic = [s for s in subgroups(group) if not s.is_cyclic]
        declared = tuple(non_cyclic[::2])
        for m in range(1, 13):
            old_c5, old_c6, old_witness = _old_choices(group, m, declared)
            assert lgp._largest_coprime_normal(group, m).elements == old_c5.elements
            inst = make_instance(
                group, m, dl_commutative=True, declared_decomposition_subgroups=declared
            )
            c6 = lgp._check_c6(inst)
            if old_c6 is None:
                assert isinstance(c6, lgp._Failed), (group, m)
            else:
                assert tuple(c6["normal_subgroup"]) == old_c6.elements, (group, m)
                assert c6["realized"].startswith(
                    "cyclic" if old_c6.is_cyclic else "declared"
                )
            witness = lgp._cyclic_normal_witness(group, m)
            assert (witness and witness.elements) == (old_witness and old_witness.elements)


def test_decide_never_enumerates_the_lattice(monkeypatch):
    def refuse(group):
        raise AssertionError("decide enumerated the subgroup lattice")

    monkeypatch.setattr(groups, "subgroups", refuse)
    monkeypatch.setattr(lgp, "subgroups", refuse, raising=False)
    group = direct_product(*[cyclic(2)] * 6)
    inst = make_instance(group, 3, dl_commutative=True)
    verdict = decide(inst)
    assert verdict.status == "HOLDS"
    assert verdict.criterion == "coprime-normal-collapse"
    e5 = entry(verdict, "coprime-normal-collapse")
    assert tuple(e5.hypotheses["normal_subgroup"]) == tuple(group.elements())



def test_verify_paper_never_enumerates_the_lattice(monkeypatch):
    def refuse(group):
        raise AssertionError("verify-paper enumerated the subgroup lattice")

    monkeypatch.setattr(groups, "subgroups", refuse)
    monkeypatch.setattr(verify, "subgroups", refuse, raising=False)
    (result,) = verify.run_checks("inflation-restriction-collapse")
    assert result.passed, result.details

def test_c5_failure_records_one_attempt():
    # S3 with m = 2: O_2'(S3) = C3 and H^2(S3/C3, Z/2) = Z/2; by
    # Hochschild-Serre the trivial subgroup would give the same group
    s3 = symmetric(3)
    e5 = entry(decide(make_instance(s3, 2, dl_commutative=True)), "coprime-normal-collapse")
    assert e5.outcome == "failed"
    assert e5.hypotheses["attempts"] == [
        {"normal_subgroup": [0, 3, 4], "h2_invariant_factors": [2]}
    ]


def test_decide_with_the_twist_order_one():
    # mu_1 is the zero module: C5 descends it and asks for H^2 with no
    # coefficients, which used to crash on the 0 x 0 action matrix
    doc = {"m": 1, "group": "C2", "flags": {"dl_commutative": True}}
    verdict = decide(parse_instance(json.dumps(doc)))
    assert verdict.status == "HOLDS"
    assert entry(verdict, "coprime-normal-collapse").outcome == "fired"


def test_decide_with_a_twist_order_past_int64():
    # C5 asks for H^2 with coefficients Z/10^40, past the int64 blocks
    doc = {"m": 10**40, "group": "S3", "flags": {"dl_commutative": True}}
    verdict = decide(parse_instance(json.dumps(doc)))
    assert verdict.status == "UNKNOWN"
    (c5,) = [e for e in verdict.trace if e.criterion == "coprime-normal-collapse"]
    assert c5.outcome == "failed"
    assert [a["h2_invariant_factors"] for a in c5.hypotheses["attempts"]] == [[2]]


def test_the_trace_lists_the_criteria_table_in_order():
    # one entry per row of CRITERIA, in its order and with its citation; a
    # row with an unset flag fails naming the first one, and a verdict cites
    # the row that fired
    s3 = symmetric(3)
    for inst in [
        make_instance(s3, 3),
        make_instance(s3, 2, dl_commutative=True),
        make_instance(cyclic(1), 3, g=1, dl_equals_d=True, mu_m_in_d=True),
        make_instance(s3, 5, g=1, mu_m_in_d=True, geometrically_simple=True),
    ]:
        verdict = decide(inst)
        assert [(e.criterion, e.citation) for e in verdict.trace] == [
            (cid, citation) for cid, _flags, _check, citation in lgp.CRITERIA
        ]
        for e, (_cid, flags, _check, _citation) in zip(verdict.trace, lgp.CRITERIA):
            unset = [flag for flag in flags if not getattr(inst, flag)]
            if unset:
                assert (e.outcome, e.reason) == ("failed", f"{unset[0]} is not set")
                assert e.hypotheses == {}
        if verdict.holds:
            assert verdict.citations == (entry(verdict, verdict.criterion).citation,)
    assert [cid for cid, *_ in lgp.CRITERIA] == [
        "all-endomorphisms-rational", "full-decomposition-group",
        "twist-order-coprime-to-rank", "cm-field-coprime-order", "no-invariant-roots",
        "coprime-normal-collapse", "coprime-index-decomposition",
        "small-dimension-case-analysis",
    ]


def test_decide_builds_mu_m_once(monkeypatch):
    # C4 and C5 read one module per instance; an instance without
    # dl_commutative runs neither and builds none
    calls = []

    def counted(*args):
        calls.append(args)
        return mu_module(*args)

    monkeypatch.setattr(lgp, "mu_module", counted)
    s3 = symmetric(3)
    chi = CyclotomicCharacter(s3, 3, (1, 2, 2, 1, 1, 2))
    for inst, builds in [
        (make_instance(s3, 3, chi, dl_commutative=True), 1),
        (make_instance(s3, 2, dl_commutative=True), 1),
        (make_instance(cyclic(4), 5, dl_commutative=True, dl_cm_field=True), 1),
        (make_instance(s3, 3, chi), 0),
    ]:
        calls.clear()
        decide(inst)
        assert calls == [(inst.group, inst.m, inst.character)] * builds


# the named groups of order at most 12, and S4
COPRIME_NORMAL_GROUPS = (
    [f"C{n}" for n in range(1, 13)] + [f"D{n}" for n in range(2, 7)] + ["Q8", "S3", "S4"]
)


def test_largest_coprime_normal_by_enumeration():
    # O_{m'}(G) is the largest normal subgroup of order prime to m; it is
    # unique, and here found among all subgroups
    for name in COPRIME_NORMAL_GROUPS:
        group = groups.named_group(name)
        normal = [s for s in subgroups(group) if s.is_normal()]
        for m in range(1, 13):
            coprime = [s for s in normal if gcd(s.order, m) == 1]
            largest = max(s.order for s in coprime)
            (expected,) = [s for s in coprime if s.order == largest]
            assert lgp._largest_coprime_normal(group, m) == expected, (name, m)


# decide-batch's documents (see tests/data/instances)
INSTANCES = Path(__file__).resolve().parent / "data" / "instances"


def instance_groups():
    """The distinct groups of the instance documents."""
    found = {}
    for path in sorted(INSTANCES.glob("*.json")):
        group = groups.build_group(json.loads(path.read_text())["group"])
        found.setdefault(group.mul_table, group)
    return list(found.values())


def reference_coprime_index_normal(group, subs, m):
    """Every candidate's normality tested, then the minimum taken."""
    fits = (s for s in subs if gcd(group.order // s.order, m) == 1 and s.is_normal())
    return min(fits, key=lambda s: (-s.order, s.elements), default=None)


def reference_largest_coprime_normal(group, m):
    """The union of the normal closures <x^G> of order prime to m, one
    closure per element not yet in the union, then the subgroup it
    generates."""
    inside = {0}
    for x in group.elements():
        if x in inside or gcd(group.element_order(x), m) != 1:
            continue
        closure = groups.normal_closure(group, [x])
        if gcd(closure.order, m) == 1:
            inside.update(closure.elements)
    return subgroup_generated(group, inside)


def test_coprime_normal_searches_match_their_reference_forms():
    # C6 stops at the first normal candidate, largest first, and C5 grows
    # one join; both find what testing every candidate finds
    found = 0
    instances = instance_groups()
    assert len(instances) == 12
    for group in instances:
        lattice = subgroups(group)
        families = [lattice, groups.cyclic_subgroups(group), lattice[::3]]
        for m in range(1, 13):
            for subs in families:
                got = lgp._coprime_index_normal(group, subs, m)
                assert got == reference_coprime_index_normal(group, subs, m), (group.name, m)
                found += got is not None
            assert lgp._largest_coprime_normal(group, m) == reference_largest_coprime_normal(group, m)
    assert found > 300
