import itertools

import pytest

from twistlgp.groups import (
    FiniteGroup,
    GroupHom,
    NotAGroup,
    NotNormal,
    Subgroup,
    build_group,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    group_spec,
    named_group,
    normal_closure,
    quaternion,
    quotient,
    subgroup_generated,
    subgroups,
    symmetric,
)

CATALOG = [
    cyclic(1),
    cyclic(2),
    cyclic(3),
    cyclic(4),
    cyclic(6),
    direct_product(cyclic(2), cyclic(2)),
    symmetric(3),
    dihedral(4),
    quaternion(),
]


def brute_subgroups(group):
    """Independent oracle: filter every subset containing 0 (order <= 12)."""
    assert group.order <= 12
    rest = [g for g in group.elements() if g != 0]
    found = set()
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            elems = set(combo) | {0}
            closed = all(
                group.mul(a, b) in elems for a in elems for b in elems
            ) and all(group.inv(a) in elems for a in elems)
            if closed:
                found.add(tuple(sorted(elems)))
    return found


def test_named_families():
    assert named_group("C1").order == 1
    assert named_group("C64").order == 64
    assert named_group("S3").order == 6
    assert named_group("S4").order == 24
    assert named_group("D4").order == 8
    assert named_group("Q8").order == 8
    with pytest.raises(NotAGroup):
        named_group("C65")
    with pytest.raises(NotAGroup):
        named_group("D17")  # order 34 > 32
    with pytest.raises(NotAGroup):
        named_group("S5")
    with pytest.raises(NotAGroup):
        named_group("E8")


def test_build_group_grammar():
    g = build_group({"kind": "named", "name": "S3"})
    assert g.order == 6
    g2 = build_group({"kind": "product", "factors": ["C2", "C3"]})
    assert g2.order == 6 and g2.is_cyclic  # C2 x C3 is C6
    g3 = build_group({"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]})
    assert g3.order == 2
    assert build_group(group_spec(symmetric(3))) == symmetric(3)
    with pytest.raises(NotAGroup):
        build_group({"kind": "table", "order": 2, "table": [[0, 1], [0, 1]]})
    with pytest.raises(NotAGroup):
        build_group({"kind": "mystery"})


def test_table_spec_names_its_missing_field():
    # not a bare KeyError, which the command line printed as just 'table'
    for spec, missing in [
        ({"kind": "table", "order": 2}, "'table'"),
        ({"kind": "table", "table": [[0]]}, "'order'"),
        ({"kind": "table"}, "'order'"),
    ]:
        with pytest.raises(NotAGroup, match=f"missing {missing}"):
            build_group(spec)


def test_rejects_non_groups():
    # identity not at 0
    with pytest.raises(NotAGroup):
        FiniteGroup(2, ((1, 0), (0, 1)))
    # latin square but not associative: exists for order 5 quasigroups
    table = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(NotAGroup):
        FiniteGroup(5, table)


def test_element_basics():
    g = symmetric(3)
    for a in g.elements():
        assert g.mul(a, g.inv(a)) == 0
        assert g.mul(g.inv(a), a) == 0
    orders = sorted(g.element_order(a) for a in g.elements())
    assert orders == [1, 2, 2, 2, 3, 3]
    assert not g.is_abelian and not g.is_cyclic
    assert cyclic(6).is_cyclic
    assert quaternion().element_order(2) == 4  # i has order 4


def test_subgroups_against_powerset_oracle():
    for group in CATALOG:
        got = {s.elements for s in subgroups(group)}
        assert got == brute_subgroups(group)


def test_subgroup_counts():
    assert len(subgroups(cyclic(1))) == 1
    assert len(subgroups(symmetric(3))) == 6  # 1, three C2, C3, S3
    assert len(subgroups(cyclic(4))) == 3
    assert len(subgroups(cyclic(6))) == 4
    by_order = sorted(s.order for s in subgroups(symmetric(3)))
    assert by_order == [1, 2, 2, 2, 3, 6]


def test_cyclic_subgroups():
    s3 = symmetric(3)
    cyc = cyclic_subgroups(s3)
    assert len(cyc) == 5  # all subgroups except S3 itself
    assert all(c.is_cyclic for c in cyc)
    assert {c.elements for c in cyc} <= {s.elements for s in subgroups(s3)}
    c6 = cyclic(6)
    assert len(cyclic_subgroups(c6)) == len(subgroups(c6)) == 4
    triv = cyclic(1)
    assert [c.elements for c in cyclic_subgroups(triv)] == [(0,)]
    # equality with subgroups() exactly when every subgroup is cyclic
    for group in CATALOG:
        subs = subgroups(group)
        cycs = {c.elements for c in cyclic_subgroups(group)}
        if all(s.is_cyclic for s in subs):
            assert cycs == {s.elements for s in subs}
        else:
            assert cycs < {s.elements for s in subs}


def test_normal_closure_is_least_normal_overgroup():
    for group in CATALOG + [symmetric(4)]:
        normals = [s for s in subgroups(group) if s.is_normal()]
        pair = [group.order // 2, group.order - 1]
        for elements in [[x] for x in group.elements()] + [pair]:
            least = min(
                (s for s in normals if set(elements) <= set(s.elements)),
                key=lambda s: s.order,
            )
            assert normal_closure(group, elements).elements == least.elements
    with pytest.raises(NotAGroup):
        subgroup_generated(cyclic(3), [-1])
    with pytest.raises(NotAGroup):
        subgroup_generated(cyclic(3), [3])


def test_subgroup_list_closed_under_conjugation():
    for group in CATALOG + [symmetric(4)]:
        subs = {s.elements for s in subgroups(group)}
        for elems in subs:
            for g in group.elements():
                conj = tuple(sorted(group.conjugate(g, h) for h in elems))
                assert conj in subs


def test_conjugates_are_the_orbit_under_every_element():
    # on every subgroup of the named groups of order at most 24 and of the
    # sha-wide benchmark's groups: the orbit closed under the generators is
    # {g H g^-1 : g in G}, and is_normal() agrees with conjugating H by
    # every element
    names = [f"C{n}" for n in range(1, 25)] + [f"D{n}" for n in range(2, 13)] + ["Q8", "S3", "S4"]
    s4, d4, q8 = symmetric(4), dihedral(4), quaternion()
    groups = [named_group(name) for name in names] + [
        direct_product(s4, cyclic(2)),
        direct_product(d4, symmetric(3)),
        direct_product(q8, cyclic(4)),
        direct_product(cyclic(4), cyclic(4), cyclic(2)),
    ]
    checked = normal = 0
    for group in groups:
        for sub in subgroups(group):
            brute = {
                tuple(sorted(group.conjugate(g, h) for h in sub.elements))
                for g in group.elements()
            }
            assert sub.conjugates == brute, sub
            inside = set(sub.elements)
            everywhere = all(group.conjugate(g, h) in inside for g in group.elements() for h in inside)
            assert sub.is_normal() == everywhere, sub
            checked += 1
            normal += everywhere
    assert (checked, normal) == (596, 274)


def test_normality_and_quotient():
    s3 = symmetric(3)
    c3 = next(s for s in subgroups(s3) if s.order == 3)
    assert c3.is_normal()
    q, proj = quotient(s3, c3)
    assert q.order == 2
    assert proj.kernel_elements() == c3.elements
    some_c2 = next(s for s in subgroups(s3) if s.order == 2)
    assert not some_c2.is_normal()
    with pytest.raises(NotNormal):
        quotient(s3, some_c2)
    # N = G gives the trivial quotient
    full = Subgroup(s3, tuple(s3.elements()))
    q2, proj2 = quotient(s3, full)
    assert q2.order == 1
    # |G/N| * |N| == |G| across the catalog
    for group in CATALOG:
        for sub in subgroups(group):
            if sub.is_normal():
                q3, _ = quotient(group, sub)
                assert q3.order * sub.order == group.order


def test_quotient_hom_is_validated():
    with pytest.raises(ValueError):
        GroupHom(cyclic(4), cyclic(2), (0, 1, 1, 1))


def test_hom_rejects_images_outside_the_target():
    # 5 is not an element of C2; this used to be an IndexError
    for images in [(0, 5), (0, 2), (0, -1)]:
        with pytest.raises(ValueError, match="outside the target"):
            GroupHom(cyclic(2), cyclic(2), images)
    assert GroupHom(cyclic(2), cyclic(2), (0, 1)).images == (0, 1)


def test_section_is_least_preimage():
    s3 = symmetric(3)
    c3 = next(s for s in subgroups(s3) if s.order == 3)
    c6 = cyclic(6)
    for group, normal, expected in [
        (s3, c3, (0, 1)),
        (c6, subgroup_generated(c6, [3]), (0, 1, 2)),
    ]:
        _, proj = quotient(group, normal)
        assert proj.section == expected
        for q, g in enumerate(proj.section):
            assert g == min(x for x in group.elements() if proj(x) == q)
    with pytest.raises(ValueError, match="not onto"):
        GroupHom(cyclic(2), cyclic(4), (0, 2)).section


def test_subgroup_as_group():
    s3 = symmetric(3)
    c3 = next(s for s in subgroups(s3) if s.order == 3)
    sub, embed = c3.as_group
    assert sub.order == 3 and sub.is_cyclic
    for i in range(3):
        for j in range(3):
            assert embed[sub.mul(i, j)] == s3.mul(embed[i], embed[j])
    full = Subgroup(s3, tuple(s3.elements()))
    again, embed2 = full.as_group
    assert again == s3
    assert embed2 == tuple(s3.elements())


def test_hash_reads_the_table_once():
    # equal tables give equal hashes, whatever the name, and the hash of
    # (order, table) is kept: a second hash does not read the table again
    s4 = symmetric(4)
    copy = FiniteGroup(s4.order, s4.mul_table, name="other")
    assert copy == s4 and hash(copy) == hash(s4) == hash((s4.order, s4.mul_table))
    object.__setattr__(copy, "mul_table", [[]])  # unhashable: a rehash would raise
    assert hash(copy) == hash(s4)
    assert {Subgroup(s4, (0,)), Subgroup(symmetric(4), (0,))} == {Subgroup(s4, (0,))}


def test_dihedral_structure():
    d4 = dihedral(4)
    assert d4.order == 8 and not d4.is_abelian
    # rotations form a cyclic normal subgroup of order 4
    rot = subgroup_generated(d4, [1])
    assert rot.order == 4 and rot.is_normal()
    # D3 is S3 up to isomorphism: same multiset of element orders
    d3 = dihedral(3)
    assert sorted(d3.element_order(g) for g in d3.elements()) == sorted(
        symmetric(3).element_order(g) for g in symmetric(3).elements()
    )


def test_subgroup_validation():
    s3 = symmetric(3)
    with pytest.raises(NotAGroup):
        Subgroup(s3, (0, 1, 2))  # not closed under multiplication
    with pytest.raises(NotAGroup):
        Subgroup(s3, (1, 2))  # missing the identity
    Subgroup(s3, (0, 1))


def test_quaternion_structure():
    q8 = quaternion()
    orders = sorted(q8.element_order(g) for g in q8.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    # every subgroup of Q8 is normal
    assert all(s.is_normal() for s in subgroups(q8))
    assert len(subgroups(q8)) == 6
