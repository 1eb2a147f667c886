import ast
import importlib
import itertools
import random
from collections import Counter
from math import gcd, prod
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import closed_forms
from twistlgp import linalg, verify
from twistlgp.albert import factorize
from twistlgp.cohomology import (
    Cochain,
    CohClass,
    CohomologyMap,
    IncompatibleCoefficients,
    TooLarge,
    coboundary,
    cohomology,
    conjugation_on_cohomology,
    inflation,
    is_cocycle,
    restriction,
    sha_finite,
    tuple_index,
    zero_cochain,
)
from twistlgp.gmodules import (
    CyclotomicCharacter,
    GModule,
    all_characters,
    descend_to_quotient,
    gmodule,
    mu_module,
    trivial_module,
)
from twistlgp.groups import (
    FiniteGroup,
    Subgroup,
    _closure,
    cyclic,
    cyclic_subgroups,
    direct_product,
    named_group,
    quaternion,
    quotient,
    subgroup_generated,
    subgroups,
    symmetric,
)
from twistlgp.oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    OracleBudget,
    brute_h1,
    brute_h2,
    brute_sha,
    invariant_factors_from_orders,
)

# the package re-exports the function cohomology under the module's name
cohomology_module = importlib.import_module("twistlgp.cohomology")


def random_cochain(module, degree, rng):
    count = module.group.order**degree
    vector = tuple(rng.randrange(d) for _ in range(count) for d in module.orders)
    return Cochain(module, degree, vector)


def formula_coboundary(c):
    """d0, d1 and d2 written out with the module's element arithmetic."""
    module, group = c.module, c.module.group
    act, add, neg, mul = module.act, module.add, module.neg, group.mul
    if c.degree == 0:
        m = c()
        return {(g,): add(act(g, m), neg(m)) for g in group.elements()}
    if c.degree == 1:
        return {
            (g, h): add(add(act(g, c(h)), neg(c(mul(g, h)))), c(g))
            for g, h in itertools.product(group.elements(), repeat=2)
        }
    return {
        (g, h, k): add(
            add(add(act(g, c(h, k)), neg(c(mul(g, h), k))), c(g, mul(h, k))),
            neg(c(g, h)),
        )
        for g, h, k in itertools.product(group.elements(), repeat=3)
    }


def full_subgroup(group):
    return Subgroup(group, tuple(group.elements()))


def matrix_product(outer, inner):
    """The matrix of ``outer`` after ``inner``, one column per generator of
    inner.source."""
    assert inner.target is outer.source
    cols = len(inner.source.invariant_factors)
    return [
        [sum(row[k] * inner.matrix[k][j] for k in range(len(inner.matrix))) for j in range(cols)]
        for row in outer.matrix
    ]


def test_coboundary_formulas():
    rng = random.Random(11)
    s3 = symmetric(3)
    module = mu_module(s3, 9, all_characters(s3, 9)[-1])
    for degree in (0, 1):
        for _ in range(8):
            c = random_cochain(module, degree, rng)
            assert coboundary(coboundary(c)).is_zero  # d d = 0
    # coboundary() agrees with the d0/d1/d2 formulas
    q8 = quaternion()
    rank2 = gmodule(
        cyclic(4),
        [2, 4],
        [[[1, 0], [0, 1]], [[1, 1], [2, 1]], [[1, 0], [0, 3]], [[1, 1], [2, 3]]],
    )
    for mod in (module, mu_module(q8, 4, all_characters(q8, 4)[-1]), rank2):
        for degree in (0, 1, 2):
            for _ in range(3):
                c = random_cochain(mod, degree, rng)
                d = coboundary(c)
                for gs, expected in formula_coboundary(c).items():
                    assert d(*gs) == expected
    # a homomorphism into a trivial-action module is a 1-cocycle
    c6 = cyclic(6)
    m6 = trivial_module(c6, [3])
    hom = Cochain(m6, 1, tuple((2 * g) % 3 for g in c6.elements()))
    assert coboundary(hom).is_zero
    # degree-0 coboundary under the trivial action vanishes
    assert coboundary(Cochain(m6, 0, (2,))).is_zero


def test_h0_equals_invariants():
    from twistlgp.gmodules import invariants

    cases = [cyclic(1), cyclic(2), cyclic(6), symmetric(3)]
    for group in cases:
        for m in (3, 4, 9):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                h0 = cohomology(group, module, 0)
                assert h0.invariant_factors == invariants(module).orders


def test_cyclic_closed_forms():
    for n in range(1, 9):
        for m in (3, 5, 7, 9):
            group = cyclic(n)
            module = trivial_module(group, [m])
            expected = () if gcd(n, m) == 1 else (gcd(n, m),)
            assert cohomology(group, module, 1).invariant_factors == expected
            assert cohomology(group, module, 2).invariant_factors == expected


def test_coprime_order_vanishing():
    groups = [cyclic(2), cyclic(4), direct_product(cyclic(2), cyclic(2)), cyclic(8)]
    for group in groups:
        for m in (3, 5, 9):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                assert cohomology(group, module, 1).is_trivial
                assert cohomology(group, module, 2).is_trivial


def test_exponent_annihilates_cohomology():
    cases = [(cyclic(4), 8), (symmetric(3), 9), (cyclic(6), 9), (cyclic(6), 12)]
    for group, m in cases:
        for chi in all_characters(group, m)[:2]:
            module = mu_module(group, m, chi)
            for degree in (1, 2):
                h = cohomology(group, module, degree)
                assert module.size ** (group.order**degree) % h.order == 0
                for factor in h.invariant_factors:
                    assert group.order % factor == 0  # annihilated by |G|


def test_class_of_and_membership():
    group = cyclic(3)
    module = trivial_module(group, [3])
    h1 = cohomology(group, module, 1)
    assert h1.invariant_factors == (3,)
    rep = h1.representatives[0]
    assert is_cocycle(rep)
    assert h1.class_of(rep).coordinates == (1,)
    assert h1.class_of(rep.add(rep)).coordinates == (2,)
    assert h1.class_of(rep.scale(3)).is_zero
    assert h1.class_of(zero_cochain(module, 1)).is_zero
    with pytest.raises(ValueError):
        h1.class_of(Cochain(module, 1, (0, 1, 0)))  # not a cocycle


def test_element_reduces_each_coordinate():
    # H^1(C2, Z/4 with the generator acting by -1) = Z/2, and twice the
    # representative is a nonzero coboundary: element reads coordinate 3 as 1
    c2 = cyclic(2)
    h1 = cohomology(c2, mu_module(c2, 4, CyclotomicCharacter(c2, 4, (1, 3))), 1)
    assert h1.invariant_factors == (2,)
    rep = h1.representatives[0]
    assert not rep.scale(2).is_zero and h1.class_of(rep.scale(2)).is_zero
    assert h1.element((3,)) == h1.element((1,)) == rep
    assert h1.element((2,)).is_zero


def test_cochain_rejects_arguments_outside_the_group():
    # tuple_index would wrap them onto another tuple's value
    c2 = cyclic(2)
    module = trivial_module(c2, [2])
    h2 = cohomology(c2, module, 2)
    (c,) = h2.representatives
    assert c.vector == (0, 0, 0, 1) and c(1, 1) == (1,)
    for args, bad in [((0, 2), 2), ((1, -1), -1), ((2, 0), 2), ((-1, 1), -1)]:
        with pytest.raises(ValueError, match=f"argument {bad} "):
            c(*args)
    (h,) = cohomology(c2, module, 1).representatives
    for g in (2, -1):
        with pytest.raises(ValueError, match=f"argument {g} "):
            h(g)


def test_representatives_are_independent_cocycles():
    cases = [
        (direct_product(cyclic(2), cyclic(2)), 2),
        (cyclic(6), 3),
        (symmetric(3), 6),
    ]
    for group, m in cases:
        module = trivial_module(group, [m])
        for degree in (1, 2):
            h = cohomology(group, module, degree)
            for i, rep in enumerate(h.representatives):
                assert is_cocycle(rep)
                expected = tuple(
                    1 if j == i else 0 for j in range(len(h.invariant_factors))
                )
                assert h.class_of(rep).coordinates == expected
                assert not h.class_of(rep).is_zero


def test_too_large(monkeypatch):
    group = cyclic(8)
    module = trivial_module(group, [3])
    monkeypatch.setattr(cohomology_module, "SIZE_BOUND", 10)
    with pytest.raises(TooLarge):
        cohomology(group, module, 2)


def test_restriction_to_self_is_identity():
    s3 = symmetric(3)
    module = trivial_module(s3, [6])
    h1 = cohomology(s3, module, 1)
    res = restriction(h1, full_subgroup(s3))
    size = len(h1.invariant_factors)
    assert res.matrix == tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )
    assert res.is_isomorphism


def test_restriction_h1_s3_mod3():
    # Hom(S3, Z/3) = 0, so restriction to C3 is trivially injective
    s3 = symmetric(3)
    module = trivial_module(s3, [3])
    h1 = cohomology(s3, module, 1)
    assert h1.is_trivial
    c3 = next(s for s in subgroups(s3) if s.order == 3)
    res = restriction(h1, c3)
    assert res.is_injective


def test_restriction_h2_c6_to_c3_isomorphism():
    c6 = cyclic(6)
    module = trivial_module(c6, [3])
    h2 = cohomology(c6, module, 2)
    assert h2.invariant_factors == (3,)
    c3 = subgroup_generated(c6, [2])
    res = restriction(h2, c3)
    assert res.target.invariant_factors == (3,)
    assert res.is_isomorphism


def test_restriction_functoriality():
    # restricting D4 -> C4 (rotations) -> C2 equals restricting straight to C2
    from twistlgp.groups import dihedral

    d4 = dihedral(4)
    module = trivial_module(d4, [4])
    rotations = subgroup_generated(d4, [1])
    half_turn = subgroup_generated(d4, [2])
    assert half_turn.elements == (0, 2)
    for degree in (1, 2):
        h = cohomology(d4, module, degree)
        via_rotations = restriction(h, rotations)
        rot_group, embed = rotations.as_group
        positions = {g: i for i, g in enumerate(embed)}
        inner = Subgroup(rot_group, tuple(positions[g] for g in half_turn.elements))
        second = restriction(via_rotations.target, inner)
        composed = matrix_product(second, via_rotations)
        direct = restriction(h, half_turn)
        assert second.target is direct.target
        b = direct.target.invariant_factors
        for i in range(len(b)):
            assert all((x - y) % b[i] == 0 for x, y in zip(composed[i], direct.matrix[i]))


def test_inflation_identity_for_trivial_kernel():
    c6 = cyclic(6)
    module = trivial_module(c6, [3])
    trivial_sub = Subgroup(c6, (0,))
    q, proj = quotient(c6, trivial_sub)
    sub, embed = descend_to_quotient(module, proj)
    x = cohomology(q, sub, 2)
    inf = inflation(x, proj, module, embed)
    assert inf.is_isomorphism


def test_inflation_c6_collapse():
    # G = C6, N = C2, m = 3: inflation H^2(C3, Z/3) -> H^2(C6, Z/3) is an iso
    c6 = cyclic(6)
    module = trivial_module(c6, [3])
    n = subgroup_generated(c6, [3])
    q, proj = quotient(c6, n)
    sub, embed = descend_to_quotient(module, proj)
    assert sub.orders == (3,)
    x = cohomology(q, sub, 2)
    assert x.invariant_factors == (3,)
    inf = inflation(x, proj, module, embed)
    assert inf.target.invariant_factors == (3,)
    assert inf.is_isomorphism


def test_inflation_s3_zero_map_between_trivial_groups():
    s3 = symmetric(3)
    module = trivial_module(s3, [3])
    c3 = next(s for s in subgroups(s3) if s.order == 3)
    q, proj = quotient(s3, c3)
    sub, embed = descend_to_quotient(module, proj)
    assert sub.orders == (3,)  # mu_3 fixed by C3
    x = cohomology(q, sub, 2)
    assert x.is_trivial  # H^2(C2, Z/3) = 1
    inf = inflation(x, proj, module, embed)
    assert inf.target.is_trivial
    assert inf.is_zero


def test_inflation_rejects_bad_coefficients():
    c6 = cyclic(6)
    module = trivial_module(c6, [3])
    n = subgroup_generated(c6, [3])
    q, proj = quotient(c6, n)
    bad = trivial_module(q, [9])
    x = cohomology(q, bad, 2)
    with pytest.raises(IncompatibleCoefficients, match="not injective"):
        inflation(x, proj, module, [[1]])


# inflation from C6/C2 to C6: the cohomology group, the module and the
# embedding of each rejected call, with the message that names its fault.
# The injectivity and equivariance checks have tests of their own, the one
# above and the one below
INFLATION_REJECTIONS = {
    "cohomology is not over the quotient group": lambda c6, q: (
        cohomology(c6, trivial_module(c6, [3]), 2), trivial_module(c6, [3]), [[1]]
    ),
    "module is not over the source group": lambda c6, q: (
        cohomology(q, trivial_module(q, [3]), 2), trivial_module(q, [3]), [[1]]
    ),
    "embedding has the wrong shape": lambda c6, q: (
        cohomology(q, trivial_module(q, [3]), 2), trivial_module(c6, [3]), [[1, 0]]
    ),
    # Z/3 -> Z/9 by 1 sends 3 to 3, not 0
    "does not respect the orders": lambda c6, q: (
        cohomology(q, trivial_module(q, [3]), 2), trivial_module(c6, [9]), [[1]]
    ),
}


@pytest.mark.parametrize("message", INFLATION_REJECTIONS)
def test_inflation_names_each_rejection(message):
    c6 = cyclic(6)
    q, proj = quotient(c6, subgroup_generated(c6, [3]))
    coh, module, embedding = INFLATION_REJECTIONS[message](c6, q)
    with pytest.raises(IncompatibleCoefficients, match=message):
        inflation(coh, proj, module, embedding)


def test_inflation_rejects_coefficients_the_kernel_moves():
    # N = {0, 1} acts on mu_4 by -1, so the trivial Z/4 over G/N does not
    # embed equivariantly; the coset representatives 0 and 2 both act
    # trivially, so a check on them alone would accept it
    g = direct_product(cyclic(2), cyclic(2))
    module = mu_module(g, 4, CyclotomicCharacter(g, 4, (1, 3, 1, 3)))
    q, proj = quotient(g, Subgroup(g, (0, 1)))
    assert proj.section == (0, 2)
    for degree in range(3):
        x = cohomology(q, trivial_module(q, [4]), degree)
        with pytest.raises(IncompatibleCoefficients, match="not equivariant"):
            inflation(x, proj, module, [[1]])


def test_inflation_from_the_zero_module():
    # C6 acting on mu_3 through C6/C3: the order-2 subgroup fixes only 0, so
    # the descended coefficients are the zero module; inflation from it used
    # to fail on the 0 x 0 action matrix
    c6 = cyclic(6)
    module = mu_module(c6, 3, CyclotomicCharacter(c6, 3, (1, 2, 1, 2, 1, 2)))
    q, proj = quotient(c6, subgroup_generated(c6, [3]))
    zero, embed = descend_to_quotient(module, proj)
    assert zero.is_trivial and embed.shape == (1, 0)
    for degree in range(3):
        inf = inflation(cohomology(q, zero, degree), proj, module, embed)
        assert inf.source.is_trivial and inf.is_injective
        assert inf.image_invariants() == () and inf.is_zero


def test_inflation_restriction_exactness_h1():
    c4xc4 = direct_product(cyclic(4), cyclic(4))
    cases = [
        (cyclic(6), subgroup_generated(cyclic(6), [2]), 6),
        (symmetric(3), None, 6),
        (direct_product(cyclic(2), cyclic(2)), None, 2),
        # the image Z/2 x Z/4 is not cyclic, so the order of its factors shows
        (c4xc4, subgroup_generated(c4xc4, [2]), 4),
    ]
    for group, normal, m in cases:
        if normal is None:
            normal = next(
                s for s in subgroups(group) if s.is_normal() and 1 < s.order < group.order
            )
        module = trivial_module(group, [m])
        q, proj = quotient(group, normal)
        sub, embed = descend_to_quotient(module, proj)
        x = cohomology(q, sub, 1)
        inf = inflation(x, proj, module, embed)
        res = restriction(inf.target, normal)
        # res o inf = 0 and ker(res) = im(inf), with inf injective
        b = res.target.invariant_factors
        assert all(x % b[i] == 0 for i, row in enumerate(matrix_product(res, inf)) for x in row)
        assert inf.is_injective
        kernel_factors, _ = res.kernel()
        assert kernel_factors == inf.image_invariants()


def test_conjugation_action_s3_on_c3():
    s3 = symmetric(3)
    module = trivial_module(s3, [3])
    c3 = next(s for s in subgroups(s3) if s.order == 3)
    action = conjugation_on_cohomology(s3, c3, module, 2)
    assert action.cohomology.invariant_factors == (3,)
    assert action.quotient_group.order == 2
    mats = action.matrices
    assert mats[0] == ((1,),)
    assert mats[1] == ((2,),)  # the nontrivial coset acts by -1 on Z/3
    fixed_factors, _ = action.fixed_subgroup()
    assert fixed_factors == ()


def test_conjugation_trivial_cases():
    # G = N: inner automorphisms act trivially
    s3 = symmetric(3)
    module = trivial_module(s3, [6])
    action = conjugation_on_cohomology(s3, full_subgroup(s3), module, 1)
    assert action.quotient_group.order == 1
    factors, gens = action.fixed_subgroup()
    assert factors == action.cohomology.invariant_factors == (2,)
    # the generators are classes of the cohomology group, as kernel() gives
    assert [type(g) for g in gens] == [CohClass] and gens[0].parent is action.cohomology
    assert gens[0].coordinates == (1,)
    # abelian G with trivial action on M: trivial in all degrees
    for degree in (0, 1, 2):
        c6 = cyclic(6)
        mod = trivial_module(c6, [3])
        sub = subgroup_generated(c6, [2])
        act = conjugation_on_cohomology(c6, sub, mod, degree)
        assert act.fixed_subgroup()[0] == act.cohomology.invariant_factors


def test_restriction_onto_conjugation_invariants_s3():
    # res: H^2(S3, mu_3) -> H^2(C3, mu_3)^{S3/C3} is an isomorphism
    s3 = symmetric(3)
    module = trivial_module(s3, [3])
    c3 = next(s for s in subgroups(s3) if s.order == 3)
    h2 = cohomology(s3, module, 2)
    res = restriction(h2, c3)
    action = conjugation_on_cohomology(s3, c3, module, 2)
    fixed_factors, fixed_gens = action.fixed_subgroup()
    assert res.is_injective
    assert res.image_invariants() == fixed_factors == ()
    assert h2.order == 1


def test_sha_finite_properties():
    cases = [
        (symmetric(3), 6),
        (cyclic(6), 3),
        (direct_product(cyclic(2), cyclic(2)), 2),
        (direct_product(cyclic(3), cyclic(3)), 3),
    ]
    for group, m in cases:
        module = trivial_module(group, [m])
        h1 = cohomology(group, module, 1)
        # family containing G itself: trivial kernel
        sha = sha_finite(group, module, [full_subgroup(group)])
        assert sha.invariant_factors == ()
        # trivial action, all cyclic subgroups: a homomorphism vanishing on
        # every cyclic subgroup vanishes
        sha = sha_finite(group, module, cyclic_subgroups(group))
        assert sha.invariant_factors == ()
        # family = {trivial subgroup}: everything is locally trivial
        sha = sha_finite(group, module, [Subgroup(group, (0,))])
        assert sha.invariant_factors == h1.invariant_factors
    with pytest.raises(ValueError):
        sha_finite(symmetric(3), trivial_module(symmetric(3), [3]), [])


def test_sha_representatives_restrict_trivially():
    # a case with nontrivial H^1 where the kernel is proper
    group = direct_product(cyclic(2), cyclic(2))
    module = trivial_module(group, [2])
    family = [subgroup_generated(group, [1])]
    sha = sha_finite(group, module, family)
    h1 = cohomology(group, module, 1)
    assert sha.order < h1.order
    for rep in sha.representatives:
        assert is_cocycle(rep)
        res = restriction(h1, family[0])
        assert res.apply(h1.class_of(rep)).is_zero


def test_sha_finite_checks_the_family_whatever_h1():
    # a subgroup of another group is rejected before the trivial shortcut:
    # H^1(C4, Z/3) = 0 and H^1(C4, Z/2) = Z/2 alike
    c4 = cyclic(4)
    foreign = subgroup_generated(symmetric(3), [1])
    for m in (3, 2):
        with pytest.raises(ValueError, match="subgroup belongs to a different group"):
            sha_finite(c4, trivial_module(c4, [m]), [foreign])


def reduced_family(family):
    """The first maximal member of each conjugacy class of the family, in the
    family's order, found by conjugating with every element."""
    kept = []
    for sub in family:
        inside, group = set(sub.elements), sub.parent
        if any(inside < set(other.elements) for other in family):
            continue
        orbit = {frozenset(group.conjugate(g, h) for h in inside) for g in group.elements()}
        if all(frozenset(other.elements) not in orbit for other in kept):
            kept.append(sub)
    return kept


def test_sha_finite_restricts_to_one_maximal_member_per_class(monkeypatch):
    # over random families with duplicates, nested members, conjugates, G
    # and {1}, sha_finite reads the reduced family alone, each member at a
    # generating set, and finds the factors and representatives of the
    # kernel of all the family's restrictions; so do the reduced family and
    # the family with every conjugate and subgroup of its members added
    rng = random.Random(32)
    s4 = symmetric(4)
    groups = [named_group(name) for name in NAMED_TO_24] + [
        direct_product(s4, cyclic(2)),
        direct_product(named_group("D4"), symmetric(3)),
        direct_product(quaternion(), cyclic(4)),
        direct_product(cyclic(4), cyclic(4), cyclic(2)),
    ]
    read, reduce = [], cohomology_module._reduced_family

    def reduced(family):
        # the members read, as the subgroups their generators generate
        generators, group = reduce(family), family[0].parent
        read.extend(Subgroup(group, _closure(group, ends)) for ends in generators)
        return generators

    monkeypatch.setattr(cohomology_module, "_reduced_family", reduced)
    compared = nontrivial = dropped = 0
    for group in groups:
        pool = subgroups(group)
        one, full = pool[0], pool[-1]
        modules = [
            mu_module(group, m, chi)
            for m in (2, 3, 4, 6, 8, 12)
            for chi in all_characters(group, m)
        ]
        modules += [trivial_module(group, [2, 2]), trivial_module(group, [2, 6])]
        for module in rng.sample(modules, min(len(modules), 12)):
            h1 = cohomology(group, module, 1)
            source = rng.choice((pool, cyclic_subgroups(group)))
            family = rng.sample(source, min(len(source), rng.randint(1, 6)))
            family += [rng.choice(family) for _ in range(2)]  # duplicates
            inner = [s for s in pool if set(s.elements) < set(family[0].elements)]
            family += rng.sample(inner, min(len(inner), 1))  # a nested member
            family += [Subgroup(group, rng.choice(sorted(family[1].conjugates)))]
            family += [one] + [full] * (rng.random() < 0.2)
            rng.shuffle(family)
            kept = reduced_family(family)
            dropped += len(family) - len(kept)
            wider = family + [
                Subgroup(group, elems)
                for sub in pool
                if any(set(sub.elements) <= set(member.elements) for member in family)
                for elems in sorted(sub.conjugates)
            ]
            maps = [restriction(h1, sub) for sub in family]
            reference = linalg.kernel_subgroup(
                h1.invariant_factors, [(res.matrix, res.target.invariant_factors) for res in maps]
            )
            want = [tuple(h1.element(g).vector) for g in reference.generators().T]
            for members in (family, kept, wider):
                read.clear()
                sha = sha_finite(group, module, members)
                assert read == ([] if h1.is_trivial else reduced_family(members))
                assert sha.invariant_factors == reference.factors
                assert [rep.vector for rep in sha.representatives] == want
            compared += 1
            nontrivial += bool(reference.factors)
    assert (compared, nontrivial, dropped) == (456, 61, 3021)


def test_sha_count_equals_the_kernel_order_in_h1_coordinates(monkeypatch):
    # on every case of the test above, the order that sha_finite counts in
    # H^1's Cayley-graph coordinates equals the order of the kernel of the
    # same members' reads presented in H^1's invariant-factor coordinates,
    # from the representatives, trivial or not
    count, counted = cohomology_module._sha_order, []

    def checked(h1, exponent, kept):
        reps = h1.generators()
        maps = [(target.coordinates(reps[at]), target.factors) for target, at in kept]
        counted.append(count(h1, exponent, kept))
        assert counted[-1] == linalg.kernel_subgroup(h1.factors, maps).order
        return counted[-1]

    monkeypatch.setattr(cohomology_module, "_sha_order", checked)
    test_sha_finite_restricts_to_one_maximal_member_per_class(monkeypatch)
    # three member lists per case with H^1 != 0; 61 nontrivial kernels
    assert Counter(order > 1 for order in counted) == {True: 3 * 61, False: 795}


def test_a_trivial_kernel_reads_no_representative(monkeypatch):
    # a kernel counted as trivial returns before H^1's representatives are
    # read or a kernel subgroup is built; a nontrivial one reads H^1's and
    # builds one
    read, built = [], []
    matrix = cohomology_module.CohomologyGroup._representative_matrix
    kernel = cohomology_module.kernel_subgroup

    def recorded_matrix(coh):
        read.append(coh)
        return matrix.func(coh)

    def recorded_kernel(orders, maps):
        built.append(orders)
        return kernel(orders, maps)

    monkeypatch.setattr(
        cohomology_module.CohomologyGroup, "_representative_matrix", property(recorded_matrix)
    )
    monkeypatch.setattr(cohomology_module, "kernel_subgroup", recorded_kernel)
    s4_c2 = direct_product(symmetric(4), cyclic(2))
    q8 = quaternion()
    cases = [
        (s4_c2, mu_module(s4_c2, 4, chi), cyclic_subgroups(s4_c2), ())
        for chi in all_characters(s4_c2, 4)
    ] + [(q8, trivial_module(q8, [4]), [subgroup_generated(q8, [1])], (2, 2))]
    for group, module, family, want in cases:
        h1 = cohomology(group, module, 1)
        read.clear()
        built.clear()
        sha = sha_finite(group, module, family)
        assert not h1.is_trivial and sha.invariant_factors == want
        assert bool(read) == bool(want) and all(coh is h1 for coh in read)
        assert built == ([h1.invariant_factors] if want else [])


def test_a_count_that_disagrees_with_the_presentation_raises(monkeypatch):
    # a kernel whose presented order differs from the count is refused, by an
    # explicit raise that holds under python -O, whether the presented
    # kernel is trivial or not
    count = cohomology_module._sha_order
    monkeypatch.setattr(cohomology_module, "_sha_order", lambda *args: 2 * count(*args))
    q8 = quaternion()
    module = trivial_module(q8, [4])
    for family, presented in [([subgroup_generated(q8, [1])], 4), (cyclic_subgroups(q8), 1)]:
        with pytest.raises(ArithmeticError, match=f"the kernel has order {presented}, but"):
            sha_finite(q8, module, family)


def test_determinism():
    group = symmetric(3)
    module = trivial_module(group, [6])
    a = cohomology(group, module, 2)
    b = cohomology(group, module, 2)
    assert a is b  # cached
    # a fresh equal module gives identical structure and representatives
    module2 = trivial_module(symmetric(3), [6])
    c = cohomology(symmetric(3), module2, 2)
    assert c is a
    assert [rep.vector for rep in c.representatives] == [
        rep.vector for rep in a.representatives
    ]


# the named groups of order at most 12
SMALL_NAMED = [f"C{n}" for n in range(1, 13)] + [f"D{n}" for n in range(2, 7)] + ["Q8", "S3"]


def reference_lattice_quotient(lattice, sub, orders):
    """The quotient L / (span(sub) + diag(orders)) as built before the
    relations entered as a column scaling: ``solve_columns`` on the dense
    [sub | diag(orders)], a Smith diagonal padded with zeros to the rank of
    L, generators as a list of vectors, and coordinates as one tuple per
    column."""
    gens = np.concatenate([sub, linalg.diagonal_matrix(orders)], axis=1)
    w = linalg.solve_columns(lattice, gens)
    if w is None:
        raise linalg.NotInLattice("sub-generators do not lie in the lattice")
    w_snf = linalg.smith_normal_form(w)
    k = lattice.reduced.shape[0]
    diag = list(w_snf.diagonal) + [0] * (k - len(w_snf.diagonal))
    if any(d == 0 for d in diag):
        raise ValueError("quotient is infinite: sublattice has deficient rank")
    kept = [i for i, d in enumerate(diag) if d != 1]

    def coordinates(x):
        w = linalg.solve_columns(lattice, x)
        if w is None:
            raise linalg.NotInLattice("vector is not in the ambient lattice")
        y = w_snf.u @ w
        return [tuple(int(y[i, j] % diag[i]) for i in kept) for j in range(x.shape[1])]

    return SimpleNamespace(
        factors=tuple(diag[i] for i in kept),
        generators=[lattice.lift(w_snf.u_inv[:, [i]])[:, 0] for i in kept],
        coordinates=coordinates,
    )


def test_counted_order_equals_the_smith_order(monkeypatch):
    # every subquotient that H^0, H^1, H^2 (each rung of a counted one) and
    # sha_finite build: the order counted from the two folds is the product
    # of the Smith factors, and the quotient, with the relations as a column
    # scaling, equals the dense reference entry for entry (factors,
    # generators, coordinates).  A Smith form is a function of its matrix,
    # so the quotient's first read reuses the one the reference built for
    # the same matrix.  Likewise the coordinate reads of one subquotient
    # solve the same points on the same lattice once
    original, smith, solve = linalg.subquotient, linalg.smith_normal_form, linalg.solve_columns
    orders_seen, smith_forms, solved = [], {}, {}

    def memoized(mat):
        key = (mat.shape, tuple(mat.flat))
        if key not in smith_forms:
            smith_forms[key] = smith(mat)
        return smith_forms[key]

    def shared(lattice, rhs):
        # keyed by identity; the entry keeps both alive, so no id is reused
        key = (id(lattice), id(rhs))
        if key not in solved:
            solved[key] = (lattice, rhs, solve(lattice, rhs))
        return solved[key][2]

    def compared(orders, exponent, congruences, sub):
        smith_forms.clear()
        solved.clear()
        quot = original(orders, exponent, congruences, sub)
        lattice = quot.lattice
        want = reference_lattice_quotient(lattice, sub, orders)
        assert quot.order == prod(want.factors)
        assert quot.factors == want.factors
        gens = quot.generators()
        assert gens.shape == (len(orders), len(want.factors))
        assert all((gens[:, i] == g).all() for i, g in enumerate(want.generators))
        basis = lattice.lift(linalg.identity_matrix(len(orders)))
        points = np.concatenate([basis, gens, sub], axis=1)
        coords = quot.coordinates(points)
        assert coords.shape == (len(want.factors), points.shape[1])
        assert [tuple(column) for column in coords.T] == want.coordinates(points)
        orders_seen.append(quot.order)
        return quot

    monkeypatch.setattr(linalg, "smith_normal_form", memoized)
    monkeypatch.setattr(linalg, "solve_columns", shared)
    monkeypatch.setattr(linalg, "subquotient", compared)
    monkeypatch.setattr(cohomology_module, "subquotient", compared)
    cohomology_module._cohomology_cached.cache_clear()
    for name in SMALL_NAMED:
        group = named_group(name)
        for m in (2, 3, 4, 6):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                for degree in (0, 1, 2) if group.order <= 8 else (0, 1):
                    # a counted H^2 builds its subquotient when read
                    cohomology(group, module, degree).representatives
                sha_finite(group, module, cyclic_subgroups(group))
        if group.order > 8:
            cohomology(group, trivial_module(group, [2]), 2).representatives
    cohomology_module._cohomology_cached.cache_clear()
    assert len(orders_seen) > 400
    assert 1 in orders_seen and max(orders_seen) > 1


def test_class_of_on_a_counted_trivial_group():
    # H^1(C3, Z/2) = 0 is counted, with no Smith form, yet class_of still
    # tests the cocycle condition
    group = cyclic(3)
    module = trivial_module(group, [2])
    h1 = cohomology(group, module, 1)
    assert h1.is_trivial and "_smith" not in vars(h1._presentation)
    assert h1.class_of(zero_cochain(module, 1)).coordinates == ()
    with pytest.raises(ValueError, match="not a cocycle"):
        h1.class_of(Cochain(module, 1, (1, 0, 0)))
    assert "_smith" not in vars(h1._presentation)


def test_class_coordinates_must_match_the_factors():
    # one coordinate per invariant factor: a shorter or longer tuple is
    # refused, not truncated or read as zero
    group = direct_product(cyclic(2), cyclic(2))
    h1 = cohomology(group, trivial_module(group, [2]), 1)
    assert h1.invariant_factors == (2, 2)
    for coords in [(), (1,), (1, 1, 1), (1, 1, 1, 1)]:
        with pytest.raises(ValueError, match="need 2 coordinates"):
            CohClass(h1, coords)
        with pytest.raises(ValueError, match="need 2 coordinates"):
            h1.element(coords)
    assert CohClass(h1, (3, 1)).coordinates == (1, 1)
    both = h1.element((1, 1))
    assert both == h1.representatives[0].add(h1.representatives[1])
    assert h1.class_of(both).coordinates == (1, 1)


def test_image_invariants_of_an_injective_map():
    # the identity and an automorphism of H^1: the kernel is counted
    # trivial, the image is the whole group
    for group, m in [(cyclic(6), 6), (direct_product(cyclic(2), cyclic(2)), 2)]:
        h1 = cohomology(group, trivial_module(group, [m]), 1)
        res = restriction(h1, full_subgroup(group))
        assert res.kernel()[0] == () and res.is_injective
        assert res.image_invariants() == h1.invariant_factors
    h1 = cohomology(cyclic(6), trivial_module(cyclic(6), [6]), 1)
    assert h1.invariant_factors == (6,)
    unit = CohomologyMap(h1, h1, ((5,),))
    assert unit.kernel()[0] == () and unit.image_invariants() == (6,)


def test_image_and_kernel_of_random_maps():
    # maps of H^1(C2 x C4, Z/4) = Z/2 + Z/4 to itself; the image and the
    # kernel are enumerated, and kernels with two generators occur
    group = direct_product(cyclic(2), cyclic(4))
    h1 = cohomology(group, trivial_module(group, [4]), 1)
    a = h1.invariant_factors
    assert a == (2, 4)
    rng = random.Random(29)
    seen = set()
    for _ in range(60):
        matrix = tuple(tuple(rng.randrange(d) for _ in a) for d in a)
        if any(matrix[i][j] * a[j] % a[i] for i in range(2) for j in range(2)):
            continue  # not well defined on Z/2 + Z/4
        f = CohomologyMap(h1, h1, matrix)
        points = list(itertools.product(*(range(d) for d in a)))
        image = {f.apply(CohClass(h1, x)).coordinates for x in points}
        kernel_factors, kernel_gens = f.kernel()
        seen.add(len(kernel_gens))
        assert len(image) * prod(kernel_factors) == h1.order
        assert all(f.apply(g).is_zero for g in kernel_gens)
        orders = Counter(
            next(n for n in itertools.count(1) if all(n * c % d == 0 for c, d in zip(y, a)))
            for y in image
        )
        assert f.image_invariants() == invariant_factors_from_orders(orders)
    assert {0, 1, 2} <= seen


def reference_bar_terms(group, n):
    """The degree-n bar differential one (n+1)-tuple at a time, built tuple
    by tuple in Python: yields g_1, the index of the n-tuple (g_2, ...,
    g_{n+1}) it acts on, and the (sign, n-tuple index) pairs of the
    remaining terms."""
    order = group.order
    table = group.mul_table
    signs = [(-1) ** i for i in range(1, n + 2)]
    tails = order**n
    for idx, gs in enumerate(itertools.product(range(order), repeat=n + 1)):
        terms = [
            (signs[i], tuple_index(order, gs[:i] + (table[gs[i]][gs[i + 1]],) + gs[i + 2:]))
            for i in range(n)
        ]
        terms.append((signs[n], idx // order))
        yield gs[0], idx % tails, terms


def reference_differential_rows(group, module, n):
    """Rows of the degree-n differential with their moduli, one Python list
    per ((n+1)-tuple, coordinate)."""
    r = module.rank
    n_inputs = r * group.order**n
    action, orders = module.action, module.orders
    for g, acted, terms in reference_bar_terms(group, n):
        mat = action[g]
        start = acted * r
        for i in range(r):
            row = [0] * n_inputs
            row[start:start + r] = mat[i]
            for sign, t in terms:
                row[t * r + i] += sign
            yield row, orders[i]


def generator_blocks(group, module, n):
    """The rows of the degree-n differential whose last argument lies in
    X = ``_generator_ends(group)``, in order, as blocks of up to
    ``linalg._BLOCK_ROWS`` tuples: they cut out the same cocycle lattice as
    all rows (the lemma of the ``cohomology`` module docstring).  The
    ``_bar_terms`` of those tuples only, scattered as
    ``_differential_blocks`` scatters them."""
    order, r = group.order, module.rank
    ends = np.array(cohomology_module._generator_ends(group))
    tuples = (np.arange(order**n)[:, None] * order + ends).ravel()
    dtype = linalg._dtype(module.exponent)
    action = np.array(module.action, dtype=dtype).reshape(order, r, r)
    signs = np.array([(-1) ** k for k in range(1, n + 2)], dtype=dtype)
    i = np.arange(r)[:, None]
    for first in range(0, tuples.size, linalg._BLOCK_ROWS):
        acting, acted, terms = cohomology_module._bar_terms(
            group, n, tuples[first:first + linalg._BLOCK_ROWS]
        )
        t = np.arange(acting.size)[:, None, None]
        block = np.zeros((acting.size, r, r * order**n), dtype=dtype)
        block[t, i, (acted * r)[:, None, None] + i.T] = action[acting]
        np.add.at(block, (t, i, terms.T[:, None] * r + i), signs)
        yield block.reshape(acting.size * r, r * order**n)


def generator_rows(group, module, n):
    """The rows of ``generator_blocks``, one at a time, each with its
    modulus: its coordinate's order."""
    for block in generator_blocks(group, module, n):
        yield from zip(block, module.orders * (len(block) // module.rank))


def differential_cases():
    c2 = cyclic(2)
    groups = [cyclic(1), c2, cyclic(6), symmetric(3), named_group("D4"), quaternion(),
              direct_product(c2, c2, c2)]
    for group in groups:
        for m in (2, 3, 4, 6, 9):
            for chi in all_characters(group, m)[:3]:
                yield group, mu_module(group, m, chi)
    yield cyclic(4), trivial_module(cyclic(4), [2, 4])
    yield symmetric(3), trivial_module(symmetric(3), [3, 6])


def test_differential_blocks_match_the_reference_rows():
    # the same rows, in the same order, with the same moduli; repeated
    # columns (g_1 = 1 in degree 1 and 2) must accumulate, not overwrite
    systems = 0
    for group, module in differential_cases():
        for n in (0, 1, 2):
            expected = list(reference_differential_rows(group, module, n))
            got = list(cohomology_module._differential_rows(group, module, n))
            assert len(got) == len(expected)
            for (row, modulus), (ref_row, ref_modulus) in zip(got, expected):
                assert modulus == ref_modulus and type(modulus) is int
                assert row.tolist() == ref_row
            # the rows whose last argument is a generator, in the same order
            ends = cohomology_module._generator_ends(group)
            kept = [
                item for k, item in enumerate(expected)
                if k // module.rank % group.order in ends
            ]
            got = list(generator_rows(group, module, n))
            assert len(got) == len(kept) == len(expected) * len(ends) // group.order
            for (row, modulus), (ref_row, ref_modulus) in zip(got, kept):
                assert modulus == ref_modulus and type(modulus) is int
                assert row.tolist() == ref_row
            if n:
                gens = cohomology_module._coboundary_generators(group, module, n)
                ref = linalg.int_matrix(
                    row for row, _ in reference_differential_rows(group, module, n - 1)
                )
                assert gens.dtype == object and gens.shape == ref.shape
                assert (gens == ref).all()
            systems += 1
    assert systems > 200


TWO_64 = 2**64


def test_cohomology_with_an_exponent_past_int64():
    # the differential blocks switch to Python ints: int64 would overflow
    for group in (cyclic(2), symmetric(3)):
        module = trivial_module(group, [TWO_64])
        assert [cohomology(group, module, n).invariant_factors for n in (0, 1, 2)] == [
            (TWO_64,), (2,), (2,)
        ]
    c2 = cyclic(2)
    h1 = cohomology(c2, trivial_module(c2, [TWO_64]), 1)
    assert h1.invariant_factors == (2,)
    rep = h1.representatives[0]
    assert not rep.is_zero and is_cocycle(rep)
    assert h1.class_of(rep).coordinates == (1,)
    # C2 acting by -1: the action entry 2^64 - 1 itself is past int64
    sign = gmodule(c2, [TWO_64], [[[1]], [[TWO_64 - 1]]])
    groups = [cohomology(c2, sign, n) for n in (0, 1, 2)]
    assert [h.invariant_factors for h in groups] == [(2,), (2,), (2,)]
    assert all(is_cocycle(rep) for h in groups for rep in h.representatives)




def test_generator_rows_span_the_cocycle_lattice():
    # the rows whose last argument lies in the generating set cut out the
    # same lattice as all rows, in every degree and whatever gcd(|G|, m):
    # the same triangular diagonal, and each lattice holds the other's basis.
    # Degree 2 takes the first character, and past order 8 three moduli.
    groups = [named_group(name) for name in SMALL_NAMED]
    groups.append(direct_product(cyclic(2), cyclic(2), cyclic(2)))
    systems = 0
    for group in groups:
        for m in range(2, 10):
            for k, chi in enumerate(all_characters(group, m)[:4]):
                module = mu_module(group, m, chi)
                wide = not k and (group.order <= 8 or m in (2, 5, 7))
                for n in (0, 1, 2) if wide else (0, 1):
                    size, e = module.rank * group.order**n, module.exponent
                    full = linalg.congruence_kernel(
                        size, e, cohomology_module._differential_rows(group, module, n)
                    )
                    cut = linalg.congruence_kernel(
                        size, e, generator_rows(group, module, n)
                    )
                    assert (np.diagonal(cut.reduced) == np.diagonal(full.reduced)).all()
                    identity = linalg.identity_matrix(size)
                    assert cut.contains(full.lift(identity)) and full.contains(cut.lift(identity))
                    systems += 1
    assert systems > 800


def test_coprime_cohomology_folds_only_the_generator_rows(monkeypatch):
    # with gcd(|G|, m) = 1 the Cayley-graph H^1 folds its cycle rows,
    # r (|G| (|X| - 1) + 1) of width r |X|, and H^2 its rows on the edges
    # outside the tree, r |X| (|G| (|X| - 1) + 1) of width
    # r (|G| (|X| - 1) + 1); each counts order 1 and builds no Smith form.
    # cohomology answers these degrees by restriction-corestriction: it
    # feeds congruence_kernel nothing and assigns no presentation, and
    # class_of tests a cochain with is_cocycle, so it feeds no rows either
    congruence_kernel, fold = linalg.congruence_kernel, linalg._fold
    smith = linalg.smith_normal_form
    fed, widths, folded, built = [], [], [], []

    def recorded_kernel(n, exponent, constraints):
        items = list(constraints)
        fed.append(len(items))
        widths.append(n)
        return congruence_kernel(n, exponent, iter(items))

    def recorded_fold(reduced, block, e):
        folded.append(block.shape)
        return fold(reduced, block, e)

    monkeypatch.setattr(linalg, "congruence_kernel", recorded_kernel)
    monkeypatch.setattr(linalg, "_fold", recorded_fold)
    monkeypatch.setattr(linalg, "smith_normal_form", built.append)
    c1, c8, s3 = cyclic(1), cyclic(8), symmetric(3)
    c2_3 = direct_product(cyclic(2), cyclic(2), cyclic(2))
    cases = [
        (c8, trivial_module(c8, [9]), 2, (1, 1)),
        (c2_3, trivial_module(c2_3, [5]), 1, (17, 3)),
        (c2_3, mu_module(c2_3, 3, all_characters(c2_3, 3)[-1]), 2, (51, 17)),
        (c1, trivial_module(c1, [3]), 1, (1, 1)),
        (c1, trivial_module(c1, [3]), 2, (1, 1)),
    ]
    for group, module, degree, (rows, width) in cases:
        fed.clear()
        folded.clear()
        if degree == 1:
            quotient = cohomology_module._cayley_h1(group, module).quotient
        else:
            quotient = cohomology_module._cayley_h2(group, module, module.exponent)
        assert fed == [rows]
        assert (rows, width) in folded
        assert quotient.order == 1 and quotient.factors == ()
        assert "_smith" not in vars(quotient)
        fed.clear()
        folded.clear()
        coh = cohomology_module._cohomology_cached.__wrapped__(group, module, degree)
        assert coh.is_trivial
        assert coh.class_of(zero_cochain(module, degree)).coordinates == ()
        assert fed == [] and folded == []
        assert "_presentation" not in vars(coh)
    assert not built
    # H^0, coprime or not, feeds all rows; H^1 with gcd(|G|, m) > 1 feeds
    # the Cayley-graph rows too, and reading its representatives, classes,
    # restrictions and sha_finite feeds no further rows for G itself
    monkeypatch.setattr(linalg, "smith_normal_form", smith)
    for group, module, degree, rows in [
        (c8, trivial_module(c8, [9]), 0, 8),
        (c2_3, trivial_module(c2_3, [5, 5]), 0, 16),
        (c8, trivial_module(c8, [2]), 1, 1),
        (s3, trivial_module(s3, [2]), 1, 7),
        (c2_3, mu_module(c2_3, 4, all_characters(c2_3, 4)[-1]), 1, 17),
    ]:
        fed.clear()
        cohomology_module._cohomology_cached.__wrapped__(group, module, degree)
        assert fed == [rows]
        if not degree:
            continue
        coh = cohomology(group, module, 1)
        assert not coh.is_trivial
        widths.clear()
        for rep in coh.representatives:
            coh.class_of(rep)
        family = cyclic_subgroups(group)
        for subgroup in family:
            restriction(coh, subgroup)
        sha_finite(group, module, family)
        assert module.rank * group.order not in widths, (group.name, widths)


def coprime_vanishing_cases():
    """Every (group, m, character) of verify-paper's coprime-order-vanishing
    loop, then S4 on each character mod 5, D8 (order 16) on each mod 3, and
    a rank-2 (Z/3)^2 over C2^4 through two characters, in the basis
    (1, 0), (1, 1), where three of the generators act by no diagonal matrix."""
    for name in verify.SMALL_CATALOG:
        group = verify._small_group(name)
        for m in (3, 5, 7, 9):
            if gcd(group.order, m) == 1:
                for chi in all_characters(group, m):
                    yield f"{name} mu_{m} {chi.values}", mu_module(group, m, chi)
    for group, m in ((symmetric(4), 5), (named_group("D8"), 3)):
        for chi in all_characters(group, m):
            yield f"{group.name} mu_{m} {chi.values}", mu_module(group, m, chi)
    c2_4 = direct_product(*[cyclic(2)] * 4)
    chis = all_characters(c2_4, 3)
    a, b = chis[1].values, chis[-1].values
    base, inverse = np.array([[1, 1], [0, 1]]), np.array([[1, 2], [0, 1]])
    action = [base @ np.diag([a[g], b[g]]) @ inverse % 3 for g in c2_4.elements()]
    yield "C2^4 (Z/3)^2", gmodule(c2_4, [3, 3], action)


def test_coprime_vanishing_is_read_by_the_theorem_and_matches_elimination(monkeypatch):
    # cohomology answers H^1 and H^2 with gcd(|G|, e) = 1 by
    # restriction-corestriction, with no elimination; the Cayley-graph
    # quotients of each case still eliminate to 0.  The cochain that puts a
    # unit vector at (1, .., 1) and 0 elsewhere is no cocycle: in degree 1,
    # (d f)(1, 1) = f(1); in degree 2 and for g != 1, (d f)(g, 1, 1) =
    # g.f(1, 1), which the invertible action keeps nonzero.  On C1 every
    # 2-cochain is a cocycle, so its degree 2 has no such check
    congruence_kernel, fed, built = linalg.congruence_kernel, [], []
    smith = linalg.smith_normal_form

    def recorded_kernel(n, exponent, constraints):
        items = list(constraints)
        fed.extend(items)
        return congruence_kernel(n, exponent, iter(items))

    def recorded_smith(matrix):
        built.append(matrix.shape)
        return smith(matrix)

    monkeypatch.setattr(linalg, "congruence_kernel", recorded_kernel)
    monkeypatch.setattr(linalg, "smith_normal_form", recorded_smith)
    cases = list(coprime_vanishing_cases())
    for label, module in cases:
        group, e = module.group, module.exponent
        assert gcd(group.order, e) == 1, label
        assert cohomology_module._cayley_h1(group, module).factors == (), label
        assert cohomology_module._cayley_h2(group, module, e).order == 1, label
        fed.clear()
        built.clear()
        for degree in (1, 2):
            assert cohomology_module._cohomology_cached.__wrapped__(group, module, degree).is_trivial
            coh = cohomology(group, module, degree)
            assert coh.is_trivial and coh.order == 1, (label, degree)
            assert coh.class_of(zero_cochain(module, degree)).coordinates == ()
            if degree == 2 and group.order == 1:
                continue
            unit = (1,) + (0,) * (module.rank * group.order**degree - 1)
            with pytest.raises(ValueError, match="not a cocycle"):
                coh.class_of(Cochain(module, degree, unit))
        assert fed == [] and built == [], label
    assert len(cases) == 154 + 2 + 4 + 1


SQUAREFREE_M = (2, 3, 5, 6, 10, 15, 30)


def squarefree_cases():
    """Every named group of order at most 12, every character, and each
    squarefree m in SQUAREFREE_M."""
    for name in SMALL_NAMED:
        group = named_group(name)
        for m in SQUAREFREE_M:
            for k, chi in enumerate(all_characters(group, m)):
                yield group, m, k, mu_module(group, m, chi)


def reference_rank_mod_p(blocks, p):
    """The rank over F_p (p prime) of the rows of the int64 ``blocks``:
    ``_fold`` mod p into p * I turns a column's pivot from p into 1 at its
    first nonzero entry, so the rank is the number of 1s on the diagonal."""
    reduced = None
    for block in blocks:
        if reduced is None:
            reduced = linalg._diagonal([p] * block.shape[1], p)
        linalg._fold(reduced, block % p, p)
    return 0 if reduced is None else int((reduced.diagonal() == 1).sum())


def reference_counted_factors(group, module, degree):
    """Invariant factors of H^degree(G, Z/e) for e squarefree, from ranks
    over each F_p p | e: Z/e is the sum of its F_p parts, and over F_p
    dim H^n = |G|^n - rank d^n - rank d^(n-1), with d^n read from its
    generator rows.  A factor is the product of the p whose dimension
    reaches its place, smallest factor first."""
    assert module.rank == 1
    primes = tuple(factorize(module.exponent))
    assert prod(primes) == module.exponent
    dims = {}
    for p in primes:
        rows = generator_blocks(group, module, degree)
        dims[p] = group.order**degree - reference_rank_mod_p(rows, p)
        if degree:
            rows = (block for block, _ in cohomology_module._differential_blocks(group, module, degree - 1))
            dims[p] -= reference_rank_mod_p(rows, p)
    top = max(dims.values(), default=0)
    return tuple(prod(p for p in primes if dims[p] >= top - i) for i in range(top))


def test_counted_h2_matches_the_z_path():
    # every H^2 with squarefree m is counted in Cayley-graph coordinates,
    # and the count is never handed over as the presentation: it is in other
    # coordinates.  The factors must be those of the F_p rank reference, and for
    # the first character of each m on a group of order at most 8, those
    # of the forced presentation of all rows
    counted = not_coprime = forced = 0
    for group, m, k, module in squarefree_cases():
        h2 = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
        assert "_presentation" not in vars(h2)
        assert "representatives" not in vars(h2)
        assert all(m % d == 0 for d in h2.invariant_factors)
        assert reference_counted_factors(group, module, 2) == h2.invariant_factors, (
            group.name, m, module.action
        )
        counted += 1
        if gcd(group.order, m) == 1:
            assert h2.is_trivial
            continue
        not_coprime += 1
        if not k and group.order <= 8:
            presentation = cohomology_module._z_presentation(group, module, 2)
            assert presentation.factors == h2.invariant_factors
            reps = h2.representatives
            assert h2._presentation.factors == h2.invariant_factors
            assert len(reps) == len(h2.invariant_factors)
            assert all(is_cocycle(rep) for rep in reps)
            forced += 1
    assert counted == 427 and not_coprime == 271 and forced == 50


def test_count_helper_in_degrees_0_and_1():
    # the F_p rank reference below degree 2, against the engine
    compared = 0
    for group, m, _k, module in squarefree_cases():
        for degree in (0, 1):
            assert reference_counted_factors(
                group, module, degree
            ) == cohomology(group, module, degree).invariant_factors, (group.name, m, degree)
            compared += 1
    assert compared == 2 * 427


def direct_sum(*modules):
    """The direct sum of modules over one group, coordinates in order."""
    group = modules[0].group
    orders = [d for module in modules for d in module.orders]
    action = []
    for g in range(group.order):
        matrix = np.zeros((len(orders), len(orders)), dtype=object)
        start = 0
        for module in modules:
            r = module.rank
            matrix[start:start + r, start:start + r] = module.action_matrix(g)
            start += r
        action.append(matrix.tolist())
    return gmodule(group, orders, action)


def non_lifting_q8_module():
    """Q8 on Z/8 through a character taking the value 3, which does not
    lift to Z_2^*: H^2 = Z/4."""
    q8 = quaternion()
    chi = next(chi for chi in all_characters(q8, 8) if 3 in chi.values)
    return q8, mu_module(q8, 8, chi)


def p_parts(group, module):
    """(p, k, v) for each prime p of both |G| and e, with p^k exactly
    dividing e and p^v exactly dividing |G|."""
    for p, v in factorize(group.order).items():
        k = 0
        while module.exponent % p ** (k + 1) == 0:
            k += 1
        if k:
            yield p, k, v


def one_quotient_primes(group, module):
    """The primes p whose part of H^2(G, M) is read from the one Cayley-graph
    quotient at p^k: k > 1 and the p-part does not lift."""
    return [
        p for p, k, _v in p_parts(group, module)
        if k > 1 and not cohomology_module._lifts(group, module, p, p**k)
    ]


def record_moduli(monkeypatch):
    """Wrap ``_cayley_h2`` so that each modulus d it reads is appended to
    the returned list, in call order."""
    moduli, cayley_h2 = [], cohomology_module._cayley_h2

    def recorded(group, module, d):
        moduli.append(d)
        return cayley_h2(group, module, d)

    monkeypatch.setattr(cohomology_module, "_cayley_h2", recorded)
    return moduli


def test_count_path_leaves_other_modules_to_the_z_path(monkeypatch):
    # a character that does not lift and a p-part neither cyclic nor killed
    # by p read the factors of the one Cayley-graph quotient at p^k, and a
    # squarefree e past 2^31 climbs the one rung at 2; each finds the Z
    # path's or the closed-form factors and leaves the Z path's presentation
    # to the first read, which finds them too
    big = 2 * 2147483659  # 2147483659 is prime
    c2, c4, c6 = cyclic(2), cyclic(4), cyclic(6)
    cases = [
        (*non_lifting_q8_module(), (4,), [8]),
        (c2, trivial_module(c2, [2, 4]), (2, 2), [4]),
        (c2, trivial_module(c2, [big]), (2,), [2]),
    ]
    moduli = record_moduli(monkeypatch)
    for group, module, factors, read in cases:
        moduli.clear()
        h2 = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
        assert moduli == read, (group.name, module.orders)
        assert "_presentation" not in vars(h2) and "representatives" not in vars(h2)
        assert h2.invariant_factors == factors, (group.name, module.orders)
        assert h2._presentation.factors == factors
    # the liftable modules with p^2 | e that took the Smith path before, the
    # squarefree part of the same groups, rank 2 and coprime order are
    # counted with no Smith form, and no count is handed over
    built = []
    monkeypatch.setattr(linalg, "smith_normal_form", built.append)
    for group, orders, factors in [
        (c4, [4], (4,)),
        (c6, [12], (6,)),
        (symmetric(3), [12], (2,)),
        (c4, [2], (2,)),
        (c6, [6], (6,)),
        (c2, [2 * 3 * 5 * 7], (2,)),
        (c2, [2, 2], (2, 2)),
        (c2, [3, 6], (2,)),
        (cyclic(3), [10], ()),
    ]:
        h2 = cohomology_module._cohomology_cached.__wrapped__(group, trivial_module(group, orders), 2)
        assert "_presentation" not in vars(h2)
        assert h2.invariant_factors == factors
    assert not built


def test_counted_h2_of_higher_rank_matches_the_presentation():
    # sums of two or three characters with squarefree exponent, against the
    # forced presentation of all rows
    cases = 0
    for name in ("C2", "C4", "C6", "S3", "D4", "Q8"):
        group = named_group(name)
        for ms in ((2, 2), (3, 6), (2, 6), (2, 3, 6)):
            chars = [all_characters(group, m) for m in ms]
            for chis in itertools.islice(itertools.product(*chars), 2):
                module = direct_sum(*(mu_module(group, m, chi) for m, chi in zip(ms, chis)))
                h2 = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
                assert "_presentation" not in vars(h2)
                presentation = cohomology_module._z_presentation(group, module, 2)
                assert h2.invariant_factors == presentation.factors, (name, ms, chis)
                cases += 1
    assert cases > 40


def test_counted_h2_repr_builds_nothing():
    # repr shows the four fields without presenting the group or building
    # representatives: counted, Z path, and a sha_finite kernel
    c6 = cyclic(6)
    h2 = cohomology_module._cohomology_cached.__wrapped__(c6, trivial_module(c6, [6]), 2)
    assert "invariant_factors=(6,)" in repr(h2)
    assert "representatives" not in vars(h2) and "_presentation" not in vars(h2)
    c4 = cyclic(4)
    h2 = cohomology_module._cohomology_cached.__wrapped__(c4, trivial_module(c4, [4]), 2)
    assert "invariant_factors=(4,)" in repr(h2) and "representatives" not in repr(h2)
    assert "representatives" not in vars(h2)
    group = direct_product(cyclic(2), cyclic(2))
    sha = sha_finite(group, trivial_module(group, [2]), [subgroup_generated(group, [1])])
    assert "invariant_factors=(2,)" in repr(sha) and "representatives" not in repr(sha)
    assert vars(sha)["_presentation"] is None and len(vars(sha)["representatives"]) == 1


def restricted_cochain(cochain, target, subgroup):
    """The cochain read on the subgroup's tuples, in the target's module."""
    sub_group, embed = subgroup.as_group
    values = [
        cochain(*(embed[t] for t in ts))
        for ts in itertools.product(range(sub_group.order), repeat=cochain.degree)
    ]
    return Cochain(target.module, cochain.degree, tuple(x for v in values for x in v))


def test_counted_h2_reads_like_the_z_path():
    # representatives, to_report, class_of and induced maps of every H^n are
    # those of the Z path's generators, built when first read: H^2 counted
    # on the ladder and read from the one Cayley-graph quotient alike
    c6, s3, c8 = cyclic(6), symmetric(3), cyclic(8)
    transposition = next(g for g in range(6) if g and s3.mul(g, g) == 0)
    q8, non_lifting = non_lifting_q8_module()
    cases = [
        (c6, trivial_module(c6, [6]), 2, [2]),
        (s3, trivial_module(s3, [2]), 2, [transposition]),
        (c8, trivial_module(c8, [4]), 2, [2]),
        (s3, trivial_module(s3, [4]), 1, [transposition]),
        (q8, non_lifting, 2, [next(g for g in range(8) if q8.element_order(g) == 4)]),
    ]
    for group, module, degree, sub_gens in cases:
        coh = cohomology_module._cohomology_cached.__wrapped__(group, module, degree)
        assert "representatives" not in vars(coh)
        presentation = cohomology_module._z_presentation(group, module, degree)
        eager = [Cochain(module, degree, tuple(g)) for g in presentation.generators().T]
        report = coh.to_report()
        assert report["invariant_factors"] == list(presentation.factors)
        assert report["representatives"] == [rep.to_report() for rep in eager]
        assert [rep.vector for rep in coh.representatives] == [rep.vector for rep in eager]
        rep = coh.representatives[-1]
        assert coh.class_of(rep).coordinates[-1] == 1
        subgroup = subgroup_generated(group, sub_gens)
        res = restriction(coh, subgroup)
        columns = [res.target.class_of(restricted_cochain(g, res.target, subgroup)).coordinates
                   for g in eager]
        assert res.matrix == tuple(zip(*columns)), (group.name, degree)
    h2 = cohomology(c6, trivial_module(c6, [6]), 2)
    res = restriction(h2, subgroup_generated(c6, [2]))
    assert "_presentation" in vars(res.target) and "representatives" not in vars(res.target)
    assert res.matrix == ((1,),) and res.target.invariant_factors == (3,)


@pytest.mark.parametrize(
    "factors, m",
    [
        (["C16"], 2),
        (["D8"], 2),
        (["S4"], 2),
        (["S4"], 3),
        (["D16"], 2),
        (["Q8", "C4"], 2),
        (["C2"] * 5, 2),
    ],
)
def test_counted_h2_matches_the_closed_form(factors, m):
    group, expected = closed_forms.h2_trivial(factors, m)
    h2 = cohomology(group, trivial_module(group, [m]), 2)
    assert "_presentation" not in vars(h2)
    assert h2.invariant_factors == expected
    # H^2(G, (Z/p)^2) = H^2(G, Z/p)^2
    assert cohomology(group, trivial_module(group, [m, m]), 2).invariant_factors == expected * 2


# the named groups of order at most 8
NAMED_TO_8 = [f"C{n}" for n in range(1, 9)] + ["D2", "D3", "D4", "Q8", "S3"]


def test_ladder_matches_the_z_path(monkeypatch):
    # every character mod 4, 8, 9 and 12 in degree 2: a p-part of H^2 that
    # lifts to Z_p^* is counted on its rungs with no Smith form; one that
    # does not reads the one Cayley-graph quotient at p^k, with a Smith form
    # exactly when that p-part of H^2 is nontrivial.  Either way the factors
    # are those of the presentation of all rows.  A squarefree or coprime
    # H^n is counted with no Smith form too.  Mixed exponents (S3 on Z/10,
    # D5 on mu_6, C6 on mu_18 through 7, whose 9-part does not lift) feed
    # congruence_kernel only rows whose moduli are powers of primes of |G|
    smith, built = linalg.smith_normal_form, []
    congruence_kernel, fed = linalg.congruence_kernel, []

    def recorded(mat):
        built.append(mat.shape)
        return smith(mat)

    def recorded_kernel(n, exponent, constraints):
        items = list(constraints)
        fed.extend(modulus for _row, modulus in items)
        return congruence_kernel(n, exponent, iter(items))

    monkeypatch.setattr(linalg, "smith_normal_form", recorded)
    counted = read = 0
    for name in NAMED_TO_8:
        group = named_group(name)
        for m in (4, 8, 9, 12):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                built.clear()
                h2 = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
                assert "_presentation" not in vars(h2)
                factors = h2.invariant_factors
                primes = one_quotient_primes(group, module)
                if primes:
                    read_part = any(f % p == 0 for f in factors for p in primes)
                    assert bool(built) == read_part, (name, m, chi.values)
                    read += 1
                else:
                    assert not built, (name, m, chi.values)
                    counted += 1
                want = cohomology_module._z_presentation(group, module, 2).factors
                assert factors == want, (name, m, chi.values)
        for m in (2, 3, 5, 6, 7):
            chi = all_characters(group, m)[-1]
            module = mu_module(group, m, chi)
            for degree in (1, 2) if gcd(group.order, m) == 1 else (2,):
                built.clear()
                cohomology_module._cohomology_cached.__wrapped__(group, module, degree)
                assert not built, (name, m, degree)
    assert counted == 160 and read == 54
    monkeypatch.setattr(linalg, "congruence_kernel", recorded_kernel)
    s3, d5, c6 = symmetric(3), named_group("D5"), cyclic(6)
    mu_18 = next(chi for chi in all_characters(c6, 18) if 7 in chi.values)
    cases = [
        (trivial_module(s3, [10]), [2], (2,)),
        (mu_module(d5, 6, all_characters(d5, 6)[-1]), [2], (2,)),
        (mu_module(c6, 18, mu_18), [2, 9], (2,)),
    ]
    for module, moduli, factors in cases:
        group = module.group
        fed.clear()
        h2 = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
        assert sorted(set(fed)) == moduli, (group.name, module.orders)
        assert h2.invariant_factors == factors, (group.name, module.orders)
        assert cohomology_module._z_presentation(group, module, 2).factors == factors


@pytest.mark.parametrize(
    "factors, m",
    [
        (["S4"], 4),
        (["D16"], 4),
        (["Q8", "C4"], 4),
        (["C2"] * 5, 4),
        (["C8", "C2"], 8),
        (["C9", "C3"], 9),
    ],
)
def test_ladder_matches_the_closed_form(factors, m, monkeypatch):
    # orders 16 to 32 with m = 4, 8 or 9, where the Z path takes minutes;
    # m is a prime power p^k at most the p^v exactly dividing |G|, so the
    # trivial module climbs every rung p, ..., p^k
    group, expected = closed_forms.h2_trivial(factors, m)
    module = trivial_module(group, [m])
    moduli = record_moduli(monkeypatch)
    h2 = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
    (p, k, v), = p_parts(group, module)
    assert k <= v and moduli == [p**i for i in range(1, k + 1)]
    assert h2.invariant_factors == expected


def test_ladder_on_sums_of_characters():
    # a p-part killed by p beside a cyclic liftable one climbs the ladder
    # (Z/3 + Z/12, Z/5 + Z/20, Z/3 + Z/8 through a lifting character); a
    # p-part of a prime of |G| that is neither (Z/2 + Z/4 in Z/2 + Z/12,
    # Z/3 + Z/9 in Z/3 + Z/36 over S3) reads the one Cayley-graph quotient
    # at p^k, while the other primes still climb.  Either way the factors
    # are the Z path's
    cases = Counter()
    for name in ("C2", "C4", "S3", "D4"):
        group = named_group(name)
        for ms in ((3, 12), (5, 20), (3, 8), (2, 12), (3, 36)):
            chars = [all_characters(group, m) for m in ms]
            for chis in itertools.islice(itertools.product(*chars), 2):
                module = direct_sum(*(mu_module(group, m, chi) for m, chi in zip(ms, chis)))
                primes = one_quotient_primes(group, module)
                if ms == (2, 12) or ms == (3, 36) and name == "S3":
                    assert primes == [ms[0]], (name, ms)
                h2 = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
                presentation = cohomology_module._z_presentation(group, module, 2)
                assert h2.invariant_factors == presentation.factors, (name, ms, chis)
                cases[not primes] += 1
    assert cases == {True: 26, False: 14}


def test_ladder_needs_the_lift(monkeypatch):
    # Q8 on Z/8 through a character taking the value 3 does not lift to
    # Z_2^*: its rungs Z/2, Z/4, Z/8 count 4, 4, 4, which the ladder reads
    # as (Z/2)^2 with no error, while H^2 = Z/4.  Without the gate the
    # wrong factors stand until the presentation is first read
    group, module = non_lifting_q8_module()
    assert not cohomology_module._lifts(group, module, 2, 8)
    assert cohomology_module._cohomology_cached.__wrapped__(group, module, 2).invariant_factors == (4,)
    monkeypatch.setattr(cohomology_module, "_lifts", lambda *args: True)
    ungated = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
    assert ungated.invariant_factors == (2, 2)
    with pytest.raises(ArithmeticError, match="differ from the presentation's"):
        ungated.representatives


def local_smith_valuations(a, p, k, b=None):
    """The p-adic valuations of the Smith diagonal of the int64 matrix ``a``
    over Z/p^k, one per pivot: a pivot of least valuation is a unit times
    p^v, so it clears its column and row with no entry past p^k, and its row
    is set aside.  Each column operation is mirrored on the rows of ``b`` by
    its inverse, so a matrix b with a b = 0 ends as Q^-1 b for the final a Q
    (clearing the pivot's row touches no other row, so only b records it)."""
    q = p**k
    rest = (a % q).astype(np.int16)  # q <= 9 here: products stay below 2^15
    vals = []
    for t in range(a.shape[1]):
        if not t % 16:
            rest = rest[rest[:, t:].any(axis=1)]
        for v in range(k):  # the first entry of least valuation v
            hits = rest[:, t:] % p ** (v + 1) != 0
            if hits.any():
                break
        else:  # no entry left
            break
        r, c = divmod(int(np.argmax(hits)), hits.shape[1])
        c, pv = c + t, p**v
        rest[:, [t, c]] = rest[:, [c, t]]
        pivot = rest[r].copy()
        rest[r] = rest[-1]
        rest = rest[:-1]
        inv = pow(int(pivot[t]) // pv, -1, q)
        rest[:, t:] = (rest[:, t:] - np.outer(rest[:, t] // pv * inv % q, pivot[t:])) % q
        if b is not None:
            b[[t, c]] = b[[c, t]]
            b[t] = (b[t] + pivot[t + 1:] // pv * inv % q @ b[t + 1:]) % q
        vals.append(v)
    return vals


def reference_local_h2_factors(group, module):
    """Invariant factors of H^2(G, M) from the bar complex over each Z/p^k
    with p^k exactly dividing e, with no lattice, Cayley graph or integer
    Smith form: in the coordinates y of a Smith form of d^2 mod p^k the
    cocycles are the y with y_i in p^(k - a_i) Z/p^k for a_i the valuation
    of pivot i (k past the pivots), so H^2 is the sum of Z/p^(a_i) modulo
    the coboundaries, read off in the same coordinates.  The factors of the
    p-parts are multiplied place by place, largest with largest."""
    e = module.exponent
    d2 = np.concatenate(list(generator_blocks(group, module, 2)))
    d1 = cohomology_module._coboundary_generators(group, module, 2)
    factors = []
    for p, k in factorize(e).items():
        q = p**k
        b = (d1 % q).astype(np.int64)
        vals = local_smith_valuations(d2, p, k, b)
        vals += [k] * (d2.shape[1] - len(vals))
        kept = [i for i, a in enumerate(vals) if a]
        t = np.array([b[i] // p ** (k - vals[i]) for i in kept], dtype=np.int64)
        t = np.concatenate([t.reshape(len(kept), -1), np.diag([p ** vals[i] for i in kept])], 1)
        layer = local_smith_valuations(t, p, k)
        layer += [k] * (len(kept) - len(layer))
        layer = sorted((p**v for v in layer if v), reverse=True)
        factors = [x * y for x, y in itertools.zip_longest(factors, layer, fillvalue=1)]
    return tuple(reversed(factors))


# the named groups of order at most 16
NAMED_TO_16 = [f"C{n}" for n in range(1, 17)] + [f"D{n}" for n in range(2, 9)] + ["Q8", "S3"]


def test_one_quotient_reads_like_the_z_path():
    # every character mod 4, 8, 9 and 12 of the named groups to order 16
    # with a p-part, p dividing |G|, that does not lift reads that part's
    # factors from the one Cayley-graph quotient at p^k, and climbs the
    # rungs of any other.  They are those of the bar complex over
    # each Z/p^k, of the Z path's presentation of all rows to order 10 (its
    # integer Smith forms grow slow past that), and of the oracle where its
    # budget allows
    read, by_z, by_oracle = 0, 0, 0
    for name in NAMED_TO_16:
        group = named_group(name)
        for m in (4, 8, 9, 12):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                if not one_quotient_primes(group, module):
                    continue
                factors = cohomology_module._cohomology_cached.__wrapped__(
                    group, module, 2
                ).invariant_factors
                case = (name, m, chi.values)
                assert factors == reference_local_h2_factors(group, module), case
                read += 1
                if 8 < group.order <= 10:  # to order 8 in test_ladder_matches_the_z_path
                    assert factors == cohomology_module._z_presentation(group, module, 2).factors
                    by_z += 1
                try:
                    assert factors == brute_h2(group, module, OracleBudget(10**6)), case
                    by_oracle += 1
                except BudgetExceeded:
                    pass
    assert (read, by_z, by_oracle) == (98, 6, 4)


def test_one_quotient_folds_no_bar_row(monkeypatch):
    # a factor read of an H^2 whose one p-part reads the one quotient at p^k,
    # and with no other prime of |G| in e, folds only Cayley-graph rows, of
    # width (|G| (|X| - 1) + 1) r, reaches no presentation of the bar
    # complex, and builds one Smith form for a nontrivial H^2 and none for
    # a trivial one: the quotient's, of (|G| (|X| - 1) + 1) r rows and at
    # most that many columns plus the |X| r coboundary columns.  S4 and D16
    # (order 32) with mu_8 through 3 or 5 would fold 24^3 and 32^3 bar rows
    congruence_kernel, smith = linalg.congruence_kernel, linalg.smith_normal_form
    widths, shapes = [], []

    def recorded_kernel(n, exponent, constraints):
        widths.append(n)
        return congruence_kernel(n, exponent, constraints)

    def recorded_smith(mat):
        shapes.append(mat.shape)
        return smith(mat)

    def no_bar(*args):
        raise AssertionError("a factor read reached the bar complex")

    monkeypatch.setattr(linalg, "congruence_kernel", recorded_kernel)
    monkeypatch.setattr(linalg, "smith_normal_form", recorded_smith)
    monkeypatch.setattr(cohomology_module, "_z_presentation", no_bar)
    cases = [(*non_lifting_q8_module(), (4,))]
    for name, value, want in [("D8", 3, (4,)), ("D16", 3, (4,)), ("D16", 5, (2,)),
                              ("S4", 3, (2,)), ("C15", 7, ())]:
        group = named_group(name)
        m = 9 if value == 7 else 8
        chi = next(chi for chi in all_characters(group, m) if value in chi.values)
        cases.append((group, mu_module(group, m, chi), want))
    for group, module, want in cases:
        widths.clear()
        shapes.clear()
        primes = [p for p, _k, _v in p_parts(group, module)]
        assert len(primes) == 1 and one_quotient_primes(group, module) == primes
        h2 = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
        assert h2.invariant_factors == want, group.name
        nx = len(cohomology_module._generator_ends(group))
        width = (group.order * (nx - 1) + 1) * module.rank
        assert widths == [width], group.name
        assert len(shapes) == (not h2.is_trivial)
        for rows, cols in shapes:
            assert rows == width and cols <= width + nx * module.rank, group.name


def test_h0_is_the_fixed_submodule():
    # H^0 is presented as the fixed submodule, on the rows of the degree-0
    # differential in their order, so its factors, representatives and
    # classes are those of the Z path's presentation: rank-2 sums of
    # characters, trivial and mixing modules
    c2, c4, s3, d4 = cyclic(2), cyclic(4), symmetric(3), named_group("D4")
    modules = [
        trivial_module(c4, [2, 4]),
        trivial_module(s3, [3, 6]),
        gmodule(c2, [3, 3], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
        gmodule(c2, [4, 4], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
        direct_sum(*(mu_module(s3, m, all_characters(s3, m)[-1]) for m in (3, 5))),
    ]
    for group in (c4, s3, d4):
        for ms in ((2, 4), (3, 6), (4, 8), (2, 12)):
            chars = [all_characters(group, m) for m in ms]
            for chis in itertools.islice(itertools.product(*chars), 3):
                modules.append(direct_sum(*(mu_module(group, m, chi) for m, chi in zip(ms, chis))))
    nontrivial = 0
    for module in modules:
        h0 = cohomology_module._cohomology_cached.__wrapped__(module.group, module, 0)
        presentation = cohomology_module._z_presentation(module.group, module, 0)
        assert h0.invariant_factors == presentation.factors
        want = [Cochain(module, 0, tuple(g)) for g in presentation.generators().T]
        assert [rep.vector for rep in h0.representatives] == [rep.vector for rep in want]
        for rep in want:
            column = np.array(rep.vector, dtype=object).reshape(-1, 1)
            assert h0.class_of(rep).coordinates == tuple(presentation.coordinates(column)[:, 0])
        nontrivial += not h0.is_trivial
    assert (len(modules), nontrivial) == (39, 38)


def test_ladder_rejects_counts_that_climb_no_ladder(monkeypatch):
    # a count below the rung beneath it, a ratio larger than the one before,
    # and a ratio carrying a prime other than p (on the rungs 2 and 4 of C4,
    # or the one rung at 2 of C2, where a count of 6 on Z/12 or 28 on Z/2
    # is no group killed by 2) raise instead of climbing on; counts that
    # climb read the j-th largest factor as the product of the j-th largest
    # p-parts, here (4, 2) at 2 and (3, 3) at 3
    c2, c4 = cyclic(2), cyclic(4)
    for module, orders in [
        (trivial_module(c4, [4]), [4, 2]),
        (trivial_module(c4, [4]), [2, 8]),
        (trivial_module(c4, [4]), [2, 6]),
        (trivial_module(c2, [12]), [6]),
        (trivial_module(c2, [2]), [28]),
    ]:
        counts = iter(orders)
        monkeypatch.setattr(
            cohomology_module, "_cayley_h2",
            lambda *args, counts=counts: SimpleNamespace(order=next(counts)),
        )
        with pytest.raises(ArithmeticError, match="climb no ladder"):
            cohomology_module._cohomology_cached.__wrapped__(module.group, module, 2)
    counts = iter([4, 8, 9])
    monkeypatch.setattr(
        cohomology_module, "_cayley_h2", lambda *args: SimpleNamespace(order=next(counts))
    )
    c12 = cyclic(12)
    h2 = cohomology_module._cohomology_cached.__wrapped__(c12, trivial_module(c12, [36]), 2)
    assert h2.invariant_factors == (6, 12) and next(counts, None) is None


def quotient_module(module, d):
    """M / dM, built as a module of its own: each order cut to its gcd with
    d, and the action read mod the cut orders."""
    return gmodule(module.group, [gcd(o, d) for o in module.orders], module.action)


def test_a_rung_presents_the_quotient_module():
    # H^2(G, M / dM) in Cayley-graph coordinates on M's own rows, each order
    # and row modulus cut to its gcd with d, has the factors of the module
    # M / dM built on its own; d prime to an order cuts that coordinate to
    # 1, and d = 1 leaves the zero module
    c2, c4, s3 = cyclic(2), cyclic(4), symmetric(3)
    modules = [
        trivial_module(c4, [2, 12]),
        direct_sum(mu_module(c4, 4, all_characters(c4, 4)[-1]), trivial_module(c4, [6])),
        direct_sum(mu_module(s3, 3, all_characters(s3, 3)[-1]), trivial_module(s3, [4])),
        mu_module(c2, 9, CyclotomicCharacter.trivial(c2, 9)),
    ]
    for module in modules:
        group = module.group
        for d in (1, 2, 3, 4, 6, 12, 5):
            want = quotient_module(module, d)
            got = cohomology_module._cayley_h2(group, module, d)
            assert got.factors == cohomology(group, want, 2).invariant_factors, (module.orders, d)


def test_the_ladder_builds_no_module(monkeypatch):
    # the rungs of H^2(C8, Z/4), of h2-mid's Q8/mu_4 and of H^2(C2, Z/8)
    # count on the rows of M itself, so counting them constructs no GModule
    # for M / 2M.  |G| kills H^2, so the rungs stop at the power of p
    # exactly dividing |G|: C2 on Z/8 climbs one rung, Q8 on mu_4 two
    c2, c8, q8 = cyclic(2), cyclic(8), quaternion()
    modules = [
        trivial_module(c8, [4]), mu_module(q8, 4, all_characters(q8, 4)[-1]), trivial_module(c2, [8])
    ]
    made, init = [], GModule.__post_init__

    def counted(module):
        made.append(module.orders)
        init(module)

    monkeypatch.setattr(GModule, "__post_init__", counted)
    moduli = record_moduli(monkeypatch)
    for module, want, rungs in zip(modules, [(4,), (2, 2), (2,)], [[2, 4], [2, 4], [2]]):
        moduli.clear()
        h2 = cohomology_module._cohomology_cached.__wrapped__(module.group, module, 2)
        assert moduli == rungs, module.group.name
        assert h2.invariant_factors == want
    assert made == []


def reference_h2_order(group, module):
    """|H^2(G, M)| from the bar complex: the subquotient of the r |G|^2
    cochain coordinates cut out by the generator rows."""
    rows = generator_rows(group, module, 2)
    gens = cohomology_module._coboundary_generators(group, module, 2)
    return linalg.subquotient(module.orders * group.order**2, module.exponent, rows, gens).order


# the named groups of order at most 24
NAMED_TO_24 = [f"C{n}" for n in range(1, 25)] + [f"D{n}" for n in range(2, 13)] + ["Q8", "S3", "S4"]


def cayley_cases():
    """Every mu_m character of the named groups of order at most 24, m in
    (2, 3, 4, 6, 8, 9, 12), and the rank-2 sums of
    ``test_ladder_on_sums_of_characters``."""
    for name in NAMED_TO_24:
        group = named_group(name)
        for m in (2, 3, 4, 6, 8, 9, 12):
            for chi in all_characters(group, m):
                yield mu_module(group, m, chi)
    for name in ("C2", "C4", "S3", "D4"):
        group = named_group(name)
        for ms in ((3, 12), (5, 20), (3, 8), (2, 12), (3, 36)):
            chars = [all_characters(group, m) for m in ms]
            for chis in itertools.islice(itertools.product(*chars), 2):
                yield direct_sum(*(mu_module(group, m, chi) for m, chi in zip(ms, chis)))


def test_rungs_read_the_character_at_x_alone(monkeypatch):
    # the lifts are subgroups of the units and the corner entry is
    # multiplicative on a cyclic p-part, so reading it at X decides as
    # reading it at every element does, at every prime of |G| and e, on
    # every cayley_cases module
    modules = list(cayley_cases())

    def lifts(module):
        group = module.group
        return [cohomology_module._lifts(group, module, p, p**k) for p, k, _v in p_parts(group, module)]

    at_x = [lifts(module) for module in modules]
    declined = sum(bool(one_quotient_primes(module.group, module)) for module in modules)
    monkeypatch.setattr(cohomology_module, "_generator_ends", lambda group: tuple(group.elements()))
    assert [lifts(module) for module in modules] == at_x
    assert (len(modules), declined) == (814, 160)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_cayley_count_matches_the_quotient_module(monkeypatch):
    # on every modulus d that ``_h2_factors`` reads, a rung p^i or the one
    # quotient at p^k, and on d = e, the Cayley-graph count of
    # H^2(G, M / dM) is the bar complex's order for the module M / dM built
    # on its own (many coincide, so each is counted once); to order 8, with
    # d = e, the factors of the Cayley subquotient are those ``cohomology``
    # reads, one prime at a time (``test_one_quotient_reads_like_the_z_path``
    # compares those with the Z path)
    cayley_h2, read = cohomology_module._cayley_h2, {}

    def recorded(group, module, d):
        read[d] = cayley_h2(group, module, d)
        return read[d]

    monkeypatch.setattr(cohomology_module, "_cayley_h2", recorded)
    want, cases, presented = {}, 0, 0
    for module in cayley_cases():
        group, e = module.group, module.exponent
        read.clear()
        cohomology_module._h2_factors(group, module)
        if e not in read:
            read[e] = cayley_h2(group, module, e)
        for d, count in sorted(read.items()):
            quotient = quotient_module(module, d)
            if quotient not in want:
                want[quotient] = reference_h2_order(group, quotient)
            assert count.order == want[quotient], (group.name, module.orders, d)
            cases += 1
        if group.order <= 8:
            factors = cohomology(group, module, 2).invariant_factors
            assert read[e].factors == factors, (group.name, module.orders)
            presented += 1
    assert cases == 1569 and len(want) == 822 and presented == 323


def relabelled_module(module, perm):
    """The same module over the group with element g renamed perm[g] (perm
    fixes 0)."""
    group = module.group
    inverse = [0] * group.order
    for g, new in enumerate(perm):
        inverse[new] = g
    table = [[perm[group.mul(inverse[a], inverse[b])] for b in group.elements()]
             for a in group.elements()]
    moved = FiniteGroup(group.order, tuple(map(tuple, table)), name=group.name)
    return gmodule(moved, module.orders, [module.action[inverse[g]] for g in moved.elements()])


def test_cayley_count_ignores_labels_and_generating_set(monkeypatch):
    # the count is an invariant of the module: a relabelled group, whose
    # greedy generators and breadth-first tree differ, the greedy generators
    # in reverse order, and to order 8 every element but 1 as the
    # generating set count the same on every d dividing the exponent, and
    # find the same factors at d = m
    rng = random.Random(26)
    compared = 0

    def counts(group, module):
        e = module.exponent
        quotients = [cohomology_module._cayley_h2(group, module, d) for d in divisors(e)]
        return [q.order for q in quotients], quotients[-1].factors

    for name in ("C6", "S3", "D4", "Q8", "C12", "D6", "S4"):
        group = named_group(name)
        for m in (2, 3, 4, 6, 8):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                perm = [0] + rng.sample(range(1, group.order), group.order - 1)
                moved = relabelled_module(module, perm)
                want = counts(group, module)
                assert want == counts(moved.group, moved), (name, m, chi.values, perm)
                ends = [tuple(reversed(group.generators))]
                if group.order <= 8:
                    ends.append(tuple(range(1, group.order)))
                for x in ends:
                    monkeypatch.setattr(cohomology_module, "_generator_ends", lambda g, x=x: x)
                    assert want == counts(group, module), (name, m, chi.values, x)
                    monkeypatch.undo()
                compared += 1
    assert compared > 100


@pytest.mark.parametrize("count, m", [(5, 2), (5, 4), (6, 2), (6, 4)])
def test_cayley_count_matches_the_closed_form_of_c2_powers(count, m, monkeypatch):
    # C2^6 has 4096 bar cochain coordinates and 321 Cayley-graph ones
    group, expected = closed_forms.h2_trivial(["C2"] * count, m)
    module = trivial_module(group, [m])
    moduli = record_moduli(monkeypatch)
    h2 = cohomology_module._cohomology_cached.__wrapped__(group, module, 2)
    assert moduli == divisors(m)[1:]
    assert h2.invariant_factors == expected
    assert cohomology_module._cayley_h2(group, module, m).order == prod(expected)


def test_coprime_count_past_int64_runs_over_python_ints(monkeypatch):
    # S3 on trivial Z/(10^40 + 1), which is prime to 6: the one Cayley-graph
    # quotient at e feeds, folds and relates Python ints, and cohomology
    # reads H^2 = 0 from the theorem, feeding nothing; the count, with no
    # prime of |G| in e, reads no quotient either.  C2 on trivial Z/2^64
    # climbs the one rung at 2, where |G| stops it: one row at modulus 2, in
    # e's dtype, Python ints: H^2 = Z/2.  Its representative comes from the
    # bar complex at e.  D4 on trivial Z/2^70 climbs the rungs 2, 4 and 8
    # and reads (2, 2, 2), the Z path's
    e = 10**40 + 1
    s3 = symmetric(3)
    module = trivial_module(s3, [e])
    assert gcd(6, e) == 1
    congruence_kernel, fed, moduli = linalg.congruence_kernel, [], []

    def recorded(n, exponent, constraints):
        items = list(constraints)
        fed.extend(items)
        moduli.append(sorted({modulus for _row, modulus in items}))
        return congruence_kernel(n, exponent, iter(items))

    monkeypatch.setattr(linalg, "congruence_kernel", recorded)
    count = cohomology_module._cayley_h2(s3, module, e)
    assert len(fed) == 14
    assert all(row.dtype == object and modulus == e for row, modulus in fed)
    assert count.order == 1 and count.lattice.reduced.dtype == object
    assert count.sub.dtype == object and {type(x) for x in count.sub.flat} == {int}
    fed.clear()
    h2 = cohomology_module._cohomology_cached.__wrapped__(s3, module, 2)
    assert h2.is_trivial and fed == []
    assert cohomology_module._h2_factors(s3, module) == () and fed == []
    c2, e = cyclic(2), 2**64
    module = trivial_module(c2, [e])
    h2 = cohomology_module._cohomology_cached.__wrapped__(c2, module, 2)
    assert h2.invariant_factors == (2,) and len(fed) == 1
    assert all(row.dtype == object and modulus == 2 for row, modulus in fed)
    fed.clear()
    rep = h2.representatives[0]  # from the bar complex, over Python ints too
    assert fed and all(row.dtype == object and modulus == e for row, modulus in fed)
    assert is_cocycle(rep) and h2.class_of(rep).coordinates == (1,)
    d4 = named_group("D4")
    module = trivial_module(d4, [2**70])
    moduli.clear()
    h2 = cohomology_module._cohomology_cached.__wrapped__(d4, module, 2)
    assert moduli == [[2], [4], [8]] and h2.invariant_factors == (2, 2, 2)
    assert cohomology_module._z_presentation(d4, module, 2).factors == (2, 2, 2)


def reference_cayley_h2(group, module, d):
    """H^2(G, M / dM) as one subquotient of Z^((|G| |X| + 1) r): the value
    f(g, x) at every edge of the Cayley graph and f(1, 1), with no gauge
    fixed.  The rows f(1, x) = f(1, 1) for x in X, then for each g in X the
    rows g.f(z) = f(gz) over the fundamental cycles z; the coboundary of a
    1-cochain c reads g.c(x) - c(gx) + c(g) at (g, x) and c(1) at (1, 1)."""
    ends = cohomology_module._generator_ends(group)
    order, r, nx = group.order, module.rank, len(ends)
    edges = order * nx  # the coordinate f(1, 1) follows the edges
    width = (edges + 1) * r
    moduli = [gcd(o, d) for o in module.orders]
    dtype = linalg._dtype(module.exponent)
    action = np.array(module.action, dtype=dtype).reshape(order, r, r)
    table = np.array(group.mul_table)
    cycles = cohomology_module._cayley_tree(group, ends)[1].astype(dtype)
    eye = np.eye(r, dtype=dtype)

    def rows():
        block = np.zeros((nx, r, edges + 1, r), dtype=dtype)
        block[:, :, edges] = -eye
        block[np.arange(nx), :, np.arange(nx)] += eye  # the edges (1, x)
        yield from zip(block.reshape(nx * r, width), moduli * nx)
        for g in ends:
            block = np.zeros((len(cycles), r, edges + 1, r), dtype=dtype)
            block[:, :, :edges] = cycles[:, None, :, None] * action[g][:, None, :]
            moved = (table[g][:, None] * nx + np.arange(nx)).ravel()  # (p, x) -> (gp, x)
            for i in range(r):
                block[:, i, moved, i] -= cycles
            yield from zip(block.reshape(len(cycles) * r, width), moduli * len(cycles))

    g, x = np.arange(edges) // nx, np.array(ends * order)
    sub = np.zeros((edges + 1, r, order, r), dtype=dtype)
    sub[np.arange(edges), :, x] += action[g]
    sub[np.arange(edges), :, table[g, x]] -= eye
    sub[np.arange(edges), :, g] += eye
    sub[edges, :, 0] = eye
    return linalg.subquotient(
        tuple(moduli) * (edges + 1),
        gcd(module.exponent, d),
        rows(),
        sub.reshape(width, order * r).astype(object),
    )


def coset_module(group, m):
    """Z/m on the left cosets of {1, t}, t the first involution outside the
    centre: a permutation module whose action is not abelian, so it tells
    the translate gz from g^-1 z, which no character does on these groups."""
    t = next(t for t in group.elements() if t and group.mul(t, t) == 0
             and any(group.mul(t, g) != group.mul(g, t) for g in group.elements()))
    cosets = sorted({min(g, group.mul(g, t)) for g in group.elements()})
    place = {g: cosets.index(min(g, group.mul(g, t))) for g in group.elements()}
    action = []
    for g in group.elements():
        matrix = [[0] * len(cosets) for _ in cosets]
        for j, c in enumerate(cosets):
            matrix[place[group.mul(g, c)]][j] = 1
        action.append(matrix)
    return gmodule(group, [m] * len(cosets), action)


def test_cayley_h2_matches_the_ungauged_reference():
    # the quotient on the edges outside the tree has the order of the one on
    # every edge and f(1, 1) at each d dividing e, and its factors at e: for
    # every module of ``cayley_cases``, permutation modules on cosets, every
    # module over C1 (whose one edge is a loop outside the tree), and,
    # orders only, mu_8 through 3 and 5 on three groups of order 32
    c1 = cyclic(1)
    c1_modules = [trivial_module(c1, orders) for orders in ([2], [12], [3, 9], [10**40 + 1])]
    c1_modules += [mu_module(c1, m, chi) for m in (2, 3, 4, 8, 9) for chi in all_characters(c1, m)]
    cosets = [coset_module(named_group(name), m) for name in ("S3", "D4") for m in (2, 3, 4, 6)]
    compared = 0
    for module in itertools.chain(cayley_cases(), cosets, c1_modules):
        group, e = module.group, module.exponent
        for d in divisors(e) if e < 100 else (1, e):  # 10^40 + 1 only on C1
            got = cohomology_module._cayley_h2(group, module, d)
            want = reference_cayley_h2(group, module, d)
            assert got.order == want.order, (group.name, module.orders, module.action, d)
            compared += 1
        assert got.factors == want.factors, (group.name, module.orders, module.action)
        if group.order == 1:
            assert got.is_trivial
    order_32 = [named_group("D16"), direct_product(*[cyclic(2)] * 5),
                direct_product(quaternion(), cyclic(4))]
    for group in order_32:
        for value in (3, 5):
            chi = next(chi for chi in all_characters(group, 8) if value in chi.values)
            module = mu_module(group, 8, chi)
            for d in (1, 2, 4, 8):
                want = reference_cayley_h2(group, module, d).order
                assert cohomology_module._cayley_h2(group, module, d).order == want
                compared += 1
    assert compared > 3000


def kron_cayley_h2_rows(group, module, d):
    """The rows ``_cayley_h2`` streams, built per g in X by a gather of the
    cycles at the translated edges outside the tree and an np.kron with
    I_r, with the action of g added on the diagonal."""
    ends = cohomology_module._generator_ends(group)
    order, r, nx = group.order, module.rank, len(ends)
    paths, cycles = cohomology_module._cayley_tree(group, ends)
    n = len(cycles)
    moduli = [gcd(o, d) for o in module.orders]
    dtype = linalg._dtype(module.exponent)
    action = np.array(module.action, dtype=dtype).reshape(order, r, r)
    outside = np.flatnonzero(~paths.any(axis=0))
    own_h, own_x = divmod(outside[np.nonzero(cycles[:, outside])[1]], nx)
    rows = []
    for g in ends:
        back = np.array(group.mul_table[group.inv(g)])[own_h] * nx + own_x
        block = -np.kron(cycles[:, back].astype(dtype), np.eye(r, dtype=dtype)).reshape(n, r, n, r)
        block[np.arange(n), :, np.arange(n)] += action[g]
        rows += zip(block.reshape(n * r, n * r), moduli * n)
    return rows


def sign_twisted(group, orders, twist):
    """A rank-2 module on ``orders`` on which g acts by ``twist`` where the
    last mu_3 character of the group takes the value 2, else trivially."""
    chi = all_characters(group, 3)[-1]
    return gmodule(group, orders, [twist if v == 2 else [[1, 0], [0, 1]] for v in chi.values])


def test_cayley_h2_rows_match_the_kron_built_rows(monkeypatch):
    # rank 2: (Z/2)^2 and Z/2 + Z/4, trivial, swapped by a sign, and
    # sheared by one; every row and modulus streamed, and the order, at
    # every d dividing the exponent
    streamed = []

    def recorded(orders, exponent, congruences, sub):
        streamed.append(list(congruences))
        return linalg.subquotient(orders, exponent, iter(streamed[-1]), sub)

    monkeypatch.setattr(cohomology_module, "subquotient", recorded)
    compared = 0
    for name in ("C2", "C4", "C6", "S3", "D4", "Q8", "C2xC2", "D6"):
        group = named_group(name) if name != "C2xC2" else direct_product(cyclic(2), cyclic(2))
        twisted = [sign_twisted(group, [2, 2], [[0, 1], [1, 0]]), sign_twisted(group, [2, 4], [[1, 0], [2, 1]])]
        assert not any(module.has_trivial_action for module in twisted)
        for module in [trivial_module(group, [2, 2]), trivial_module(group, [2, 4]), *twisted]:
            assert module.rank == 2
            for d in divisors(module.exponent):
                got = cohomology_module._cayley_h2(group, module, d)
                want = kron_cayley_h2_rows(group, module, d)
                rows = streamed.pop()
                assert len(rows) == len(want)
                for (row, modulus), (want_row, want_modulus) in zip(rows, want):
                    assert row.dtype == want_row.dtype and (row == want_row).all() and modulus == want_modulus
                assert got.order == reference_cayley_h2(group, module, d).order, (name, module.action, d)
                compared += 1
    assert compared == 80


def test_cayley_translates_are_cached_read_only_translated_cycles():
    # row z of T_g holds gz at the edges outside the tree, gz holding at
    # (gh, x) the coefficient of z at (h, x)
    for name in NAMED_TO_16 + ["S4"]:
        group = named_group(name)
        ends = cohomology_module._generator_ends(group)
        translates = cohomology_module._cayley_translates(group, ends)
        assert cohomology_module._cayley_translates(group, ends) is translates
        assert translates.dtype == np.int8 and not translates.flags.writeable
        with pytest.raises(ValueError):
            translates[0, 0, 0] = 1
        paths, cycles = cohomology_module._cayley_tree(group, ends)
        nx = len(ends)
        outside = np.flatnonzero(~paths.any(axis=0))
        assert translates.shape == (nx, len(cycles), len(cycles))
        for g, got in zip(ends, translates):
            moved = np.zeros_like(cycles)
            for h in range(group.order):
                moved[:, group.mul(g, h) * nx:(group.mul(g, h) + 1) * nx] = cycles[:, h * nx:(h + 1) * nx]
            own = [int(np.flatnonzero(cycle[outside])[0]) for cycle in cycles]
            assert (got == moved[:, outside[own]]).all(), (name, g)


def reference_edge_sums(edges, action):
    """``_edge_sums`` as one tensordot over the group axis: block (z, x) of
    r x r entries is sum_h z_(h, x) action[h]."""
    order, r = action.shape[:2]
    nx = edges.shape[1] // order
    z = edges.reshape(len(edges), order, nx).astype(action.dtype)
    blocks = np.tensordot(z, action, axes=([1], [0]))  # (z, x, i, j)
    return blocks.transpose(0, 2, 1, 3).reshape(len(edges) * r, nx * r)


def test_edge_sums_match_the_tensordot_form():
    # random int8 edges with entries in {-1, 0, 1}, int64 and object
    # actions (the object ones past int64), r in {1, 2, 3}, |X| in {1, 2, 3},
    # and no edge rows at all
    rng = np.random.default_rng(41)
    compared = 0
    for r, nx, order, rows in itertools.product((1, 2, 3), (1, 2, 3), (1, 4, 6), (0, 1, 5)):
        edges = rng.integers(-1, 2, size=(rows, order * nx)).astype(np.int8)
        small = rng.integers(-50, 50, size=(order, r, r))
        big = np.array(
            [int(x) * 2**70 + 1 for x in small.ravel()], dtype=object
        ).reshape(order, r, r)
        for action in (small.astype(np.int64), big):
            got = cohomology_module._edge_sums(edges, action)
            want = reference_edge_sums(edges, action)
            assert got.dtype == want.dtype == action.dtype
            assert got.shape == want.shape == (rows * r, nx * r)
            assert np.array_equal(got, want), (r, nx, order, rows)
            compared += 1
    assert compared == 162


def test_cayley_gauge_is_the_tree_rebuilt_coboundary():
    # a 1-cochain rebuilt along the tree from random values c at X has a
    # bar coboundary that vanishes at (1, 1) and on every edge of the tree,
    # and reads H^1's cycle rows times c at the edge outside the tree of
    # each fundamental cycle: the coboundary columns of ``_cayley_h2``.
    # C1, whose X holds 1, is left out: its one edge is a loop
    rng = random.Random(30)
    checked = 0
    for name in NAMED_TO_16[1:] + ["S4"]:
        group = named_group(name)
        ends = cohomology_module._generator_ends(group)
        order = group.order
        paths, cycles = cohomology_module._cayley_tree(group, ends)
        tree = paths.any(axis=0)
        own = [int(np.flatnonzero((cycle != 0) & ~tree)[0]) for cycle in cycles]
        assert sorted(own) == list(np.flatnonzero(~tree))
        # the bar index of (h, x) for the edge h -> hx at h |X| + (place of x)
        bar = (np.arange(order)[:, None] * order + np.array(ends)).ravel()
        for m in (4, 6, 9):
            for chi in all_characters(group, m)[:3]:
                module = mu_module(group, m, chi)
                r, orders = module.rank, np.array(module.orders, dtype=object)
                action = np.array(module.action, dtype=np.int64).reshape(order, r, r)
                values = np.array([rng.randrange(o) for _ in ends for o in module.orders])
                rebuilt = cohomology_module._edge_sums(paths, action) @ values
                dc = np.array(coboundary(Cochain(module, 1, tuple(rebuilt))).vector, dtype=object)
                dc = dc.reshape(order * order, r)
                assert not dc[0].any()
                assert not dc[bar[tree]].any()
                sums = cohomology_module._edge_sums(cycles, action) @ values
                want = sums.reshape(len(cycles), r) % orders
                assert (dc[bar[own]] == want).all(), (name, m, chi.values)
                checked += 1
    assert checked > 150


def test_h1_past_int64_runs_over_python_ints(monkeypatch):
    # H^1 in Cayley-graph coordinates feeds, folds, rebuilds and checks
    # Python ints past int64: S3 on trivial Z/(10^40 + 1), which is prime
    # to 6, and C2 on trivial Z/(2 (10^40 + 1)), where H^1 = Z/2.  For S3
    # cohomology reads H^1 = 0 from the theorem and feeds nothing, and
    # class_of still tests every cochain with is_cocycle
    e = 10**40 + 1
    s3, c2 = symmetric(3), cyclic(2)
    congruence_kernel, fed = linalg.congruence_kernel, []

    def recorded(n, exponent, constraints):
        items = list(constraints)
        fed.extend(items)
        return congruence_kernel(n, exponent, iter(items))

    monkeypatch.setattr(linalg, "congruence_kernel", recorded)
    module = trivial_module(s3, [e])
    presentation = cohomology_module._cayley_h1(s3, module)
    assert presentation.factors == () and len(fed) == 7
    assert all(row.dtype == object and modulus == e for row, modulus in fed)
    assert presentation.rebuild.dtype == object
    fed.clear()
    h1 = cohomology_module._cohomology_cached.__wrapped__(s3, module, 1)
    assert h1.is_trivial and h1.representatives == () and fed == []
    assert h1.class_of(zero_cochain(module, 1)).coordinates == ()
    outside = max(set(s3.elements()) - set(cohomology_module._generator_ends(s3)))
    with pytest.raises(ValueError, match="not a cocycle"):
        h1.class_of(Cochain(module, 1, tuple(int(g == outside) for g in s3.elements())))
    module = trivial_module(c2, [2 * e])
    h1 = cohomology_module._cohomology_cached.__wrapped__(c2, module, 1)
    assert h1.invariant_factors == (2,)
    rep = h1.representatives[0]
    assert rep.vector == (0, e) and is_cocycle(rep)
    assert h1.class_of(rep).coordinates == (1,)
    assert h1.class_of(rep.scale(3)).coordinates == (1,)
    with pytest.raises(ValueError, match="not a cocycle"):
        h1.class_of(Cochain(module, 1, (1, e)))


def test_maps_from_a_trivial_group_present_nothing(monkeypatch):
    # inflation, restriction and conjugation from a trivial H^n return one
    # empty row per target factor, and build no presentation of the source
    # or the target: inflation from H^2(S4/S4, Z/2) = 0 into H^2(S4, Z/2)
    # built the target's presentation of all 24^3 rows only to return that
    built, z_presentation = [], cohomology_module._z_presentation
    monkeypatch.setattr(
        cohomology_module, "_z_presentation",
        lambda *args: built.append(args[:3]) or z_presentation(*args),
    )
    cohomology_module._cohomology_cached.cache_clear()
    s4 = symmetric(4)
    module = trivial_module(s4, [2])
    q, proj = quotient(s4, full_subgroup(s4))
    sub, embed = descend_to_quotient(module, proj)
    source = cohomology(q, sub, 2)
    inf = inflation(source, proj, module, embed)
    assert source.is_trivial and inf.target.invariant_factors == (2, 2)
    assert inf.matrix == ((), ()) and inf.is_zero
    h2 = cohomology(s4, trivial_module(s4, [3]), 2)
    c3 = subgroup_generated(s4, [next(g for g in s4.elements() if s4.element_order(g) == 3)])
    res = restriction(h2, c3)
    assert h2.is_trivial and res.target.invariant_factors == (3,) and res.matrix == ((),)
    s3 = symmetric(3)
    a3 = subgroup_generated(s3, [next(g for g in s3.elements() if s3.element_order(g) == 3)])
    action = conjugation_on_cohomology(s3, a3, trivial_module(s3, [2]), 2)
    assert action.cohomology.is_trivial and action.matrices == ((), ())
    assert action.fixed_subgroup()[0] == ()
    assert built == []
    for coh in (source, inf.target, h2, res.target, action.cohomology):
        assert "_presentation" not in vars(coh)
    cohomology_module._cohomology_cached.cache_clear()


KUENNETH_PRODUCTS = [
    ("C2", "C4"),
    ("S3", "C2"),
    ("D4", "C2"),
    ("Q8", "C2"),
    ("C4", "C4"),
    ("S3", "C3"),
    ("C2^2", "C2^2"),
    ("Q8", "C4"),
]


def kuenneth_factor(name):
    return direct_product(cyclic(2), cyclic(2)) if name == "C2^2" else named_group(name)


@pytest.mark.parametrize("names", KUENNETH_PRODUCTS)
def test_kuenneth_formula_over_f_p(names):
    # over a field with trivial action, h^2(A x B) = h^2(A) + h^1(A) h^1(B)
    # + h^2(B) for h^n = dim H^n(-, F_p): the H^2 of the product is counted
    # from its generator rows, the H^1 are presented from all rows
    a, b = (kuenneth_factor(name) for name in names)
    product = direct_product(a, b)
    for p in (2, 3):
        def h(group, n):
            factors = cohomology(group, trivial_module(group, [p]), n).invariant_factors
            assert set(factors) <= {p}
            return len(factors)

        expected = h(a, 2) + h(a, 1) * h(b, 1) + h(b, 2)
        assert h(product, 2) == expected, (names, p)


def p_part(order, p):
    part = 1
    while order % p == 0:
        order, part = order // p, part * p
    return part


def sylow_subgroup(group, p):
    """A Sylow p-subgroup, grown one element at a time: an element joins
    while the subgroup stays a p-group.  Every p-subgroup lies in a Sylow
    one, so after one pass no p-subgroup properly contains the result."""
    gens = []
    for g in group.elements():
        size = len(subgroup_generated(group, gens + [g]).elements)
        if p_part(size, p) == size:
            gens.append(g)
    sylow = subgroup_generated(group, gens)
    assert len(sylow.elements) == p_part(group.order, p)
    return sylow


SYLOW_NAMED = [f"C{n}" for n in range(1, 25)] + [f"D{n}" for n in range(2, 13)] + ["Q8", "S3", "S4"]


def test_restriction_to_a_sylow_subgroup_is_injective():
    # H^n(G, Z/p) is killed by p, and restriction to a Sylow p-subgroup P is
    # injective on the p-primary part (Brown, Cohomology of Groups, III.10),
    # so Res: H^n(G, Z/p) -> H^n(P, Z/p) has trivial kernel
    nontrivial = 0
    for name in SYLOW_NAMED:
        group = named_group(name)
        for p in factorize(group.order):
            sylow = sylow_subgroup(group, p)
            module = trivial_module(group, [p])
            for degree in (1, 2) if group.order <= 12 else (1,):
                coh = cohomology(group, module, degree)
                assert restriction(coh, sylow).is_injective, (name, p, degree)
                nontrivial += not coh.is_trivial
    assert nontrivial == 68


def test_closed_form_helper():
    # the helper alone, on groups the engine settles elsewhere, and its imports
    assert closed_forms.abelianization(symmetric(4)) == (2,)
    assert closed_forms.abelianization(quaternion()) == (2, 2)
    assert closed_forms.invariant_factors([2, 4, 3, 1, 2]) == (2, 2, 12)
    assert closed_forms.h2_trivial(["C6"], 6)[1] == (6,)
    assert closed_forms.h2_trivial(["C2", "C2"], 2)[1] == (2, 2, 2)
    assert closed_forms.h2_trivial(["D4"], 4)[1] == (2, 2, 2)
    tree = ast.parse(Path(closed_forms.__file__).read_text())
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    } | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
         for alias in node.names}
    assert not {"twistlgp.linalg", "twistlgp.cohomology", "twistlgp"} & imported


def test_generator_row_h1_is_the_all_row_h1():
    # every H^1 is presented in Cayley-graph coordinates; the reference
    # folds all r |G|^2 rows of d^1 over the bar coboundaries.  The named
    # groups of order at most 24, every character mod m; the oracles where
    # the default budget allows
    compared = brute = 0
    for name in SYLOW_NAMED:
        group = named_group(name)
        family = cyclic_subgroups(group)
        for m in (2, 3, 4, 6, 8, 12):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                reference = linalg.subquotient(
                    module.orders * group.order,
                    module.exponent,
                    cohomology_module._differential_rows(group, module, 1),
                    cohomology_module._coboundary_generators(group, module, 1),
                )
                h1 = cohomology(group, module, 1)
                factors = h1.invariant_factors
                assert factors == reference.factors, (name, m, chi.values)
                reps = h1.representatives
                for i, rep in enumerate(reps):
                    assert is_cocycle(rep)
                    assert h1.class_of(rep).coordinates == tuple(int(i == j) for j in range(len(reps)))
                # the rebuilt representatives are a basis under the reference too
                if reps:
                    vectors = np.array([rep.vector for rep in reps], dtype=object).T
                    classes = reference.coordinates(vectors)
                    assert linalg.kernel_subgroup(factors, [(classes, factors)]).is_trivial
                for subgroup in family:
                    res = restriction(h1, subgroup)
                    columns = [
                        res.target.class_of(restricted_cochain(rep, res.target, subgroup)).coordinates
                        for rep in reps
                    ]
                    rows = len(res.target.invariant_factors)
                    assert res.matrix == tuple(
                        tuple(column[i] for column in columns) for i in range(rows)
                    ), (name, m, chi.values, subgroup.elements)
                sha = sha_finite(group, module, family)
                if module.size**group.order <= DEFAULT_BUDGET.max_functions:
                    assert brute_h1(group, module) == h1.invariant_factors
                    assert brute_sha(group, module, family) == sha.invariant_factors
                    brute += 1
                compared += 1
    assert compared == 672 and brute == 221


def test_class_of_reads_only_cocycles():
    # reading a 1-cochain at X is injective on cocycles only: a cochain equal
    # to a representative (or to 0) except at one element k outside X has
    # its values at X in the lattice, and class_of must still refuse it
    refused = 0
    for name in ("C2", "C6", "S3", "D4", "Q8", "C12", "D6", "S4"):
        group = named_group(name)
        outside = sorted(set(group.elements()) - set(cohomology_module._generator_ends(group)))
        for m in (2, 3, 4, 6):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                h1 = cohomology(group, module, 1)
                for rep in h1.representatives or (zero_cochain(module, 1),):
                    for k in outside:
                        vector = list(rep.vector)
                        vector[k * module.rank] += 1
                        with pytest.raises(ValueError, match="not a cocycle"):
                            h1.class_of(Cochain(module, 1, tuple(vector)))
                        refused += 1
    assert refused == 756


def dense_coboundary(cochain, blocks=None):
    """The bar differential of a cochain as the product of each dense block
    of ``_differential_blocks`` with its vector: the gathers' reference."""
    module, n = cochain.module, cochain.degree
    if blocks is None:
        blocks = [b for b, _ in cohomology_module._differential_blocks(module.group, module, n)]
    f = np.array(cochain.vector, dtype=object)
    values = [block @ f.astype(block.dtype) for block in blocks]
    return Cochain(module, n + 1, tuple(np.concatenate(values)))


def gather_cases():
    """Modules over C1, C6, S3, Q8, D4, C2 x C4 and S4: rank 0, Z/4, the
    rank-2 Z/2 + Z/6, Z/(2^30 + 3) at int64's edge, Z/(2^40 + 1) past it,
    and the first two characters into mu_8 and mu_9; S4 in degree 2 only
    with Z/4 and a mu_8 character, as its dense blocks are large.  Last,
    C2^5 with Z/3 in degree 2, whose gather takes more than one block."""
    groups = [cyclic(1), cyclic(6), symmetric(3), quaternion(), named_group("D4"),
              direct_product(cyclic(2), cyclic(4)), symmetric(4)]
    for group in groups:
        modules = [trivial_module(group, orders)
                   for orders in ([1], [4], [2, 6], [2**30 + 3], [2**40 + 1])]
        modules += [mu_module(group, m, chi)
                    for m in (8, 9) for chi in all_characters(group, m)[:2]]
        for k, module in enumerate(modules):
            for n in (0, 1, 2):
                if group.order < 24 or n < 2 or k in (1, 5):
                    yield module, n
    c2_5 = direct_product(*[cyclic(2)] * 5)
    yield trivial_module(c2_5, [3]), 2


def test_gathered_differential_matches_the_dense_blocks():
    # coboundary and is_cocycle gather the bar differential from a cochain's
    # values; the dense product with _differential_blocks must agree on
    # random cochains, on coboundaries (cocycles) and on 0 in degrees 0-2
    rng = random.Random(31)
    compared, cocycles = 0, 0
    for module, n in gather_cases():
        group, r = module.group, module.rank
        blocks = [block for block, _ in cohomology_module._differential_blocks(group, module, n)]
        size = group.order**n
        cochains = [zero_cochain(module, n)] + [
            Cochain(module, n, [rng.randrange(o) for _ in range(size) for o in module.orders])
            for _ in range(2)
        ]
        if n:  # a coboundary, so a cocycle
            below = [rng.randrange(o) for _ in range(size // group.order) for o in module.orders]
            cochains.append(dense_coboundary(Cochain(module, n - 1, below)))
        for cochain in cochains:
            want = dense_coboundary(cochain, blocks)
            assert coboundary(cochain) == want, (group.name, module.orders, n)
            assert is_cocycle(cochain) == want.is_zero
            assert len(want.vector) == r * group.order ** (n + 1)
            cocycles += want.is_zero
            compared += 1
    assert (compared, cocycles) == (647, 432)


def test_is_cocycle_reads_every_block(monkeypatch):
    # the gather of a 2-cochain over C2^5 takes two blocks, and is_cocycle
    # must test every one: a differential that is 0 mod 3 but in the last
    # row of its last block is no cocycle
    c2_5 = direct_product(*[cyclic(2)] * 5)
    cochain = zero_cochain(trivial_module(c2_5, [3]), 2)
    blocks = list(cohomology_module._differential_values(cochain))
    assert len(blocks) == 2 and is_cocycle(cochain)
    blocks[0][0, 0] = blocks[1][0, 0] = 3
    blocks[1][-1, 0] = 1
    monkeypatch.setattr(cohomology_module, "_differential_values", lambda c: iter(blocks))
    assert not is_cocycle(cochain)
    blocks[1][-1, 0] = 6
    assert is_cocycle(cochain)


def test_class_of_refuses_every_non_cocycle():
    # class_of runs is_cocycle in every degree: a representative, or the
    # zero cocycle, with one entry raised by 1 is refused exactly when the
    # dense differential is not zero on it, for H^0, H^1, a trivial and a
    # nontrivial H^2, and a trivial sha_finite result
    c2, s3 = cyclic(2), symmetric(3)
    sign = next(chi for chi in all_characters(c2, 4) if 3 in chi.values)
    sha = sha_finite(s3, trivial_module(s3, [2]), [full_subgroup(s3)])
    assert sha.is_trivial
    groups = [
        cohomology(c2, mu_module(c2, 4, sign), 0),
        cohomology(c2, mu_module(c2, 3, all_characters(c2, 3)[-1]), 0),
        cohomology(s3, trivial_module(s3, [2]), 1),
        cohomology(named_group("C6"), trivial_module(named_group("C6"), [3]), 1),
        cohomology(s3, trivial_module(s3, [3]), 2),
        cohomology(s3, trivial_module(s3, [2]), 2),
        cohomology(cyclic(4), trivial_module(cyclic(4), [4]), 2),
        sha,
    ]
    assert [h.invariant_factors for h in groups] == [(2,), (), (2,), (3,), (), (2,), (4,), ()]
    refused = []
    for h in groups:
        refused.append(0)
        for rep in h.representatives or (zero_cochain(h.module, h.degree),):
            for k in range(len(rep.vector)):
                vector = list(rep.vector)
                vector[k] += 1
                cochain = Cochain(h.module, h.degree, vector)
                if dense_coboundary(cochain).is_zero:
                    h.class_of(cochain)
                    continue
                with pytest.raises(ValueError, match="not a cocycle"):
                    h.class_of(cochain)
                refused[-1] += 1
    assert refused == [1, 1, 6, 6, 36, 36, 16, 6]
    # the test comes first: a nontrivial H^2 refuses a non-cocycle before it
    # builds its bar presentation
    h2 = cohomology_module._cohomology_cached.__wrapped__(s3, trivial_module(s3, [2]), 2)
    with pytest.raises(ValueError, match="not a cocycle"):
        h2.class_of(Cochain(h2.module, 2, (1,) + (0,) * 35))
    assert "_presentation" not in vars(h2)


def test_class_of_refuses_a_cochain_right_at_every_edge():
    # a 2-cochain that vanishes at (1, 1) and on the spanning tree's edges,
    # whose values F_z at the edges outside the tree lie in the Cayley-graph
    # lattice, is fixed on the Cayley graph's edges as a gauge-fixed cocycle
    # is; one more nonzero value at a (g, k) with k outside X, no edge, makes
    # it no cocycle, and class_of must refuse it
    refused = 0
    s3, d4, q8 = symmetric(3), named_group("D4"), quaternion()
    for group, module in [
        (s3, trivial_module(s3, [2])),
        (s3, trivial_module(s3, [3])),
        (d4, mu_module(d4, 4, all_characters(d4, 4)[-1])),
        (q8, trivial_module(q8, [2])),
    ]:
        order, r = group.order, module.rank
        h2 = cohomology(group, module, 2)
        ends = cohomology_module._generator_ends(group)
        paths, cycles = cohomology_module._cayley_tree(group, ends)
        outside = np.flatnonzero(~paths.any(axis=0))
        own_h, own_x = divmod(outside[np.nonzero(cycles[:, outside])[1]], len(ends))
        edges = own_h * order + np.array(ends)[own_x]
        lattice = cohomology_module._cayley_h2(group, module, module.exponent).lattice
        basis = lattice.lift(linalg.identity_matrix(len(edges) * r))
        for values in [np.zeros(len(edges) * r, dtype=object), *basis.T]:
            vector = np.zeros((order * order, r), dtype=object)
            vector[edges] = values.reshape(len(edges), r)
            for g, k in itertools.product(range(order), sorted(set(range(order)) - set(ends))):
                if g == k == 0:
                    continue
                cochain = vector.copy()
                cochain[g * order + k, 0] += 1
                cochain = Cochain(module, 2, cochain.ravel())
                assert not dense_coboundary(cochain).is_zero
                with pytest.raises(ValueError, match="not a cocycle"):
                    h2.class_of(cochain)
                refused += 1
    assert refused == 1540


def pulled_back_classes(source, target, elements, coefficients):
    """An induced map's matrix by the checked read: each representative's
    image at every tuple of the target, coefficient matrix times its value
    at the tuple's images in ``elements``, tested by ``is_cocycle`` and its
    class read through the target presentation's ``coordinates``."""
    if source.is_trivial:
        return ((),) * len(target.invariant_factors)
    coefficients = np.array(coefficients, dtype=object)
    tuples = list(itertools.product(range(len(elements)), repeat=source.degree))
    columns = [
        [x for ts in tuples for x in coefficients @ np.array(rep(*(elements[t] for t in ts)))]
        for rep in source.representatives
    ]
    assert all(is_cocycle(Cochain(target.module, source.degree, tuple(c))) for c in columns)
    return tuple(map(tuple, target._presentation.coordinates(np.array(columns, dtype=object).T)))


def test_induced_maps_read_the_images_at_x():
    # the image of a cocycle is a cocycle, so an induced map into H^1 reads
    # its images at X of the target group only, with no cocycle test; that
    # read matches the checked read of the whole pull-back: restriction to every
    # subgroup generated by two elements (the cyclic ones among them) of the
    # named groups of order at most 24, and to order 12, inflation from
    # G/N and the G/N-action on H^1(N, M) for every normal subgroup N
    restricted = maps = 0
    for name in SYLOW_NAMED:
        group = named_group(name)
        pairs = itertools.combinations_with_replacement(group.elements(), 2)
        spans = list({sub.elements: sub for sub in (subgroup_generated(group, p) for p in pairs)}.values())
        normals = [sub for sub in subgroups(group) if sub.is_normal()] if group.order <= 12 else []
        for m in (2, 3, 4, 6, 8, 12):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                h1 = cohomology(group, module, 1)
                for sub in spans:
                    res = restriction(h1, sub)
                    expected = pulled_back_classes(h1, res.target, sub.as_group[1], module.action[0])
                    assert res.matrix == expected, (name, m, chi.values, sub.elements)
                    restricted += not h1.is_trivial and not res.target.is_trivial
                for normal in normals:
                    q, proj = quotient(group, normal)
                    fixed_module, embedding = descend_to_quotient(module, proj)
                    inf = inflation(cohomology(q, fixed_module, 1), proj, module, embedding)
                    expected = pulled_back_classes(inf.source, h1, proj.images, embedding)
                    assert inf.matrix == expected, (name, m, chi.values, normal.elements)
                    action = conjugation_on_cohomology(group, normal, module, 1)
                    embed = normal.as_group[1]
                    for g, matrix in zip(proj.section, action.matrices):
                        moved = [group.mul(group.mul(group.inv(g), n), g) for n in embed]
                        elements = [embed.index(n) for n in moved]
                        coh = action.cohomology
                        expected = pulled_back_classes(coh, coh, elements, module.action[g])
                        assert matrix == expected, (name, m, chi.values, normal.elements, g)
                    maps += 1
    assert (restricted, maps) == (5147, 1632)


def test_inner_conjugation_must_act_trivially(monkeypatch):
    # conjugation_on_cohomology checks that N acts trivially on H^n(N, M)
    # with a check that python -O keeps: an induced map that moves the
    # class of H^1(C3, Z/3) raises ArithmeticError
    s3 = symmetric(3)
    c3 = subgroup_generated(s3, [next(g for g in s3.elements() if s3.element_order(g) == 3)])
    module = trivial_module(s3, [3])
    assert conjugation_on_cohomology(s3, c3, module, 1).cohomology.invariant_factors == (3,)
    monkeypatch.setattr(cohomology_module, "_induced_map", lambda *args: ((2,),))
    with pytest.raises(ArithmeticError, match="inner action is not trivial"):
        conjugation_on_cohomology(s3, c3, module, 1)


def test_element_is_one_product_with_the_representatives():
    # element multiplies the coordinates into the representatives' matrix
    # and reduces once; the sum of scaled representatives, reduced at each
    # step, gives the same cochain, in degrees 0..2 and for the sha_finite
    # kernel, whose representatives are assigned
    rng = random.Random(28)
    compared = 0
    for name in ("C4", "S3", "D4", "Q8", "C12"):
        group = named_group(name)
        for m in (2, 4, 6):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                groups = [cohomology(group, module, degree) for degree in (0, 1, 2)]
                groups.append(sha_finite(group, module, [Subgroup(group, (0,))]))
                for coh in groups:
                    for _ in range(3):
                        coords = tuple(rng.randrange(-2 * d, 2 * d) for d in coh.invariant_factors)
                        expected = zero_cochain(module, coh.degree)
                        for c, rep in zip(CohClass(coh, coords).coordinates, coh.representatives):
                            expected = expected.add(rep.scale(c))
                        assert coh.element(coords) == expected, (name, m, chi.values, coh.degree)
                        compared += bool(coords)
    assert compared == 396


def test_cayley_h1_ignores_labels_and_generating_set(monkeypatch):
    # H^1 is an invariant of the module: a relabelled group, whose greedy
    # generators and breadth-first tree differ, the greedy generators in
    # reverse order, and to order 8 every element but 1 as X give the same
    # factors; the representatives found with another X are cocycles whose
    # classes form an invertible matrix
    rng = random.Random(27)
    groups = [named_group(name) for name in ("C6", "S3", "D4", "Q8", "C12", "D6", "S4")]
    groups.append(direct_product(cyclic(2), cyclic(4)))
    compared = 0
    for group in groups:
        for m in (2, 3, 4, 6, 8):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                h1 = cohomology(group, module, 1)
                factors = h1.invariant_factors
                perm = [0] + rng.sample(range(1, group.order), group.order - 1)
                moved = relabelled_module(module, perm)
                assert cohomology_module._cayley_h1(moved.group, moved).factors == factors
                ends = [tuple(reversed(group.generators))]
                if group.order <= 8:
                    ends.append(tuple(range(1, group.order)))
                for x in ends:
                    monkeypatch.setattr(cohomology_module, "_generator_ends", lambda g, x=x: x)
                    other = cohomology_module._cayley_h1(group, module)
                    monkeypatch.undo()
                    assert other.factors == factors, (group.name, m, chi.values, x)
                    reps = [Cochain(module, 1, tuple(g)) for g in other.generators().T]
                    assert all(is_cocycle(rep) for rep in reps)
                    if reps:
                        classes = np.array([h1.class_of(rep).coordinates for rep in reps]).T
                        assert linalg.kernel_subgroup(factors, [(classes, factors)]).is_trivial
                compared += 1
    assert compared > 100


def test_cyclic_subgroups_are_built_once_per_group(monkeypatch):
    # sha_finite over the cyclic subgroups for every character of S3 x C2
    # reads each member at its generators in G: it builds no FiniteGroup,
    # and no member caches an as_group table
    group = direct_product(symmetric(3), cyclic(2))
    family = cyclic_subgroups(group)
    assert cyclic_subgroups(group) is family
    built, init = [], FiniteGroup.__post_init__
    monkeypatch.setattr(FiniteGroup, "__post_init__", lambda g: built.append(g.order) or init(g))
    for m in (2, 3, 4, 6):
        for chi in all_characters(group, m):
            sha_finite(group, mu_module(group, m, chi), cyclic_subgroups(group))
    assert built == []
    assert [sub for sub in family if "as_group" in vars(sub)] == []


def inflated_cochains(h2, proj, module, embedding):
    """The representatives of H^2(G/N, M^N) pulled back to C^2(G, M), one
    column each."""
    quot, n = h2.group.order, module.group.order
    pairs = np.array(proj.images)[np.indices((n, n)).reshape(2, n * n)]
    reps = np.array([rep.vector for rep in h2.representatives], dtype=object)
    reps = reps.reshape(len(h2.representatives), quot * quot, h2.module.rank)
    inflated = reps[:, pairs[0] * quot + pairs[1]] @ np.array(embedding, dtype=object).T
    return inflated.reshape(len(h2.representatives), n * n * module.rank).T


def cochain_index(module, sub):
    """|C / span(sub)| for C = C^2(G, M), as one counted subquotient."""
    orders = module.orders * module.group.order**2
    return linalg.subquotient(orders, module.exponent, iter(()), sub).order


def test_five_term_inflation_restriction_sequence():
    # 0 -> H^1(G/N, M^N) -> H^1(G, M) -> H^1(N, M)^(G/N) -> H^2(G/N, M^N)
    # -> H^2(G, M) is exact (Neukirch-Schmidt-Wingberg, Prop. 1.6.7), for
    # every normal N of the named groups of order at most 24 and every
    # character mod 2, 3 and 4 (the trivial one first).  The H^2 term is
    # read where |G/N| <= 12, by counting the inflated image, and through
    # inflation where |G| <= 12 as well; past order 12 that leaves out only
    # N = 1, where inflation is along an isomorphism and H^1(N, M) = 0
    compared = h2_terms = 0
    for name in SYLOW_NAMED:
        group = named_group(name)
        normals = [sub for sub in subgroups(group) if sub.is_normal()]
        for m in (2, 3, 4):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                boundaries = cohomology_module._coboundary_generators(group, module, 2)
                boundary_index = cochain_index(module, boundaries)
                for normal in normals:
                    q, proj = quotient(group, normal)
                    fixed_module, embedding = descend_to_quotient(module, proj)
                    inf = inflation(cohomology(q, fixed_module, 1), proj, module, embedding)
                    assert inf.is_injective
                    res = restriction(inf.target, normal)
                    image = prod(res.image_invariants())
                    assert inf.target.order == inf.source.order * image
                    action = conjugation_on_cohomology(group, normal, module, 1)
                    # the image of restriction is fixed by G/N
                    b = res.target.invariant_factors
                    restricted = np.array(res.matrix, dtype=object)
                    restricted = restricted.reshape(len(b), len(inf.target.invariant_factors))
                    for matrix in action.matrices:
                        conjugate = np.array(matrix, dtype=object).reshape(len(b), len(b))
                        moved = conjugate @ restricted - restricted
                        assert all(x % d == 0 for row, d in zip(moved, b) for x in row), (
                            name, m, chi.values, normal.elements
                        )
                    compared += 1
                    if q.order > 12:
                        continue
                    # |ker inf| on H^2 from the order of the inflated
                    # image in C^2(G, M) / B^2(G, M)
                    h2, kernel = cohomology(q, fixed_module, 2), 1
                    if not h2.is_trivial:
                        inflated = inflated_cochains(h2, proj, module, embedding)
                        spanned = cochain_index(module, np.concatenate([boundaries, inflated], axis=1))
                        assert boundary_index % spanned == 0
                        kernel = h2.order * spanned // boundary_index
                        if group.order <= 12:
                            inf2 = inflation(h2, proj, module, embedding)
                            assert prod(inf2.kernel()[0]) == kernel
                    fixed = prod(action.fixed_subgroup()[0])
                    assert kernel * image == fixed, (name, m, chi.values, normal.elements)
                    h2_terms += 1
    assert compared == 902 and h2_terms == 807
