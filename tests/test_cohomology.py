import importlib
import itertools
import random
from math import gcd

import numpy as np
import pytest

from twistlgp import linalg
from twistlgp.cohomology import (
    Cochain,
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
    all_characters,
    descend_to_quotient,
    gmodule,
    mu_module,
    trivial_module,
)
from twistlgp.groups import (
    Subgroup,
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
    with pytest.raises(IncompatibleCoefficients):
        inflation(x, proj, module, [[1]])


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
    assert action.fixed_subgroup()[0] == action.cohomology.invariant_factors
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


def test_counted_order_equals_the_smith_order(monkeypatch):
    # every subquotient that H^0, H^1, H^2 and sha_finite build: the order
    # counted from the two folds is the product of the Smith path's factors
    original = linalg.subquotient
    orders_seen = []

    def compared(orders, exponent, congruences, sub):
        congruences = list(congruences)
        lift = linalg.congruence_kernel(len(orders), exponent, iter(congruences))
        gens = np.concatenate([sub, linalg.diagonal_matrix(orders)], axis=1)
        smith = linalg.lattice_quotient(lift, gens)
        assert linalg._quotient_order(lift, sub, orders) == smith.order
        quot = original(orders, exponent, iter(congruences), sub)
        assert quot.factors == smith.factors
        orders_seen.append(smith.order)
        return quot

    monkeypatch.setattr(linalg, "subquotient", compared)
    monkeypatch.setattr(cohomology_module, "subquotient", compared)
    cohomology_module._cohomology_cached.cache_clear()
    for name in SMALL_NAMED:
        group = named_group(name)
        for m in (2, 3, 4, 6):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                for degree in (0, 1, 2) if group.order <= 8 else (0, 1):
                    cohomology(group, module, degree)
                sha_finite(group, module, cyclic_subgroups(group))
        if group.order > 8:
            cohomology(group, trivial_module(group, [2]), 2)
    cohomology_module._cohomology_cached.cache_clear()
    assert len(orders_seen) > 400
    assert 1 in orders_seen and max(orders_seen) > 1


def test_class_of_on_a_counted_trivial_group():
    # H^1(C3, Z/2) = 0 is counted, with no Smith form, yet class_of still
    # tests the cocycle condition
    group = cyclic(3)
    module = trivial_module(group, [2])
    h1 = cohomology(group, module, 1)
    assert h1.is_trivial and h1._presentation._w_snf is None
    assert h1.class_of(zero_cochain(module, 1)).coordinates == ()
    with pytest.raises(ValueError, match="not a cocycle"):
        h1.class_of(Cochain(module, 1, (1, 0, 0)))


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

