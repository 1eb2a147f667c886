import itertools

import pytest

from twistlgp.gmodules import (
    BadCharacter,
    CyclotomicCharacter,
    GModule,
    all_characters,
    descend_to_quotient,
    gmodule,
    invariants,
    mu_module,
    restrict_module,
    trivial_module,
)
from twistlgp.groups import (
    Subgroup,
    cyclic,
    direct_product,
    named_group,
    quotient,
    subgroup_generated,
    subgroups,
    symmetric,
)
from twistlgp.linalg import fixed_subgroup, identity_matrix


def brute_fixed_points(module):
    """Oracle: enumerate module elements and keep the ones fixed by all of G."""
    fixed = [
        x
        for x in module.elements()
        if all(module.act(g, x) == x for g in module.group.elements())
    ]
    return len(fixed)


def test_character_validation():
    c2 = cyclic(2)
    chi = CyclotomicCharacter(c2, 3, (1, 2))
    assert chi(1) == 2 and not chi.is_trivial
    assert CyclotomicCharacter.trivial(c2, 5).is_trivial
    with pytest.raises(BadCharacter):
        CyclotomicCharacter(c2, 6, (1, 3))  # 3 is not a unit mod 6
    with pytest.raises(BadCharacter):
        CyclotomicCharacter(cyclic(3), 7, (1, 2, 3))  # not multiplicative


def test_mu_module():
    c2 = cyclic(2)
    m = mu_module(c2, 3, CyclotomicCharacter(c2, 3, (1, 2)))
    assert m.orders == (3,)
    assert m.act(1, (1,)) == (2,)  # action by -1
    trivial = mu_module(c2, 5, CyclotomicCharacter.trivial(c2, 5))
    assert trivial.has_trivial_action
    with pytest.raises(BadCharacter):
        mu_module(c2, 6, CyclotomicCharacter(c2, 3, (1, 2)))  # modulus mismatch
    with pytest.raises(BadCharacter):
        mu_module(cyclic(3), 3, CyclotomicCharacter.trivial(c2, 3))


def test_canonical_form():
    c1 = cyclic(1)
    m = gmodule(c1, [2, 3], [[[1, 0], [0, 1]]])
    assert m.orders == (6,)
    m2 = gmodule(c1, [1, 3], [[[1, 0], [0, 1]]])
    assert m2.orders == (3,)
    m3 = gmodule(c1, [3, 3], [[[1, 0], [0, 1]]])
    assert m3.orders == (3, 3)
    assert gmodule(c1, [1], [[[0]]]).is_trivial
    # canonical equality: same module described two ways
    assert gmodule(c1, [6], [[[1]]]) == gmodule(c1, [2, 3], [[[1, 0], [0, 1]]])


def test_action_validation():
    c2 = cyclic(2)
    with pytest.raises(ValueError):
        gmodule(c2, [4], [[[1]], [[2]]])  # 2*2 != identity mod 4
    with pytest.raises(ValueError):
        gmodule(c2, [3], [[[2]], [[1]]])  # identity must act trivially


def test_invariants_examples():
    c2 = cyclic(2)
    # trivial action: everything is fixed
    m = mu_module(c2, 5, CyclotomicCharacter.trivial(c2, 5))
    assert invariants(m).orders == (5,)
    # Z/3 with C2 acting by -1: 2x == 0 mod 3 forces x == 0
    m = mu_module(c2, 3, CyclotomicCharacter(c2, 3, (1, 2)))
    assert invariants(m).is_trivial
    # Z/9 with C6 acting by 2 (2 has order 6 mod 9): only 0 is fixed
    c6 = cyclic(6)
    chi = CyclotomicCharacter(c6, 9, tuple(pow(2, k, 9) for k in range(6)))
    m = mu_module(c6, 9, chi)
    assert invariants(m).is_trivial


def test_invariants_against_brute_force():
    # every character of every small group for m <= 25-ish moduli
    groups = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), cyclic(6), cyclic(8),
              direct_product(cyclic(2), cyclic(2)), symmetric(3)]
    for group in groups:
        for m in (2, 3, 4, 5, 9, 12, 25):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                inv = invariants(module)
                assert inv.size == brute_fixed_points(module)
                assert module.size % inv.size == 0
                if module.has_trivial_action:
                    assert inv.size == module.size


def test_invariants_divide_and_trivial_action():
    s3 = symmetric(3)
    for chi in all_characters(s3, 9):
        module = mu_module(s3, 9, chi)
        inv = invariants(module)
        assert module.size % inv.size == 0
        assert (inv.size == module.size) == module.has_trivial_action


def test_all_characters_counts():
    # |Hom(G, C_k)| for abelian G is the product of gcds with the factors
    assert len(all_characters(cyclic(6), 9)) == 6  # gcd(6, phi(9)) = 6
    assert len(all_characters(cyclic(4), 5)) == 4
    assert len(all_characters(direct_product(cyclic(2), cyclic(2)), 3)) == 4
    assert len(all_characters(symmetric(3), 3)) == 2  # through S3^ab = C2
    assert len(all_characters(symmetric(3), 9)) == 2
    assert len(all_characters(cyclic(5), 3)) == 1


def test_all_characters_mod_one_is_the_trivial_character():
    for group in (cyclic(1), cyclic(4), direct_product(cyclic(2), cyclic(2)), symmetric(3)):
        assert all_characters(group, 1) == (CyclotomicCharacter.trivial(group, 1),)


# the named groups of order at most 12
SMALL_NAMED = [f"C{n}" for n in range(1, 13)] + [f"D{n}" for n in range(2, 7)] + ["Q8", "S3"]


def _regular(group, chi):
    """Z/m[G] with g sending e_h to chi(g) e_{gh}: a module of rank |G|."""
    n = group.order
    action = []
    for g in group.elements():
        mat = [[0] * n for _ in range(n)]
        for h in group.elements():
            mat[group.mul(g, h)][h] = chi(g)
        action.append(mat)
    return gmodule(group, [chi.m] * n, action)


def test_invariants_are_the_points_every_element_fixes():
    # invariants reads the generators only; the fixed subgroup of all
    # elements gives the same module
    for name in SMALL_NAMED:
        group = named_group(name)
        for m in (2, 3, 4, 6, 8, 9, 12):
            chis = all_characters(group, m)
            modules = [mu_module(group, m, chi) for chi in chis]
            modules += [_regular(group, chi) for chi in chis[:2]]
            for module in modules:
                every = fixed_subgroup(module.orders, module.action)
                expected = trivial_module(group, every.factors)
                assert invariants(module) == expected, (name, m, module.orders)


def test_restrict_module():
    s3 = symmetric(3)
    chi = all_characters(s3, 3)[-1]  # sign character
    assert not chi.is_trivial
    module = mu_module(s3, 3, chi)
    # restricting to G itself gives the same module
    full = Subgroup(s3, tuple(s3.elements()))
    assert restrict_module(module, full) == module
    # restricting to the trivial subgroup kills the action
    triv = Subgroup(s3, (0,))
    assert restrict_module(module, triv).has_trivial_action
    # restriction to C3: the sign character dies there
    c3 = next(s for s in subgroups(s3) if s.order == 3)
    assert restrict_module(module, c3).has_trivial_action


def same_module(built, checked):
    """Equal as values and as memo keys, with the same Python types."""
    assert built == checked and hash(built) == hash(checked)
    assert repr(built) == repr(checked)


def test_unchecked_builds_equal_the_checked_ones():
    # mu_module and restrict_module skip the module checks; each result is
    # the module the checked gmodule or GModule builds from the same data,
    # for every character mod 1..12 and every subgroup, on mu_m and, to
    # order 8, on the rank-|G| regular module
    built = 0
    for name in SMALL_NAMED + ["S4"]:
        group = named_group(name)
        subs = subgroups(group)
        for m in range(1, 13):
            chis = all_characters(group, m)
            for chi in chis:
                module = mu_module(group, m, chi)
                same_module(module, gmodule(group, [m], [[[chi(g)]] for g in group.elements()]))
                regular = chi is chis[-1] and m > 1 and group.order <= 8
                modules = [module, _regular(group, chi)] if regular else [module]
                for module, sub in itertools.product(modules, subs):
                    sub_group, embed = sub.as_group
                    checked = GModule(sub_group, module.orders, tuple(module.action[g] for g in embed))
                    same_module(restrict_module(module, sub), checked)
                    built += 1
    assert built == 5259


@pytest.mark.parametrize("orders", [[], [1], [2, 3], [4, 6], [12, 18, 5]])
def test_trivial_module_is_the_checked_build(orders):
    for group in (cyclic(1), cyclic(2), symmetric(3), named_group("Q8")):
        checked = gmodule(group, orders, [identity_matrix(len(orders))] * group.order)
        same_module(trivial_module(group, orders), checked)
    with pytest.raises(ValueError, match="positive"):
        trivial_module(cyclic(2), orders + [0])


def test_descend_to_quotient():
    c6 = cyclic(6)
    n = subgroup_generated(c6, [3])  # order-2 subgroup
    q, proj = quotient(c6, n)
    chi = CyclotomicCharacter.trivial(c6, 3)
    module = mu_module(c6, 3, chi)
    sub, embed = descend_to_quotient(module, proj)
    assert sub.group == q and sub.orders == (3,)
    assert sub.has_trivial_action
    assert embed.shape == (1, 1)
    # nontrivial action by the quotient: C6 acting by 2 mod 9 descends to
    # C3 = C6/C2 acting by 4 mod 9 on the C2-fixed points (all of Z/9)
    chi9 = CyclotomicCharacter(c6, 9, tuple(pow(2, k, 9) for k in range(6)))
    module9 = mu_module(c6, 9, chi9)
    # the order-2 subgroup is generated by 3, acting by 2^3 = 8 = -1: fixed
    # points of -1 on Z/9 are trivial... so the descended module is trivial
    sub9, _ = descend_to_quotient(module9, proj)
    assert sub9.is_trivial
    # use the order-3 subgroup instead: 2^2 = 4 acts with 4x==x iff 3x==0
    n3 = subgroup_generated(c6, [2])
    q3, proj3 = quotient(c6, n3)
    sub3, embed3 = descend_to_quotient(module9, proj3)
    assert sub3.orders == (3,)
    assert not sub3.has_trivial_action  # the quotient C2 acts by -1
    # the zero module descends to the zero module
    zero, embed0 = descend_to_quotient(mu_module(c6, 1, CyclotomicCharacter.trivial(c6, 1)), proj)
    assert zero.is_trivial and zero.group == q and embed0.shape == (0, 0)


def test_fixed_submodule_under_subset():
    # the fixed points under the identity alone: descend along G -> G/1
    s3 = symmetric(3)
    module = mu_module(s3, 3, all_characters(s3, 3)[-1])
    _, proj = quotient(s3, Subgroup(s3, (0,)))
    sub, _ = descend_to_quotient(module, proj)
    assert sub.orders == (3,)  # nothing is imposed by the identity
