import collections
import itertools
import warnings
from math import gcd

import numpy as np
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
    _greedy_generators,
    cyclic,
    dihedral,
    direct_product,
    named_group,
    quaternion,
    quotient,
    subgroup_generated,
    subgroups,
    symmetric,
)
from twistlgp.linalg import fixed_subgroup, identity_matrix
from twistlgp.verify import SMALL_CATALOG, _small_group


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


def reference_all_characters(group, m):
    """all_characters offering every unit to every generator."""
    units = [u for u in range(m) if gcd(u, m) == 1]
    found = set()
    for images in itertools.product(units, repeat=len(group.generators)):
        values = [None] * group.order
        values[0] = 1 % m
        frontier, ok = [0], True
        while frontier and ok:
            x = frontier.pop()
            for g, u in zip(group.generators, images):
                y, v = group.mul(x, g), (values[x] * u) % m
                if values[y] is None:
                    values[y] = v
                    frontier.append(y)
                elif values[y] != v:
                    ok = False
                    break
        if ok:
            found.add(tuple(values))
    return tuple(CyclotomicCharacter(group, m, vals) for vals in sorted(found))


def test_all_characters_offer_each_generator_the_units_of_its_order():
    # a generator of order k goes to a unit u with u^k = 1, so the other
    # units can be left out without losing a character
    for name in SMALL_CATALOG:
        group = _small_group(name)
        for m in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12):
            assert all_characters(group, m) == reference_all_characters(group, m), (name, m)


def ref_fixed_points(module, elements):
    """The fixed points under the given elements as a lattice quotient, with
    the embedding: one column per generator, reduced mod the module orders."""
    quot = fixed_subgroup(module.orders, [module.action[g] for g in elements])
    return quot, quot.generators() % np.array(module.orders, dtype=object).reshape(-1, 1)


def reference_descend(module, proj, elements=None):
    """descend_to_quotient reading the fixed points under ``elements``, by
    default every kernel element, with the action handed to gmodule, whose
    Smith form brings it to canonical form."""
    if elements is None:
        elements = proj.kernel_elements()
    quot, embed = ref_fixed_points(module, elements)
    mats = [quot.coordinates(module.action_matrix(g) @ embed) for g in proj.section]
    return gmodule(proj.target, quot.factors, mats), embed


def rank2_modules(group):
    """Z/4 + Z/4 with g acting by P diag(chi_1(g), chi_2(g)) P^-1, P a
    shear, and Z/3 + Z/9 with g acting by diag(chi(g) mod 3, chi(g) mod 9)."""
    mu4, mu9 = all_characters(group, 4), all_characters(group, 9)
    for chi1, chi2 in [(mu4[0], mu4[-1]), (mu4[-1], mu4[len(mu4) // 2])]:
        action = [[[a, (b - a) % 4], [0, b]] for a, b in zip(chi1.values, chi2.values)]
        yield gmodule(group, [4, 4], action)
    for chi in (mu9[-1], mu9[len(mu9) // 2]):
        yield gmodule(group, [3, 9], [[[v % 3, 0], [0, v]] for v in chi.values])


DESCEND_GROUPS = [
    symmetric(3),
    dihedral(4),
    quaternion(),
    direct_product(cyclic(2), cyclic(2), cyclic(2)),
    # the sha-wide benchmark groups
    symmetric(4),
    direct_product(quaternion(), cyclic(4)),
    direct_product(cyclic(4), cyclic(4), cyclic(2)),
    direct_product(dihedral(4), symmetric(3)),
    direct_product(symmetric(4), cyclic(2)),
]


def column_span(embed, orders):
    """The subgroup of the module that the embedding's columns generate."""
    columns = [tuple(int(x) for x in col) for col in np.asarray(embed).T]
    span, frontier = {tuple(0 for _ in orders)}, [tuple(0 for _ in orders)]
    while frontier:
        x = frontier.pop()
        for col in columns:
            y = tuple((a + b) % d for a, b, d in zip(x, col, orders))
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def test_descend_reads_a_generating_set_of_the_kernel():
    # the fixed points of a generating set of ker(proj) are the kernel's
    # fixed points: the descended module does not move, nor does a rank-1
    # embedding; a rank-2 embedding may come out in another basis of the
    # same fixed subgroup (15 of these 620 do, all Z/4 + Z/4 shears)
    cases = {1: 0, 2: 0}
    moved = 0
    for group in DESCEND_GROUPS:
        modules = [mu_module(group, m, chi) for m in (3, 4, 6) for chi in all_characters(group, m)[:4]]
        modules += list(rank2_modules(group))
        for normal in subgroups(group):
            if not normal.is_normal():
                continue
            _, proj = quotient(group, normal)
            for module in modules:
                got, got_embed = descend_to_quotient(module, proj)
                want, want_embed = reference_descend(module, proj)
                assert got == want, (group.name, normal, module)
                cases[module.rank] += 1
                if np.array_equal(got_embed, want_embed):
                    continue
                assert module.rank == 2, (group.name, normal, module)
                assert column_span(got_embed, module.orders) == column_span(want_embed, module.orders)
                moved += 1
    assert cases == {1: 1818, 2: 620} and moved == 15


def test_descent_and_invariants_are_unchanged_without_the_smith_round_trip():
    # the fixed points' factors are a divisibility chain without 1s, so the
    # module built from them directly is the one gmodule's Smith form gave,
    # with the same embedding, and invariants reads the same factors; on
    # small groups for every character mod 2, 3, 4, 6, 8, 9 and 12, on the
    # sha-wide benchmark groups for every character of its modulus
    small = [f"C{n}" for n in range(2, 13)] + ["S3", "D4", "D6", "Q8", "S4"]
    cases = [(named_group(name), (2, 3, 4, 6, 8, 9, 12)) for name in small]
    cases += zip(DESCEND_GROUPS[4:], [(12,), (4,), (4,), (6,), (4,)])
    counted = collections.Counter()
    for group, moduli in cases:
        modules = [trivial_module(group, [2, 4]), trivial_module(group, [4, 4])]
        for m in moduli:
            modules += [mu_module(group, m, chi) for chi in all_characters(group, m)]
        normals = [n for n in subgroups(group) if n.is_normal()]
        for module in modules:
            quot, _ = ref_fixed_points(module, group.generators)
            same_module(invariants(module), trivial_module(group, quot.factors))
            for normal in normals:
                _, proj = quotient(group, normal)
                got, got_embed = descend_to_quotient(module, proj)
                kernel = _greedy_generators(group, proj.kernel_elements())
                want, want_embed = reference_descend(module, proj, kernel)
                same_module(got, want)
                assert np.array_equal(got_embed, want_embed), (group.name, normal, module)
                counted[module.rank] += 1
    assert counted == {1: 2508, 2: 368}


def test_int64_arrays_are_read_as_python_ints():
    # entry * order passes 2^63 in the well-definedness test: as int64
    # arrays it overflowed, with a warning, and the module was refused
    c2, big = cyclic(2), 6 * 2**59
    mats = [[[1, 0], [0, 1]], [[1, 0], [3 * 2**59, 1]]]
    as_lists = gmodule(c2, [6, big], mats)
    assert as_lists.orders == (6, big) and as_lists.action[1] == ((1, 0), (3 * 2**59, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        same_module(gmodule(c2, [6, big], [np.array(m, dtype=np.int64) for m in mats]), as_lists)
