"""Shapiro's lemma as an engine-vs-engine identity: H^n(G, Ind_H^G M) and
H^n(H, M) are isomorphic (Brown, *Cohomology of Groups*, GTM 87, ch. III,
prop. 6.2), so the two sides, computed on groups of different orders and on
modules of different ranks, must have the same invariant factors.  Induced
modules are monomial and, mod 4 and of rank at least 2, not cyclic, so their
H^2 reads are the non-cyclic Cayley-graph quotients of ``_h2_factors``."""

import itertools

import pytest

from twistlgp.cohomology import cohomology
from twistlgp.gmodules import all_characters, gmodule, mu_module, trivial_module
from twistlgp.groups import cyclic, direct_product, named_group, quaternion, subgroup_generated


def induced(group, subgroup, module):
    """Ind_H^G M for H = ``subgroup`` and M a module over ``subgroup.as_group``,
    from the group table alone: with g_1, ..., g_s the least element of each
    left coset g_i H, G acts on the sum of the copies g_i M by g (g_i m) =
    g_j (h m) for g g_i = g_j h, so the action of g is the block matrix with
    the action of h at the block (j, i)."""
    sub_group, embed = subgroup.as_group
    place = {h: i for i, h in enumerate(embed)}
    reps, cosets = [], {}  # element -> (its coset's index, its h)
    for g in group.elements():
        if g not in cosets:
            for h in embed:
                cosets[group.mul(g, h)] = (len(reps), h)
            reps.append(g)
    r, s = module.rank, len(reps)
    action = []
    for g in group.elements():
        mat = [[0] * (s * r) for _ in range(s * r)]
        for i, gi in enumerate(reps):
            j, h = cosets[group.mul(g, gi)]
            for x, y in itertools.product(range(r), repeat=2):
                mat[j * r + x][i * r + y] = module.action[place[h]][x][y]
        action.append(mat)
    return gmodule(group, list(module.orders) * s, action)


def element_of_order(group, n):
    return next(g for g in group.elements() if group.element_order(g) == n)


def pairs():
    """(G, H, the number of characters of H mod 2, 3 and 4), with H cyclic
    of order 4, 3 or 2, or C2^2, generated in G."""
    s4, d4, q8 = named_group("S4"), named_group("D4"), quaternion()
    for group, order, count in [(s4, 4, 5), (s4, 3, 3), (s4, 2, 5), (d4, 4, 5), (q8, 4, 5)]:
        sub = subgroup_generated(group, [element_of_order(group, order)])
        yield pytest.param(group, sub, count, id=f"{group.name} > C{order}")
    c2_4 = direct_product(*[cyclic(2)] * 4)
    yield pytest.param(c2_4, subgroup_generated(c2_4, [1, 2]), 9, id="C2^4 > C2^2")


@pytest.mark.parametrize("group, subgroup, count", list(pairs()))
def test_induced_module_has_the_cohomology_of_the_subgroup(group, subgroup, count):
    # every character of H mod 2, 3 and 4, up to four of them, in degrees 1 and 2
    sub_group = subgroup.as_group[0]
    compared = 0
    for m in (2, 3, 4):
        for chi in all_characters(sub_group, m)[:4]:
            module = mu_module(sub_group, m, chi)
            ind = induced(group, subgroup, module)
            assert ind.rank == group.order // sub_group.order
            for n in (1, 2):
                want = cohomology(sub_group, module, n).invariant_factors
                assert cohomology(group, ind, n).invariant_factors == want, (m, chi.values, n)
            compared += 1
    assert compared == count


def wide_pairs():
    """(G, H, [G : H]) of order 24 to 64, with index 12, 4 and 2."""
    s4, q8 = named_group("S4"), quaternion()
    yield pytest.param(s4, subgroup_generated(s4, [element_of_order(s4, 2)]), 12, id="S4 > C2")
    c2_5 = direct_product(*[cyclic(2)] * 5)
    yield pytest.param(c2_5, subgroup_generated(c2_5, [1, 2, 4]), 4, id="C2^5 > C2^3")
    q8_c8 = direct_product(q8, cyclic(8))  # (a, b) is the element 8 a + b
    gens = [8 * x for x in q8.generators] + [2]
    yield pytest.param(q8_c8, subgroup_generated(q8_c8, gens), 2, id="Q8xC8 > Q8xC4")


@pytest.mark.parametrize("group, subgroup, index", list(wide_pairs()))
def test_induced_module_mod_4_past_order_24(group, subgroup, index):
    # Ind of trivial Z/4: non-cyclic modules whose H^2 is one Cayley-graph
    # quotient at 4, read mod 4 as 2^3 and more divides |G|
    sub_group = subgroup.as_group[0]
    module = trivial_module(sub_group, [4])
    ind = induced(group, subgroup, module)
    assert ind.rank == index == subgroup.index
    for n in (1, 2):
        want = cohomology(sub_group, module, n).invariant_factors
        assert cohomology(group, ind, n).invariant_factors == want, n


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "S3", "C6", "D4", "Q8", "C2^3", "D6", "C12"])
def test_free_module_is_acyclic(name):
    # Z/m[G] is induced from the trivial group, so H^n(G, Z/m[G]) = 0 for
    # n >= 1, m = 2, 3, 4
    group = direct_product(*[cyclic(2)] * 3) if name == "C2^3" else named_group(name)
    trivial = subgroup_generated(group, [])
    for m in (2, 3, 4):
        free = induced(group, trivial, trivial_module(trivial.as_group[0], [m]))
        assert free.rank == group.order
        for n in (1, 2):
            assert cohomology(group, free, n).is_trivial, (name, m, n)
