import ast
import functools
import itertools
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from twistlgp.cohomology import cohomology, restriction, sha_finite
from twistlgp.gmodules import (
    GModule,
    all_characters,
    gmodule,
    mu_module,
    trivial_module,
)
from twistlgp.groups import (
    Subgroup,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    quaternion,
    subgroups,
    symmetric,
)
from twistlgp import oracle
from twistlgp.oracle import (
    BudgetExceeded,
    OracleBudget,
    _quotient_invariants,
    _tables,
    brute_h1,
    brute_h2,
    brute_sha,
    invariant_factors_from_orders,
)


def test_invariant_factors_from_orders():
    # C6: orders 1, 2, 3, 3, 6, 6
    assert invariant_factors_from_orders(Counter({1: 1, 2: 1, 3: 2, 6: 2})) == (6,)
    # C2 x C2
    assert invariant_factors_from_orders(Counter({1: 1, 2: 3})) == (2, 2)
    # C2 x C4
    assert invariant_factors_from_orders(Counter({1: 1, 2: 3, 4: 4})) == (2, 4)
    # C8
    assert invariant_factors_from_orders(Counter({1: 1, 2: 1, 4: 2, 8: 4})) == (8,)
    # trivial group
    assert invariant_factors_from_orders(Counter({1: 1})) == ()


def test_brute_h1_closed_forms():
    assert brute_h1(cyclic(3), trivial_module(cyclic(3), [3])) == (3,)
    assert brute_h1(cyclic(2), trivial_module(cyclic(2), [3])) == ()
    # C2 acting by -1 on Z/3: every cocycle is a coboundary
    c2 = cyclic(2)
    from twistlgp.gmodules import CyclotomicCharacter

    neg = mu_module(c2, 3, CyclotomicCharacter(c2, 3, (1, 2)))
    assert brute_h1(c2, neg) == ()


def test_brute_h2_closed_forms():
    assert brute_h2(cyclic(2), trivial_module(cyclic(2), [3])) == ()
    assert brute_h2(cyclic(3), trivial_module(cyclic(3), [3])) == (3,)
    assert brute_h2(cyclic(1), trivial_module(cyclic(1), [9])) == ()


def test_budget():
    big = trivial_module(cyclic(8), [9])
    with pytest.raises(BudgetExceeded):
        brute_h1(cyclic(8), big, OracleBudget(10**6))
    with pytest.raises(BudgetExceeded):
        brute_h2(cyclic(8), big, OracleBudget(10**6))
    with pytest.raises(ValueError):
        OracleBudget(0)


def test_brute_sha():
    group = direct_product(cyclic(2), cyclic(2))
    module = trivial_module(group, [3])
    # family = {G}: trivial
    assert brute_sha(group, module, [Subgroup(group, tuple(group.elements()))]) == ()
    # all cyclic subgroups, trivial action: trivial
    assert brute_sha(group, module, cyclic_subgroups(group)) == ()
    # family = {trivial}: equals H^1
    triv = Subgroup(group, (0,))
    assert brute_sha(group, module, [triv]) == brute_h1(group, module)
    # mod 2 there is a proper kernel for a single proper subgroup
    m2 = trivial_module(group, [2])
    one_line = [s for s in cyclic_subgroups(group) if s.order == 2][0]
    partial = brute_sha(group, m2, [one_line])
    assert partial == sha_finite(group, m2, [one_line]).invariant_factors


def test_brute_sha_rejects_a_subgroup_of_another_group():
    # {0, 1} is a subgroup of S3, not of C4; it used to be read as a subset of C4
    c4 = cyclic(4)
    module = trivial_module(c4, [2])
    foreign = [Subgroup(symmetric(3), (0, 1))]
    with pytest.raises(ValueError, match="different group"):
        sha_finite(c4, module, foreign)
    with pytest.raises(ValueError, match="different group"):
        brute_sha(c4, module, foreign)
    # the family may mix Subgroups of the group and element tuples
    assert brute_sha(c4, module, [Subgroup(c4, (0, 2)), (0,)]) == brute_h1(c4, module)


def test_oracle_matches_engine_on_catalog():
    budget = OracleBudget(300000)
    groups = [
        cyclic(1),
        cyclic(2),
        cyclic(3),
        cyclic(4),
        direct_product(cyclic(2), cyclic(2)),
        cyclic(6),
        symmetric(3),
    ]
    compared = 0
    for group in groups:
        for m in (2, 3, 5, 9):
            for chi in all_characters(group, m)[:2]:
                module = mu_module(group, m, chi)
                try:
                    assert brute_h1(group, module, budget) == cohomology(
                        group, module, 1
                    ).invariant_factors
                    compared += 1
                except BudgetExceeded:
                    pass
                try:
                    assert brute_h2(group, module, budget) == cohomology(
                        group, module, 2
                    ).invariant_factors
                    compared += 1
                except BudgetExceeded:
                    pass
    assert compared >= 40


def test_oracle_equivalence_exhaustive_small_range():
    # degree 1 for every group of order <= 4 and every mu-style module of
    # size <= 9; degree 2 wherever the normalized-cochain budget allows
    budget = OracleBudget(10**6)
    groups = [
        cyclic(1),
        cyclic(2),
        cyclic(3),
        cyclic(4),
        direct_product(cyclic(2), cyclic(2)),
    ]
    for group in groups:
        for m in range(2, 10):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                assert brute_h1(group, module, budget) == cohomology(
                    group, module, 1
                ).invariant_factors, (group.name, m, chi.values)
                if m <= 3:  # degree-2 equivalence is claimed for |M| <= 3
                    assert brute_h2(group, module, budget) == cohomology(
                        group, module, 2
                    ).invariant_factors
    # a rank-2 module with a genuinely mixing action: swap on (Z/3)^2
    c2 = cyclic(2)
    swap = gmodule(c2, [3, 3], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    assert brute_h1(c2, swap, budget) == cohomology(c2, swap, 1).invariant_factors
    assert brute_h2(c2, swap, budget) == cohomology(c2, swap, 2).invariant_factors
    # degree 2 beyond order 4 only fits the budget for mod-2 coefficients
    # on C5 (2^16 normalized cochains); larger groups are budget-gated
    for group in (cyclic(5), cyclic(6), symmetric(3)):
        module = trivial_module(group, [2])
        try:
            oracle2 = brute_h2(group, module, OracleBudget(10**6))
        except BudgetExceeded:
            continue
        assert oracle2 == cohomology(group, module, 2).invariant_factors


def test_degree_two_oracle_matches_engine_past_order_six():
    # with the budget raised to every normalized cochain, |M|^((|G| - 1)^2),
    # the search reaches groups of order 7 and 8: every mu_2 module of C7,
    # C8, C2^3, D4 and Q8, and the mu_3 modules of C7 and the nontrivial
    # characters of C8, D4 and Q8.  The trivial mu_3 modules of the groups of
    # order 8, and those of C2^3, take 0.1-0.5 s each and are left out
    c7, c8, d4, q8 = cyclic(7), cyclic(8), dihedral(4), quaternion()
    c2_cubed = direct_product(cyclic(2), cyclic(2), cyclic(2))
    cases = [(group, 2, chi) for group in (c7, c8, c2_cubed, d4, q8)
             for chi in all_characters(group, 2)]
    cases += [(c7, 3, chi) for chi in all_characters(c7, 3)]
    cases += [(group, 3, chi) for group in (c8, d4, q8) for chi in all_characters(group, 3)[1:]]
    for group, m, chi in cases:
        module = mu_module(group, m, chi)
        budget = OracleBudget(module.size ** (group.order - 1) ** 2)
        assert brute_h2(group, module, budget) == cohomology(
            group, module, 2
        ).invariant_factors, (group.name, m, chi.values)
    nontrivial = Counter(group.name for group, _, chi in cases if set(chi.values) != {1})
    assert nontrivial == {"C8": 1, "D4": 3, "Q8": 3}
    assert len(cases) == 13


def test_sha_oracle_matches_engine():
    budget = OracleBudget(300000)
    cases = [
        (direct_product(cyclic(2), cyclic(2)), 2),
        (cyclic(4), 2),
        (symmetric(3), 3),
    ]
    for group, m in cases:
        module = trivial_module(group, [m])
        fam = cyclic_subgroups(group)
        assert brute_sha(group, module, fam, budget) == sha_finite(
            group, module, fam
        ).invariant_factors
        triv = [Subgroup(group, (0,))]
        assert brute_sha(group, module, triv, budget) == sha_finite(
            group, module, triv
        ).invariant_factors


def s3_on_sum_zero_plane(m):
    """S3 on (Z/m)^2: the plane x_0 + x_1 + x_2 = 0 in (Z/m)^3, in the
    coordinates (x_0, x_1), permuted by e_i -> e_p(i).  For m = 2 it is the
    2-dimensional irreducible."""
    s3 = symmetric(3)
    basis = ((1, 0, m - 1), (0, 1, m - 1))
    action = []
    for p in sorted(itertools.permutations(range(3))):
        images = [[0, 0, 0] for _ in basis]
        for image, v in zip(images, basis):
            for i, x in enumerate(v):
                image[p[i]] += x
        # column j is the image of basis vector j, read at (x_0, x_1)
        action.append([[images[j][i] % m for j in range(2)] for i in range(2)])
    return s3, gmodule(s3, [m, m], action)


def test_sha_engine_matches_oracle_on_mixed_families_and_rank_2_modules():
    # sha_finite against brute_sha where the action is not diagonal: C2
    # swapping (Z/2)^2, S3 on the plane of (Z/2)^3 (its 2-dimensional
    # irreducible) and of (Z/3)^3, C2 x C2 on Z/2 + Z/4 by (x, y) ->
    # (x + y, y) and (x, y) -> (x, -y), and C4, Q8 and D4 on (Z/2)^2
    # through a quotient C2, by (x, y) -> (x + y, y).  Every nonempty family
    # of subgroups (cyclic, non-cyclic, {1} and G mixed), or 60 seeded ones
    # for the 10 subgroups of D4; each representative vanishes under
    # restriction to every member
    rng = random.Random(42)
    c2, c4, v4 = cyclic(2), cyclic(4), direct_product(cyclic(2), cyclic(2))
    q8, d4 = quaternion(), dihedral(4)
    one, a, b = np.eye(2, dtype=int), np.array([[1, 1], [0, 1]]), np.array([[1, 0], [0, 3]])
    # element i_1 * 2 + i_2 of C2 x C2 acts by a^i_1 b^i_2
    power = np.linalg.matrix_power
    v4_action = [power(a, i // 2) @ power(b, i % 2) for i in range(4)]
    cases = [
        (c2, gmodule(c2, [2, 2], [one, [[0, 1], [1, 0]]])),
        s3_on_sum_zero_plane(2),
        s3_on_sum_zero_plane(3),
        (v4, gmodule(v4, [2, 4], [m % [[2], [4]] for m in v4_action])),
        (c4, gmodule(c4, [2, 2], [(one, a)[k % 2] for k in range(4)])),
        # i, -i, k, -k act by a
        (q8, gmodule(q8, [2, 2], [(one, a)[g in (2, 3, 6, 7)] for g in range(8)])),
        # the reflections act by a
        (d4, gmodule(d4, [2, 2], [(one, a)[g >= 4] for g in range(8)])),
    ]
    compared, kernels = 0, Counter()
    for group, module in cases:
        assert not module.has_trivial_action
        h1 = cohomology(group, module, 1)
        pool = subgroups(group)
        families = [
            f for size in range(1, len(pool) + 1) for f in itertools.combinations(pool, size)
        ]
        if len(pool) > 6:
            families = rng.sample(families, 60)
        for family in families:
            sha = sha_finite(group, module, family)
            assert sha.invariant_factors == brute_sha(group, module, family), (group.name, family)
            for rep in sha.representatives:
                cls = h1.class_of(rep)
                assert all(restriction(h1, sub).apply(cls).is_zero for sub in family)
            compared += 1
            kernels[h1.invariant_factors, sha.invariant_factors] += 1
    assert compared == 3 + 63 + 63 + 31 + 7 + 63 + 60
    assert kernels[(), ()] == 3 + 63
    assert kernels[(3,), (3,)] and kernels[(2,), (2,)] and kernels[(2, 2, 2), (2, 2)]
    assert sum(n for (h1, sha), n in kernels.items() if h1 and not sha) > 100


def test_sha_count_equals_the_oracle_order(monkeypatch):
    # on every case of the test above, the order sha_finite counts in H^1's
    # Cayley-graph coordinates is the order brute_sha finds.  That test runs
    # sha_finite before brute_sha on each family; a trivial H^1 makes no
    # count, and reads as 1
    cohomology_module = sys.modules["twistlgp.cohomology"]
    count, brute = cohomology_module._sha_order, brute_sha
    last, compared = [], []

    def recorded_count(*args):
        last.append(count(*args))
        return last[-1]

    def checked_brute(group, module, family):
        factors = brute(group, module, family)
        compared.append(last.pop() if last else 1)
        assert compared[-1] == np.prod(factors, dtype=object)
        return factors

    monkeypatch.setattr(cohomology_module, "_sha_order", recorded_count)
    monkeypatch.setitem(globals(), "brute_sha", checked_brute)
    test_sha_engine_matches_oracle_on_mixed_families_and_rank_2_modules()
    assert len(compared) == 290 and not last
    assert Counter(order > 1 for order in compared) == {True: 59, False: 231}


def flat(func):
    return tuple(c for v in func for c in v)


def reference_quotient_invariants(cocycles, coboundaries, module):
    """Structure of cocycles / coboundaries, given as flat coordinate tuples,
    via canonical coset forms: the least element of each coset f + B, and the
    order of each canonical form read by repeated addition."""
    r = module.rank
    boundary_set = sorted(set(coboundaries))

    def add(a, b):
        return tuple(
            (x + y) % module.orders[i % r] for i, (x, y) in enumerate(zip(a, b))
        )

    def canonical(f):
        return min(add(f, b) for b in boundary_set)

    zero = canonical(tuple(0 for _ in cocycles[0])) if cocycles else ()
    reps = sorted({canonical(f) for f in cocycles})
    orders = Counter()
    for f in reps:
        acc = f
        k = 1
        while canonical(acc) != zero:
            acc = add(acc, f)
            k += 1
        orders[k] += 1
    return invariant_factors_from_orders(orders)


def tables(group, module):
    """Module elements, and the action, sum and negation on their indices."""
    elements = list(module.elements())
    index = {v: i for i, v in enumerate(elements)}
    act = [[index[module.act(g, v)] for v in elements] for g in group.elements()]
    add = [[index[module.add(a, b)] for b in elements] for a in elements]
    neg = [index[module.neg(v)] for v in elements]
    return elements, act, add, neg


@functools.lru_cache(maxsize=None)
def reference_h1_cocycles(group, module):
    """The full enumeration the pruned search must agree with: every function
    G -> M, kept when f(gh) = g.f(h) + f(g) holds for every pair.  It runs
    on element indices with tabulated operations, so that the 9^6 functions
    S3 -> Z/9 take seconds."""
    elements, act, add, _ = tables(group, module)
    pairs = [(g, h, group.mul(g, h)) for g in group.elements() for h in group.elements()]
    return [
        [elements[i] for i in func]
        for func in itertools.product(range(len(elements)), repeat=group.order)
        if all(func[gh] == add[act[g][func[h]]][func[g]] for g, h, gh in pairs)
    ]


def sha_pair(group, module, family, cocycles):
    """The locally-trivial cocycles among ``cocycles`` and the coboundaries,
    as flat coordinate tuples."""
    def locally_trivial(func, sub):
        return any(
            all(func[h] == module.add(module.act(h, m), module.neg(m)) for h in sub.elements)
            for m in module.elements()
        )

    kept = [flat(f) for f in cocycles if all(locally_trivial(f, sub) for sub in family)]
    coboundaries = [
        flat(module.add(module.act(g, m), module.neg(m)) for g in group.elements())
        for m in module.elements()
    ]
    return kept, coboundaries


def reference_sha(group, module, family, cocycles):
    return reference_quotient_invariants(*sha_pair(group, module, family, cocycles), module)


def h2_pair(group, module):
    """Every normalized 2-cochain kept when the cocycle identity
    g.f(h, k) - f(gh, k) + f(g, hk) - f(g, h) = 0 holds for every triple of
    nontrivial elements, and the coboundaries of normalized 1-cochains, as
    flat coordinate tuples."""
    elements, act, add, neg = tables(group, module)
    nontrivial = [g for g in group.elements() if g != 0]
    free_slots = [(g, h) for g in nontrivial for h in nontrivial]
    # a cochain gets one extra zero entry, read for f(g, h) when g or h is the identity
    zero_at = len(free_slots)
    slot = {pair: i for i, pair in enumerate(free_slots)}
    place = {
        (g, h): slot.get((g, h), zero_at) for g in group.elements() for h in group.elements()
    }
    triples = [
        (g, place[h, k], place[group.mul(g, h), k], place[g, group.mul(h, k)], place[g, h])
        for g, h, k in itertools.product(nontrivial, repeat=3)
    ]
    zero = elements.index(module.zero())
    cocycles = []
    for func in itertools.product(range(len(elements)), repeat=len(free_slots)):
        f = (*func, zero)
        if all(
            add[add[act[g][f[a]]][neg[f[b]]]][add[f[c]][neg[f[d]]]] == zero
            for g, a, b, c, d in triples
        ):
            cocycles.append(flat(elements[i] for i in func))
    coboundaries = []
    for t in itertools.product(module.elements(), repeat=group.order - 1):
        chain = [module.zero(), *t]
        coboundaries.append(
            flat(
                module.add(
                    module.add(module.act(g, chain[h]), module.neg(chain[group.mul(g, h)])),
                    chain[g],
                )
                for g, h in free_slots
            )
        )
    return cocycles, coboundaries or [()]


def reference_h2(group, module):
    return reference_quotient_invariants(*h2_pair(group, module), module)


SWAP = gmodule(cyclic(2), [3, 3], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])


def pruned_search_cases():
    """Every mu-module of size <= 9 over the groups of order <= 4 and S3,
    plus the swap on (Z/3)^2, and whether degree 2 is compared too."""
    small = [
        cyclic(1),
        cyclic(2),
        cyclic(3),
        cyclic(4),
        direct_product(cyclic(2), cyclic(2)),
    ]
    cases = [
        (group, mu_module(group, m, chi))
        for group in small + [symmetric(3)]
        for m in range(2, 10)
        for chi in all_characters(group, m)
    ] + [(cyclic(2), SWAP)]
    return [
        (group, module, (group.order <= 4 and module.size <= 3) or module is SWAP)
        for group, module in cases
    ]


def test_pruned_search_matches_full_enumeration():
    for group, module, with_h2 in pruned_search_cases():
        cocycles = reference_h1_cocycles(group, module)
        trivial = [Subgroup(group, (0,))]
        family = cyclic_subgroups(group)
        label = (group.name, module.orders, module.action)
        assert brute_h1(group, module) == reference_sha(group, module, trivial, cocycles), label
        assert brute_sha(group, module, family) == reference_sha(
            group, module, family, cocycles
        ), label
        if with_h2:
            assert brute_h2(group, module) == reference_h2(group, module), label


def test_search_lists_the_cocycles_of_the_full_enumeration_in_order(monkeypatch):
    # element for element, not only in invariants: the cocycles _depth_first
    # returns to brute_h1 and brute_h2 are those of the full
    # itertools.product filter, in its order, on element codes
    found = []
    depth_first = oracle._depth_first

    def keeping_depth_first(identities_at, add, neg):
        found.append(depth_first(identities_at, add, neg))
        return found[-1]

    monkeypatch.setattr(oracle, "_depth_first", keeping_depth_first)
    compared = 0
    for group, module, with_h2 in pruned_search_cases():
        code = {v: i for i, v in enumerate(module.elements())}
        r = module.rank
        label = (group.name, module.orders, module.action)
        brute_h1(group, module)
        assert found.pop() == [
            tuple(code[v] for v in func) for func in reference_h1_cocycles(group, module)
        ], label
        compared += 1
        if with_h2:
            brute_h2(group, module)
            cocycles = h2_pair(group, module)[0]
            assert found.pop() == [
                tuple(code[f[i : i + r]] for i in range(0, len(f), r)) for f in cocycles
            ], label
            compared += 1
    assert not found
    assert compared == 115 + 16


def test_search_is_the_same_whichever_identity_forces_a_slot(monkeypatch):
    # the identities at a slot may come in any order, and the first one that
    # reads the slot once forces its value.  In the order brute_h1 and
    # brute_h2 file them, only the reads -f(b) and +f(c) force a slot;
    # shuffled orders make every read of g.f(a) - f(b) + f(c) - f(d) force
    # one somewhere: g.f(a) with g and g^-1 acting differently, so act_inv
    # is not act_g, and -f(d) in degree 2 (in degree 1, d is the zero slot).
    # The search must return the same list every time
    searches = []
    depth_first = oracle._depth_first

    def keeping_depth_first(identities_at, add, neg):
        searches.append((identities_at, add, neg))
        return depth_first(identities_at, add, neg)

    monkeypatch.setattr(oracle, "_depth_first", keeping_depth_first)
    s3, c3, c4, c6 = symmetric(3), cyclic(3), cyclic(4), cyclic(6)
    for group, m in ((s3, 9), (c4, 5), (c6, 7)):
        for chi in all_characters(group, m):
            brute_h1(group, mu_module(group, m, chi))
    for group, m in ((s3, 3), (c3, 7), (c4, 5)):
        for chi in all_characters(group, m):
            module = mu_module(group, m, chi)
            brute_h2(group, module, OracleBudget(module.size ** (group.order - 1) ** 2))
    brute_h2(cyclic(2), SWAP)
    monkeypatch.undo()
    rng = random.Random(41)
    forcing = Counter()
    for identities_at, add, neg in searches:
        found = depth_first(identities_at, add, neg)
        for _ in range(6):
            shuffled = [rng.sample(identities, len(identities)) for identities in identities_at]
            for s, identities in enumerate(shuffled):
                forcer = next((i for i in identities if i[2:].count(s) == 1), None)
                if forcer:
                    forcing[forcer.index(s, 2) - 2, forcer[0] != forcer[1]] += 1
            assert depth_first(shuffled, add, neg) == found
    assert {place for place, _ in forcing} == {0, 1, 2, 3}
    assert min(forcing[place, True] for place in range(3)) > 0


def test_coset_orders_match_canonical_cosets():
    # the oracle's quotient, on element codes and coset orders, against the
    # canonical coset forms on coordinate tuples, on the same pairs
    compared = 0
    for group, module, with_h2 in pruned_search_cases():
        cocycles = reference_h1_cocycles(group, module)
        pairs = [
            sha_pair(group, module, family, cocycles)
            for family in ([Subgroup(group, (0,))], cyclic_subgroups(group))
        ]
        if with_h2:
            pairs.append(h2_pair(group, module))
        code = {v: i for i, v in enumerate(module.elements())}
        r = module.rank

        def encode(vector):
            return tuple(code[vector[i : i + r]] for i in range(0, len(vector), r))

        add, _, _ = _tables(module, OracleBudget())
        for cocycle_list, coboundaries in pairs:
            assert _quotient_invariants(
                [encode(f) for f in cocycle_list], [encode(b) for b in coboundaries], add
            ) == reference_quotient_invariants(cocycle_list, coboundaries, module), (
                group.name,
                module.orders,
                module.action,
            )
            compared += 1
    # 115 modules, two families each, and 16 of them in degree 2
    assert compared == 246


def test_quotient_rejects_order_counts_that_do_not_divide():
    # Z/4 with B = {0, 2} given only three cocycles: the orders cannot come
    # from cosets of B
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    with pytest.raises(ValueError, match="inconsistent"):
        _quotient_invariants([(0,), (1,), (2,)], [(0,), (2,)], add)
    assert _quotient_invariants([(a,) for a in range(4)], [(0,), (2,)], add) == (2,)


def test_pruning_bounds_the_work(monkeypatch):
    # a full enumeration of the 9^6 functions C6 -> Z/9 makes 9^6 * 36 identity
    # checks.  The depth-first search reads 198 residuals: every identity it
    # checks, and one more at each slot whose value an identity forces.  Each
    # residual reads three rows of the addition table, and nothing else in
    # the search does.  The action is built from g applied to the one unit
    # of Z/9, 6 * 1 calls where tabulating it took 6 * 9
    rows = 0
    acts = 0
    depth_first = oracle._depth_first
    act = GModule.act

    class CountingRows(list):
        def __getitem__(self, a):
            nonlocal rows
            rows += 1
            return super().__getitem__(a)

    def counting_depth_first(identities_at, add, neg):
        return depth_first(identities_at, CountingRows(add), neg)

    def counting_act(self, g, a):
        nonlocal acts
        acts += 1
        return act(self, g, a)

    monkeypatch.setattr(oracle, "_depth_first", counting_depth_first)
    monkeypatch.setattr(GModule, "act", counting_act)
    group = cyclic(6)
    assert brute_h1(group, trivial_module(group, [9])) == (3,)
    checks, rest = divmod(rows, 3)
    assert rest == 0
    assert 0 < checks < 1000
    assert acts <= 54
    assert checks <= 198
    assert acts <= 6


def test_tables_count_against_the_budget():
    # C1 admits |M| functions, but the addition table has |M|^2 entries
    c1 = cyclic(1)
    big = trivial_module(c1, [101])
    with pytest.raises(BudgetExceeded, match="addition table"):
        brute_h1(c1, big, OracleBudget(10**4))
    with pytest.raises(BudgetExceeded, match="addition table"):
        brute_h2(c1, big, OracleBudget(10**4))
    assert brute_h1(c1, trivial_module(c1, [100]), OracleBudget(10**4)) == ()
    assert brute_h2(c1, trivial_module(c1, [100]), OracleBudget(10**4)) == ()


def test_tables_match_the_module_arithmetic():
    # windows of a doubled range (rank 1) and rows by translation (rank 2
    # and 3) give the sums GModule.add gives, and the action built from the
    # units of the digits gives GModule.act at every element of the group:
    # trivial actions, a mu_9 character of C6, the swap on (Z/3)^2, C4
    # rotating (Z/3)^2 through [[0, 2], [1, 0]], and C2 swapping the two
    # Z/4 digits of Z/2 + Z/4 + Z/4
    c2, c4, c6 = cyclic(2), cyclic(4), cyclic(6)
    rotation = [[[1, 0], [0, 1]], [[0, 2], [1, 0]], [[2, 0], [0, 2]], [[0, 1], [2, 0]]]
    swap_last = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]]
    modules = [
        trivial_module(c2, [7]),
        SWAP,
        trivial_module(c2, [2, 4]),
        trivial_module(c2, [2, 2, 6]),
        mu_module(c6, 9, all_characters(c6, 9)[1]),
        gmodule(c4, [3, 3], rotation),
        gmodule(c2, [2, 4, 4], swap_last),
    ]
    assert not modules[4].has_trivial_action and len(modules[4].orders) == 1
    assert modules[5].action[1] == ((0, 2), (1, 0))
    for module in modules:
        elements = list(module.elements())
        code = {v: i for i, v in enumerate(elements)}
        add, neg, act = _tables(module, OracleBudget())
        assert [list(row) for row in add] == [
            [code[module.add(a, b)] for b in elements] for a in elements
        ], module.orders
        assert neg == [code[module.neg(a)] for a in elements]
        assert act == [
            [code[module.act(g, a)] for a in elements] for g in module.group.elements()
        ], (module.orders, module.action)


def test_brute_h1_on_a_large_cyclic_module():
    # 3000^2 sums count against the budget, but none is tabulated: C2 acting
    # trivially and by -1 on Z/3000
    c2 = cyclic(2)
    for module in (trivial_module(c2, [3000]), gmodule(c2, [3000], [[[1]], [[2999]]])):
        assert brute_h1(c2, module) == cohomology(c2, module, 1).invariant_factors == (2,)


def test_degree_one_oracle_matches_engine_to_order_24():
    groups = [
        dihedral(6),
        cyclic(12),
        symmetric(4),
        dihedral(12),
        cyclic(24),
        direct_product(quaternion(), cyclic(3)),
    ]
    compared = 0
    for group in groups:
        for m in (2, 3, 4, 6):
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                budget = OracleBudget(module.size**group.order)
                assert brute_h1(group, module, budget) == cohomology(
                    group, module, 1
                ).invariant_factors, (group.name, m, chi.values)
                compared += 1
    assert compared == 60


def test_oracle_imports_only_the_stdlib_groups_and_gmodules():
    # the oracle stays independent of the engine it checks
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in ("gmodules", "groups"), node.module
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
