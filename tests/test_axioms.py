"""The group, subgroup, homomorphism, module and character axioms are checked
on a generating set.  These tests keep the all-pairs (all-triples for
associativity) checks as test-only references and compare accept/reject with
them on a seeded corpus of valid and corrupted inputs.

The checks compare or gather whole table rows instead of looping over
entries.  The per-entry loops they replaced are kept as references too: on
the same corpus, each check must name the first failure the loop named, and
every constructor and closure must end on every table, group or not."""

import collections
import contextlib
import itertools
import random
import signal
from math import gcd
from types import SimpleNamespace

import pytest

from twistlgp.gmodules import (
    BadCharacter,
    CyclotomicCharacter,
    GModule,
    all_characters,
)
from twistlgp.groups import (
    MAX_ORDER,
    FiniteGroup,
    GroupHom,
    NotAGroup,
    Subgroup,
    _closure,
    build_group,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    normal_closure,
    quaternion,
    quotient,
    subgroup_generated,
    subgroups,
    symmetric,
)


def ref_is_group(n, table):
    """Shape, Latin rows and columns, two-sided identity and inverses, and
    associativity on all triples."""
    if len(table) != n or any(len(row) != n for row in table):
        return False
    full = set(range(n))
    for i in range(n):
        if set(table[i]) != full or {table[j][i] for j in range(n)} != full:
            return False
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            return False
    for g in range(n):
        if table[table[g].index(0)][g] != 0:
            return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def ref_is_subgroup(group, elements):
    inside = set(elements)
    if 0 not in inside or not inside <= set(group.elements()):
        return False
    return all(group.inv(a) in inside for a in inside) and all(
        group.mul(a, b) in inside for a in inside for b in inside
    )


def ref_is_normal(group, elements):
    inside = set(elements)
    return all(group.conjugate(g, h) in inside for g in group.elements() for h in inside)


def ref_is_hom(source, target, images):
    return images[0] == 0 and all(
        images[source.mul(a, b)] == target.mul(images[a], images[b])
        for a in source.elements()
        for b in source.elements()
    )


def ref_is_action(group, orders, action):
    """Identity acts trivially and action[gh] == action[g] action[h] on all
    pairs (the checks on shapes and entries are shared with the library)."""
    r = len(orders)
    if any(action[0][i][j] != (1 if i == j else 0) for i in range(r) for j in range(r)):
        return False
    for g in group.elements():
        for h in group.elements():
            gh = group.mul(g, h)
            for i in range(r):
                for j in range(r):
                    acc = sum(action[g][i][k] * action[h][k][j] for k in range(r))
                    if acc % orders[i] != action[gh][i][j]:
                        return False
    return True


def ref_is_character(group, m, values):
    vals = [v % m for v in values]
    return all(gcd(v, m) == 1 for v in vals) and all(
        (vals[g] * vals[h]) % m == vals[group.mul(g, h)]
        for g in group.elements()
        for h in group.elements()
    )


def ref_greedy_generators(group):
    """The greedy loop all_characters used: add each element, in table order,
    that the subgroup generated by the earlier ones misses."""
    gens, span = [], {0}
    for g in group.elements():
        if g not in span:
            gens.append(g)
            span = set(subgroup_generated(group, gens).elements)
    return tuple(gens)


def coset_corruptions(group):
    """The left cosets c<x> of the first generator x, other than <x>: a map
    changed on one of them alone stays multiplicative on every pair (g, x),
    so only the other generators can reject it."""
    if not group.generators:
        return []
    first = _closure(group, group.generators[:1])
    cosets = {frozenset(group.mul(c, h) for h in first) for c in group.elements()}
    return [sorted(c) for c in cosets if 0 not in c]


def accepts(build, error=ValueError):
    try:
        build()
    except error:
        return False
    return True


SMALL = [cyclic(n) for n in range(1, 17)] + [
    dihedral(n) for n in range(1, 9)
] + [
    symmetric(3),
    quaternion(),
    direct_product(cyclic(2), cyclic(2)),
    direct_product(cyclic(2), cyclic(4)),
    direct_product(cyclic(2), cyclic(2), cyclic(2)),
    direct_product(cyclic(2), cyclic(6)),
    direct_product(cyclic(3), cyclic(3)),
    direct_product(cyclic(4), cyclic(4)),
    direct_product(cyclic(2), cyclic(2), cyclic(2), cyclic(2)),
    direct_product(cyclic(2), cyclic(2), cyclic(4)),
    direct_product(cyclic(2), symmetric(3)),
    direct_product(cyclic(2), dihedral(4)),
    direct_product(cyclic(2), quaternion()),
]


def relabel(table, perm):
    """The table of the same operation with element a renamed perm[a]."""
    n = len(table)
    new = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[perm[a]][perm[b]] = perm[table[a][b]]
    return new


# A loop (Latin square with identity 0) of order 5 that is not associative.
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def product_table(left, right):
    """Direct product of two tables, leftmost factor most significant."""
    n, k = len(left), len(right)
    return [
        [left[a // k][b // k] * k + right[a % k][b % k] for b in range(n * k)]
        for a in range(n * k)
    ]


def loop_products():
    """LOOP5 x C_k with the loop leftmost: element 1 generates C_k, which
    associates with everything, so only a later generator rejects these."""
    for k in (2, 3, 4):
        yield product_table(LOOP5, cyclic(k).mul_table)
        yield product_table(cyclic(k).mul_table, LOOP5)


def table_corpus(rng):
    """Relabellings (identity kept at 0 or moved), loop products, and
    row-Latin corruptions: in-row swaps and 3-cycles, in-column swaps,
    whole-column swaps."""
    for table in loop_products():
        n = len(table)
        yield n, table
        for _ in range(3):
            yield n, relabel(table, [0] + rng.sample(range(1, n), n - 1))
    for group in SMALL:
        n = group.order
        base = [list(row) for row in group.mul_table]
        yield n, base
        for _ in range(3):
            rest = list(range(1, n))
            rng.shuffle(rest)
            yield n, relabel(base, [0] + rest)
        if n > 1:
            moved = list(range(n))
            rng.shuffle(moved)
            yield n, relabel(base, moved)
        if n < 3:
            continue
        for _ in range(6):
            perm = [0] + rng.sample(range(1, n), n - 1)
            table = relabel(base, perm)
            a = rng.randrange(1, n)
            b, c = rng.sample(range(1, n), 2)
            row = [list(r) for r in table]
            row[a][b], row[a][c] = row[a][c], row[a][b]
            yield n, row
            col = [list(r) for r in table]
            col[b][a], col[c][a] = col[c][a], col[b][a]
            yield n, col
            swapped = [list(r) for r in table]
            for r in swapped:
                r[b], r[c] = r[c], r[b]
            yield n, swapped
            if n > 3:
                b, c, d = rng.sample(range(1, n), 3)
                cyc = [list(r) for r in table]
                cyc[a][b], cyc[a][c], cyc[a][d] = cyc[a][c], cyc[a][d], cyc[a][b]
                yield n, cyc


def test_group_axioms_match_the_all_triples_reference():
    rng = random.Random(20261018)
    verdicts = {True: 0, False: 0}
    mismatches = []
    for n, table in table_corpus(rng):
        frozen = tuple(tuple(row) for row in table)
        got = accepts(lambda: FiniteGroup(n, frozen), NotAGroup)
        want = ref_is_group(n, frozen)
        verdicts[want] += 1
        if got != want:
            mismatches.append(frozen)
        elif got:
            # is_abelian compares generators only
            abelian = all(frozen[a][b] == frozen[b][a] for a in range(n) for b in range(n))
            if FiniteGroup(n, frozen).is_abelian != abelian:
                mismatches.append(frozen)
    assert mismatches == []
    # the corpus exercises both verdicts in bulk
    assert verdicts[True] > 100 and verdicts[False] > 300


def test_subgroup_and_normality_match_the_all_pairs_reference():
    rng = random.Random(7)
    mismatches = []
    normal_checked = 0
    for group in SMALL:
        n = group.order
        candidates = [s.elements for s in subgroups(group)]
        for elems in list(candidates):
            candidates.append(tuple(set(elems) | {rng.randrange(n)}))
            if len(elems) > 1:
                candidates.append(tuple(set(elems) - {rng.choice(elems[1:])}))
        for _ in range(20):
            candidates.append((0,) + tuple(rng.sample(range(n), rng.randrange(n))))
        for elems in candidates:
            got = accepts(lambda: Subgroup(group, elems), NotAGroup)
            if got != ref_is_subgroup(group, elems):
                mismatches.append((group.name, elems))
            elif got:
                normal_checked += 1
                if Subgroup(group, elems).is_normal() != ref_is_normal(group, elems):
                    mismatches.append((group.name, elems, "normal"))
    assert mismatches == []
    assert normal_checked > 500


def test_subgroup_outside_the_group_is_not_a_group():
    with pytest.raises(NotAGroup):
        Subgroup(cyclic(2), (0, 7))
    with pytest.raises(NotAGroup):
        Subgroup(cyclic(3), (0, -1))


def test_homomorphisms_match_the_all_pairs_reference():
    rng = random.Random(3)
    c2 = cyclic(2)
    mismatches = []
    tried = 0
    for group in SMALL:
        # homomorphisms to C2 are the characters into (Z/3)^* = {1, -1}
        for chi in all_characters(group, 3):
            images = [0 if v == 1 else 1 for v in chi.values]
            variants = [images]
            for g in {0, rng.randrange(group.order), group.order - 1}:
                flipped = list(images)
                flipped[g] ^= 1
                variants.append(flipped)
            for coset in coset_corruptions(group):
                flipped = list(images)
                for g in coset:
                    flipped[g] ^= 1
                variants.append(flipped)
            for variant in variants:
                tried += 1
                got = accepts(lambda: GroupHom(group, c2, tuple(variant)))
                if got != ref_is_hom(group, c2, variant):
                    mismatches.append((group.name, variant))
    assert mismatches == []
    assert tried > 150


def test_characters_match_the_all_pairs_reference():
    rng = random.Random(5)
    mismatches = []
    tried = 0
    for group in SMALL[:30]:
        for m in (3, 4, 5, 8, 9):
            units = [u for u in range(m) if gcd(u, m) == 1]
            for chi in all_characters(group, m):
                assert ref_is_character(group, m, chi.values)
                changed = []
                for g in {0, rng.randrange(group.order)}:
                    values = list(chi.values)
                    values[g] = rng.choice(units + [0])
                    changed.append(values)
                for coset in coset_corruptions(group):
                    u = rng.choice(units)
                    changed.append(
                        [v * u % m if g in coset else v for g, v in enumerate(chi.values)]
                    )
                for values in changed:
                    tried += 1
                    got = accepts(
                        lambda: CyclotomicCharacter(group, m, values), BadCharacter
                    )
                    if got != ref_is_character(group, m, values):
                        mismatches.append((group.name, m, values))
    assert mismatches == []
    assert tried > 500


def test_identity_of_a_trivial_group_must_map_to_one():
    c1 = cyclic(1)
    with pytest.raises(BadCharacter):
        CyclotomicCharacter(c1, 5, (2,))
    assert CyclotomicCharacter(c1, 5, (1,)).is_trivial
    assert CyclotomicCharacter(c1, 1, (0,)).is_trivial


def rank2_actions(group, rng):
    """Rank-2 mu_4 actions g -> P diag(chi_1(g), chi_2(g)) P^-1 mod 4."""
    chars = all_characters(group, 4)
    p, p_inv = ((1, 1), (0, 1)), ((1, 3), (0, 1))
    for _ in range(3):
        chi1, chi2 = rng.choice(chars), rng.choice(chars)
        action = []
        for g in group.elements():
            d = (chi1(g), chi2(g))
            action.append(
                tuple(
                    tuple(
                        sum(p[i][k] * d[k] * p_inv[k][j] for k in range(2)) % 4
                        for j in range(2)
                    )
                    for i in range(2)
                )
            )
        yield action


def test_module_actions_match_the_all_pairs_reference():
    rng = random.Random(11)
    orders = (4, 4)
    mismatches = []
    tried = 0
    for group in SMALL[:30]:
        for action in rank2_actions(group, rng):
            variants = [action]
            for g in {0, rng.randrange(group.order)}:
                changed = [list(map(list, mat)) for mat in action]
                changed[g][rng.randrange(2)][rng.randrange(2)] = rng.randrange(4)
                variants.append([tuple(map(tuple, mat)) for mat in changed])
            # a shear applied on the left of a whole coset
            for coset in coset_corruptions(group):
                variants.append([
                    tuple(
                        tuple((mat[i][j] + mat[1][j] * (i == 0)) % 4 for j in range(2))
                        for i in range(2)
                    ) if g in coset else mat
                    for g, mat in enumerate(action)
                ])
            for variant in variants:
                tried += 1
                got = accepts(lambda: GModule(group, orders, tuple(variant)))
                if got != ref_is_action(group, orders, variant):
                    mismatches.append((group.name, variant))
    assert mismatches == []
    assert tried > 200


CATALOG_64 = (
    [cyclic(n) for n in range(1, MAX_ORDER + 1)]
    + [dihedral(n) for n in range(1, 17)]
    + [symmetric(3), symmetric(4), quaternion()]
)


def products_up_to_64():
    factors = [
        cyclic(2), cyclic(3), cyclic(4), cyclic(8), symmetric(3), dihedral(4), quaternion()
    ]
    for a, b in itertools.combinations_with_replacement(factors, 2):
        if a.order * b.order <= MAX_ORDER:
            yield direct_product(a, b)
    c2 = cyclic(2)
    for k in range(3, 7):
        yield direct_product(*[c2] * k)
    yield direct_product(cyclic(4), cyclic(4), cyclic(4))
    yield direct_product(c2, c2, dihedral(4))
    yield direct_product(c2, c2, quaternion())
    yield direct_product(c2, symmetric(4))
    yield direct_product(cyclic(2), dihedral(16))


def test_generators_generate_and_match_the_greedy_loop():
    for group in CATALOG_64 + list(products_up_to_64()):
        gens = group.generators
        assert _closure(group, gens) == frozenset(group.elements()), group.name
        assert gens == ref_greedy_generators(group), group.name
        assert 2 ** len(gens) <= group.order  # each generator at least doubles the span


# ---------------------------------------------------------------- first failures


def ref_table_generators(table):
    """The greedy generating set of a table with Latin rows, each closure
    found by its own search from 0."""
    gens, span = [], {0}
    for g in range(len(table)):
        if g not in span:
            gens.append(g)
            span, frontier = {0}, [0]
            while frontier:
                row = table[frontier.pop()]
                for s in gens:
                    if row[s] not in span:
                        span.add(row[s])
                        frontier.append(row[s])
    return gens


def ref_group_error(n, table):
    """The message of the first failure of the per-entry loops that
    ``FiniteGroup`` ran, or None: shape, Latin rows, identity, then Light's
    test one (a, x, c) at a time."""
    if len(table) != n or any(len(row) != n for row in table):
        return "multiplication table has wrong shape"
    if any(set(row) != set(range(n)) for row in table):
        return "multiplication table is not a Latin square"
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            return "element 0 is not a two-sided identity"
    for x in ref_table_generators(table):
        for a, row in enumerate(table):
            for c, xc in enumerate(table[x]):
                if table[row[x]][c] != row[xc]:
                    return f"associativity fails at ({a}, {x}, {c})"
    return None


def ref_subgroup_error(group, elements):
    elems = sorted(set(elements))
    if not elems or elems[0] != 0:
        return "subgroup must contain the identity"
    if any(not 0 <= g < group.order for g in elems):
        return "generator outside the group"
    if any(group.mul(a, b) not in elems for a in elems for b in elems):
        return "subgroup not closed under multiplication"
    return None


def ref_hom_error(source, target, images):
    if len(images) != source.order:
        return "image list has wrong length"
    if any(not 0 <= x < target.order for x in images):
        return "image outside the target group"
    if images[0] != 0:
        return "homomorphism must send identity to identity"
    for x in ref_greedy_generators(source):
        for g in source.elements():
            if images[source.mul(g, x)] != target.mul(images[g], images[x]):
                return f"not a homomorphism at ({g}, {x})"
    return None


def ref_character_error(group, m, values):
    vals = [int(v) % m for v in values]
    if len(vals) != group.order:
        return "need one value per group element"
    for g, v in enumerate(vals):
        if gcd(v, m) != 1:
            return f"value {v} at element {g} is not a unit mod {m}"
    if vals[0] != 1 % m:
        return "the identity must map to 1"
    for x in ref_greedy_generators(group):
        for g in group.elements():
            if (vals[g] * vals[x]) % m != vals[group.mul(g, x)]:
                return f"values are not multiplicative at ({g}, {x})"
    return None


def error_of(build, error=ValueError):
    try:
        build()
    except error as exc:
        return str(exc)
    return None


def kind(message):
    """The message without the place it names."""
    return message and message.split(" at ")[0]


def test_group_checks_name_the_first_failure_of_the_entry_loops():
    rng = random.Random(20261018)
    kinds = collections.Counter()
    for n, table in table_corpus(rng):
        frozen = tuple(tuple(row) for row in table)
        want = ref_group_error(n, frozen)
        assert error_of(lambda: FiniteGroup(n, frozen), NotAGroup) == want, frozen
        kinds[kind(want)] += 1
        if n > 1:
            short = frozen[:-1] if rng.random() < 0.5 else frozen[:-1] + (frozen[-1][:-1],)
            assert error_of(lambda: FiniteGroup(n, short), NotAGroup) == ref_group_error(n, short)
    assert kinds["associativity fails"] > 20 and kinds["element 0 is not a two-sided identity"] > 20
    assert kinds["multiplication table is not a Latin square"] > 100 and kinds[None] > 100


def test_build_group_reads_the_entry_types_of_each_row():
    base = [list(row) for row in symmetric(3).mul_table]

    def spec(rows):
        return {"kind": "table", "order": 6, "table": rows}

    class Int(int):
        pass

    for bad in (True, False, 1.0, "1", None, [1]):
        rows = [list(row) for row in base]
        rows[4][2] = bad
        assert error_of(lambda: build_group(spec(rows)), NotAGroup) == (
            "table must be a list of lists of integers"
        )
    rows = [list(row) for row in base]
    rows[3] = tuple(rows[3])
    assert error_of(lambda: build_group(spec(rows)), NotAGroup) == (
        "table must be a list of lists of integers"
    )
    # an int subclass other than bool is an integer, as before
    rows = [list(row) for row in base]
    rows[4][2] = Int(rows[4][2])
    assert build_group(spec(rows)) == symmetric(3)


def test_subgroup_checks_name_the_first_failure_of_the_entry_loops():
    rng = random.Random(7)
    kinds = collections.Counter()
    for group in SMALL:
        n = group.order
        candidates = [s.elements for s in subgroups(group)]
        for elems in list(candidates):
            candidates.append(tuple(set(elems) | {rng.randrange(n)}))
            candidates.append(tuple(set(elems) | {n + rng.randrange(3)}))
            if len(elems) > 1:
                candidates.append(tuple(set(elems) - {rng.choice(elems[1:])}))
        for _ in range(20):
            candidates.append((0,) + tuple(rng.sample(range(n), rng.randrange(n))))
        candidates += [(), (1,), (0, -1)]
        for elems in candidates:
            want = ref_subgroup_error(group, elems)
            assert error_of(lambda: Subgroup(group, elems), NotAGroup) == want
            kinds[want] += 1
    assert min(kinds.values()) > 30 and len(kinds) == 4


def test_homomorphism_checks_name_the_first_failure_of_the_entry_loops():
    rng = random.Random(3)
    c2 = cyclic(2)
    kinds = collections.Counter()
    for group in SMALL:
        targets = []  # (target, images): characters to C2 and projections
        for chi in all_characters(group, 3):
            targets.append((c2, [0 if v == 1 else 1 for v in chi.values]))
        for normal in subgroups(group):
            if normal.is_normal() and 1 < normal.order < group.order:
                q, proj = quotient(group, normal)
                targets.append((q, list(proj.images)))
        for target, images in targets[:8]:
            variants = [images, images[:-1], [target.order] + images[1:], [-1] + images[1:]]
            for g in range(group.order):
                changed = list(images)
                changed[g] = rng.randrange(target.order)
                variants.append(changed)
            for coset in coset_corruptions(group):
                u = rng.randrange(1, target.order) if target.order > 1 else 0
                variants.append(
                    [target.mul(x, u) if g in coset else x for g, x in enumerate(images)]
                )
            for variant in variants:
                want = ref_hom_error(group, target, variant)
                assert error_of(lambda: GroupHom(group, target, tuple(variant))) == want
                kinds[kind(want)] += 1
    assert kinds["not a homomorphism"] > 500 and kinds[None] > 200
    assert len(kinds) == 5


def test_character_checks_name_the_first_failure_of_the_entry_loops():
    rng = random.Random(5)
    kinds = collections.Counter()
    for group in SMALL[:30]:
        for m in (1, 3, 4, 5, 8, 9):
            units = [u for u in range(m) if gcd(u, m) == 1]
            for chi in all_characters(group, m):
                changed = [list(chi.values), list(chi.values)[:-1]]
                for g in range(group.order):
                    values = list(chi.values)
                    values[g] = rng.choice(units + [0, m + 1])
                    changed.append(values)
                for coset in coset_corruptions(group):
                    u = rng.choice(units)
                    changed.append(
                        [v * u % m if g in coset else v for g, v in enumerate(chi.values)]
                    )
                for values in changed:
                    want = ref_character_error(group, m, values)
                    got = error_of(lambda: CyclotomicCharacter(group, m, values), BadCharacter)
                    assert got == want, (group.name, m, values)
                    kinds[kind(want)] += 1
    assert kinds["values are not multiplicative"] > 500 and kinds[None] > 500
    assert len(kinds) == 5


# ---------------------------------------------------------------- derived tables


def ref_quotient(group, normal):
    """The per-entry quotient: (table, projection images)."""
    coset_of, reps = {}, []
    for g in group.elements():
        if g not in coset_of:
            coset = sorted(group.mul(g, n) for n in normal.elements)
            reps.append(coset[0])
            coset_of.update(dict.fromkeys(coset, coset[0]))
    reps.sort()
    idx = {rep: i for i, rep in enumerate(reps)}
    table = tuple(
        tuple(idx[coset_of[group.mul(a, b)]] for b in reps) for a in reps
    )
    return table, tuple(idx[coset_of[g]] for g in group.elements())


def ref_subgroup_table(sub):
    pos = {g: i for i, g in enumerate(sub.elements)}
    return tuple(
        tuple(pos[sub.parent.mul(a, b)] for b in sub.elements) for a in sub.elements
    )


DERIVED = SMALL + [symmetric(4), direct_product(dihedral(4), symmetric(3))]


def test_normal_closure_is_the_closure_of_every_conjugate():
    rng = random.Random(13)
    proper = 0
    for group in DERIVED:
        n = group.order
        sets = [[x] for x in range(n)] + [rng.sample(range(n), min(k, n)) for k in (0, 2, 3)]
        for elements in sets:
            conjugates = {group.conjugate(g, x) for x in elements for g in group.elements()}
            want = tuple(sorted(_closure(group, conjugates)))
            assert normal_closure(group, elements).elements == want
            proper += 1 < len(want) < n
        with pytest.raises(NotAGroup):
            normal_closure(group, [n])
    assert proper > 150


def test_quotient_and_subgroup_tables_match_the_entry_construction():
    quotients = 0
    for group in DERIVED:
        for sub in subgroups(group):
            table = ref_subgroup_table(sub)
            assert sub.as_group[0].mul_table == table
            assert Subgroup(group, sub.elements).as_group[0].mul_table == table
            if sub.is_normal():
                q, proj = quotient(group, sub)
                assert (q.mul_table, proj.images) == ref_quotient(group, sub)
                quotients += 1
    assert quotients > 300


# ---------------------------------------------------------------- termination


class Hang(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds):
    """Raise Hang in the block after ``seconds``: a loop that never ends
    fails here instead of stalling the run."""
    def expire(signum, frame):
        raise Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def exercise(group):
    """Every constructor and closure of the group layer, once each."""
    assert group.generators is not None and group.is_abelian in (True, False)
    assert sum(group.element_order(a) for a in group.elements()) >= group.order
    for x in group.elements():
        normal_closure(group, [x])
    for sub in subgroups(group):
        sub.as_group
        if sub.is_normal():
            quotient(group, sub)
    cyclic_subgroups(group)
    GroupHom(group, group, tuple(group.elements()))


def test_every_constructor_and_closure_ends_on_every_corpus_table():
    # a power walk x <- x s until x == 0 never returns on a table whose
    # rows are permutations but whose columns are not; closures and orbits
    # stop at a visited set, and element orders walk at most |G| steps
    rng = random.Random(20261018)
    built = 0
    for n, table in table_corpus(rng):
        frozen = tuple(tuple(row) for row in table)
        raw = SimpleNamespace(order=n, mul_table=frozen)
        with time_limit(10):
            for g in range(n):
                _closure(raw, [g])
            _closure(raw, range(n))
            FiniteGroup._powers.func(raw)
            try:
                group = FiniteGroup(n, frozen)
            except NotAGroup:
                continue
            exercise(group)
            built += 1
    assert built > 100
