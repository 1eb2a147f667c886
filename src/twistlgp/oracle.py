"""Brute-force cohomology on tiny instances, independent of the Smith normal
form engine.

Module elements are coded by their position in ``GModule.elements()``
(code 0 is the zero element), and the sum, negation and action are
tabulated once per call, so a cocycle identity is one chain of look-ups;
the sums are windows of one range or rows built by translation, never
|M|^2 module additions, and negation and the action are additive, so they
are read off the units of the digits.  Degree 1 searches the functions
G -> M and degree 2 the normalized 2-cochains (zero whenever an argument is
the identity), depth first: slots get their values in order, and each
cocycle identity is checked as soon as the last slot it reads is set.  Both
identities are additive in the slot values, so one that reads its last
slot once, through +f, -f or g.f, leaves that slot a single candidate, the
only value tried there; a slot that no identity reads once tries every
value.  The cocycles found are exactly those a full enumeration would keep,
in the same order.  The quotient Z / B by the coboundaries is read off from
element orders: the order of the coset of f is the least k with k.f in B,
and each coset holds |B| cocycles of that order, so counting orders over Z
and dividing by |B| gives the order statistics of Z / B, which determine a
finite abelian group up to isomorphism.  No linear algebra from the main
engine is reused.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from math import prod

from .gmodules import GModule
from .groups import FiniteGroup, Subgroup


class BudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_functions: int = 10**7

    def __post_init__(self):
        if self.max_functions < 1:
            raise ValueError("budget must be positive")


DEFAULT_BUDGET = OracleBudget()


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors_from_orders(orders: Counter) -> tuple[int, ...]:
    """Reconstruct a finite abelian group from the multiset of its element
    orders.  For each prime p, the count of elements killed by p^k is
    p^(sum_i min(lambda_i, k)) for the partition lambda of the p-part, and
    those counts pin the partition down."""
    total = sum(orders.values())
    if total == 1:
        return ()
    primes = sorted({p for o in orders for p in _factorize(o)})
    partitions: dict[int, list[int]] = {}
    for p in primes:
        cumulative = [0]  # m_k = sum_i min(lambda_i, k)
        k = 1
        while True:
            count = sum(mult for o, mult in orders.items() if p**k % o == 0)
            exp = 0
            while p**exp < count:
                exp += 1
            if p**exp != count:
                raise ValueError("order statistics are inconsistent")
            if exp == cumulative[-1]:
                break
            cumulative.append(exp)
            k += 1
        parts_at_least = [
            cumulative[i] - cumulative[i - 1] for i in range(1, len(cumulative))
        ]
        partition = []
        i = 1
        while True:
            size = sum(1 for n_k in parts_at_least if n_k >= i)
            if size == 0:
                break
            partition.append(size)
            i += 1
        partitions[p] = partition  # largest part first
    width = max((len(v) for v in partitions.values()), default=0)
    descending = []
    for j in range(width):
        d = 1
        for p, parts in partitions.items():
            if j < len(parts):
                d *= p ** parts[j]
        descending.append(d)
    factors = tuple(reversed(descending))
    if prod(factors) != total:
        raise ValueError("order statistics are inconsistent")
    return factors


def _tables(module: GModule, budget: OracleBudget):
    """The sum, negation and action on element codes: code i is the i-th
    element of ``module.elements()``, so code 0 is the zero element.

    ``add[a][b]`` is the code of the sum.  Over Z/d the sums with a are the
    codes a, a + 1, ... read cyclically, so row a is a window of one doubled
    range, with no entries of its own.  Over a product of cyclic groups the
    codes are mixed-radix numerals, and adding the unit of a digit is a
    translation: row a + e_i reads the row of e_i at the entries of row a.
    Negation and the action of each g are additive, so each is read off its
    values at the units: the image of a + e_i is the image of a plus that of
    e_i, and ``module.act`` is called |G| r times.  The |M|^2 sums still
    count against the budget, as when every entry was tabulated: the cochain
    counts bound them, except over a group of order 1, or of order 2 in
    degree 2."""
    size = module.size
    if size * size > budget.max_functions:
        raise BudgetExceeded(f"the {size}^2 sums of the addition table exceed the budget")
    if module.rank == 1:
        # code a is a itself, and g acts as a -> c a for c the code of g.1
        window = memoryview(array("q", range(size)) * 2)
        add = [window[a:a + size] for a in range(size)]
        units = [module.act(g, (1,))[0] for g in module.group.elements()]
        act = [[a * c % size for a in range(size)] for c in units]
        return add, [-a % size for a in range(size)], act
    elements = list(module.elements())
    code = {v: i for i, v in enumerate(elements)}
    # e_i, the unit of digit i, has code strides[i]: a nonzero a is e_i plus
    # the smaller code a - strides[i], for i its last nonzero digit
    strides = [prod(module.orders[i + 1:]) for i in range(module.rank)]
    steps = []
    for a in range(1, size):
        i = max(i for i, digit in enumerate(elements[a]) if digit)
        steps.append((a - strides[i], i))
    shift = [[code[module.add(elements[s], v)] for v in elements] for s in strides]
    add = [list(range(size))]
    for smaller, i in steps:
        add.append([shift[i][x] for x in add[smaller]])

    def additive(images):
        # the additive map taking e_i to images[i], on every code
        at_units = [code[v] for v in images]
        row = [0]
        for smaller, i in steps:
            row.append(add[row[smaller]][at_units[i]])
        return row

    neg = additive([module.neg(elements[s]) for s in strides])
    act = [
        additive([module.act(g, elements[s]) for s in strides])
        for g in module.group.elements()
    ]
    return add, neg, act


def _quotient_invariants(cocycles, coboundaries, add):
    """Structure of Z / B from element orders: the order of the coset of f is
    the least k with k.f in B.  B is a subgroup of Z, so each coset holds |B|
    cocycles, all of the same order, and dividing the count of each order
    by |B| gives the order statistics of the quotient."""
    boundary_set = set(coboundaries)
    orders = Counter()
    for f in cocycles:
        acc = f
        k = 1
        while acc not in boundary_set:
            acc = tuple([add[a][b] for a, b in zip(acc, f)])
            k += 1
        orders[k] += 1
    quotient = Counter()
    for k, count in orders.items():
        cosets, rest = divmod(count, len(boundary_set))
        if rest:
            raise ValueError("order statistics are inconsistent")
        quotient[k] = cosets
    return invariant_factors_from_orders(quotient)


def _depth_first(identities_at, add, neg):
    """Every assignment of codes to the slots 0, 1, ... that satisfies every
    identity, as tuples in the order of itertools.product(codes, repeat=slots).

    An identity (act_g, act_inv, a, b, c, d), with ``act_inv`` the action of
    g^-1, holds when its residual g.f(a) - f(b) + f(c) - f(d) is the zero
    code.  ``identities_at[s]`` lists the identities whose last slot is s,
    all checked as soon as slot s is set; slot ``len(identities_at)`` holds
    the zero code, for where a cochain is zero by definition.  With s set to
    0 an identity that reads s once, through g.f, -f or +f, reads some R, so
    it holds only for act_inv(-R), R or -R at s: the first such identity
    gives the one value tried at s.  Every other slot tries every code."""
    slots = len(identities_at)
    every = range(len(neg))
    # R + T(v) is 0 for v = T^-1(-R): T^-1 is act_inv for g.f, neg for -f and
    # the identity, every, for +f
    solvers = [
        next((
            (identity, (identity[1], neg, every, neg)[identity.index(s, 2) - 2])
            for identity in identities
            if identity[2:].count(s) == 1
        ), None)
        for s, identities in enumerate(identities_at)
    ]
    func = [0] * (slots + 1)
    found = []

    def extend(s):
        if s == slots:
            found.append(tuple(func[:slots]))
            return
        candidates = every
        if solvers[s]:
            (act_g, _, a, b, c, d), inverse = solvers[s]
            func[s] = 0
            residual = add[add[act_g[func[a]]][neg[func[b]]]][add[func[c]][neg[func[d]]]]
            candidates = (inverse[neg[residual]],)
        for v in candidates:
            func[s] = v
            for act_g, _, a, b, c, d in identities_at[s]:
                if add[add[act_g[func[a]]][neg[func[b]]]][add[func[c]][neg[func[d]]]]:
                    break
            else:
                extend(s + 1)

    extend(0)
    return found


def brute_h1(
    group: FiniteGroup, module: GModule, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[int, ...]:
    """Invariant factors of H^1 by a search of the functions G -> M: the
    locally-trivial part over the trivial subgroup, which imposes nothing,
    since every 1-cocycle has f(1) = 0."""
    return brute_sha(group, module, [Subgroup(group, (0,))], budget)


def brute_h2(
    group: FiniteGroup, module: GModule, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[int, ...]:
    """Invariant factors of H^2 using normalized 2-cochains
    (f(1, h) = f(g, 1) = 0)."""
    n = group.order
    size = module.size
    free = (n - 1) ** 2
    if size**free > budget.max_functions:
        raise BudgetExceeded(f"{size}^{free} normalized cochains exceed the budget")
    if module.rank == 0:
        return ()
    add, neg, act = _tables(module, budget)
    nontrivial = [g for g in group.elements() if g != 0]
    free_slots = [(g, h) for g in nontrivial for h in nontrivial]
    # f(g, h) with g or h the identity reads the zero entry after the slots
    zero_slot = len(free_slots)
    slot_index = {pair: i for i, pair in enumerate(free_slots)}

    def slot(g, h):
        return slot_index.get((g, h), zero_slot)

    # triples with an identity entry hold automatically for normalized
    # cochains; every other triple reads slot (h, k), so it has a last slot
    triples_at = [[] for _ in free_slots]
    for g in nontrivial:
        for h in nontrivial:
            for k in nontrivial:
                read = (
                    slot(h, k),
                    slot(group.mul(g, h), k),
                    slot(g, group.mul(h, k)),
                    slot(g, h),
                )
                last = max(i for i in read if i != zero_slot)
                triples_at[last].append((act[g], act[group.inv(g)], *read))

    cocycles = _depth_first(triples_at, add, neg)
    # normalized 1-cochains t (t(identity) = 0); (d t)(g, h) = g.t(h) - t(gh) + t(g)
    terms = [(act[g], h, group.mul(g, h), g) for g, h in free_slots]
    coboundaries = [
        tuple(
            add[add[act_g[chain[h]]][neg[chain[gh]]]][chain[g]]
            for act_g, h, gh, g in terms
        )
        for chain in ((0, *t) for t in itertools.product(range(size), repeat=n - 1))
    ]
    return _quotient_invariants(cocycles, coboundaries, add)


def brute_sha(
    group: FiniteGroup,
    module: GModule,
    family,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[int, ...]:
    """Invariant factors of the locally-trivial part of H^1: cocycles whose
    restriction to every subgroup in the family is a coboundary there."""
    family = [sub if isinstance(sub, Subgroup) else Subgroup(group, tuple(sub)) for sub in family]
    if not family:
        raise ValueError("the family of subgroups must be nonempty")
    if any(sub.parent != group for sub in family):
        raise ValueError("subgroup belongs to a different group")
    n = group.order
    size = module.size
    if size**n > budget.max_functions:
        raise BudgetExceeded(f"{size}^{n} functions exceed the budget")
    if module.rank == 0:
        return ()
    add, neg, act = _tables(module, budget)
    # the identity g.f(h) - f(gh) + f(g) = 0 is checked once f(max(g, h, gh))
    # is set; its fourth read is the zero code after the n slots
    pairs_at = [[] for _ in range(n)]
    for g in group.elements():
        for h in group.elements():
            gh = group.mul(g, h)
            pairs_at[max(g, h, gh)].append((act[g], act[group.inv(g)], h, gh, g, n))

    def coboundary(elems, m):
        # (d m)(g) = g.m - m on the given elements
        return tuple(add[act[g][m]][neg[m]] for g in elems)

    local_boundaries = [
        (sub.elements, {coboundary(sub.elements, m) for m in range(size)})
        for sub in family
    ]
    cocycles = [
        func
        for func in _depth_first(pairs_at, add, neg)
        if all(tuple(func[h] for h in elems) in bset for elems, bset in local_boundaries)
    ]
    coboundaries = [coboundary(group.elements(), m) for m in range(size)]
    return _quotient_invariants(cocycles, coboundaries, add)
