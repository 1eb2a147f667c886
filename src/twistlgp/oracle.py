"""Brute-force cohomology on tiny instances, independent of the Smith normal
form engine.

Degree 1 searches the functions G -> M and degree 2 the normalized
2-cochains (zero whenever an argument is the identity), depth first: slots
get their values in order, and each cocycle identity is checked as soon as
the last slot it reads is set, so a branch ends at the first identity it
breaks.  The cocycles found are exactly those a full enumeration would
keep, in the same order.  Quotients by coboundaries are read off from
element-order statistics, which determine a finite abelian group up to
isomorphism, so no linear algebra from the main engine is reused.
"""

from __future__ import annotations

import itertools
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


def _quotient_invariants(cocycles, coboundaries, module):
    """Structure of cocycles / coboundaries via canonical coset forms."""
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


def _depth_first(values, identities_at, holds):
    """Every assignment of ``values`` to the slots 0, 1, ... that satisfies
    every identity, in the order of itertools.product(values, repeat=slots).

    ``identities_at[s]`` lists the identities whose last slot is s;
    ``holds(func, identity)`` is checked as soon as slot s is set, when
    ``func`` holds the values of slots 0..s.  One list is yielded and then
    changed in place, so a caller keeps a copy of what it needs."""
    slots = len(identities_at)
    func = [None] * slots

    def extend(s):
        if s == slots:
            yield func
            return
        for v in values:
            func[s] = v
            if all(holds(func, identity) for identity in identities_at[s]):
                yield from extend(s + 1)

    return extend(0)


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
    elements = list(module.elements())
    zero = module.zero()
    nontrivial = [g for g in group.elements() if g != 0]
    free_slots = [(g, h) for g in nontrivial for h in nontrivial]
    slot_index = {pair: i for i, pair in enumerate(free_slots)}

    def value(func, g, h):
        if g == 0 or h == 0:
            return zero
        return func[slot_index[(g, h)]]

    # triples with an identity entry hold automatically for normalized
    # cochains; every other triple reads slot (h, k), so it has a last slot
    triples_at = [[] for _ in free_slots]
    for g in nontrivial:
        for h in nontrivial:
            for k in nontrivial:
                read = [(h, k), (group.mul(g, h), k), (g, group.mul(h, k)), (g, h)]
                last = max(slot_index[p] for p in read if 0 not in p)
                triples_at[last].append((g, h, k))

    def holds(func, triple):
        g, h, k = triple
        acc = module.act(g, value(func, h, k))
        acc = module.add(acc, module.neg(value(func, group.mul(g, h), k)))
        acc = module.add(acc, value(func, g, group.mul(h, k)))
        acc = module.add(acc, module.neg(value(func, g, h)))
        return acc == zero

    cocycles = [
        tuple(c for v in func for c in v)
        for func in _depth_first(elements, triples_at, holds)
    ]
    coboundaries = []
    for t in itertools.product(elements, repeat=max(n - 1, 0)):
        # normalized 1-cochains: t(identity) = 0
        chain = [zero] + list(t)
        vals = []
        for g, h in free_slots:
            acc = module.act(g, chain[h])
            acc = module.add(acc, module.neg(chain[group.mul(g, h)]))
            acc = module.add(acc, chain[g])
            vals.append(acc)
        coboundaries.append(tuple(c for v in vals for c in v))
    if not coboundaries:
        coboundaries = [()]
    return _quotient_invariants(cocycles, coboundaries, module)


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
    elements = list(module.elements())
    # the identity f(gh) = g.f(h) + f(g) is checked once f(max(g, h, gh)) is set
    pairs_at = [[] for _ in range(n)]
    for g in group.elements():
        for h in group.elements():
            gh = group.mul(g, h)
            pairs_at[max(g, h, gh)].append((g, h, gh))

    def holds(func, pair):
        g, h, gh = pair
        return func[gh] == module.add(module.act(g, func[h]), func[g])

    local_boundaries = []
    for sub in family:
        bset = set()
        for m in elements:
            bset.add(
                tuple(
                    module.add(module.act(h, m), module.neg(m))
                    for h in sub.elements
                )
            )
        local_boundaries.append((sub.elements, bset))
    cocycles = []
    for func in _depth_first(elements, pairs_at, holds):
        locally_trivial = all(
            tuple(func[h] for h in elems) in bset
            for elems, bset in local_boundaries
        )
        if locally_trivial:
            cocycles.append(tuple(c for v in func for c in v))
    coboundaries = []
    for m in elements:
        vals = [module.add(module.act(g, m), module.neg(m)) for g in group.elements()]
        coboundaries.append(tuple(c for v in vals for c in v))
    return _quotient_invariants(cocycles, coboundaries, module)
