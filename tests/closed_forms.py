"""H^2(G, Z/m) with trivial action in closed form, for checks at orders the
brute-force oracle cannot reach.  Like the oracle, it imports neither
``linalg`` nor ``cohomology``.

By the universal coefficient theorem (Brown, *Cohomology of Groups*, GTM 87,
ch. III), H^2(G, Z/m) = Ext(G^ab, Z/m) + Hom(M(G), Z/m), with M(G) the Schur
multiplier.  G^ab is read from the multiplication table.  The multipliers
are the known ones: M(C_n) = M(Q8) = M(S3) = 0, M(S4) = Z/2, M(D_n) = Z/2
for n even and 0 for n odd, and M(A x B) = M(A) + M(B) + A^ab (x) B^ab
(Karpilovsky, *The Schur Multiplier*, 1987).
"""

from __future__ import annotations

from collections import Counter
from math import gcd, prod

from twistlgp.groups import direct_product, named_group, subgroup_generated
from twistlgp.oracle import invariant_factors_from_orders

# the Schur multipliers of the named groups, as cyclic orders
_MULTIPLIERS = {"Q8": (), "S3": (), "S4": (2,)}


def _primes(n: int) -> dict[int, int]:
    # not albert.factorize: albert imports cohomology, which this helper
    # checks and so must not load
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


def invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """Z/c_1 + ... + Z/c_k as invariant factors, smallest first, units
    dropped: the prime powers of each prime, largest first, are multiplied
    place by place."""
    powers: dict[int, list[int]] = {}
    for c in cyclic_orders:
        for p, k in _primes(c).items():
            powers.setdefault(p, []).append(p**k)
    for parts in powers.values():
        parts.sort(reverse=True)
    width = max((len(parts) for parts in powers.values()), default=0)
    descending = [
        prod(parts[j] for parts in powers.values() if j < len(parts)) for j in range(width)
    ]
    return tuple(reversed(descending))


def abelianization(group) -> tuple[int, ...]:
    """Invariant factors of G / [G, G], from the orders of the cosets of the
    commutator subgroup: each coset holds |[G, G]| elements of one order."""
    commutators = {
        group.mul(group.mul(group.inv(a), group.inv(b)), group.mul(a, b))
        for a in group.elements()
        for b in group.elements()
    }
    derived = set(subgroup_generated(group, sorted(commutators)).elements)
    orders = Counter()
    for g in group.elements():
        k, acc = 1, g
        while acc not in derived:
            acc = group.mul(acc, g)
            k += 1
        orders[k] += 1
    return invariant_factors_from_orders(
        Counter({k: count // len(derived) for k, count in orders.items()})
    )


def _multiplier(name: str) -> tuple[int, ...]:
    if name in _MULTIPLIERS:
        return _MULTIPLIERS[name]
    if name.startswith("D"):
        return (2,) if int(name[1:]) % 2 == 0 else ()
    if name.startswith("C"):
        return ()
    raise ValueError(f"no known Schur multiplier for {name}")


def h2_trivial(factors, m: int):
    """The group named_group(f_1) x ... x named_group(f_k) and the invariant
    factors of its H^2 with coefficients Z/m, trivial action."""
    groups = [named_group(name) for name in factors]
    ab = [abelianization(g) for g in groups]
    multiplier = [d for name in factors for d in _multiplier(name)]
    multiplier += [
        gcd(a, b)
        for i in range(len(groups))
        for j in range(i + 1, len(groups))
        for a in ab[i]
        for b in ab[j]
    ]
    group = direct_product(*groups) if len(groups) > 1 else groups[0]
    ext = [gcd(a, m) for a in abelianization(group)]
    hom = [gcd(d, m) for d in multiplier]
    return group, invariant_factors(ext + hom)
