"""Arithmetic constraints on twist orders from the classification of
endomorphism algebras of simple abelian varieties.

For a geometrically simple abelian variety of dimension g whose endomorphism
algebra contains the m-th roots of unity, phi(m) divides the degree of the
algebra over Q, which divides 2g.  That bounds the possible odd twist orders
m, and the integer d = 2g / [Z : Q] (Z the center) controls a coprimality
criterion: gcd(m, d) = 1 certifies the local-global principle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd


class TooLarge(ValueError):
    """An input past what the engine can factorize, prove prime or eliminate."""


# is_prime and factorize trial-divide up to this bound and test what is left
# with Miller-Rabin; a cofactor factorize cannot prove prime is TooLarge.
TRIAL_DIVISION_BOUND = 10**6

# Miller-Rabin with the first 13 primes as bases is correct for every n below
# this limit (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


class InconsistentProfile(ValueError):
    pass


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 41; ``TooLarge`` for
    n >= MILLER_RABIN_LIMIT."""
    if n >= MILLER_RABIN_LIMIT:
        raise TooLarge(f"cannot prove or refute that {n} is prime")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Trial division below TRIAL_DIVISION_BOUND and sqrt(n), then
    Miller-Rabin; ``TooLarge`` only for n >= MILLER_RABIN_LIMIT."""
    for p in itertools.chain((2,), range(3, TRIAL_DIVISION_BOUND, 2)):
        if p * p > n:
            return n > 1
        if n % p == 0:
            return False
    return _is_prime(n)


def factorize(n: int) -> dict[int, int]:
    """The prime factorization of n >= 1, or ``TooLarge`` when the cofactor
    left after trial division is proven composite (it has no prime factor
    below the bound) or lies past the range Miller-Rabin can decide."""
    out: dict[int, int] = {}
    whole = n
    for p in itertools.chain((2,), range(3, TRIAL_DIVISION_BOUND, 2)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    else:
        # no prime below the bound divides n, so Miller-Rabin alone must
        # prove it prime; is_prime would repeat the trial division first
        if not _is_prime(n):
            raise TooLarge(
                f"cannot factorize {whole}: the cofactor {n} is composite with no"
                f" prime factor below {TRIAL_DIVISION_BOUND}"
            )
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def totient_divides(m: int, n: int) -> bool:
    """Whether phi(m) divides n > 0.  phi(m) >= sqrt(m / 2), so m > 2n^2
    answers False without factorizing m."""
    return m <= 2 * n * n and n % totient(m) == 0


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def admissible_m(g: int) -> list[int]:
    """All odd m >= 3 with phi(m) | 2g, in increasing order.

    phi is multiplicative, so such an m is a product of powers p^k of
    distinct odd primes whose phi(p^k) = p^(k-1) (p - 1) multiply to a
    divisor of 2g; in particular p - 1 divides 2g.  Each prime power is
    extended only while the product still divides 2g.
    """
    if g < 1:
        raise ValueError("dimension must be positive")
    two_g = 2 * g
    divisors = [1]
    for p, e in factorize(two_g).items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    primes = sorted(d + 1 for d in divisors if d % 2 == 0 and is_prime(d + 1))
    found = []

    def extend(start: int, m: int, phi: int) -> None:
        for i in range(start, len(primes)):
            q, phi_q = primes[i], phi * (primes[i] - 1)
            while two_g % phi_q == 0:
                found.append(m * q)
                extend(i + 1, m * q, phi_q)
                q, phi_q = q * primes[i], phi_q * primes[i]

    extend(0, 1, 1)
    return sorted(found)


def is_fermat_prime(p: int) -> bool:
    if p < 3 or not is_prime(p):
        return False
    k = p - 1
    while k % 2 == 0:
        k //= 2
    return k == 1


def fermat_squarefree_check(m: int) -> bool:
    """True iff m is squarefree and every prime factor is a Fermat prime.

    For g a power of two this characterizes which odd twist orders can
    occur at all.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("m must be odd and at least 3")
    factors = factorize(m)
    return all(e == 1 for e in factors.values()) and all(
        is_fermat_prime(p) for p in factors
    )


@dataclass(frozen=True)
class AlbertProfile:
    """What is known about the endomorphism algebra of one instance.

    g is the dimension, m the twist order; center_degree is [Z : Q] for the
    center Z, d = 2g / [Z : Q]; delta^2 is the dimension of the algebra over
    its center and e0 the degree of the maximal totally real subfield of Z.
    Optional data is validated but never inferred.
    """

    g: int
    m: int
    center_degree: int | None = None
    d: int | None = None
    delta: int | None = None
    e0: int | None = None

    def __post_init__(self):
        if self.g < 1:
            raise InconsistentProfile("dimension must be positive")
        if self.m < 1:
            raise InconsistentProfile("twist order must be positive")
        two_g = 2 * self.g
        if self.center_degree is not None:
            if self.center_degree < 1 or two_g % self.center_degree != 0:
                raise InconsistentProfile("[Z:Q] must divide 2g")
            if not totient_divides(self.m, self.center_degree):
                raise InconsistentProfile(
                    "phi(m) does not divide [Z:Q] although mu_m lies in the center"
                )
        if self.d is not None:
            if self.d < 1 or two_g % self.d != 0:
                raise InconsistentProfile("d must divide 2g")
            if self.center_degree is not None and self.d * self.center_degree != two_g:
                raise InconsistentProfile("d * [Z:Q] must equal 2g")
        if any(v is not None and v < 1 for v in (self.delta, self.e0)):
            raise InconsistentProfile("delta and e0 must be positive")
        if self.delta is not None and self.e0 is not None:
            if self.g % (self.e0 * self.delta**2) != 0:
                raise InconsistentProfile("e0 * delta^2 must divide g")


@dataclass(frozen=True)
class CoprimalityCertificate:
    rule: str
    d_or_bound: int
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "value": self.d_or_bound, "detail": self.detail}


def coprimality_certificate(profile: AlbertProfile) -> CoprimalityCertificate | None:
    """A proof that gcd(m, d) = 1 from the available data, or None.

    Rules, in priority order:
      (a) d is given and gcd(m, d) = 1;
      (b) [Z:Q] is given, so d = 2g/[Z:Q] is determined;
      (c) phi(m) | [Z:Q] | 2g forces d | 2g/phi(m), so it is enough that
          gcd(m, 2g/phi(m)) = 1.
    """
    m, g = profile.m, profile.g
    two_g = 2 * g
    if profile.d is not None:
        if gcd(m, profile.d) == 1:
            return CoprimalityCertificate(
                "given-d", profile.d, f"d = {profile.d} is given and gcd({m}, {profile.d}) = 1"
            )
        return None
    if profile.center_degree is not None:
        d = two_g // profile.center_degree
        if gcd(m, d) == 1:
            return CoprimalityCertificate(
                "center-degree",
                d,
                f"d = 2g/[Z:Q] = {d} and gcd({m}, {d}) = 1",
            )
        return None
    if not totient_divides(m, two_g):
        raise InconsistentProfile(
            f"phi({m}) does not divide 2g = {two_g}, "
            "impossible when mu_m lies in the endomorphism algebra"
        )
    bound = two_g // totient(m)
    if gcd(m, bound) == 1:
        return CoprimalityCertificate(
            "divisor-bound",
            bound,
            f"d divides 2g/phi(m) = {bound} and gcd({m}, {bound}) = 1",
        )
    return None
