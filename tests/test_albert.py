import ast
import importlib
from math import gcd
from pathlib import Path

import pytest

import twistlgp
from twistlgp import albert
from twistlgp.albert import (
    AlbertProfile,
    InconsistentProfile,
    admissible_m,
    coprimality_certificate,
    factorize,
    fermat_squarefree_check,
    is_fermat_prime,
    is_prime,
    is_squarefree,
    totient,
    totient_divides,
)
from twistlgp.cohomology import TooLarge


def test_totient():
    known = {1: 1, 2: 1, 3: 2, 9: 6, 15: 8, 21: 12, 255: 128}
    for n, phi in known.items():
        assert totient(n) == phi
    # the m > 2n^2 shortcut never changes the answer
    for m in range(1, 400):
        for n in range(1, 16):
            assert totient_divides(m, n) == (n % totient(m) == 0), (m, n)


def trial_division(n):
    """The reference factorization: divide by every p with p^2 <= n."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division_and_never_lies():
    for n in range(1, 10**5):
        expected = trial_division(n)
        assert factorize(n) == expected, n
        phi = n
        for p in expected:
            phi = phi // p * (p - 1)
        assert totient(n) == phi, n
    # cofactors past the trial-division bound are proven prime
    assert factorize(2**61 - 1) == {2**61 - 1: 1}
    assert factorize(2 * (10**18 + 3) + 1) == {3: 2, 31541: 1, 7045503383603: 1}
    assert factorize(1000003 * 2**40) == {2: 40, 1000003: 1}
    # or rejected: two primes above the bound; a strong pseudoprime to the
    # first 12 prime bases that base 41 exposes; and the least strong
    # pseudoprime to all 13 bases, where the proven range ends
    for n in (1000003 * 1000033, 399165290221 * 798330580441, 1287836182261 * 2575672364521):
        with pytest.raises(TooLarge):
            factorize(n)


def test_factorize_says_why_it_gives_up():
    # a cofactor proven composite is reported as composite, not as unproven;
    # past the Miller-Rabin range the primality test's own refusal stands
    assert 1000003 * 1000033 == 1000036000099
    with pytest.raises(TooLarge, match="the cofactor 1000036000099 is composite with no prime"):
        factorize(1000036000099)
    with pytest.raises(TooLarge, match="cannot prove or refute"):
        factorize(1287836182261 * 2575672364521)


def test_factorize_trial_divides_once(monkeypatch):
    # the cofactor left by trial division goes straight to Miller-Rabin;
    # is_prime would trial-divide it a second time
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(albert, "is_prime", refuse)
    p = 10**12 + 39
    assert factorize(p) == {p: 1}
    assert factorize(3 * p) == {3: 1, p: 1}
    with pytest.raises(TooLarge, match="the cofactor 1000036000099 is composite with no prime"):
        factorize(1000003 * 1000033)
    semiprime = 1000000000039 * 10000000000037
    with pytest.raises(TooLarge) as info:
        factorize(semiprime)
    assert str(info.value) == f"cannot prove or refute that {semiprime} is prime"


def test_is_prime_matches_trial_division_and_never_lies():
    for n in range(-3, 10**5):
        assert is_prime(n) == (n > 1 and trial_division(n) == {n: 1}), n
    # past the trial-division bound: proven prime, or proven composite where
    # factorize gives up (two primes above the bound; a strong pseudoprime to
    # the first 12 prime bases that base 41 exposes)
    assert is_prime(2**61 - 1) and is_prime(7045503383603)
    assert not is_prime(1000003 * 1000033)
    assert not is_prime(399165290221 * 798330580441)
    # where the proven range ends, only a small factor still answers
    with pytest.raises(TooLarge):
        is_prime(1287836182261 * 2575672364521)
    assert not is_prime(3 * 1287836182261 * 2575672364521)
    assert [p for p in range(1, 300) if is_fermat_prime(p)] == [3, 5, 17, 257]
    assert is_fermat_prime(65537) and not is_fermat_prime(2**32 + 1)


def test_admissible_m_with_a_composite_past_the_bound():
    # d + 1 = 1000036000099 = 1000003 * 1000033 for a divisor d of 2g: the
    # primality test proves it composite where factorize gives up
    assert admissible_m(500018000049) == [
        3, 7, 9, 19, 27, 81, 163, 243, 487, 729, 111115111123, 333345333367
    ]


def test_admissible_m_published_tables():
    assert admissible_m(3) == [3, 7, 9]
    assert admissible_m(5) == [3, 11]
    assert admissible_m(6) == [3, 5, 7, 9, 13, 21]
    assert admissible_m(7) == [3]


def test_admissible_m_scan_bound_is_complete():
    # rescanning four times further finds nothing new
    for g in range(1, 11):
        short = set(admissible_m(g))
        wide = {
            m
            for m in range(3, 8 * g * g + 2, 2)
            if (2 * g) % totient(m) == 0
        }
        assert short == wide



def test_admissible_m_matches_the_scan():
    # the reference: every odd m up to 2g^2 + 1, complete by the bound above
    def scan(g):
        return [m for m in range(3, 2 * g * g + 2, 2) if (2 * g) % totient(m) == 0]

    for g in range(1, 61):
        assert admissible_m(g) == scan(g), g

def test_admissible_m_divisibility():
    for g in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        for m in admissible_m(g):
            assert m % 2 == 1 and m >= 3
            assert (2 * g) % totient(m) == 0


def test_fermat_squarefree_check():
    assert fermat_squarefree_check(3)
    assert fermat_squarefree_check(5)
    assert fermat_squarefree_check(15)  # 3 * 5
    assert fermat_squarefree_check(17)
    assert fermat_squarefree_check(255)  # 3 * 5 * 17
    assert not fermat_squarefree_check(9)  # not squarefree
    assert not fermat_squarefree_check(7)  # 7 - 1 = 6 is not a power of two
    assert not fermat_squarefree_check(21)
    with pytest.raises(ValueError):
        fermat_squarefree_check(4)


def test_power_of_two_dimensions_give_fermat_products():
    for a in range(0, 5):
        g = 2**a
        for m in admissible_m(g):
            assert fermat_squarefree_check(m)


def test_profile_validation():
    AlbertProfile(g=6, m=3, center_degree=2, d=6)
    with pytest.raises(InconsistentProfile):
        AlbertProfile(g=6, m=3, center_degree=5)  # 5 does not divide 12
    with pytest.raises(InconsistentProfile):
        AlbertProfile(g=6, m=9, center_degree=2)  # [Z:Q] < phi(9)
    with pytest.raises(InconsistentProfile):
        AlbertProfile(g=3, m=5, center_degree=6)  # phi(5) = 4 does not divide 6
    with pytest.raises(InconsistentProfile):
        AlbertProfile(g=6, m=3, center_degree=4, d=6)  # 4 * 6 != 12
    with pytest.raises(InconsistentProfile):
        AlbertProfile(g=6, m=3, d=5)  # 5 does not divide 12
    with pytest.raises(InconsistentProfile):
        AlbertProfile(g=6, m=3, delta=2, e0=1)  # 4 does not divide 6
    AlbertProfile(g=4, m=3, delta=2, e0=1)


def test_certificate_rules():
    # (a) d given
    cert = coprimality_certificate(AlbertProfile(g=6, m=5, d=4))
    assert cert.rule == "given-d"
    assert coprimality_certificate(AlbertProfile(g=6, m=3, d=6)) is None
    # (b) center degree given
    cert = coprimality_certificate(AlbertProfile(g=6, m=3, center_degree=12))
    assert cert.rule == "center-degree" and cert.d_or_bound == 1
    assert coprimality_certificate(AlbertProfile(g=6, m=3, center_degree=2)) is None
    # (c) divisor bound
    cert = coprimality_certificate(AlbertProfile(g=5, m=11))
    assert cert.rule == "divisor-bound" and cert.d_or_bound == 1
    cert = coprimality_certificate(AlbertProfile(g=7, m=3))
    assert cert.rule == "divisor-bound" and cert.d_or_bound == 7
    assert coprimality_certificate(AlbertProfile(g=6, m=3)) is None
    assert coprimality_certificate(AlbertProfile(g=3, m=3)) is None


def test_certificate_never_lies():
    # a fully specified profile with gcd(m, d) > 1 never gets a certificate
    for g in range(1, 9):
        for m in admissible_m(g):
            for d in range(1, 2 * g + 1):
                if (2 * g) % d != 0:
                    continue
                try:
                    profile = AlbertProfile(g=g, m=m, d=d)
                except InconsistentProfile:
                    continue
                cert = coprimality_certificate(profile)
                if gcd(m, d) > 1:
                    assert cert is None
                else:
                    assert cert is not None and cert.rule == "given-d"


def test_certificate_inadmissible_pair_raises():
    with pytest.raises(InconsistentProfile):
        coprimality_certificate(AlbertProfile(g=1, m=5))  # phi(5) = 4 > 2


def test_power_of_two_always_certified():
    for a in range(0, 4):
        g = 2**a
        for m in admissible_m(g):
            cert = coprimality_certificate(AlbertProfile(g=g, m=m))
            assert cert is not None


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(6) and is_squarefree(30)
    assert not is_squarefree(4) and not is_squarefree(12)


def test_albert_imports_no_engine_module():
    # albert defines TooLarge and imports nothing of twistlgp, so cohomology
    # can import factorize at the top; the re-exports are one class
    tree = ast.parse(Path(albert.__file__).read_text())
    imported = {
        "." * node.level + (node.module or "")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    } | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
         for alias in node.names}
    assert not {name for name in imported if name.startswith((".", "twistlgp"))}
    # the package re-exports the function cohomology under the module's name
    cohomology = importlib.import_module("twistlgp.cohomology")
    assert cohomology.TooLarge is albert.TooLarge is twistlgp.TooLarge is TooLarge
