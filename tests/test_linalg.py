import random

import numpy as np
import pytest

from twistlgp.linalg import (
    NotInLattice,
    column_lattice_basis,
    congruence_kernel,
    identity_matrix,
    int_matrix,
    lattice_quotient,
    smith_normal_form,
    solve_columns,
    xgcd,
)


def is_identity(mat):
    n = mat.shape[0]
    return mat.shape == (n, n) and (mat == identity_matrix(n)).all()


def check_snf(mat):
    snf = smith_normal_form(mat)
    assert (snf.u @ mat @ snf.v == snf.s).all()
    assert is_identity(snf.u @ snf.u_inv)
    assert is_identity(snf.u_inv @ snf.u)
    assert is_identity(snf.v @ snf.v_inv)
    assert is_identity(snf.v_inv @ snf.v)
    m, n = mat.shape
    for i in range(m):
        for j in range(n):
            if i != j:
                assert snf.s[i, j] == 0
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return snf


def test_xgcd():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, x, y = xgcd(a, b)
            assert g >= 0
            assert a * x + b * y == g
            if a or b:
                assert a % g == 0 and b % g == 0


def test_snf_known():
    snf = check_snf(int_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert snf.diagonal == (2, 2, 156)


def test_snf_random():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = int_matrix(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        )
        check_snf(mat)


def test_snf_zero_and_rectangular():
    assert check_snf(int_matrix([[0, 0], [0, 0]])).diagonal == (0, 0)
    assert check_snf(int_matrix([[3, 0, 0]])).diagonal == (3,)
    assert check_snf(int_matrix([[4], [6]])).diagonal == (2,)


def test_solve_columns():
    mat = int_matrix([[2, 0], [0, 3]])
    snf = smith_normal_form(mat)
    rhs = int_matrix([[4], [9]])
    sol = solve_columns(snf, rhs)
    assert (mat @ sol == rhs).all()
    assert solve_columns(snf, int_matrix([[1], [0]])) is None


def test_column_lattice_basis():
    mat = int_matrix([[2, 0, 4], [0, 3, 3]])
    basis = column_lattice_basis(mat)
    snf = smith_normal_form(basis)
    # 2Z x 3Z contains (4, 3)? no; lattice is spanned by (2,0),(0,3),(4,3):
    # (4,3) = 2*(2,0) + (0,3), so lattice = 2Z x 3Z with index 6 in Z^2.
    assert abs(np.prod(snf.diagonal)) == 6


def test_congruence_kernel_simple():
    # x + y == 0 (mod 4) in Z^2
    basis = congruence_kernel(2, 4, iter([([1, 1], 4)]))
    snf = smith_normal_form(basis)
    assert abs(np.prod(snf.diagonal)) == 4  # index-4 sublattice
    for k in range(basis.shape[1]):
        assert (basis[0, k] + basis[1, k]) % 4 == 0


def test_congruence_kernel_mixed_moduli():
    # x == 0 (mod 2) and x + y == 0 (mod 6)
    rows = iter([([1, 0], 2), ([1, 1], 6)])
    basis = congruence_kernel(2, 6, rows)
    for k in range(basis.shape[1]):
        x, y = basis[0, k], basis[1, k]
        assert x % 2 == 0 and (x + y) % 6 == 0
    snf = smith_normal_form(basis)
    assert abs(np.prod(snf.diagonal)) == 12


def test_congruence_kernel_brute_force():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 3)
        e = rng.choice([2, 3, 4, 6, 9])
        moduli = [rng.choice([d for d in (1, 2, 3, 4, 6, 9) if e % d == 0]) for _ in range(rng.randint(0, 4))]
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in moduli]
        basis = congruence_kernel(n, e, iter(zip(rows, moduli)))
        # every basis column satisfies the congruences
        for k in range(basis.shape[1]):
            for row, m in zip(rows, moduli):
                assert sum(r * basis[i, k] for i, r in enumerate(row)) % m == 0
        # brute-force the solution count inside [0, e)^n and compare indices
        count = 0
        import itertools

        for point in itertools.product(range(e), repeat=n):
            if all(
                sum(r * x for r, x in zip(row, point)) % m == 0
                for row, m in zip(rows, moduli)
            ):
                count += 1
        snf = smith_normal_form(basis)
        index = abs(np.prod(snf.diagonal)) if basis.shape[1] == n else 0
        assert index != 0
        assert e**n // index == count


def test_lattice_quotient_structure():
    # Z^2 / <(2,0), (0,3)> == C2 x C3 == C6
    q = lattice_quotient(identity_matrix(2), int_matrix([[2, 0], [0, 3]]))
    assert q.factors == (6,)
    assert q.order == 6
    gen = q.generator(0)
    assert q.coordinates(gen) == (1,)
    assert q.coordinates(int_matrix([[2], [0]])[:, 0]) == (0,)


def test_lattice_quotient_infinite_raises():
    with pytest.raises(ValueError):
        lattice_quotient(identity_matrix(2), int_matrix([[2], [0]]))


def test_lattice_quotient_membership_raises():
    basis = int_matrix([[2, 0], [0, 1]])
    q = lattice_quotient(basis, int_matrix([[4, 0], [0, 5]]))
    assert q.factors == (10,)  # (2Z/4Z) + (Z/5Z) is cyclic of order 10
    with pytest.raises(NotInLattice):
        q.coordinates(int_matrix([[1], [0]])[:, 0])
