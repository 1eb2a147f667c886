import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import gcd, isqrt, lcm, prod
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from test_cohomology import generator_rows
from twistlgp import linalg
from twistlgp.cohomology import _cayley_h2, _cohomology_cached, _differential_rows
from twistlgp.gmodules import all_characters, mu_module, trivial_module
from twistlgp.groups import cyclic, direct_product, quaternion, symmetric
from twistlgp.linalg import (
    NotInLattice,
    congruence_kernel,
    identity_matrix,
    int_matrix,
    kernel_subgroup,
    lattice_quotient,
    smith_normal_form,
    solve_columns,
    subquotient,
    xgcd,
    zero_matrix,
)
from twistlgp.oracle import invariant_factors_from_orders


def is_identity(mat):
    n = mat.shape[0]
    return mat.shape == (n, n) and (mat == identity_matrix(n)).all()


def check_snf(mat):
    # V is not kept; the eager reference takes the same steps, so its V
    # completes U @ A @ V == S
    snf, want = smith_normal_form(mat), reference_snf(mat)
    assert (snf.s == want.s).all() and (snf.u == want.u).all() and (snf.u_inv == want.u_inv).all()
    assert (snf.u @ mat @ want.v == snf.s).all()
    assert is_identity(snf.u @ snf.u_inv)
    assert is_identity(snf.u_inv @ snf.u)
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


def lattice_basis(lattice):
    """The basis of the lattice, its coordinates the identity."""
    return lattice.lift(identity_matrix(lattice.reduced.shape[0]))


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


def test_snf_past_small_inputs(monkeypatch):
    # sparse 40 x 50 and 50 x 40 matrices with entries in [-3, 3] and zero
    # rows and columns, where a column operation at t meets live rows below
    # t and rows above t that it must leave alone, and the Smith input of
    # the bar presentation of H^2(C2^3, Z/4), 64 x 72
    rng = random.Random(44)
    for m, n in [(40, 50), (50, 40), (40, 50), (50, 40)]:
        mat = int_matrix(
            [[rng.randint(-3, 3) if rng.random() < 0.15 else 0 for _ in range(n)] for _ in range(m)]
        )
        mat[rng.sample(range(m), 3)] = 0
        mat[:, rng.sample(range(n), 3)] = 0
        assert check_snf(mat).diagonal.count(0) >= 3  # the zero rows or columns
    built, smith = [], linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form", lambda mat: built.append(mat) or smith(mat))
    c2_3 = direct_product(cyclic(2), cyclic(2), cyclic(2))
    assert _cohomology_cached.__wrapped__(c2_3, trivial_module(c2_3, [4]), 2).representatives
    assert [mat.shape for mat in built] == [(64, 72)]
    assert check_snf(built[0]).diagonal.count(2) == 6


def test_solve_columns():
    # 2Z x 3Z
    lattice = congruence_kernel(2, 6, iter([([1, 0], 2), ([0, 1], 3)]))
    rhs = int_matrix([[4], [9]])
    sol = solve_columns(lattice, rhs)
    assert (lattice.lift(sol) == rhs).all()
    assert solve_columns(lattice, int_matrix([[1], [0]])) is None


def test_congruence_kernel_simple():
    # x + y == 0 (mod 4) in Z^2
    basis = lattice_basis(congruence_kernel(2, 4, iter([([1, 1], 4)])))
    snf = smith_normal_form(basis)
    assert abs(np.prod(snf.diagonal)) == 4  # index-4 sublattice
    for k in range(basis.shape[1]):
        assert (basis[0, k] + basis[1, k]) % 4 == 0


def test_congruence_kernel_mixed_moduli():
    # x == 0 (mod 2) and x + y == 0 (mod 6)
    rows = iter([([1, 0], 2), ([1, 1], 6)])
    basis = lattice_basis(congruence_kernel(2, 6, rows))
    for k in range(basis.shape[1]):
        x, y = basis[0, k], basis[1, k]
        assert x % 2 == 0 and (x + y) % 6 == 0
    snf = smith_normal_form(basis)
    assert abs(np.prod(snf.diagonal)) == 12


def test_kernel_on_the_trivial_group():
    # Z^0 with a nontrivial exponent: the congruences are vacuous
    assert lattice_basis(congruence_kernel(0, 6, iter([([], 3)]))).shape == (0, 0)
    assert kernel_subgroup((), [([[]], (3,))]).factors == ()


def test_congruence_kernel_brute_force():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 3)
        e = rng.choice([2, 3, 4, 6, 9])
        moduli = [rng.choice([d for d in (1, 2, 3, 4, 6, 9) if e % d == 0]) for _ in range(rng.randint(0, 4))]
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in moduli]
        basis = lattice_basis(congruence_kernel(n, e, iter(zip(rows, moduli))))
        # every basis column satisfies the congruences
        for k in range(basis.shape[1]):
            for row, m in zip(rows, moduli):
                assert sum(r * basis[i, k] for i, r in enumerate(row)) % m == 0
        # brute-force the solution count inside [0, e)^n and compare indices
        count = 0
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


def test_congruence_kernel_rejects_a_modulus_not_dividing_the_exponent():
    # x == 0 (mod 3) cannot be scaled to modulus 4; it used to become x == 0 (mod 4)
    with pytest.raises(ValueError):
        congruence_kernel(1, 4, iter([([1], 3)]))
    with pytest.raises(ValueError):
        congruence_kernel(2, 1, iter([([1, 0], 2)]))
    with pytest.raises(ValueError):
        congruence_kernel(2, 6, iter([([1, 1], 0)]))


def test_congruence_kernel_rejects_a_row_of_the_wrong_length():
    # numpy would broadcast a one-entry row or a scalar across all n
    # columns: [[1]] on (Z/4)^3 used to read as x + y + z, a kernel of order 16
    with pytest.raises(ValueError, match="of 3 entries, got 1"):
        kernel_subgroup((4, 4, 4), [([[1]], (4,))])
    with pytest.raises(ValueError, match="of 3 entries, got a scalar"):
        congruence_kernel(3, 4, iter([(1, 4)]))
    with pytest.raises(ValueError, match="of 2 entries, got 3"):
        congruence_kernel(2, 4, iter([([1, 0], 4), ([1, 2, 3], 4)]))
    assert kernel_subgroup((4, 4, 4), [([[1, 1, 1]], (4,))]).order == 16


def reference_snf(mat):
    """The eager Smith normal form: all four transforms updated with every
    elementary operation, and a nested-loop scan for the first row with an
    entry the pivot does not divide."""
    s = np.array(mat, dtype=object, copy=True)
    m, n = s.shape
    u, u_inv = identity_matrix(m), identity_matrix(m)
    v, v_inv = identity_matrix(n), identity_matrix(n)

    def row_add(i, j, q):
        s[i] += q * s[j]
        u[i] += q * u[j]
        u_inv[:, j] -= q * u_inv[:, i]

    def row_swap(i, j):
        s[[i, j]] = s[[j, i]]
        u[[i, j]] = u[[j, i]]
        u_inv[:, [i, j]] = u_inv[:, [j, i]]

    def col_add(i, j, q):
        s[:, i] += q * s[:, j]
        v[:, i] += q * v[:, j]
        v_inv[j] -= q * v_inv[i]

    def col_swap(i, j):
        s[:, [i, j]] = s[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]
        v_inv[[i, j]] = v_inv[[j, i]]

    def min_entry(t):
        sub = np.abs(s[t:, t:])
        nonzero = sub != 0
        if not nonzero.any():
            return None
        sentinel = sub.max() + 1
        masked = np.where(nonzero, sub, sentinel)
        i, j = divmod(int(np.argmin(masked)), masked.shape[1])
        return t + i, t + j

    for t in range(min(m, n)):
        while True:
            pos = min_entry(t)
            if pos is None:
                break
            if pos != (t, t):
                row_swap(t, pos[0])
                col_swap(t, pos[1])
            pivot = s[t, t]
            dirty = False
            for i in range(t + 1, m):
                if s[i, t] != 0:
                    row_add(i, t, -(s[i, t] // pivot))
                    if s[i, t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if s[t, j] != 0:
                    col_add(j, t, -(s[t, j] // pivot))
                    if s[t, j] != 0:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i, j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if s[t, t] < 0:
            s[t] = -s[t]
            u[t] = -u[t]
            u_inv[:, t] = -u_inv[:, t]
    diagonal = tuple(int(s[i, i]) for i in range(min(m, n)))
    return SimpleNamespace(s=s, u=u, v=v, u_inv=u_inv, v_inv=v_inv, diagonal=diagonal)


def reference_congruence_kernel(n, e, constraints):
    """The row-by-row full-row fold: every elimination rebuilds the whole
    pivot row and the whole constraint vector through xgcd.  Returns the
    triangular basis ``reduced`` with the lattice read from its Smith form:
    a basis, the unimodular ``forward`` taking it to diag(scales), and the
    scales."""
    pivots = {}
    for row, modulus in constraints:
        vec = [((e // modulus) * x) % e for x in row]
        for j in range(n):
            vj = vec[j]
            if vj == 0:
                continue
            base = pivots.get(j)
            a = base[j] if base is not None else e
            g, x, y = xgcd(a, vj)
            if base is not None:
                new_pivot = [(x * bi + y * vi) % e for bi, vi in zip(base, vec)]
                vec = [((a // g) * vi - (vj // g) * bi) % e for bi, vi in zip(base, vec)]
            else:
                new_pivot = [(y * vi) % e for vi in vec]
                new_pivot[j] = g
                vec = [((a // g) * vi) % e for vi in vec]
            pivots[j] = new_pivot
    rows = []
    for j in range(n):
        base = pivots.get(j)
        if base is None:
            base = [0] * n
            base[j] = e
        rows.append(base)
    reduced = int_matrix(rows) if n else zero_matrix(0, 0)
    if e == 1 or n == 0:
        return SimpleNamespace(reduced=reduced, basis=identity_matrix(n), forward=identity_matrix(n), scales=(1,) * n)
    snf = reference_snf(reduced)
    scales = tuple(e // gcd(int(d), e) for d in snf.diagonal)
    return SimpleNamespace(reduced=reduced, basis=snf.v * np.array(scales, dtype=object), forward=snf.v_inv, scales=scales)


def test_congruence_kernel_matches_the_reference_fold(monkeypatch):
    built = []

    def recorded(mat):
        built.append(snf := smith_normal_form(mat))
        return snf

    monkeypatch.setattr(linalg, "smith_normal_form", recorded)
    rng = random.Random(17)
    for _ in range(150):
        e = rng.choice([2, 3, 4, 6, 8, 9, 12, 27, 36])
        n = rng.randint(1, 12)
        moduli = [rng.choice([d for d in range(1, e + 1) if e % d == 0]) for _ in range(rng.randint(n + 1, 2 * n + 4))]
        rows = [[rng.randint(-2 * e, 2 * e) for _ in range(n)] for _ in moduli]
        got = congruence_kernel(n, e, iter(zip(rows, moduli)))
        want = reference_congruence_kernel(n, e, iter(zip(rows, moduli)))
        assert got.reduced.shape == want.reduced.shape and (got.reduced == want.reduced).all()
        check_same_lattice(got, want)
        # the lattice keeps its triangular basis and nothing derived from it
        assert set(vars(got)) == {"reduced", "exponent"}
    # its coordinates are read from the triangular basis, with no Smith form
    assert not built


def reference_contains(want, vectors):
    """Membership in the reference lattice: forward @ x over the scales."""
    scales = np.array(want.scales, dtype=object).reshape(-1, 1)
    return not (want.forward @ vectors % scales).any()


def check_same_lattice(got, want):
    """got's basis, read through lift, and the reference's Smith-built
    basis span the same lattice: each holds the other, and the index is the
    product of the scales."""
    basis = lattice_basis(got)
    assert got.contains(want.basis) and reference_contains(want, basis)
    n, e = got.reduced.shape[0], got.exponent
    assert e**n // prod(int(d) for d in np.diagonal(got.reduced)) == prod(want.scales)


def test_blocked_fold_matches_the_reference_fold():
    # more rows than one block, and exponents past 2^31 (object dtype); row
    # i is a sparse multiple of chain[level] for a level rising with i, so
    # the pivots keep changing in every block
    rng = random.Random(23)
    for e in (720, 2**31 * 3, 2**40 + 4):
        chain = [d for d in (e // 2, e // 6, e // 8, e // 48, 2**20, 48, 16, 3, 1) if e % d == 0]
        for _ in range(3):
            n = rng.randint(2, 8)
            count = rng.randint(linalg._BLOCK_ROWS + 1, 3 * linalg._BLOCK_ROWS)
            moduli = [e if rng.random() < 0.8 else rng.choice(chain[:-1]) for _ in range(count)]
            rows = [
                [0 if rng.random() < 0.5 else rng.randint(-3, 3) * chain[i * len(chain) // count] for _ in range(n)]
                for i in range(count)
            ]
            got = congruence_kernel(n, e, iter(zip(rows, moduli)))
            want = reference_congruence_kernel(n, e, iter(zip(rows, moduli)))
            assert (got.reduced.dtype == object) == (e >= 2**31)
            assert (got.reduced == want.reduced).all()
            check_same_lattice(got, want)
    # past one block for n <= 8, which holds _BLOCK_ROWS^2 // n rows
    rng = random.Random(29)
    for e in (720, 2**31 * 3, 2**40 + 4):
        chain = [d for d in (e // 2, e // 6, e // 8, e // 48, 2**20, 48, 16, 3, 1) if e % d == 0]
        n = rng.randint(2, 8)
        size = linalg._BLOCK_ROWS**2 // n
        count = size + rng.randint(1, linalg._BLOCK_ROWS)
        moduli = [e if rng.random() < 0.8 else rng.choice(chain[:-1]) for _ in range(count)]
        rows = [
            [0 if rng.random() < 0.5 else rng.randint(-3, 3) * chain[i * len(chain) // count] for _ in range(n)]
            for i in range(count)
        ]
        got = congruence_kernel(n, e, iter(zip(rows, moduli)))
        want = reference_congruence_kernel(n, e, iter(zip(rows, moduli)))
        assert (got.reduced == want.reduced).all()
        check_same_lattice(got, want)
    # an entry past int64 with a small exponent is reduced before it is stored
    big = congruence_kernel(2, 6, iter([([2**70 + 1, 3], 6)]))
    small = congruence_kernel(2, 6, iter([([(2**70 + 1) % 6, 3], 6)]))
    assert (big.reduced == small.reduced).all()


def test_wide_fold_keeps_its_pivot_rows_in_the_narrow_basis(monkeypatch):
    # the generator rows of H^2(C32, Z/2), n = 1024: the fold's only store
    # of pivot rows is the uint8 ``reduced`` it returns, so beyond it the
    # peak is the block being folded and its temporaries, not n^2 / 2 int64
    # tails (4 MB, two blocks' worth, here)
    group = cyclic(32)
    module = trivial_module(group, [2])
    rows = [
        (list(map(int, row)), int(modulus))
        for row, modulus in generator_rows(group, module, 2)
    ]
    n = group.order**2
    block_bytes = linalg._BLOCK_ROWS * n * np.dtype(np.int64).itemsize
    tracemalloc.start()
    try:
        got = congruence_kernel(n, 2, iter(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.reduced.dtype == np.uint8
    assert peak < got.reduced.nbytes + 2 * block_bytes
    # only the reference's triangular basis is compared: its Smith form of
    # a 1024 x 1024 matrix would take minutes
    no_snf = SimpleNamespace(diagonal=(), v=zero_matrix(n, 0), v_inv=None)
    monkeypatch.setitem(globals(), "reference_snf", lambda mat: no_snf)
    want = reference_congruence_kernel(n, 2, iter(rows))
    assert (got.reduced == want.reduced).all()


def test_tall_narrow_fold_stays_within_a_few_blocks():
    # the 2304 degree-1 rows of S4 x C2 with mu_4 coefficients, n = 48: a
    # block takes _BLOCK_ROWS^2 // 48 rows, so beyond ``reduced`` the peak is
    # that block and the temporaries of one column (1.4 blocks of
    # _BLOCK_ROWS^2 int64 entries), not the whole stream as one block (3.0)
    group = direct_product(symmetric(4), cyclic(2))
    module = mu_module(group, 4, all_characters(group, 4)[-1])
    rows = [(list(map(int, row)), int(modulus)) for row, modulus in _differential_rows(group, module, 1)]
    n = group.order
    assert len(rows) == n * n == 2304
    tracemalloc.start()
    try:
        got = congruence_kernel(n, 4, iter(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.reduced.nbytes + 2 * linalg._BLOCK_ROWS**2 * np.dtype(np.int64).itemsize
    assert (got.reduced == reference_congruence_kernel(n, 4, iter(rows)).reduced).all()


def divisors(e):
    small = [d for d in range(1, isqrt(e) + 1) if e % d == 0]
    return sorted({*small, *(e // d for d in small)})


def reference_fold(start, rows, e, seen):
    """The row-by-row full-row fold of ``rows`` into the upper triangular
    basis ``start`` mod e: each row meets each pivot row through xgcd.
    Counts in ``seen`` what each nonzero entry v met: a pivot value a == e
    whose row is still e times the unit vector ("fresh", split by whether
    gcd(e, v) is 1), v == a < e ("equal"), a dividing v ("divides"), or
    neither ("event")."""
    pivots = [[int(x) for x in row] for row in start]
    for row in rows:
        vec = [int(x) % e for x in row]
        for j, base in enumerate(pivots):
            v, a = vec[j], base[j]
            if v == 0:
                continue
            if a == e:
                assert base == [e * (k == j) for k in range(len(base))]
                seen["fresh, gcd 1" if gcd(e, v) == 1 else "fresh, gcd > 1"] += 1
            else:
                seen["equal" if v == a else "divides" if v % a == 0 else "event"] += 1
            g, x, y = xgcd(a, v)
            pivots[j] = [(x * b + y * w) % e for b, w in zip(base, vec)]
            vec = [((a // g) * w - (v // g) * b) % e for b, w in zip(base, vec)]
    return int_matrix(pivots)


def test_fold_continues_from_the_basis_an_earlier_fold_left():
    # a second block folded into the basis the first left behind, against
    # the full-row fold of both: its rows are pivot rows (v == a), their
    # multiples (a divides v) and random rows, whose entries a may not divide
    rng = random.Random(53)
    seen = Counter()
    for trial in range(240):
        e = (4, 6, 8, 12, 18, 36, 60, 72, 2**31 + 11, 4 * (2**31 + 11))[trial % 10]
        n = rng.randint(1, 9)
        divs = divisors(e) if e < 2**31 else [1, 2, 4, 2**31 + 11, e]
        first = [[rng.choice(divs) * rng.randint(0, 5) % e for _ in range(n)] for _ in range(rng.randint(1, n + 2))]
        lattice = congruence_kernel(n, e, iter((row, e) for row in first))
        pivots = [[int(x) for x in row] for row in lattice.reduced]
        second = []
        for _ in range(rng.randint(1, 3 * n)):
            j = rng.randrange(n)
            if rng.random() < 0.6:
                row = [rng.randint(1, 3) * x for x in pivots[j]]
                row[j + 1:] = [x + rng.choice(divs) * rng.randint(0, 2) for x in row[j + 1:]]
            else:
                row = [0] * j + [rng.choice(divs) * rng.randint(0, 4) for _ in range(n - j)]
            second.append([x % e for x in row])
        reduced = lattice.reduced.copy()
        block = np.array(second, dtype=linalg._dtype(e))
        linalg._fold(reduced, block, e)
        want = reference_fold(lattice.reduced, second, e, seen)
        assert reduced.dtype == lattice.reduced.dtype and (reduced == want).all(), (e, first, second)
        assert not block.any()
    assert len(seen) == 5 and min(seen.values()) > 40, seen


def test_fold_from_the_orders_diagonal_takes_fresh_pivots_in_closed_form():
    # the fold that ``_quotient_order`` starts from diag(orders) mod their
    # lcm E: a column whose order is E starts at a fresh pivot, whose first
    # entry v may share a factor with E (the row becomes (E / g) times
    # itself, not 0), and a column with a smaller order starts there;
    # first entries equal to the pivot or to an order make it change rows
    rng = random.Random(59)
    seen = Counter()
    for trial in range(240):
        top = (12, 36, 60, 72, 2**31 + 11, 6 * (2**31 + 11))[trial % 6]
        divs = divisors(top) if top < 2**31 else [1, 2, 3, 6, 2**31 + 11, top]
        n = rng.randint(1, 8)
        orders = [top if rng.random() < 0.5 else rng.choice(divs[1:]) for _ in range(n)]
        big = lcm(*orders)
        rows = []
        for _ in range(rng.randint(1, 3 * n)):
            j = rng.randrange(n)
            unit = rng.choice([u for u in (1, 7, 11, 13, 17, 19, 23) if gcd(u, big) == 1])
            first = rng.choice([orders[j], rng.choice(divs) * rng.randint(1, 5), unit, rng.randint(1, big - 1)])
            rows.append([0] * j + [first] + [rng.choice(divs) * rng.randint(0, 3) for _ in range(n - j - 1)])
        rows = [[x % big for x in row] for row in rows]
        spanned = linalg._diagonal(orders, big)
        linalg._fold(spanned, np.array(rows, dtype=linalg._dtype(big)), big)
        want = reference_fold(linalg._diagonal(orders, big), rows, big, seen)
        assert (spanned == want).all(), (orders, rows)
    assert seen["fresh, gcd > 1"] > 100 and seen["fresh, gcd 1"] > 100 and seen["equal"] > 50, seen


def test_the_fold_does_not_depend_on_the_block_size(monkeypatch):
    # the fold of blocks of 2, 3, 7 and 10^4 rows (times up to _BLOCK_ROWS / n
    # for a narrow system) against the fold one row at a time, on streams of
    # exactly one block, one block plus one row and random lengths.  Only
    # the last row reaches the last column, so a fold that drops it, in the
    # first block or past it, leaves e on the last diagonal entry or
    # another pivot unchanged
    rng = random.Random(41)
    for trial in range(330):
        e = (2, 3, 4, 6, 8, 12, 30, 36, 60, 2**31 + 11, 2 * (2**31 + 11))[trial % 11]
        divs = divisors(e)
        n = rng.randint(2, 7)
        sizes = [max(b, b * b // n) for b in (2, 3, 7)]
        count = rng.choice([*sizes, *(size + 1 for size in sizes), rng.randint(1, 60)])
        system = [
            ([rng.choice(divs) * rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(n - 1)] + [0],
             rng.choice(divs))
            for _ in range(count)
        ]
        system[-1] = (system[-1][0][:-1] + [1], e)
        folds = {}
        for rows_a_block in (1, 2, 3, 7, 10**4):
            monkeypatch.setattr(linalg, "_BLOCK_ROWS", rows_a_block)
            folds[rows_a_block] = congruence_kernel(n, e, iter(system)).reduced
        want = folds.pop(1)
        for rows_a_block, got in folds.items():
            assert got.dtype == want.dtype and (got == want).all(), (e, n, count, rows_a_block)


def test_subquotient_rejects_generators_outside_the_lattice():
    # L = 2Z: the column 1 is not in L
    with pytest.raises(NotInLattice):
        subquotient((2,), 2, iter([([1], 2)]), int_matrix([[1]]))
    # L = 4Z: the relation 2 is not in L, with no sub at all
    with pytest.raises(NotInLattice):
        subquotient((2,), 4, iter([([1], 4)]), zero_matrix(1, 0))
    # L = 2Z x Z and R = Z x 2Z have the same index, so the count alone
    # would read a trivial quotient
    with pytest.raises(NotInLattice):
        subquotient((1, 2), 2, iter([([1, 0], 2)]), zero_matrix(2, 0))
    # L = {x == y mod 2}: (1, 0) is not in L, (1, 1) is
    congruences = [([1, -1], 2)]
    with pytest.raises(NotInLattice):
        subquotient((2, 2), 2, iter(congruences), int_matrix([[1], [0]]))
    quot = subquotient((2, 2), 2, iter(congruences), int_matrix([[1], [1]]))
    assert quot.factors == ()
    with pytest.raises(NotInLattice):
        quot.coordinates(int_matrix([[1], [0]]))
    assert quot.coordinates(int_matrix([[3, 1], [5, 1]])).shape == (0, 2)
    assert quot.generators().shape == (2, 0)
    # past 2^31 the lattice is kept over Python ints: L = 2^39 Z
    e = 2**40
    with pytest.raises(NotInLattice):
        subquotient((e,), e, iter([([2], e)]), int_matrix([[1]]))
    quot = subquotient((e,), e, iter([([2], e)]), int_matrix([[2**39]]))
    assert quot.factors == () and quot.lattice.reduced.dtype == object
    assert subquotient((e,), e, iter([([2], e)]), int_matrix([[2**41]])).factors == (2,)


def object_contains(lattice, vectors):
    """Membership by one product over Python ints."""
    e = lattice.exponent
    product = np.asarray(lattice.reduced, dtype=object) @ (np.asarray(vectors, dtype=object) % e)
    return not (product % e).any()


def test_contains_matches_the_object_product_across_the_bounds():
    # the product is taken in float64 while n e^2 < 2^53, in int64 while
    # n e^2 < 2^63 and over objects past that: members and non-members of
    # random lattices on each side of both bounds, one vector and a matrix
    rng = random.Random(31)
    n = 4
    for bound in (2**53, 2**63):
        for side in (-3, 3):
            e = isqrt(bound // n) + side
            assert (n * e * e < bound) == (side < 0) and e < 2**31
            for _ in range(10):
                rows = [([rng.randrange(e) for _ in range(n)], e) for _ in range(2)]
                lattice = congruence_kernel(n, e, iter(rows))
                coeffs = int_matrix([[rng.randrange(-e, e) for _ in range(6)] for _ in range(n)])
                members = lattice.lift(coeffs)
                others = members + int_matrix([[rng.randrange(e) for _ in range(6)]
                                               for _ in range(n)])
                assert lattice.contains(members) and object_contains(lattice, members)
                outside = 0
                for j in range(6):
                    want = object_contains(lattice, others[:, j])
                    assert lattice.contains(others[:, j]) == want
                    assert lattice.contains(members[:, j])
                    outside += not want
                assert lattice.contains(others) == (outside == 0)
                assert outside
    # past _BLOCK_ROWS rows: a vector that breaks only the congruence folded
    # into the last row lies outside
    n = 2 * linalg._BLOCK_ROWS + 5
    lattice = congruence_kernel(n, 2, iter([([0] * (n - 1) + [1], 2)]))
    inside = np.zeros((n, 2), dtype=object)
    inside[0] = 1
    assert lattice.contains(inside)
    inside[n - 1, 1] = 1
    assert not lattice.contains(inside) and not object_contains(lattice, inside)


def test_subquotient_counts_and_diagonalizes_on_first_read(monkeypatch):
    # subquotient builds no Smith form; the first read of the factors of a
    # nontrivial quotient builds it through lattice_quotient, once.  A
    # relation outside L is rejected though its order is not a multiple of e
    # only on some coordinates: orders (2, 4) with e = 4
    built = []

    def recorded(lattice, sub, orders):
        built.append(orders)
        return lattice_quotient(lattice, sub, orders)

    monkeypatch.setattr(linalg, "lattice_quotient", recorded)
    quot = subquotient((2, 4), 4, iter([([2, 1], 4)]), zero_matrix(2, 0))
    assert quot.order == 2 and not built
    assert quot.factors == (2,) and built == [(2, 4)]
    assert quot.generators().shape == (2, 1) and len(built) == 1
    with pytest.raises(NotInLattice):
        subquotient((2, 4), 4, iter([([1, 0], 4)]), zero_matrix(2, 0))
    with pytest.raises(NotInLattice):
        subquotient((4, 2), 4, iter([([0, 1], 4)]), zero_matrix(2, 0))
    assert subquotient((4, 2), 4, iter([([1, 0], 4)]), zero_matrix(2, 0)).factors == (2,)


def test_snf_transforms_match_the_eager_reference():
    # U and U^-1 against the eager reference; V is not kept, and the
    # reference's completes U @ A @ V == S
    rng = random.Random(19)
    names = ["u", "u_inv"]
    for _ in range(150):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        mat = np.array(
            [[rng.choice([0, rng.randint(-30, 30)]) for _ in range(n)] for _ in range(m)],
            dtype=object,
        ).reshape(m, n)
        got, want = smith_normal_form(mat), reference_snf(mat)
        assert (got.s == want.s).all() and got.diagonal == want.diagonal
        rng.shuffle(names)
        for name in names + names:  # each read twice, in shuffled order
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and (a == b).all(), name
        assert (got.u @ mat @ want.v == got.s).all()
        assert not hasattr(got, "v") and not hasattr(got, "v_inv")


def test_h2_work_is_bounded(monkeypatch):
    # H^2(C8, Z/9) = 0, as gcd(8, 9) = 1.  The one Cayley-graph quotient at 9
    # is a fold of 1 row over 1 column (C8 has one fundamental cycle),
    # where the bar complex has 64 generator rows (of 576) over 64 columns.
    # xgcd runs only where a column's pivot changes.  The count shows the
    # quotient is trivial, so no Smith form is built; cohomology reads the
    # same H^2 = 0 from restriction-corestriction and feeds no rows at all.
    calls = []
    built = []
    fed = []
    congruence_kernel = linalg.congruence_kernel

    def counted(a, b):
        calls.append((a, b))
        return xgcd(a, b)

    def recorded(mat):
        built.append(snf := smith_normal_form(mat))
        return snf

    def recorded_kernel(n, exponent, constraints):
        items = list(constraints)
        fed.extend(items)
        return congruence_kernel(n, exponent, iter(items))

    monkeypatch.setattr(linalg, "xgcd", counted)
    monkeypatch.setattr(linalg, "smith_normal_form", recorded)
    monkeypatch.setattr(linalg, "congruence_kernel", recorded_kernel)
    c8 = cyclic(8)
    module = trivial_module(c8, [9])
    assert _cayley_h2(c8, module, 9).order == 1
    assert len(fed) == 1 and len(fed[0][0]) == 1
    assert 0 < len(calls) < 3000
    assert not built
    fed.clear()
    h2 = _cohomology_cached.__wrapped__(c8, module, 2)
    assert h2.invariant_factors == () and fed == []
    assert not built
    # H^2(C8, Z/4) = Z/4 is counted on the rungs Z/2 and Z/4, with no Smith
    # form until the representatives are read
    h2 = _cohomology_cached.__wrapped__(c8, trivial_module(c8, [4]), 2)
    assert h2.invariant_factors == (4,) and not built
    # Q8 on Z/8 through a character taking the value 3, which does not lift
    # to Z_2^*, reads the factors of the one Cayley-graph quotient: one
    # Smith form, the quotient's, of (|G| (|X| - 1) + 1) r rows and at most
    # |X| r coboundary columns more, which reads its diagonal only; the
    # kernel's coordinates come from its triangular basis.  Reading the
    # representatives builds the bar complex's one, over r |G|^2 rows,
    # which reads U^-1 and never U, since no coordinates are asked for.
    q8 = quaternion()
    chi = next(chi for chi in all_characters(q8, 8) if 3 in chi.values)
    h2 = _cohomology_cached.__wrapped__(q8, mu_module(q8, 8, chi), 2)
    assert h2.invariant_factors == (4,)
    width = q8.order * (len(q8.generators) - 1) + 1
    assert width == 17
    assert len(built) == 1 and "representatives" not in vars(h2)
    quotient, = built
    assert quotient.s.shape[0] == width
    assert quotient.s.shape[1] <= width + len(q8.generators)
    assert not {"u", "u_inv"} & vars(quotient).keys()
    assert len(h2.representatives) == 1
    assert len(built) == 2
    quotient = built[1]
    assert quotient.s.shape[0] == q8.order**2
    assert "u" not in vars(quotient) and "u_inv" in vars(quotient)


def test_lattice_quotient_structure():
    # Z^2 / <(2,0), (0,3)> == C2 x C3 == C6, with the relations as orders
    q = subquotient((2, 3), 1, iter(()), zero_matrix(2, 0))
    assert q.factors == (6,)
    assert q.order == 6
    gen = q.generators()
    assert gen.shape == (2, 1)
    assert (q.coordinates(gen) == int_matrix([[1]])).all()
    assert (q.coordinates(int_matrix([[2, 1], [0, 0]])) == int_matrix([[0, 3]])).all()
    # a sub column next to the relations: Z^2 / <(1,1), (2,0), (0,3)> is trivial
    assert subquotient((2, 3), 1, iter(()), int_matrix([[1], [1]])).factors == ()


def test_lattice_quotient_membership_raises():
    congruences = [([1, 0], 2)]  # L = 2Z x Z
    q = subquotient((4, 5), 2, iter(congruences), zero_matrix(2, 0))
    assert q.factors == (10,)  # (2Z/4Z) + (Z/5Z) is cyclic of order 10
    with pytest.raises(NotInLattice):
        q.coordinates(int_matrix([[1], [0]]))
    # a relation outside the lattice: 3 is not in 2Z
    with pytest.raises(NotInLattice):
        subquotient((3, 5), 2, iter(congruences), zero_matrix(2, 0))


def check_lattice(lattice, rng):
    """The basis lift(I) is e * reduced^-1: reduced @ basis == e * I, the
    index is e^n / prod(diagonal), read also as the product of the Smith
    diagonal of the basis, and solve_columns and lift are inverse."""
    e, n = lattice.exponent, lattice.reduced.shape[0]
    basis = lattice_basis(lattice)
    assert basis.shape == (n, n)
    assert (np.asarray(lattice.reduced, dtype=object) @ basis == e * identity_matrix(n)).all()
    index = e**n // prod(int(d) for d in np.diagonal(lattice.reduced))
    assert prod(smith_normal_form(basis).diagonal) == index
    assert lattice.contains(basis)
    w = int_matrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(n)]) if n else zero_matrix(0, 3)
    x = lattice.lift(w)
    assert (solve_columns(lattice, x) == w).all()
    assert (lattice.lift(solve_columns(lattice, x)) == x).all()


def test_lattice_invariant_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 3)
        e = rng.choice([1, 2, 4, 6, 9, 12])
        moduli = [rng.choice([d for d in range(1, e + 1) if e % d == 0]) for _ in range(rng.randint(0, 4))]
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in moduli]
        lattice = congruence_kernel(n, e, iter(zip(rows, moduli)))
        check_lattice(lattice, rng)
        # membership through solve_columns is the congruence test itself
        for point in itertools.product(range(-1, e + 1), repeat=n):
            inside = all(
                sum(r * x for r, x in zip(row, point)) % mod == 0
                for row, mod in zip(rows, moduli)
            )
            found = solve_columns(lattice, int_matrix([list(point)]).T)
            assert (found is not None) == inside
            assert lattice.contains(int_matrix([list(point)]).T) == inside
    # wider systems, and exponents past 2^31, where the triangular basis is
    # kept over Python ints
    for e in (2**5 * 3**3, 2**31 + 11, 2**40, 6 * (2**31 + 11)):
        divs = [d for d in (1, 2, 3, 4, 6, 8, 2**20, 2**31 + 11, e // 2, e) if e % d == 0]
        for _ in range(8):
            n = rng.randint(1, 7)
            system = [([rng.randint(-e, e) for _ in range(n)], rng.choice(divs)) for _ in range(rng.randint(1, 2 * n))]
            lattice = congruence_kernel(n, e, iter(system))
            assert (lattice.reduced.dtype == object) == (e >= 2**31)
            check_lattice(lattice, rng)
    # a triangular basis whose row span misses e * Z^n: (4, 0) is not in
    # the span of (2, 1) and (0, 4) at e = 4, and the back substitution
    # leaves a remainder
    lattice = linalg.Lattice(int_matrix([[2, 1], [0, 4]]), 4)
    assert (lattice.lift(int_matrix([[1], [0]])) == int_matrix([[2], [0]])).all()
    with pytest.raises(ArithmeticError):
        lattice.lift(identity_matrix(2))


def generated(gens, orders):
    """All elements of the subgroup of sum Z/orders the gens generate."""
    seen = {tuple(0 for _ in orders)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + int(b)) % d for a, b, d in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def check_subquotient(quot, orders, expected, sub=None):
    """quot is expected / sub for subgroups sub <= expected of sum Z/orders,
    given by their elements; the default sub is the zero subgroup."""
    sub = sub or {tuple(0 for _ in orders)}
    lifts = quot.generators()
    assert lifts.shape == (len(orders), len(quot.factors))
    gens = [tuple(int(x) % d for x, d in zip(g, orders)) for g in lifts.T]
    assert generated(gens + sorted(sub), orders) == expected
    assert quot.order * len(sub) == len(expected)
    for a, b in zip(quot.factors, quot.factors[1:]):
        assert b % a == 0
    points = sorted(expected)
    matrix = quot.coordinates(int_matrix(points).T)
    assert matrix.shape == (len(quot.factors), len(points))
    for j, x in enumerate(points):
        # one column at a time gives the same coordinates as the whole matrix
        coords = quot.coordinates(int_matrix([x]).T)[:, 0]
        assert (coords == matrix[:, j]).all()
        total = [sum(c * g[i] for c, g in zip(coords, gens)) - x[i] for i in range(len(orders))]
        assert tuple(t % d for t, d in zip(total, orders)) in sub
    # the quotient's invariant factors, from the orders of the cosets (each
    # coset counted once per element of sub)
    counts = Counter(
        next(n for n in itertools.count(1) if scale(x, n, orders) in sub) for x in expected
    )
    coset_orders = Counter({n: c // len(sub) for n, c in counts.items()})
    assert quot.factors == invariant_factors_from_orders(coset_orders)


def scale(x, n, orders):
    return tuple((n * a) % d for a, d in zip(x, orders))


def test_span_and_kernel_subgroups_brute_force():
    rng = random.Random(5)
    sub_rng = random.Random(6)  # the subquotient draws leave rng's sequence as it was
    for _ in range(40):
        orders = [rng.choice([1, 2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
        ambient = set(itertools.product(*(range(d) for d in orders)))
        cols = [tuple(rng.randrange(d) for d in orders) for _ in range(rng.randint(0, 2))]
        if cols:
            # the image of Z^k under the columns is Z^k / L for L the kernel lift
            e = lcm(*orders)
            lift = kernel_subgroup((e,) * len(cols), [(int_matrix(cols).T, orders)]).lattice
            scales = smith_normal_form(lattice_basis(lift)).diagonal
            image = generated(cols, orders)
            element_orders = Counter(
                next(n for n in itertools.count(1) if not any(scale(x, n, orders)))
                for x in image
            )
            assert tuple(sorted(d for d in scales if d != 1)) == (
                invariant_factors_from_orders(element_orders)
            )
        # well defined on the quotient: row_j * d_j == 0 (mod modulus)
        congruences = []
        for _ in range(rng.randint(0, 3)):
            mod = rng.choice([2, 3, 4, 6])
            row = [rng.randint(-3, 3) * (mod // gcd(mod, d)) for d in orders]
            congruences.append((row, mod))
        kernel = {
            x for x in ambient
            if all(sum(r * v for r, v in zip(row, x)) % mod == 0 for row, mod in congruences)
        }
        rows = [row for row, _ in congruences]
        moduli = [mod for _, mod in congruences]
        check_subquotient(kernel_subgroup(orders, [(rows, moduli)]), orders, kernel)
        # the kernel modulo the span of some of its elements
        sub_cols = sub_rng.sample(sorted(kernel), sub_rng.randint(1, min(2, len(kernel))))
        quot = subquotient(
            orders,
            lcm(*orders, *moduli),
            iter(congruences),
            int_matrix(sub_cols).T,
        )
        check_subquotient(quot, orders, kernel, generated(sub_cols, orders))


_AFTER_RELEASE = """
import os
import numpy as np
import twistlgp.linalg
threads = len(os.listdir("/proc/self/task"))
openblas = "openblas" in open("/proc/self/maps").read()
a = np.arange(400 * 400).reshape(400, 400) % 7
exact = bool((a.astype(np.float64) @ a == a @ a).all())
print(threads, openblas, exact)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
def test_import_stops_the_idle_blas_threads():
    # numpy is imported first, as a host program would: OpenBLAS's threads
    # are already spinning when the package is imported, and are stopped
    # then; a product large enough to use threads still comes out exact
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run([sys.executable, "-c", _AFTER_RELEASE],
                         capture_output=True, text=True, env=env, check=True)
    threads, openblas, exact = run.stdout.split()
    assert exact == "True"
    if openblas == "False":
        pytest.skip("numpy does not use OpenBLAS here")
    assert threads == "1"
