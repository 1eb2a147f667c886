"""Exact integer linear algebra: Smith normal form with unimodular transforms,
lattices with their own coordinates, finite lattice quotients, and finite
subquotients of Z/d_1 + ... + Z/d_r.

Matrices are numpy arrays with dtype=object holding Python ints, so nothing
ever overflows.  Conventions:

* ``smith_normal_form(A)`` returns ``U @ A @ V == S`` with ``S`` diagonal,
  ``s_1 | s_2 | ...`` nonnegative, and ``U``, ``V`` unimodular.  Only ``S``
  is built eagerly: ``U``, ``V`` and their exact inverses are replayed from
  the logged elementary operations when first read, then cached.
* A ``Lattice`` holds a basis (independent columns) with a unimodular
  ``forward`` matrix taking it to diag(scales) over zero rows.  Its only
  builder is ``congruence_kernel``, which takes it from the Smith normal form
  it computes, so no basis is diagonalized twice.
* Every finite subquotient of Z/d_1 + ... + Z/d_r is a ``subquotient``
  L / (span(sub) + diag(d)) with L a congruence kernel; ``kernel_subgroup``
  and ``fixed_subgroup`` are its cases with no ``sub``.  No other module
  knows how lattices are represented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Iterator

import numpy as np


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def int_matrix(rows: Iterable[Iterable[int]]) -> np.ndarray:
    """Object-dtype matrix of Python ints."""
    mat = np.array([[int(x) for x in row] for row in rows], dtype=object)
    if mat.ndim != 2:
        raise ValueError("expected a rectangular matrix")
    return mat


def zero_matrix(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=object)


def diagonal_matrix(entries: Iterable[int]) -> np.ndarray:
    entries = list(entries)
    mat = zero_matrix(len(entries), len(entries))
    for i, d in enumerate(entries):
        mat[i, i] = d
    return mat


def identity_matrix(n: int) -> np.ndarray:
    return diagonal_matrix([1] * n)


def _replay(size: int, ops: list[tuple], inverse: bool) -> np.ndarray:
    """Apply the logged row operations to the size x size identity: each op
    itself, or with ``inverse`` the transpose of its inverse, in log order."""
    mat = identity_matrix(size)
    for op in ops:
        if op[0] == "add":  # row_i += q * row_j
            _, i, j, q = op
            if inverse:
                mat[j] -= q * mat[i]
            else:
                mat[i] += q * mat[j]
        elif op[0] == "swap":
            _, i, j = op
            mat[[i, j]] = mat[[j, i]]
        else:  # negate
            mat[op[1]] = -mat[op[1]]
    return mat


@dataclass(frozen=True)
class SmithNormalForm:
    """U @ A @ V == S with S = diag(diagonal), U, V unimodular.

    ``s`` and ``diagonal`` are computed eagerly; ``u``, ``v`` and their
    inverses are replayed from the logged elementary operations when first
    read, so a caller pays only for the transforms it uses.
    """

    s: np.ndarray
    diagonal: tuple[int, ...]
    _row_ops: list[tuple] = field(repr=False, compare=False)
    _col_ops: list[tuple] = field(repr=False, compare=False)

    @cached_property
    def u(self) -> np.ndarray:
        return _replay(self.s.shape[0], self._row_ops, inverse=False)

    @cached_property
    def u_inv(self) -> np.ndarray:
        return _replay(self.s.shape[0], self._row_ops, inverse=True).T

    @cached_property
    def v(self) -> np.ndarray:
        # column operations on V are row operations on V^T
        return _replay(self.s.shape[1], self._col_ops, inverse=False).T

    @cached_property
    def v_inv(self) -> np.ndarray:
        return _replay(self.s.shape[1], self._col_ops, inverse=True)


def smith_normal_form(mat: np.ndarray) -> SmithNormalForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The diagonal is nonnegative and satisfies s_1 | s_2 | ... ; the
    operations are logged so the transforms can be rebuilt exactly.
    """
    s = np.array(mat, dtype=object, copy=True)
    if s.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = s.shape
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []

    # Elementary operations keep U @ A @ V == S for the logged U and V.
    def row_add(i: int, j: int, q: int) -> None:  # row_i += q * row_j
        s[i] += q * s[j]
        row_ops.append(("add", i, j, q))

    def row_swap(i: int, j: int) -> None:
        s[[i, j]] = s[[j, i]]
        row_ops.append(("swap", i, j))

    def row_negate(i: int) -> None:
        s[i] = -s[i]
        row_ops.append(("negate", i))

    def col_add(i: int, j: int, q: int) -> None:  # col_i += q * col_j
        s[:, i] += q * s[:, j]
        col_ops.append(("add", i, j, q))

    def col_swap(i: int, j: int) -> None:
        s[:, [i, j]] = s[:, [j, i]]
        col_ops.append(("swap", i, j))

    def min_entry(t: int) -> tuple[int, int] | None:
        sub = np.abs(s[t:, t:])
        nonzero = sub != 0
        if not nonzero.any():
            return None
        sentinel = sub.max() + 1
        masked = np.where(nonzero, sub, sentinel)
        flat = int(np.argmin(masked))
        i, j = divmod(flat, masked.shape[1])
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
                        dirty = True  # remainder smaller than pivot; rescan
            for j in range(t + 1, n):
                if s[t, j] != 0:
                    col_add(j, t, -(s[t, j] // pivot))
                    if s[t, j] != 0:
                        dirty = True
            if dirty:
                continue
            # Row and column are clear; force the pivot to divide the rest
            # by adding the first row holding an entry it does not divide.
            if abs(pivot) == 1:
                break
            offenders = np.flatnonzero((s[t + 1:, t + 1:] % pivot != 0).any(axis=1))
            if offenders.size == 0:
                break
            row_add(t, t + 1 + int(offenders[0]), 1)
        if s[t, t] < 0:
            row_negate(t)

    diagonal = tuple(int(s[i, i]) for i in range(min(m, n)))
    return SmithNormalForm(s=s, diagonal=diagonal, _row_ops=row_ops, _col_ops=col_ops)


@dataclass(frozen=True, eq=False)
class Lattice:
    """A lattice in Z^m that carries its own coordinates.

    ``basis`` has linearly independent columns, ``forward`` is unimodular,
    and ``forward @ basis`` is diag(``scales``) stacked above zero rows, so
    ``solve_columns`` finds basis coordinates with one product.  Built by
    ``congruence_kernel`` from the Smith normal form it already computes.
    """

    basis: np.ndarray
    forward: np.ndarray
    scales: tuple[int, ...]


def solve_columns(lattice: Lattice, rhs: np.ndarray) -> np.ndarray | None:
    """The unique W with lattice.basis @ W == rhs; None if some column of
    rhs is not in the lattice."""
    z = lattice.forward @ rhs
    k = len(lattice.scales)
    if (z[k:] != 0).any():
        return None
    scales = np.array(lattice.scales, dtype=object).reshape(-1, 1)
    if (z[:k] % scales != 0).any():
        return None
    return z[:k] // scales


def congruence_kernel(
    n: int, exponent: int, constraints: Iterator[tuple[list[int], int]]
) -> Lattice:
    """The lattice {x in Z^n : row . x == 0 (mod modulus)} over all
    (row, modulus) constraints.  Every modulus must divide ``exponent``.

    Each constraint is scaled to a single modulus e and folded into a
    triangular row basis of the constraint lattice (which contains e*Z^n),
    so the number of constraints can be much larger than n.  A modulus that
    does not divide ``exponent`` raises ``ValueError``.
    """
    e = exponent
    # pivots[j] is the tail from column j of the pivot row for column j; the
    # row is zero before j, as vec is when column j is reached.
    pivots: dict[int, list[int]] = {}
    for row, modulus in constraints:
        if modulus == 0 or e % modulus:
            raise ValueError(f"modulus {modulus} does not divide the exponent {e}")
        scale = e // modulus
        vec = [(scale * x) % e for x in row]
        for j in range(n):
            vj = vec[j]
            if vj == 0:
                continue
            tail = vec[j:]
            base = pivots.get(j)
            if base is None:
                # implicit pivot row e*e_j
                g, _, y = xgcd(e, vj)
                pivot = [(y * vi) % e for vi in tail]
                pivot[0] = g  # x*e + y*vj == g
                pivots[j] = pivot
                vec[j:] = [((e // g) * vi) % e for vi in tail]
                continue
            a = base[0]
            if vj != a and vj % a == 0:
                # xgcd(a, vj) == (a, 1, 0): the pivot row stays as it is
                q = vj // a
                vec[j:] = [(vi - q * bi) % e for bi, vi in zip(base, tail)]
                continue
            g, x, y = xgcd(a, vj)
            if (x, y) == (0, 1):  # vj | a (vj == a included): vec is the new pivot
                pivots[j] = tail
            else:
                pivots[j] = [(x * bi + y * vi) % e for bi, vi in zip(base, tail)]
            vec[j:] = [((a // g) * vi - (vj // g) * bi) % e for bi, vi in zip(base, tail)]
    if e == 1 or n == 0:
        return Lattice(identity_matrix(n), identity_matrix(n), (1,) * n)
    rows = []
    for j in range(n):
        base = pivots.get(j, [e] + [0] * (n - j - 1))
        rows.append([0] * j + base)
    reduced = int_matrix(rows)
    # With U @ reduced @ V == S, reduced x == 0 mod e iff y = V^-1 x has
    # s_i y_i == 0 mod e, so the solutions are V times a rescaled basis.
    snf = smith_normal_form(reduced)
    scales = tuple(e // gcd(int(d), e) for d in snf.diagonal)
    return Lattice(snf.v * np.array(scales, dtype=object), snf.v_inv, scales)


class NotInLattice(ValueError):
    pass


@dataclass(frozen=True)
class LatticeQuotient:
    """Structure of L / S for lattices S <= L of finite index.

    ``factors`` are the nontrivial invariant factors in ascending
    divisibility order; ``generators()`` lifts the summand generators to L;
    ``coordinates(x)`` expresses x in L as summand coordinates.
    """

    lattice: Lattice = field(repr=False, compare=False)
    factors: tuple[int, ...]
    _w_snf: SmithNormalForm = field(repr=False, compare=False)
    _kept: tuple[int, ...] = field(repr=False, compare=False)
    _diag: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return prod(self.factors) if self.factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def coordinates(self, x: np.ndarray) -> tuple[int, ...]:
        w = solve_columns(self.lattice, x.reshape(-1, 1))
        if w is None:
            raise NotInLattice("vector is not in the ambient lattice")
        y = self._w_snf.u @ w[:, 0]
        return tuple(int(y[i] % self._diag[i]) for i in self._kept)

    def generators(self) -> list[np.ndarray]:
        return [self.lattice.basis @ self._w_snf.u_inv[:, i] for i in self._kept]


def lattice_quotient(lattice: Lattice, sub_generators: np.ndarray) -> LatticeQuotient:
    """Quotient of ``lattice`` by the sublattice generated by the columns of
    ``sub_generators``, which must have finite index."""
    w = solve_columns(lattice, sub_generators)
    if w is None:
        raise NotInLattice("sub-generators do not lie in the lattice")
    w_snf = smith_normal_form(w)
    k = len(lattice.scales)
    diag = list(w_snf.diagonal) + [0] * (k - len(w_snf.diagonal))
    if any(d == 0 for d in diag):
        raise ValueError("quotient is infinite: sublattice has deficient rank")
    kept = tuple(i for i, d in enumerate(diag) if d != 1)
    factors = tuple(int(diag[i]) for i in kept)
    return LatticeQuotient(
        lattice=lattice, factors=factors, _w_snf=w_snf, _kept=kept, _diag=tuple(diag)
    )


def subquotient(orders, exponent: int, congruences, sub: np.ndarray) -> LatticeQuotient:
    """L / (span(sub) + R) for L = {x in Z^r : row . x == 0 (mod modulus)}
    over the (row, modulus) congruences (``congruence_kernel``) and R the
    relation lattice generated by diag(``orders``); sub's columns lie in L.
    Z^r / L is the image of the congruence rows: its invariant factors are
    the scales of L other than 1, largest first."""
    lift = congruence_kernel(len(orders), exponent, congruences)
    return lattice_quotient(lift, np.concatenate([sub, diagonal_matrix(orders)], axis=1))


def kernel_subgroup(orders, maps) -> LatticeQuotient:
    """The kernel in Z/d_1 + ... + Z/d_r (d = ``orders``) of the sum of the
    (matrix, target orders) maps: row i of a matrix is taken mod target i."""
    maps = list(maps)
    exponent = lcm(*orders, *(d for _, targets in maps for d in targets))
    congruences = ((row, d) for matrix, targets in maps for row, d in zip(matrix, targets))
    return subquotient(orders, exponent, congruences, zero_matrix(len(orders), 0))


def fixed_subgroup(orders, matrices) -> LatticeQuotient:
    """The points of Z/d_1 + ... + Z/d_r fixed by every matrix: the kernel of
    the stacked M - I."""
    r = len(orders)
    return kernel_subgroup(
        orders,
        [([[m[i][j] - (i == j) for j in range(r)] for i in range(r)], orders) for m in matrices],
    )
