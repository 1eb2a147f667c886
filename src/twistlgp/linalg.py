"""Exact integer linear algebra: Smith normal form with unimodular transforms,
integer solves, congruence kernels, and finite lattice quotients.

Matrices are numpy arrays with dtype=object holding Python ints, so nothing
ever overflows.  Conventions:

* ``smith_normal_form(A)`` returns ``U @ A @ V == S`` with ``S`` diagonal,
  ``s_1 | s_2 | ...`` nonnegative, and ``U``, ``V`` unimodular (their exact
  inverses are tracked alongside).
* Lattices are given by matrices whose *columns* generate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
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


@dataclass(frozen=True)
class SmithNormalForm:
    """U @ A @ V == S with S = diag(diagonal), U, V unimodular."""

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    u_inv: np.ndarray
    v_inv: np.ndarray
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(mat: np.ndarray) -> SmithNormalForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The diagonal is nonnegative and satisfies s_1 | s_2 | ... ; the
    transforms and their inverses are maintained exactly.
    """
    s = np.array(mat, dtype=object, copy=True)
    if s.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = s.shape
    u, u_inv = identity_matrix(m), identity_matrix(m)
    v, v_inv = identity_matrix(n), identity_matrix(n)

    # Elementary operations keep U @ A @ V == S; each also updates the
    # tracked inverse by the inverse elementary operation.
    def row_add(i: int, j: int, q: int) -> None:  # row_i += q * row_j
        s[i] += q * s[j]
        u[i] += q * u[j]
        u_inv[:, j] -= q * u_inv[:, i]

    def row_swap(i: int, j: int) -> None:
        s[[i, j]] = s[[j, i]]
        u[[i, j]] = u[[j, i]]
        u_inv[:, [i, j]] = u_inv[:, [j, i]]

    def row_negate(i: int) -> None:
        s[i] = -s[i]
        u[i] = -u[i]
        u_inv[:, i] = -u_inv[:, i]

    def col_add(i: int, j: int, q: int) -> None:  # col_i += q * col_j
        s[:, i] += q * s[:, j]
        v[:, i] += q * v[:, j]
        v_inv[j] -= q * v_inv[i]

    def col_swap(i: int, j: int) -> None:
        s[:, [i, j]] = s[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]
        v_inv[[i, j]] = v_inv[[j, i]]

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
            # Row and column are clear; force the pivot to divide the rest.
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
            row_negate(t)

    diagonal = tuple(int(s[i, i]) for i in range(min(m, n)))
    return SmithNormalForm(s=s, u=u, v=v, u_inv=u_inv, v_inv=v_inv, diagonal=diagonal)


def solve_columns(snf: SmithNormalForm, rhs: np.ndarray) -> np.ndarray | None:
    """Solve A @ X == rhs column-wise given A's Smith data; None if unsolvable."""
    m, n = snf.u.shape[0], snf.v.shape[0]
    z = snf.u @ rhs
    y = zero_matrix(n, rhs.shape[1])
    for i in range(m):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        for k in range(rhs.shape[1]):
            if d == 0:
                if z[i, k] != 0:
                    return None
            else:
                q, r = divmod(z[i, k], d)
                if r != 0:
                    return None
                y[i, k] = q
    return snf.v @ y


def column_lattice_basis(mat: np.ndarray) -> np.ndarray:
    """Basis (columns) of the lattice generated by the columns of mat."""
    snf = smith_normal_form(mat)
    cols = []
    for i, d in enumerate(snf.diagonal):
        if d != 0:
            cols.append(snf.u_inv[:, i] * d)
    if not cols:
        return zero_matrix(mat.shape[0], 0)
    return np.column_stack(cols)


def congruence_kernel(
    n: int, exponent: int, constraints: Iterator[tuple[list[int], int]]
) -> np.ndarray:
    """Basis of the lattice {x in Z^n : row . x == 0 (mod modulus)} over all
    (row, modulus) constraints.  Every modulus must divide ``exponent``.

    Each constraint is scaled to a single modulus e and folded into a
    triangular row basis of the constraint lattice (which contains e*Z^n),
    so the number of constraints can be much larger than n.
    """
    e = exponent
    if e == 1:
        return identity_matrix(n)
    pivots: dict[int, list[int]] = {}
    for row, modulus in constraints:
        scale = e // modulus
        vec = [(scale * x) % e for x in row]
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
                # implicit pivot row e*e_j
                new_pivot = [(y * vi) % e for vi in vec]
                new_pivot[j] = g  # x*e + y*vj == g
                vec = [((a // g) * vi) % e for vi in vec]
            pivots[j] = new_pivot
    rows = []
    for j in range(n):
        base = pivots.get(j)
        if base is None:
            base = [0] * n
            base[j] = e
        rows.append(base)
    reduced = int_matrix(rows)
    # With U @ reduced @ V == S, reduced x == 0 mod e iff y = V^-1 x has
    # s_i y_i == 0 mod e, so the solutions are V times a rescaled basis.
    snf = smith_normal_form(reduced)
    basis = snf.v.copy()
    for i, d in enumerate(snf.diagonal):
        basis[:, i] *= e // gcd(int(d), e)
    return basis


class NotInLattice(ValueError):
    pass


@dataclass(frozen=True)
class LatticeQuotient:
    """Structure of L / S for full-rank lattices S <= L <= Z^n.

    ``factors`` are the nontrivial invariant factors in ascending
    divisibility order; ``generator(i)`` lifts the i-th summand generator
    to L; ``coordinates(x)`` expresses x in L as summand coordinates.
    """

    basis: np.ndarray
    factors: tuple[int, ...]
    _basis_snf: SmithNormalForm = field(repr=False, compare=False)
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
        w = solve_columns(self._basis_snf, x.reshape(-1, 1))
        if w is None:
            raise NotInLattice("vector is not in the ambient lattice")
        y = self._w_snf.u @ w[:, 0]
        return tuple(int(y[i] % self._diag[i]) for i in self._kept)

    def generator(self, idx: int) -> np.ndarray:
        return self.basis @ self._w_snf.u_inv[:, self._kept[idx]]

    def generators(self) -> list[np.ndarray]:
        return [self.generator(i) for i in range(len(self.factors))]


def lattice_quotient(basis: np.ndarray, sub_generators: np.ndarray) -> LatticeQuotient:
    """Quotient of the lattice spanned by ``basis`` (columns, full rank) by
    the sublattice generated by ``sub_generators`` (columns, finite index).
    """
    basis_snf = smith_normal_form(basis)
    w = solve_columns(basis_snf, sub_generators)
    if w is None:
        raise NotInLattice("sub-generators do not lie in the lattice")
    w_snf = smith_normal_form(w)
    k = basis.shape[1]
    diag = list(w_snf.diagonal) + [0] * (k - len(w_snf.diagonal))
    if any(d == 0 for d in diag):
        raise ValueError("quotient is infinite: sublattice has deficient rank")
    kept = tuple(i for i, d in enumerate(diag) if d != 1)
    factors = tuple(int(diag[i]) for i in kept)
    return LatticeQuotient(
        basis=basis,
        factors=factors,
        _basis_snf=basis_snf,
        _w_snf=w_snf,
        _kept=kept,
        _diag=tuple(diag),
    )
