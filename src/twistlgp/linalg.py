"""Exact integer linear algebra: Smith normal form with unimodular row
transforms, lattices that read their own coordinates, finite lattice
quotients, and finite subquotients of Z/d_1 + ... + Z/d_r.

Matrices handed between functions are numpy arrays with dtype=object holding
Python ints, so nothing ever overflows; the congruence fold works in int64,
or over Python ints when the exponent is 2^31 or more.  Conventions:

* ``smith_normal_form(A)`` returns ``U @ A @ V == S`` with ``S`` diagonal,
  ``s_1 | s_2 | ...`` nonnegative, and ``U``, ``V`` unimodular.  It
  eliminates on a list of rows of Python ints, with no numpy call per
  operation.  Every finished pivot row and column is clear, so the rows
  above the pivot t are zero from column t on, and a column operation at t
  touches only the rows from t on with a nonzero entry in column t.  Only
  ``S`` is built eagerly: ``U`` and its exact inverse are replayed from the
  logged row operations when first read, then cached; ``V`` is not kept.
  ``S``, ``U`` and ``U^-1`` are handed out as object arrays.
* A ``Lattice`` is the triangular basis ``reduced`` that ``congruence_kernel``
  folds the constraint rows into, numpy column by column over blocks of
  rows from e * I, in the smallest integer dtype that holds the exponent e
  (objects from 2^31).  A block holds up to 256^2 entries: 256 rows, or
  more for a system narrower than 256 columns, so a tall degree-1 system
  takes few blocks.  A column's nonzero entries are read once, as Python
  ints, and scanned for the rows whose entry the pivot does not divide;
  each run of rows between two of them is folded in a few numpy calls,
  and a pivot still at e (a fresh pivot) takes its first row with no
  pivot row at all (``_fold``).
* The fold keeps e * Z^n inside the integer row span of ``reduced``: it
  starts from e * I, every pivot update is unimodular, and every reduction
  mod e subtracts vectors already in the span.  So e * I == A @ reduced for
  an integer A, and as ``reduced`` is upper triangular with a nonzero
  diagonal, the lattice L = {x : reduced @ x == 0 mod e} is A * Z^n with
  A = e * reduced^-1.  The basis coordinates of x in L are reduced @ x / e
  (``solve_columns``), and the basis applied to coordinates w is the
  solution of reduced @ x == e * w, found by back substitution whose every
  division is exact (``Lattice.lift``).  [Z^n : L] = e^n / prod(diagonal).
  No Smith form of ``reduced`` is built.
* Every finite subquotient of Z/d_1 + ... + Z/d_r is a ``subquotient``
  L / (span(sub) + R) with L a congruence kernel and R = diag(d), passed as
  the orders d and entering as a column scaling of ``reduced``;
  ``kernel_subgroup`` and ``fixed_subgroup`` are its cases with no ``sub``.
  A ``LatticeQuotient`` counts its order at construction, from the
  diagonals of two triangular folds, and diagonalizes (``lattice_quotient``,
  its one Smith form) only when the factors, generators or coordinates of
  a nontrivial quotient are first read.  It is read as matrices
  (``generators()``, ``coordinates(x)``); no other module reads a
  ``Lattice``.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm, prod
from typing import Iterable, Iterator

import numpy as np


# numpy's OpenBLAS starts threads that spin for about 0.13 s before they sleep.
# The one float product here, in ``Lattice.contains``, is too small to use them,
# so they are stopped (Linux; a product that needs them starts them again).
with contextlib.suppress(OSError), open("/proc/self/maps", encoding="utf-8") as _maps:
    for _path in sorted({line.split(None, 5)[5].strip() for line in _maps if "openblas" in line}):
        getattr(ctypes.CDLL(_path), "blas_thread_shutdown_", lambda: None)()


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
    """Object-dtype matrix of Python ints; no rows at all is the 0 x 0
    matrix."""
    rows = [[int(x) for x in row] for row in rows]
    mat = np.array(rows, dtype=object) if rows else zero_matrix(0, 0)
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
    """The logged row operations applied, in log order, to the size x size
    identity: each op itself, or with ``inverse`` the transpose of its
    inverse (so the result's transpose is U^-1).  Each row is a dict of its
    nonzero Python ints, so an op costs the nonzero entries it reads."""
    mat = [{i: 1} for i in range(size)]
    for op in ops:
        if op[0] == "add":  # row_i += q * row_j; its inverse transposed, row_j -= q * row_i
            _, i, j, q = op
            if inverse:
                i, j, q = j, i, -q
            row = mat[i]
            for k, v in mat[j].items():
                if x := row.get(k, 0) + q * v:
                    row[k] = x
                else:
                    del row[k]
        elif op[0] == "swap":
            _, i, j = op
            mat[i], mat[j] = mat[j], mat[i]
        else:  # negate
            mat[op[1]] = {k: -v for k, v in mat[op[1]].items()}
    dense = zero_matrix(size, size)
    for i, row in enumerate(mat):
        dense[i, list(row)] = list(row.values())
    return dense


@dataclass(frozen=True)
class SmithNormalForm:
    """U @ A @ V == S with S = diag(diagonal), U, V unimodular.

    ``s`` and ``diagonal`` are computed eagerly; ``u`` and its inverse are
    replayed over Python ints from the logged row operations when first
    read (``_replay``), so a caller pays only for the transform it uses.
    All three are object arrays of Python ints.  The column operations act
    on ``s`` only: no caller reads ``V``, so they are not logged.
    """

    s: np.ndarray
    diagonal: tuple[int, ...]
    _row_ops: list[tuple] = field(repr=False, compare=False)

    @cached_property
    def u(self) -> np.ndarray:
        return _replay(self.s.shape[0], self._row_ops, inverse=False)

    @cached_property
    def u_inv(self) -> np.ndarray:
        return _replay(self.s.shape[0], self._row_ops, inverse=True).T


def _least(row: list[int]) -> tuple[int, ...]:
    """(|v|, j) for the first entry v of least nonzero |value| in ``row``,
    or () for a zero row."""
    a = min(map(abs, filter(None, row)), default=0)
    if not a:
        return ()
    if -a not in row:
        return a, row.index(a)
    if a not in row:
        return a, row.index(-a)
    return a, min(row.index(a), row.index(-a))


def smith_normal_form(mat: np.ndarray) -> SmithNormalForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The diagonal is nonnegative and satisfies s_1 | s_2 | ... ; the row
    operations are logged so U and U^-1 can be rebuilt exactly.  The pivot
    at t is the first nonzero entry of least |value| in row-major order of
    the rows and columns from t on.  The matrix is a list of rows of Python
    ints, and each row's own first least entry is kept until the row
    changes.  Every finished pivot row and column is clear, so rows above t
    are zero in every column from t on: a column operation at t changes only
    the rows from t on with a nonzero entry in column t, and a column swap
    only the rows from t on.
    """
    arr = np.asarray(mat, dtype=object)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = arr.shape
    s = arr.tolist()
    for row in s:
        row[:] = map(int, row)
    least: list = [None] * m  # a row's _least, None until read or after it changes
    row_ops: list[tuple] = []
    for t in range(min(m, n)):
        while True:
            best, r = (), t
            for i in range(t, m):
                if least[i] is None:
                    least[i] = _least(s[i])
                if least[i] and (not best or least[i][0] < best[0]):
                    best, r = least[i], i
                    if best[0] == 1:
                        break
            if not best:
                break
            c = best[1]
            if (r, c) != (t, t):
                row_ops.append(("swap", t, r))
                s[t], s[r] = s[r], s[t]
                least[t], least[r] = least[r], least[t]
                if c != t:
                    for i in range(t, m):
                        row = s[i]
                        if row[t] or row[c]:
                            row[t], row[c] = row[c], row[t]
                            least[i] = None
            top = s[t]
            pivot = top[t]
            support = [(j, v) for j, v in enumerate(top) if v]
            dirty = False
            for i in range(t + 1, m):
                row = s[i]
                if row[t]:
                    q = -(row[t] // pivot)
                    row_ops.append(("add", i, t, q))
                    for j, v in support:
                        row[j] += q * v
                    least[i] = None
                    if row[t]:
                        dirty = True  # remainder smaller than pivot; rescan
            live = [i for i in range(t, m) if s[i][t]]
            for j, v in support[1:]:  # the columns right of t, as the row clears
                q = -(v // pivot)
                for i in live:
                    s[i][j] += q * s[i][t]
                if top[j]:
                    dirty = True
            if len(support) > 1:
                for i in live:
                    least[i] = None
            if dirty:
                continue
            # Row and column are clear; force the pivot to divide the rest
            # by adding the first row holding an entry it does not divide.
            if abs(pivot) == 1:
                break
            offender = next((i for i in range(t + 1, m) if any(map(pivot.__rmod__, s[i]))), None)
            if offender is None:
                break
            row_ops.append(("add", t, offender, 1))
            for j, v in enumerate(s[offender]):
                top[j] += v
            least[t] = None
        if s[t][t] < 0:
            row_ops.append(("negate", t))
            s[t] = [-x for x in s[t]]

    diagonal = tuple(s[i][i] for i in range(min(m, n)))
    del s  # every entry off the diagonal is 0 now
    out = zero_matrix(m, n)
    for i, d in enumerate(diagonal):
        out[i, i] = d
    return SmithNormalForm(out, diagonal, row_ops)


@dataclass(frozen=True, eq=False)
class Lattice:
    """The lattice L = {x in Z^n : reduced @ x == 0 (mod exponent)}, which
    reads its own coordinates.

    ``reduced`` is the upper triangular basis, with a nonzero diagonal,
    that ``congruence_kernel`` folds the constraint rows into; its rows
    span the constraint lattice, which contains exponent * Z^n.  So L has
    the basis e * reduced^-1 (see the module docstring): ``solve_columns``
    reads basis coordinates with one product, and ``lift`` applies the
    basis to coordinates by back substitution.
    """

    reduced: np.ndarray
    exponent: int

    def lift(self, w: np.ndarray) -> np.ndarray:
        """The x with reduced @ x == e * w, the lattice vectors with basis
        coordinates w, by back substitution over Python ints.  Raises
        ``ArithmeticError`` when a division leaves a remainder, which it
        cannot when e * Z^n lies in the row span of ``reduced``."""
        mat = np.asarray(self.reduced, dtype=object)
        x = self.exponent * np.asarray(w, dtype=object)
        for i in range(mat.shape[0] - 1, -1, -1):
            rest = x[i] - mat[i, i + 1:] @ x[i + 1:]
            x[i] = rest // mat[i, i]
            if (x[i] * mat[i, i] != rest).any():
                raise ArithmeticError("e * Z^n is not in the row span of the triangular basis")
        return x

    def contains(self, vectors: np.ndarray) -> bool:
        """Whether every column of ``vectors`` (or the vector) lies in the
        lattice: products with ``reduced``, ``_BLOCK_ROWS`` rows at a time
        and from the block's first column on (it is upper triangular), no
        Smith form.  Entries lie in [0, e], so a product is exact in float64
        below 2^53, in int64 below 2^63, and over objects past."""
        e, mat = self.exponent, self.reduced
        bound = mat.shape[1] * e * e
        dtype = np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object
        rhs = (np.asarray(vectors, dtype=object) % e).astype(dtype)
        return not any(
            (mat[start:start + _BLOCK_ROWS, start:].astype(dtype) @ rhs[start:] % e).any()
            for start in range(0, mat.shape[0], _BLOCK_ROWS)
        )


def solve_columns(lattice: Lattice, rhs: np.ndarray) -> np.ndarray | None:
    """The unique W with lattice.lift(W) == rhs, reduced @ rhs / e over
    Python ints; None if some column of rhs is not in the lattice, that is
    if e does not divide every entry of reduced @ rhs."""
    e = lattice.exponent
    z = np.asarray(lattice.reduced, dtype=object) @ np.asarray(rhs, dtype=object)
    if (z % e != 0).any():
        return None
    return z // e


# Rows folded or multiplied at once: enough for numpy to pay off, few enough
# that the block of a wide system stays small.  ``congruence_kernel`` takes
# _BLOCK_ROWS^2 // n rows when that is more, so a narrow system's block
# holds as many entries as a square one's.
_BLOCK_ROWS = 256


def _fold(reduced: np.ndarray, block: np.ndarray, e: int) -> None:
    """Fold the rows of ``block`` (entries in [0, e)) into ``reduced``.

    Row j of the upper triangular ``reduced`` is the pivot row for column j,
    from a diagonal start whose entries divide e (e * I for a kernel); a
    column the block reaches reads it in ``block.dtype`` and writes it
    back.  The block is reduced one column at a time, which gives the pivots of
    folding it row by row: either way row k reaches column j reduced by the
    pivots that rows < k left at columns < j.

    A column's nonzero entries v are read once, as Python ints, and scanned
    for its events: the rows whose v the pivot value a does not divide.
    Each event costs an xgcd, and the new a properly divides the last, so a
    column has at most Omega(e) of them.  Between two events a row with
    v == a becomes the pivot row (xgcd(a, a) == (a, 0, 1)), and every row
    loses (v / a) times the pivot row left by the rows above it: one gather
    of the run, one product with [its rows; the pivot row] indexed by the
    scan, one subtract-and-mod and one scatter.  Entries are below e, so a
    pivot value a == e has seen no row of the block: its pivot row is still
    e times the unit vector.  Such a fresh pivot needs no pivot row at its
    first event v: with g, x, y = xgcd(e, v), the row becomes (e / g) v's
    row mod e, which is 0 for g = 1, and the pivot row y times it mod e.
    """
    for j in range(block.shape[1]):
        col = block[:, j]
        rows = col.nonzero()[0]
        if not rows.size:
            continue
        a = int(reduced[j, j])
        base = None if a == e else reduced[j, j:].astype(block.dtype)
        start, src, q, last = 0, [], [], -1
        for i, v in enumerate(col[rows].tolist()):
            if v % a == 0:
                # this row reduces by the run's row ``last`` (-1: the pivot row)
                src.append(last)
                q.append(v // a)
                if v == a:
                    last = len(src) - 1
                continue
            if src:
                base = _fold_run(block, j, rows[start:i], src, q, last, base, e)
                src, q, last = [], [], -1
            start = i + 1
            g, x, y = xgcd(a, v)
            tail = block[rows[i], j:]
            if base is None:  # a fresh pivot: the pivot row is e * (1, 0, ...)
                base = y * tail % e
                tail[:] = (e // g) * tail % e if g > 1 else 0
            else:
                pivot = (x * base + y * tail) % e
                tail[:] = ((a // g) * tail - (v // g) * base) % e
                base = pivot
            a = g
        if src:
            base = _fold_run(block, j, rows[start:], src, q, last, base, e)
        reduced[j, j:] = base


def _fold_run(block, j, run, src, q, last, base, e):
    """Fold the block rows ``run``, whose entries in column j the pivot
    value divides with quotients ``q``: row i loses q[i] times the
    original row src[i] of the run, or the pivot row ``base`` for -1.
    Returns the pivot row left: the run's row ``last``, or ``base``."""
    rows = np.concatenate((block[run, j:], base[None]))
    # a product of two entries below e stays in block.dtype (see _dtype)
    bases = rows[np.array(src)] * np.array(q, dtype=block.dtype)[:, None]
    block[run, j:] = (rows[:-1] - bases) % e
    return rows[last] if last >= 0 else base


def _diagonal(entries, e: int) -> np.ndarray:
    """diag(entries), entries in [1, e], in the smallest integer dtype that
    holds e: the start of a fold, which a lattice keeps for as long as it
    lives."""
    n = len(entries)
    mat = np.zeros((n, n), dtype=np.min_scalar_type(e) if e < 2**31 else object)
    mat[np.diag_indices(n)] = entries
    return mat


def _dtype(e: int):
    # every product the fold forms is below 2 e^2
    return np.int64 if e < 2**31 else object


def congruence_kernel(
    n: int, exponent: int, constraints: Iterator[tuple[list[int], int]]
) -> Lattice:
    """The lattice {x in Z^n : row . x == 0 (mod modulus)} over all
    (row, modulus) constraints.  Every modulus must divide ``exponent``.

    Each constraint is scaled to a single modulus e and folded into a
    triangular row basis of the constraint lattice (which contains e*Z^n),
    in blocks of up to ``_BLOCK_ROWS``^2 entries: ``_BLOCK_ROWS`` rows, or
    ``_BLOCK_ROWS``^2 // n rows when n is smaller, so the number of
    constraints can be much larger than n and a tall, narrow system is
    folded in few passes over its columns.  The pivots do not depend on
    the block size (see ``_fold``).  Each block is built once from the rows
    it folds, so a short stream allocates no more than it holds; a row is
    read only when its block is folded, so the stream must not change a
    row it has handed over.  A modulus that does not divide ``exponent``,
    or a row that is not n entries long, raises ``ValueError``.
    """
    e = exponent
    dtype = _dtype(e)
    reduced = _diagonal([e] * n, e)
    size = max(_BLOCK_ROWS, _BLOCK_ROWS**2 // max(n, 1))
    rows: list = []
    moduli: list[int] = []

    def fold_block() -> None:
        try:
            block = np.array(rows, dtype=dtype)
        except OverflowError:  # an entry past int64
            block = np.array([[x % d for x in row] for row, d in zip(rows, moduli)], dtype=dtype)
        m = np.array(moduli, dtype=dtype).reshape(-1, 1)
        # (e / modulus) * x mod e == (e / modulus) * (x mod modulus)
        block %= m
        block *= e // m
        _fold(reduced, block, e)
        rows.clear()
        moduli.clear()

    for row, modulus in constraints:
        if modulus == 0 or e % modulus:
            raise ValueError(f"modulus {modulus} does not divide the exponent {e}")
        try:
            length = len(row)
        except TypeError:  # a scalar, which numpy would broadcast
            length = "a scalar"
        if length != n:
            raise ValueError(f"expected a constraint row of {n} entries, got {length}")
        rows.append(row)
        moduli.append(modulus)
        if len(rows) == size:
            fold_block()
    if rows:
        fold_block()
    return Lattice(reduced, e)


def _quotient_order(lattice: Lattice, sub: np.ndarray, orders) -> int:
    """|L / (span(sub) + R)| for L = ``lattice``, R generated by
    diag(``orders``), and span(sub) + R inside L, with no Smith form.

    For E a multiple of e and of the orders, E * Z^n lies in both lattices.
    [L : E Z^n] = prod(a) (E / e)^n for a the diagonal of ``reduced``, and
    [span(sub) + R : E Z^n] = E^n / prod(b) for b the diagonal left by
    folding the columns of sub into diag(orders) mod E, so the order is
    prod(a) prod(b) / e^n.
    """
    e, n = lattice.exponent, len(orders)
    big = lcm(e, *orders)
    spanned = _diagonal(orders, big)
    gens = np.asarray(sub, dtype=object).T % big
    for start in range(0, gens.shape[0], _BLOCK_ROWS):
        _fold(spanned, gens[start:start + _BLOCK_ROWS].astype(_dtype(big)), big)
    a = prod(int(lattice.reduced[j, j]) for j in range(n))
    b = prod(int(spanned[j, j]) for j in range(n))
    return a * b // e**n


class NotInLattice(ValueError):
    pass


@dataclass(eq=False)
class LatticeQuotient:
    """Structure of L / (span(sub) + R) for L = ``lattice`` and R generated
    by diag(``orders``), both inside L.

    ``order`` is known from construction.  ``factors`` are the nontrivial
    invariant factors in ascending divisibility order; the columns of
    ``generators()`` lift the summand generators to L; ``coordinates(x)``
    holds the summand coordinates of the columns of x, row i mod
    factors[i].  A nontrivial quotient builds its Smith form on the first of
    these reads; a trivial one never does: it has no generators, and
    coordinates only tests membership.
    """

    lattice: Lattice = field(repr=False)
    sub: np.ndarray = field(repr=False)
    orders: tuple[int, ...] = field(repr=False)
    order: int

    @cached_property
    def _smith(self) -> tuple[SmithNormalForm, tuple[int, ...]]:
        """The Smith form of the quotient and the places of its diagonal
        entries other than 1."""
        return lattice_quotient(self.lattice, self.sub, self.orders)

    @cached_property
    def _reader(self) -> tuple[np.ndarray, np.ndarray]:
        """U's kept rows and the factors as a column: ``coordinates``' reader."""
        w_snf, kept = self._smith
        return w_snf.u[list(kept)], np.array(self.factors, dtype=object).reshape(-1, 1)

    @property
    def factors(self) -> tuple[int, ...]:
        if self.is_trivial:
            return ()
        w_snf, kept = self._smith
        return tuple(w_snf.diagonal[i] for i in kept)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        if self.is_trivial:
            if not self.lattice.contains(x):
                raise NotInLattice("vector is not in the ambient lattice")
            return zero_matrix(0, x.shape[1])
        w = solve_columns(self.lattice, x)
        if w is None:
            raise NotInLattice("vector is not in the ambient lattice")
        u, factors = self._reader
        return u @ w % factors

    def generators(self) -> np.ndarray:
        if self.is_trivial:
            return zero_matrix(self.lattice.reduced.shape[0], 0)
        w_snf, kept = self._smith
        return self.lattice.lift(w_snf.u_inv[:, list(kept)])


def lattice_quotient(
    lattice: Lattice, sub: np.ndarray, orders
) -> tuple[SmithNormalForm, tuple[int, ...]]:
    """The Smith form of L / (span(sub) + R) for L = ``lattice`` and R =
    diag(``orders``), both inside L (``subquotient`` proved it), in basis
    coordinates of L, and the places of its diagonal entries other than 1:
    the Smith form of reduced @ [sub | diag(orders)] / e, in which
    reduced @ diag(orders) is a column scaling of reduced and every entry
    divides exactly by e."""
    mat = np.asarray(lattice.reduced, dtype=object)
    z = np.concatenate([mat @ sub, mat * np.array(orders, dtype=object)], axis=1)
    w_snf = smith_normal_form(z // lattice.exponent)
    return w_snf, tuple(i for i, d in enumerate(w_snf.diagonal) if d != 1)


def subquotient(orders, exponent: int, congruences, sub: np.ndarray) -> LatticeQuotient:
    """L / (span(sub) + R) for L = {x in Z^r : row . x == 0 (mod modulus)}
    over the (row, modulus) congruences (``congruence_kernel``) and R the
    relation lattice generated by diag(``orders``); sub's columns and R lie
    in L.  Z^r / L is the image of the congruence rows, of order
    e^r / prod(diagonal of ``reduced``) (see the module docstring).

    The order is counted (``_quotient_order``); no Smith form is built
    here."""
    lattice = congruence_kernel(len(orders), exponent, congruences)
    # R <= L iff reduced @ diag(orders) == 0 mod e: a column scaling, of
    # the columns whose order is not a multiple of e
    scaled = [j for j, d in enumerate(orders) if d % exponent]
    residues = np.array([orders[j] % exponent for j in scaled], dtype=_dtype(exponent))
    if not lattice.contains(sub) or (lattice.reduced[:, scaled] * residues % exponent).any():
        raise NotInLattice("sub-generators do not lie in the lattice")
    return LatticeQuotient(lattice, sub, tuple(orders), _quotient_order(lattice, sub, orders))


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
