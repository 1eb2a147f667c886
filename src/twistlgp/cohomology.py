"""Exact cohomology of a finite group with finite abelian coefficients.

Inhomogeneous (bar) cochains in degrees 0..2, with the differential

    (d f)(g_1, ..., g_{n+1}) = g_1.f(g_2, ..., g_{n+1})
                               + sum_{i=1..n} (-1)^i f(.., g_i g_{i+1}, ..)
                               + (-1)^{n+1} f(g_1, ..., g_n)

so that in the degrees used here

    (d0 m)(g)       = g.m - m
    (d1 f)(g, h)    = g.f(h) - f(gh) + f(g)
    (d2 f)(g, h, k) = g.f(h, k) - f(gh, k) + f(g, hk) - f(g, h)

A cochain of degree n is a vector over (tuple, coordinate) positions, tuples
of G^n in lexicographic order.  The terms of the differential, gathers on the
multiplication table, are scattered into numpy blocks of rows for the kernel
rows and coboundary generators, and gathered from a cochain's values by
``coboundary`` and ``is_cocycle``.

Each H^n is read through one ``linalg.subquotient``, only as matrices: the
columns of ``generators()`` are the representatives; an induced map
(restriction, inflation, conjugation) reads the classes of all source
images, at the positions the target's presentation reads, with one call;
``class_of`` reads one cochain that ``is_cocycle`` accepts.  Kernels,
fixed subgroups and images of such maps are subquotients of
Z/a_1 + ... + Z/a_s, for a the invariant factors, read the same way.

The rows whose last argument lies in a generating set X cut out the same
cocycle lattice as all rows.  Evaluate d(d f) = 0 at (g_1, ..., g_n, h, k):
every term but (d f)(g_1, ..., g_n, hk) has last argument h or k, so the k
with (d f)(.., k) = 0 for all leading arguments are closed under products,
and a non-empty X reaches all of G.

A ``CohomologyGroup`` knows its invariant factors from construction, found
on one path per degree.  For n >= 1 and gcd(|G|, e) = 1, e the exponent of
M, H^n(G, M) = 0 is read from the theorem, with no elimination: |G| kills
H^n (restriction-corestriction; Brown, *Cohomology of Groups*, ch. III
section 10), and multiplication by |G| is an automorphism of M, so it
induces one of H^n.  Otherwise H^0 is the fixed submodule (``fixed_subgroup``,
on the degree-0 differential's rows in their order) and H^1 is presented in
Cayley-graph coordinates (below), both when computed.  H^2 reads its factors
in Cayley-graph coordinates, and if nontrivial builds its presentation on
first read from all rows of the bar complex (``_z_presentation``: the integer
cocycle lifts modulo the coboundaries and the coefficient orders), which must
find the same factors.
The factors are read one prime p of |G| at a time, for p^k exactly dividing
e and p^v exactly dividing |G|.  |G| kills H^2, so H^2(G, M) is the sum over
these p of H^2(G, M / p^k M), each of exponent at most p^v, and the j-th
largest factor is the product of the j-th largest factors of the p-parts.
Each p-part is the one Cayley-graph quotient at p^k.  When k = 1 it is an
F_p-space, whatever its action, and its order counts its factors.  Else
its Smith input is read mod p^min(k, v + 1) with no Smith form
(``linalg.local_factors``): p^k kills the quotient and p^v each factor.

Cayley-graph coordinates.  Let T be the breadth-first spanning tree, rooted
at 1, of the right Cayley graph of (G, X): an edge h -> hx for each h in G
and x in X.  Write P_k for the tree path from 1 to k; each edge h -> hx
outside T closes the fundamental cycle z = (h, x) + P_h - P_hx, and these
|G| (|X| - 1) + 1 cycles are a basis of the cycles (``_cayley_tree``).

A 1-cocycle f has f(1) = 0 and f(hx) = f(h) + h.f(x), which is
d f(h, x) = 0.  For a combination z of edges write z.f for the sum of its
coefficients times h.f(x) over its edges (h, x).  Along T, f(k) = P_k.f, so
f is fixed by its values f(x), x in X, and d f(h, x) = z.f for the cycle z
of the edge; z is 0 on the edges of T.  Conversely, take any values at X
with z.f = 0 for every fundamental cycle z, and set f(k) = P_k.f.  Then
d f(h, x) = 0 for every h and x in X, and f(x) = P_x.f is the value given
(the edge 1 -> x is in T, or its cycle says so).  By the lemma above that
makes f a cocycle.  So the cycle rows are complete: H^1 is one subquotient
of Z^(|X| r), cut out by r (|G| (|X| - 1) + 1) rows, with the coboundary of
m reading x.m - m at x (``_cayley_h1``).  The representatives are rebuilt
as bar cochains by one product with the tree-path matrix.  Reading a
cochain at X is injective on cocycles only, so ``class_of`` reads a class
at X only from a cochain that ``is_cocycle`` accepts.
The image of a cocycle under a cochain map is a cocycle, so an induced map
reads its images at X alone.  ``sha_finite`` reads a subgroup H of G at its
own generating set Y, with no H^1 of H: a cocycle's class on H is 0 exactly
when its values at Y lie in {(y.m - m)_y : m in M}, since a cocycle of H
that vanishes on Y vanishes on H (Brown, *Cohomology of Groups*, ch. III).
So the class is read in M^Y / {(y.m - m)_y}, the coboundary part of H's
Cayley-graph subquotient with no cycle rows.  The kernel is counted first,
in the values at X: H^1's triangular basis rows cut out exactly the
cocycles, the rebuild at Y takes a cocycle's values at X to its values at
Y, and a class vanishes on H exactly when the coordinates of those values
are 0 mod the factors of H's quotient, so these rows cut out exactly the
kernel.  It is presented, from H^1's representatives, only when its order
is above 1.

For an integer combination z of edges write f(z) for the sum of its
coefficients times f(h, x) over its edges (h, x), and gz for its left
translate, (h, x) -> (gh, x).  The coboundary of a 1-cochain c reads
g.c(x) - c(gx) + c(g) at (g, x), and c(1) at (1, 1).  A 2-cocycle f is
cohomologous to one that vanishes at (1, 1) and on T: take c(1) = -f(1, 1),
so f + dc reads f(1, x) - f(1, 1) = 0 at each edge 1 -> x (d f(1, 1, x) =
0), and choose c(k) along T for each other edge h -> k.  For such an f,
d f(g, 1, 1) = 0 and d f(g, h, x) = 0 give f(g, 1) = 0 and, along T,
f(g, k) = f(g P_k) - g.f(P_k); then d f(g, h, x) = g.f(z) - f(gz) for the
cycle z of the edge h -> hx.  So f is fixed by the value F_z at the one
edge of each fundamental cycle z outside T, and by the lemma above any
values F_z extend to a cocycle exactly when g.f(z) = f(gz) for every g and
z.  Translates of cycles are cycles, so g in X suffices.  The coboundaries
left are the dc with c(1) = 0 and c(k) = P_k.c, and dc reads z.c at the
edge of z: H^1's cycle rows.  So H^2 is one subquotient of
Z^(r (|G| (|X| - 1) + 1)), cut out by r |X| (|G| (|X| - 1) + 1) rows, with
|X| r coboundary columns (``_cayley_h2``): for C2^6 and rank 1, 321
columns, 1926 rows and 6 columns, where the bar complex has 4096, 24576
and 64.  C1 has X = {1} (``_generator_ends``): the loop 1 -> 1 is its one
cycle z, F_z = f(1, 1) is the whole cochain, its row reads F_z - F_z = 0,
and dc = z.c = c(1) kills it: H^2(C1, M) = 0.

Generators are ordered by Smith pivot order, so identical inputs always
produce identical representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

import numpy as np

from .albert import TooLarge, factorize
from .groups import FiniteGroup, GroupHom, Subgroup, _greedy_generators, quotient
from .gmodules import GModule, ModuleElement, restrict_module
from .linalg import (
    _BLOCK_ROWS,
    LatticeQuotient,
    _dtype,
    fixed_subgroup,
    identity_matrix,
    kernel_subgroup,
    subquotient,
    zero_matrix,
)

# Largest cochain-space dimension cohomology() will eliminate.
SIZE_BOUND = 20000


class IncompatibleCoefficients(ValueError):
    pass


def tuple_index(order: int, gs) -> int:
    """Lexicographic index of gs in G^len(gs); digit arrays in, index array
    out."""
    idx = 0
    for g in gs:
        idx = idx * order + g
    return idx


@dataclass(frozen=True)
class Cochain:
    """A total map from G^degree to the module, stored as the flat vector the
    engine solves with: the value at the tuple of lexicographic index t holds
    positions t * rank .. t * rank + rank - 1, coordinate i reduced mod
    orders[i].  Degree 3 occurs only as the ``coboundary`` of a degree-2
    cochain; ``is_cocycle`` builds none."""

    module: GModule
    degree: int
    vector: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.degree <= 3:
            raise ValueError("supported degrees are 0..3")
        r = self.module.rank
        expected = r * self.module.group.order ** self.degree
        if len(self.vector) != expected:
            raise ValueError(f"need {expected} coordinates, got {len(self.vector)}")
        orders = self.module.orders
        reduced = tuple(int(x) % orders[i % r] for i, x in enumerate(self.vector))
        object.__setattr__(self, "vector", reduced)

    def __call__(self, *gs: int) -> ModuleElement:
        if len(gs) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        order, r = self.module.group.order, self.module.rank
        for g in gs:
            if not 0 <= g < order:
                raise ValueError(f"argument {g} is not an element index 0..{order - 1}")
        start = tuple_index(order, gs) * r
        return self.vector[start:start + r]

    @property
    def is_zero(self) -> bool:
        return not any(self.vector)

    def add(self, other: "Cochain") -> "Cochain":
        if other.module != self.module or other.degree != self.degree:
            raise ValueError("cochains live in different spaces")
        return Cochain(
            self.module, self.degree, tuple(a + b for a, b in zip(self.vector, other.vector))
        )

    def scale(self, k: int) -> "Cochain":
        return Cochain(self.module, self.degree, tuple(k * x for x in self.vector))

    def to_report(self) -> dict:
        return {
            ",".join(map(str, gs)): list(self(*gs))
            for gs in itertools.product(range(self.module.group.order), repeat=self.degree)
        }


def zero_cochain(module: GModule, degree: int) -> Cochain:
    return Cochain(module, degree, (0,) * (module.rank * module.group.order**degree))


@lru_cache(maxsize=None)
def _table(group: FiniteGroup) -> np.ndarray:
    """The multiplication table as an array, read only, cached."""
    table = np.array(group.mul_table)
    table.flags.writeable = False
    return table


def _bar_terms(group: FiniteGroup, n: int, idx: np.ndarray):
    """The degree-n differential's terms at the (n+1)-tuples of indices
    ``idx``: g_1, the index of (g_2, ..., g_{n+1}), and one row per other
    term, signed (-1)^1, ..., (-1)^(n+1): the index of the n-tuple with
    g_k g_{k+1} for each k, then of (g_1, ..., g_n)."""
    order, table = group.order, _table(group)
    digits = list(np.unravel_index(idx, (order,) * (n + 1)))
    terms = [
        tuple_index(order, digits[:k] + [table[digits[k], digits[k + 1]]] + digits[k + 2:])
        for k in range(n)
    ] + [idx // order]
    return digits[0], idx % order**n, np.stack(terms)


def _differential_blocks(group: FiniteGroup, module: GModule, n: int):
    """The degree-n differential in blocks of (n+1)-tuples in lexicographic
    order: the ``_bar_terms`` scattered into one row per ((n+1)-tuple,
    coordinate) over (n-tuple, coordinate) positions, with each row's
    modulus, its coordinate's order.  Terms may share a column (g_1 = 1 puts
    g_1.f(g_2, ..) and f(g_1 g_2, ..) on one), so they accumulate by
    ``np.add.at``.  Entries are int64, or Python ints past ``_dtype``'s bound."""
    order, r = group.order, module.rank
    dtype = _dtype(module.exponent)
    action = np.array(module.action, dtype=dtype).reshape(order, r, r)
    signs = np.array([(-1) ** k for k in range(1, n + 2)], dtype=dtype)
    n_inputs, tuples = r * order**n, np.arange(order ** (n + 1))
    i = np.arange(r)[:, None]
    step = max(1, _BLOCK_ROWS // max(r, 1))
    for first in range(0, tuples.size, step):
        acting, acted, terms = _bar_terms(group, n, tuples[first:first + step])
        t = np.arange(acting.size)[:, None, None]
        block = np.zeros((acting.size, r, n_inputs), dtype=dtype)
        # g_1 acting on f(g_2, ..., g_{n+1}): row i of g_1's action matrix
        block[t, i, (acted * r)[:, None, None] + i.T] = action[acting]
        # the other terms, each at coordinate i
        np.add.at(block, (t, i, terms.T[:, None] * r + i), signs)
        yield block.reshape(acting.size * r, n_inputs), list(module.orders) * acting.size


def _differential_values(cochain: Cochain):
    """The bar differential of a degree 0..2 cochain f, unreduced, one row of
    r values per (n+1)-tuple, in blocks of about ``_BLOCK_ROWS``^2 values, as
    ``congruence_kernel`` folds: the ``_bar_terms`` gathered from f, by
    broadcast products and ``sum`` (numpy 1.24 has no object ``einsum``).  A
    value sums r products below e^2 and n + 1 terms below e: int64 while
    (r + n + 1) e^2 < 2^63, else Python ints."""
    module, n = cochain.module, cochain.degree
    if n > 2:
        raise ValueError("coboundary implemented for degrees 0..2")
    order, r, e = module.group.order, module.rank, module.exponent
    dtype = np.int64 if (r + n + 1) * e * e < 2**63 else object
    f = np.array(cochain.vector, dtype=dtype).reshape(order**n, r)
    action = np.array(module.action, dtype=dtype).reshape(order, r, r)
    signs = np.array([(-1) ** k for k in range(1, n + 2)], dtype=dtype).reshape(-1, 1, 1)
    tuples, step = np.arange(order ** (n + 1)), max(1, _BLOCK_ROWS**2 // (r + n + 1))
    for first in range(0, tuples.size, step):
        acting, acted, terms = _bar_terms(module.group, n, tuples[first:first + step])
        yield (action[acting] * f[acted, None]).sum(axis=2) + (f[terms] * signs).sum(axis=0)


def coboundary(cochain: Cochain) -> Cochain:
    """The bar differential of a degree 0..2 cochain."""
    values = np.concatenate(list(_differential_values(cochain)))
    return Cochain(cochain.module, cochain.degree + 1, tuple(values.ravel()))


def is_cocycle(cochain: Cochain) -> bool:
    """Whether every row of the bar differential of a degree 0..2 cochain is
    0 mod its coordinate's order; no cochain of the next degree is built."""
    values = _differential_values(cochain)
    return not any((v % np.array(cochain.module.orders, dtype=v.dtype)).any() for v in values)


def _differential_rows(group: FiniteGroup, module: GModule, n: int):
    """The rows of ``_differential_blocks`` with their moduli, one at a
    time: the stream ``congruence_kernel`` reads."""
    for block, moduli in _differential_blocks(group, module, n):
        yield from zip(block, moduli)


def _coboundary_generators(group: FiniteGroup, module: GModule, n: int) -> np.ndarray:
    """Integer lifts of the degree-n coboundaries: the matrix of the
    degree-(n-1) differential, rows indexed by (n-tuple, coordinate) and
    columns by ((n-1)-tuple, coordinate), none in degree 0."""
    if not n:
        return zero_matrix(module.rank, 0)
    blocks = [block for block, _moduli in _differential_blocks(group, module, n - 1)]
    return np.concatenate(blocks).astype(object)


@dataclass(eq=False)
class CohomologyGroup:
    """H^degree(G, M) with invariant factors.  The presentation answers
    ``factors``, ``generators()`` (bar cochains, one per column) and
    ``coordinates(x)`` (bar cochains in, class coordinates out), whatever
    its coordinates.  ``_cohomology_cached`` assigns H^0 the fixed submodule
    and H^1 ``_cayley_h1``'s; an H^2 builds it from the bar complex, and the
    representatives, on first read; ``sha_finite`` assigns representatives
    and no presentation (None).  An H^n, n >= 1, with gcd(|G|, e) = 1 is 0
    by the theorem and gets none: a trivial group reads no presentation."""

    group: FiniteGroup
    module: GModule
    degree: int
    invariant_factors: tuple[int, ...]

    @cached_property
    def _presentation(self) -> LatticeQuotient | None:
        return _z_presentation(self.group, self.module, self.degree, self.invariant_factors)

    @cached_property
    def representatives(self) -> tuple[Cochain, ...]:
        if self.is_trivial:  # nothing to read from a presentation
            return ()
        generators = self._presentation.generators().T
        return tuple(Cochain(self.module, self.degree, tuple(g)) for g in generators)

    @cached_property
    def _representative_matrix(self) -> np.ndarray:
        """The representatives' vectors as the rows of one object matrix."""
        width = self.module.rank * self.group.order**self.degree
        vectors = [rep.vector for rep in self.representatives]
        return np.array(vectors, dtype=object).reshape(len(vectors), width)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def class_of(self, cochain: Cochain) -> "CohClass":
        """The class of a cocycle: ``is_cocycle`` is the one test."""
        if cochain.module != self.module or cochain.degree != self.degree:
            raise ValueError("cochain lives in a different complex")
        if not is_cocycle(cochain):
            raise ValueError("not a cocycle")
        if self.is_trivial:
            return CohClass(self, ())
        if self._presentation is None:
            raise ValueError("no witness data attached")
        column = np.array(cochain.vector, dtype=object).reshape(-1, 1)
        return CohClass(self, tuple(self._presentation.coordinates(column)[:, 0]))

    def element(self, coordinates) -> Cochain:
        """The representative cochain with the given generator coordinates,
        each reduced mod its invariant factor: one product with the
        representatives' matrix, reduced mod the orders."""
        coordinates = CohClass(self, coordinates).coordinates
        if not coordinates:
            return zero_cochain(self.module, self.degree)
        vector = np.array(coordinates, dtype=object) @ self._representative_matrix
        return Cochain(self.module, self.degree, tuple(vector))

    def to_report(self) -> dict:
        return {
            "degree": self.degree,
            "invariant_factors": list(self.invariant_factors),
            "representatives": [rep.to_report() for rep in self.representatives],
        }


@dataclass(frozen=True)
class CohClass:
    parent: CohomologyGroup = field(repr=False, compare=False)
    coordinates: tuple[int, ...] = ()

    def __post_init__(self):
        factors = self.parent.invariant_factors
        if len(self.coordinates) != len(factors):
            raise ValueError(f"need {len(factors)} coordinates, got {len(self.coordinates)}")
        reduced = tuple(int(c) % d for c, d in zip(self.coordinates, factors))
        object.__setattr__(self, "coordinates", reduced)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)


def _generator_ends(group: FiniteGroup) -> tuple[int, ...]:
    """The X of the Cayley-graph coordinates of H^1 and H^2: a generating
    set, never empty (C1's greedy set is empty; X = {1} gives C1 the loop
    1 -> 1 as its one edge and its one cycle)."""
    return group.generators or (0,)


def _z_presentation(group: FiniteGroup, module: GModule, degree: int, factors=None):
    """H^degree(G, M) as one subquotient of the integer bar cochains, cut out
    by every row of the differential, which must find the invariant
    ``factors`` when known (else ``ArithmeticError``): the reads of a
    nontrivial H^2, and the tests' reference in any degree.  Representatives
    depend on the row set, and ``verify-paper`` reports a map read on
    H^2's."""
    presentation = subquotient(
        module.orders * group.order**degree,
        module.exponent,
        _differential_rows(group, module, degree),
        _coboundary_generators(group, module, degree),
    )
    if factors is not None and presentation.factors != factors:
        raise ArithmeticError(
            f"invariant factors {factors} differ from the presentation's {presentation.factors}"
        )
    return presentation


@lru_cache(maxsize=None)
def _cayley_tree(group: FiniteGroup, ends: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The breadth-first spanning tree, rooted at 1, of the right Cayley
    graph of (G, X), X = ``ends``, over the edges h -> hx at h |X| + (the
    place of x in X): the tree path from 1 to each k, one row per k, and
    the fundamental cycles, one row per edge h -> hx outside the tree,
    holding that edge plus the tree path to h minus the tree path to hx.
    The cycles are a basis of the graph's cycles.  Every entry is 0 or +-1,
    so both are int8, and read only: the cache keeps them for every caller."""
    order, table, nx = group.order, group.mul_table, len(ends)
    paths = np.zeros((order, order * nx), dtype=np.int8)
    reached = {0}
    cycles = []
    queue = [0]
    for h in queue:  # the queue grows as the search reaches new elements
        for k, x in enumerate(ends):
            hx, edge = table[h][x], h * nx + k
            if hx in reached:
                cycle = paths[h] - paths[hx]
                cycle[edge] += 1
                cycles.append(cycle)
            else:
                paths[hx] = paths[h]
                paths[hx, edge] = 1
                reached.add(hx)
                queue.append(hx)
    cycles = np.array(cycles, dtype=np.int8)
    paths.flags.writeable = cycles.flags.writeable = False
    return paths, cycles


def _edge_sums(edges: np.ndarray, action: np.ndarray) -> np.ndarray:
    """For each row z of ``edges``, a combination of the edges (h, x) of the
    Cayley graph, the r x |X| r matrix taking the values f(x), x in X, of a
    1-cochain to sum_(h, x) z_(h, x) h.f(x): one block of r rows per z, in
    ``action``'s dtype.  A path z from 1 to k rebuilds f(k) of a cocycle,
    and a cycle z gives 0, and for any 1-cochain c gives dc(z).  One
    product of the edges, one row per (z, x), with the stacked action."""
    order, r = action.shape[:2]
    n, nx = len(edges), edges.shape[1] // order
    z = edges.reshape(n, order, nx).transpose(0, 2, 1).reshape(n * nx, order)
    blocks = z.astype(action.dtype) @ action.reshape(order, r * r)  # (z x, i j)
    return blocks.reshape(n, nx, r, r).transpose(0, 2, 1, 3).reshape(n * r, nx * r)


@dataclass(eq=False)
class _CayleyH1:
    """H^1(G, M) presented in Cayley-graph coordinates and read in bar
    coordinates: ``quotient`` is the subquotient of the values f(x), x in
    X = ``_generator_ends(group)``, ``reads`` picks the bar positions that
    hold them, and ``rebuild`` takes them to the bar cocycle, each position
    reduced mod its coordinate's order."""

    quotient: LatticeQuotient
    reads: np.ndarray = field(repr=False)
    rebuild: np.ndarray = field(repr=False)

    @property
    def factors(self) -> tuple[int, ...]:
        return self.quotient.factors

    def generators(self) -> np.ndarray:
        """The representatives, one bar cochain per column."""
        return self.rebuild @ self.quotient.generators()

    def coordinates(self, cocycles: np.ndarray) -> np.ndarray:
        """The class coordinates of the bar 1-cocycles in the columns of
        ``cocycles``, read at X, which is injective on cocycles only."""
        return self.quotient.coordinates(np.asarray(cocycles, dtype=object)[self.reads])


def _cayley_h1(group: FiniteGroup, module: GModule) -> _CayleyH1:
    """H^1(G, M) as one subquotient of Z^(|X| r) in Cayley-graph
    coordinates (see the module docstring): r rows for each fundamental
    cycle z, sum over the edges (h, x) of z of z_(h, x) h.f(x) = 0, and the
    coboundary of m reading x.m - m at x.  Its bar representatives are
    rebuilt along the tree paths.  Entries are int64 or, for an exponent
    past ``_dtype``'s bound, Python ints."""
    ends = _generator_ends(group)
    paths, cycles = _cayley_tree(group, ends)
    order, r, nx = group.order, module.rank, len(ends)
    dtype = _dtype(module.exponent)
    action = np.array(module.action, dtype=dtype).reshape(order, r, r)
    sub = action[list(ends)] - np.eye(r, dtype=dtype)
    quotient = subquotient(
        module.orders * nx,
        module.exponent,
        zip(_edge_sums(cycles, action), module.orders * len(cycles)),
        sub.reshape(nx * r, r).astype(object),
    )
    reads = (np.array(ends)[:, None] * r + np.arange(r)).ravel()
    moduli = np.array(module.orders * order, dtype=dtype).reshape(order * r, 1)
    return _CayleyH1(quotient, reads, _edge_sums(paths, action) % moduli)


@lru_cache(maxsize=None)
def _cayley_translates(group: FiniteGroup, ends: tuple[int, ...]) -> np.ndarray:
    """T_g for each g in X = ``ends``, stacked: row z of T_g holds the
    coefficients of the translate gz of the fundamental cycle z at the edges
    outside the tree, one column for the edge of each cycle (``_cayley_tree``).
    gz holds at the edge (h, x) the coefficient of z at (g^-1 h, x).  Every
    entry is 0 or +-1, so the stack is int8, and read only: the cache keeps it
    for every caller."""
    nx = len(ends)
    paths, cycles = _cayley_tree(group, ends)
    # the one edge h -> hx outside the tree that each cycle holds, as (h, place of x)
    outside = np.flatnonzero(~paths.any(axis=0))
    own_h, own_x = divmod(outside[np.nonzero(cycles[:, outside])[1]], nx)
    back = _table(group)[[group.inv(g) for g in ends]][:, own_h] * nx + own_x
    translates = np.ascontiguousarray(cycles[:, back].transpose(1, 0, 2))
    translates.flags.writeable = False
    return translates


def _cayley_h2(group: FiniteGroup, module: GModule, d: int) -> LatticeQuotient:
    """H^2(G, M / dM) as one subquotient of Z^(r (|G| (|X| - 1) + 1)) in
    Cayley-graph coordinates (see the module docstring), F_z at the edge
    outside the tree of each fundamental cycle z, with each order and row
    modulus of M cut to its gcd with d, so no module M / dM is built.  The
    rows stream into ``congruence_kernel`` one block I (x) g - T_g (x) I_r
    per g in X: g.F_z = f(gz), T_g holding the coefficients of the
    translates gz at the edges outside the tree (``_cayley_translates``).
    Each block is one broadcast of -T_g against I_r with the action of g
    added on its diagonal.  The coboundary columns are H^1's cycle rows.
    Entries are int64 or, for an exponent past ``_dtype``'s bound, Python
    ints."""
    ends = _generator_ends(group)
    order, r = group.order, module.rank
    cycles = _cayley_tree(group, ends)[1]
    n = len(cycles)
    moduli = [gcd(o, d) for o in module.orders]
    dtype = _dtype(module.exponent)
    action = np.array(module.action, dtype=dtype).reshape(order, r, r)
    minus_eye = -np.eye(r, dtype=dtype)[:, None, :]
    diagonal = np.arange(n)

    def rows():
        for g, translate in zip(ends, _cayley_translates(group, ends)):
            block = translate[:, None, :, None] * minus_eye  # (z, i, z', j)
            block[diagonal, :, diagonal] += action[g]
            yield from zip(block.reshape(n * r, n * r), moduli * n)

    return subquotient(
        tuple(moduli) * n,
        gcd(module.exponent, d),
        rows(),
        _edge_sums(cycles, action).astype(object),
    )


def _h2_factors(group: FiniteGroup, module: GModule) -> tuple[int, ...]:
    """The invariant factors of H^2(G, M), one prime p of |G| at a time,
    with p^k exactly dividing e (see the module docstring)."""
    factors = []
    for p, v in factorize(group.order).items():
        k, layer = 0, []
        while module.exponent % p ** (k + 1) == 0:
            k += 1
        if k == 1:  # an F_p-space: its order counts its factors
            layer = [p] * factorize(_cayley_h2(group, module, p).order).get(p, 0)
        elif k:
            layer = _cayley_h2(group, module, p**k).local_factors(p, k, v)[::-1]
        # largest first: the j-th largest factors multiply
        factors = [a * b for a, b in itertools.zip_longest(factors, layer, fillvalue=1)]
    return tuple(reversed(factors))


@lru_cache(maxsize=None)
def _cohomology_cached(group: FiniteGroup, module: GModule, degree: int):
    if degree and gcd(group.order, module.exponent) == 1:  # restriction-corestriction
        return CohomologyGroup(group, module, degree, ())
    if degree == 2:  # presented from the bar complex on first read
        return CohomologyGroup(group, module, 2, _h2_factors(group, module))
    presentation = _cayley_h1(group, module) if degree else fixed_subgroup(
        module.orders, module.action
    )
    coh = CohomologyGroup(group, module, degree, presentation.factors)
    coh._presentation = presentation
    return coh


def cohomology(group: FiniteGroup, module: GModule, degree: int) -> CohomologyGroup:
    """H^degree(G, M) for degree in {0, 1, 2}; ``TooLarge`` when the cochain
    space has dimension above ``SIZE_BOUND``."""
    if degree not in (0, 1, 2):
        raise ValueError("degrees 0, 1, 2 are supported")
    if module.group != group:
        raise ValueError("module is not over this group")
    n_inputs = module.rank * group.order**degree
    if n_inputs > SIZE_BOUND:
        raise TooLarge(
            f"cochain space of dimension {n_inputs} exceeds the bound {SIZE_BOUND}"
        )
    return _cohomology_cached(group, module, degree)


def _vanishes(matrix, moduli) -> bool:
    """Whether row i of the matrix is 0 mod moduli[i], for every i."""
    return all(int(x) % d == 0 for row, d in zip(matrix, moduli) for x in row)


@dataclass(eq=False)
class CohomologyMap:
    """A homomorphism between computed cohomology groups, as an integer
    matrix on invariant-factor coordinates (one column per source generator)."""

    source: CohomologyGroup
    target: CohomologyGroup
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, cls: CohClass) -> CohClass:
        if cls.parent is not self.source:
            raise ValueError("class does not belong to the source group")
        coords = tuple(
            sum(row[j] * cls.coordinates[j] for j in range(len(cls.coordinates)))
            for row in self.matrix
        )
        return CohClass(self.target, coords)

    @property
    def is_zero(self) -> bool:
        return _vanishes(self.matrix, self.target.invariant_factors)

    def kernel(self) -> tuple[tuple[int, ...], tuple[CohClass, ...]]:
        """Invariant factors and generators of the kernel subgroup."""
        quot = self._kernel
        return quot.factors, tuple(CohClass(self.source, g) for g in quot.generators().T)

    @cached_property
    def _kernel(self) -> LatticeQuotient:
        a, b = self.source.invariant_factors, self.target.invariant_factors
        return kernel_subgroup(a, [(self.matrix, b)])

    def image_invariants(self) -> tuple[int, ...]:
        """The image is the source modulo the kernel."""
        a = self.source.invariant_factors
        return subquotient(a, lcm(*a), iter(()), self._kernel.generators()).factors

    @property
    def is_injective(self) -> bool:
        return self._kernel.is_trivial

    @property
    def is_isomorphism(self) -> bool:
        return self.is_injective and self.source.order == self.target.order


def _induced_map(source: CohomologyGroup, target: CohomologyGroup, elements, coefficients):
    """Matrix of the map on cohomology induced by the cochain map
    f -> (t -> C f(phi(t_1), ..., phi(t_n))), ``elements`` listing phi(t)
    for each t in the target group and ``coefficients`` the integer matrix
    C: one column per source generator, the target class of its image.  The
    image of a cocycle is a cocycle, so it is not tested, and is pulled back
    only where the target's presentation reads: an H^1's values at X, and
    every position of an H^0 or H^2.  A trivial source maps to no column and
    a trivial target has no row, so neither presentation is read."""
    if source.is_trivial or target.is_trivial:
        return ((),) * len(target.invariant_factors)
    r, degree, order = source.module.rank, source.degree, source.group.order
    presentation, rank, n = target._presentation, target.module.rank, len(elements)
    # the target tuples t read, every coordinate of each, in position order
    if isinstance(presentation, _CayleyH1):
        tuples, read = presentation.reads[::rank] // rank, presentation.quotient.coordinates
    else:
        tuples, read = np.arange(n**degree), presentation.coordinates
    # the index of (phi(t_1), ..., phi(t_n)) for each, from the digits of t
    pulled, elements = 0, np.asarray(elements)
    for k in reversed(range(degree)):
        pulled = pulled * order + elements[tuples // n**k % n]
    reps = source._representative_matrix.reshape(-1, order**degree, r)[:, pulled]
    images = reps @ np.array(coefficients, dtype=object).T
    return tuple(map(tuple, read(images.reshape(len(reps), -1).T)))


def restriction(coh: CohomologyGroup, subgroup: Subgroup) -> CohomologyMap:
    """Restriction of cocycles to a subgroup, as a map of computed groups."""
    if subgroup.parent != coh.group:
        raise ValueError("subgroup belongs to a different group")
    sub_group, embed = subgroup.as_group
    target = cohomology(sub_group, restrict_module(coh.module, subgroup), coh.degree)
    matrix = _induced_map(coh, target, embed, coh.module.action[0])
    return CohomologyMap(coh, target, matrix)


def inflation(
    coh: CohomologyGroup,
    proj: GroupHom,
    module: GModule,
    embedding: np.ndarray,
) -> CohomologyMap:
    """Inflation along G -> G/N, from coefficients in the fixed submodule.

    ``coh`` is a cohomology group of proj.target whose coefficients embed in
    ``module`` (a module over proj.source) via the integer matrix
    ``embedding`` (one column per coefficient summand).
    """
    if coh.group != proj.target:
        raise IncompatibleCoefficients("cohomology is not over the quotient group")
    if module.group != proj.source:
        raise IncompatibleCoefficients("module is not over the source group")
    emb = np.array(embedding, dtype=object)
    if emb.shape != (module.rank, coh.module.rank):
        raise IncompatibleCoefficients("embedding has the wrong shape")
    # the embedding must define an injective, equivariant homomorphism
    if not _vanishes(emb * np.array(coh.module.orders, dtype=object), module.orders):
        raise IncompatibleCoefficients("embedding does not respect the orders")
    # both sides are multiplicative in g, so generators of G suffice
    for g in proj.source.generators:
        lhs = module.action_matrix(g) @ emb
        rhs = emb @ coh.module.action_matrix(proj(g))
        if not _vanishes(lhs - rhs, module.orders):
            raise IncompatibleCoefficients("embedding is not equivariant")
    if kernel_subgroup(coh.module.orders, [(emb, module.orders)]).factors:
        raise IncompatibleCoefficients("embedding is not injective")
    target = cohomology(module.group, module, coh.degree)
    return CohomologyMap(coh, target, _induced_map(coh, target, proj.images, emb))


@dataclass(eq=False)
class ConjugationAction:
    """Action of G/N on H^n(N, M) by conjugation of cochains:
    (g.f)(n_1, ...) = g.f(g^-1 n_1 g, ...)."""

    cohomology: CohomologyGroup
    quotient_group: FiniteGroup
    projection: GroupHom
    matrices: tuple[tuple[tuple[int, ...], ...], ...]

    def fixed_subgroup(self) -> tuple[tuple[int, ...], tuple[CohClass, ...]]:
        """Invariant factors and generators of the fixed subgroup."""
        quot = fixed_subgroup(self.cohomology.invariant_factors, self.matrices)
        return quot.factors, tuple(CohClass(self.cohomology, g) for g in quot.generators().T)


def conjugation_on_cohomology(
    group: FiniteGroup,
    normal: Subgroup,
    module: GModule,
    degree: int,
) -> ConjugationAction:
    """The G/N-action on H^degree(N, M) for a normal subgroup N."""
    sub_group, embed = normal.as_group
    pos = {g: i for i, g in enumerate(embed)}
    coh = cohomology(sub_group, restrict_module(module, normal), degree)
    q_group, proj = quotient(group, normal)

    def conjugated_matrix(g: int):
        g_inv = group.inv(g)
        elements = [pos[group.mul(group.mul(g_inv, n), g)] for n in embed]
        return _induced_map(coh, coh, elements, module.action[g])

    matrices = tuple(conjugated_matrix(g) for g in proj.section)
    # inner conjugations must act trivially (they compose: N's generators suffice)
    b = coh.invariant_factors
    for x in sub_group.generators:
        if not _vanishes(conjugated_matrix(embed[x]) - identity_matrix(len(b)), b):
            raise ArithmeticError("inner action is not trivial")
    return ConjugationAction(
        cohomology=coh, quotient_group=q_group, projection=proj, matrices=matrices
    )


@lru_cache(maxsize=None)
def _reduced_family(family: tuple[Subgroup, ...]) -> tuple[tuple[int, ...], ...]:
    """The greedy generators in G of the members ``sha_finite`` reads: the
    first maximal member of each conjugacy class, in the family's order.  A
    function of the family alone, cached, so the one tuple that
    ``cyclic_subgroups`` hands every module over a group is reduced once."""
    sets, kept = [frozenset(sub.elements) for sub in family], []
    for sub, inside in zip(family, sets):
        if not any(inside < other for other in sets) and not any(
            sub.elements in other.conjugates for other in kept
        ):
            kept.append(sub)
    return tuple(_greedy_generators(sub.parent, sub.elements) for sub in kept)


@lru_cache(maxsize=None)
def _values_quotient(orders: tuple[int, ...], actions: tuple) -> LatticeQuotient:
    """M^Y / {(y.m - m)_y : m in M} for the action matrices of y in Y: the
    coboundary part of ``_cayley_h1``'s subquotient, with no cycle rows.
    Cached by value, so subgroups whose generators act alike share it."""
    r, e = len(orders), orders[-1]
    dtype = _dtype(e)
    sub = np.array(actions, dtype=dtype).reshape(len(actions), r, r) - np.eye(r, dtype=dtype)
    return subquotient(orders * len(actions), e, iter(()), sub.reshape(-1, r).astype(object))


def _sha_order(h1: _CayleyH1, exponent: int, kept) -> int:
    """The order of the kernel of H^1(G, M) -> prod_H M^Y / {(y.m - m)_y},
    counted in H^1's Cayley-graph coordinates x, the values at X, with no
    Smith form.  ``kept`` holds, for each member H read, its target
    quotient and the bar positions of its generators Y.

    H^1's triangular basis rows, taken mod e, cut out exactly its cocycle
    lattice L (``linalg.Lattice``).  For x in L, E_H x = ``h1.rebuild`` at
    the positions of Y is the values at Y of the cocycle, so the class of x
    vanishes on H exactly when the target's coordinates of E_H x are 0 mod
    its factors, each of which divides e: one congruence row per factor.
    These rows vanish on the coboundaries and on diag(orders), so the
    kernel is one subquotient with H^1's orders and coboundary columns.
    Only its order is read, so repeated and zero rows are dropped, and each
    target reads the E_H of all its members side by side, with one call."""
    members: dict = {}  # the positions read through each distinct target
    for target, at in kept:
        members.setdefault(target, []).append(at)
    quotient, width = h1.quotient, h1.rebuild.shape[1]
    basis = (quotient.lattice.reduced % exponent).tolist()
    rows = dict.fromkeys((tuple(row), exponent) for row in basis)
    for target, reads in members.items():
        values = np.concatenate([h1.rebuild[at] for at in reads], axis=1)
        for row, d in zip(target.coordinates(values).tolist(), target.factors):
            rows.update(((tuple(row[k:k + width]), d), None) for k in range(0, len(row), width))
    cuts = ((list(row), d) for row, d in rows if any(row))
    return subquotient(quotient.orders, exponent, cuts, quotient.sub).order


def sha_finite(
    group: FiniteGroup,
    module: GModule,
    family,
) -> CohomologyGroup:
    """Classes of H^1(G, M) restricting to zero on every subgroup in the
    family: the finite-coefficient locally-trivial kernel.

    Only one maximal member per conjugacy class is read, the first in the
    family's order (``_reduced_family``).  Restriction to H factors through
    restriction to any member containing H, so a class vanishing there
    vanishes on H; and conjugation by g in G acts trivially on H^*(G, M)
    (Brown, *Cohomology of Groups*, ch. III), so a class vanishes on H
    exactly when it vanishes on g H g^-1.

    No H^1 of a member is computed.  For H generated by Y, the map
    H^1(H, M) -> M^Y / {(y.m - m)_y : m in M}, [f] -> (f(y))_y, is
    injective: if f(y) = y.m - m for every y in Y, then f - dm is a cocycle
    that vanishes on Y, hence on H, as f(hy) = f(h) + h.f(y).  So a class
    vanishes on H exactly when its values at Y vanish in that quotient
    (``_values_quotient``).

    The kernel is counted first, in H^1's Cayley-graph coordinates
    (``_sha_order``), and an order of 1 is the answer: no representative of
    H^1 is read.  Otherwise it is presented in H^1's invariant-factor
    coordinates, from the representatives read at the positions of Y, with
    the rows fed in the family's order; its order must equal the count
    (else ``ArithmeticError``)."""
    family = tuple(family)
    if not family:
        raise ValueError("the family of subgroups must be nonempty")
    if any(sub.parent != group for sub in family):
        raise ValueError("subgroup belongs to a different group")
    h1 = cohomology(group, module, 1)
    factors, representatives = (), ()
    if not h1.is_trivial:
        r, kept = module.rank, []  # (target, positions of Y) per kept member
        for ends in _reduced_family(family):
            target = _values_quotient(module.orders, tuple(module.action[y] for y in ends))
            if not target.is_trivial:
                kept.append((target, (np.array(ends)[:, None] * r + np.arange(r)).ravel()))
        order = _sha_order(h1._presentation, module.exponent, kept)
        if order > 1:
            values = h1._representative_matrix
            maps = [(target.coordinates(values[:, at].T), target.factors) for target, at in kept]
            quot = kernel_subgroup(h1.invariant_factors, maps)
            if quot.order != order:
                raise ArithmeticError(f"the kernel has order {quot.order}, but {order} was counted")
            factors = quot.factors
            representatives = tuple(h1.element(g) for g in quot.generators().T)
    sha = CohomologyGroup(group, module, 1, factors)
    sha._presentation, sha.representatives = None, representatives
    return sha
