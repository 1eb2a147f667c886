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
of G^n in lexicographic order.  The differential is built one block of
tuples at a time, as a numpy matrix whose columns are gathers on the
multiplication table; the kernel rows, the coboundary generators and
``coboundary`` all read those same blocks.

H^n is one ``linalg.subquotient`` of the cochain space: the integer cocycle
lifts (the congruence kernel of the degree-n differential rows) modulo the
columns of the degree-(n-1) differential matrix plus the coefficient
relations.  The resulting witness data turns every later map (restriction,
inflation, conjugation, locally-trivial kernels) into integer matrix
algebra, and each kernel, fixed subgroup or image of such a map is another
subquotient.

Generators are ordered by Smith pivot order, so identical inputs always
produce identical representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

import numpy as np

from .groups import FiniteGroup, GroupHom, Subgroup, quotient
from .gmodules import GModule, ModuleElement, restrict_module
from .linalg import (
    _BLOCK_ROWS,
    LatticeQuotient,
    NotInLattice,
    _dtype,
    fixed_subgroup,
    kernel_subgroup,
    subquotient,
    zero_matrix,
)

# Largest cochain-space dimension cohomology() will eliminate.
SIZE_BOUND = 20000


class TooLarge(ValueError):
    pass


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
    orders[i].  Degree 3 occurs only as a coboundary of a degree-2 cochain,
    for cocycle testing."""

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
        r = self.module.rank
        start = tuple_index(self.module.group.order, gs) * r
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


def _differential_blocks(group: FiniteGroup, module: GModule, n: int):
    """The degree-n differential, one block of (n+1)-tuples at a time in
    lexicographic order.  Yields the block's matrix, one row per ((n+1)-tuple,
    coordinate) over (n-tuple, coordinate) positions, and the modulus of
    each row.  Column indices are gathers on the multiplication table; the
    terms of a row may share a column (g_1 = 1 puts g_1.f(g_2, ..) and
    f(g_1 g_2, ..) on one), so they are accumulated with ``np.add.at``.
    Entries are int64 or, for an exponent past ``_dtype``'s bound, Python
    ints."""
    order, r = group.order, module.rank
    table = np.array(group.mul_table)
    dtype = _dtype(module.exponent)
    action = np.array(module.action, dtype=dtype).reshape(order, r, r)
    signs = np.array([(-1) ** k for k in range(1, n + 2)], dtype=dtype)
    n_inputs, count = r * order**n, order ** (n + 1)
    i = np.arange(r)[:, None]
    step = max(1, _BLOCK_ROWS // max(r, 1))
    for first in range(0, count, step):
        idx = np.arange(first, min(first + step, count))
        digits = list(np.unravel_index(idx, (order,) * (n + 1)))
        t = np.arange(idx.size)[:, None, None]
        block = np.zeros((idx.size, r, n_inputs), dtype=dtype)
        # g_1 acting on f(g_2, ..., g_{n+1}): row i of g_1's action matrix
        block[t, i, (idx % order**n * r)[:, None, None] + i.T] = action[digits[0]]
        # the products g_k g_{k+1}, then f(g_1, ..., g_n), each at coordinate i
        terms = [
            tuple_index(order, digits[:k] + [table[digits[k], digits[k + 1]]] + digits[k + 2:])
            for k in range(n)
        ] + [idx // order]
        np.add.at(block, (t, i, np.stack(terms, axis=1)[:, None] * r + i), signs)
        yield block.reshape(idx.size * r, n_inputs), list(module.orders) * idx.size


def coboundary(cochain: Cochain) -> Cochain:
    """The bar differential of a degree 0..2 cochain."""
    module = cochain.module
    n = cochain.degree
    if n > 2:
        raise ValueError("coboundary implemented for degrees 0..2")
    f = np.array(cochain.vector, dtype=object)
    values = [block @ f for block, _moduli in _differential_blocks(module.group, module, n)]
    return Cochain(module, n + 1, tuple(np.concatenate(values)))


def is_cocycle(cochain: Cochain) -> bool:
    return coboundary(cochain).is_zero


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
    """H^degree(G, M) with invariant factors, cocycle representatives, and
    the witness data needed to express any cocycle in the generators."""

    group: FiniteGroup
    module: GModule
    degree: int
    invariant_factors: tuple[int, ...]
    representatives: tuple[Cochain, ...]
    _presentation: LatticeQuotient | None = field(repr=False, default=None)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def class_of(self, cochain: Cochain) -> "CohClass":
        if cochain.module != self.module or cochain.degree != self.degree:
            raise ValueError("cochain lives in a different complex")
        if self._presentation is None:
            if self.invariant_factors:
                raise ValueError("no witness data attached")
            if not is_cocycle(cochain):
                raise ValueError("not a cocycle")
            return CohClass(self, ())
        try:
            coords = self._presentation.coordinates(np.array(cochain.vector, dtype=object))
        except NotInLattice:
            raise ValueError("not a cocycle") from None
        return CohClass(self, coords)

    def element(self, coordinates) -> Cochain:
        """The representative cochain with the given generator coordinates."""
        acc = zero_cochain(self.module, self.degree)
        for c, rep in zip(coordinates, self.representatives):
            acc = acc.add(rep.scale(int(c)))
        return acc

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
        reduced = tuple(
            int(c) % d for c, d in zip(self.coordinates, self.parent.invariant_factors)
        )
        object.__setattr__(self, "coordinates", reduced)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)


@lru_cache(maxsize=None)
def _cohomology_cached(group: FiniteGroup, module: GModule, degree: int):
    if module.rank == 0:
        return CohomologyGroup(group, module, degree, (), ())
    presentation = subquotient(
        module.orders * group.order**degree,
        module.exponent,
        _differential_rows(group, module, degree),
        _coboundary_generators(group, module, degree),
    )
    reps = tuple(Cochain(module, degree, tuple(g)) for g in presentation.generators())
    return CohomologyGroup(
        group=group,
        module=module,
        degree=degree,
        invariant_factors=presentation.factors,
        representatives=reps,
        _presentation=presentation,
    )


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
        b = self.target.invariant_factors
        return all(
            val % b[i] == 0 for i, row in enumerate(self.matrix) for val in row
        )

    def kernel(self) -> tuple[tuple[int, ...], tuple[CohClass, ...]]:
        """Invariant factors and generators of the kernel subgroup."""
        factors, gens = _subgroup(
            kernel_subgroup,
            self.source.invariant_factors,
            [(self.matrix, self.target.invariant_factors)],
        )
        return factors, tuple(CohClass(self.source, g) for g in gens)

    def image_invariants(self) -> tuple[int, ...]:
        """The image is Z^s / L for L the lift of the kernel."""
        a = self.source.invariant_factors
        if not a:
            return ()
        lift = kernel_subgroup(a, [(self.matrix, self.target.invariant_factors)]).lattice
        return tuple(sorted(d for d in lift.scales if d != 1))

    @property
    def is_injective(self) -> bool:
        factors, _ = self.kernel()
        return factors == ()

    @property
    def is_isomorphism(self) -> bool:
        return self.is_injective and self.source.order == self.target.order


def _subgroup(build, orders, arg):
    """Invariant factors and generator coordinate tuples of the subgroup
    ``build(orders, arg)`` of Z/a_1 + ... + Z/a_r, a = ``orders``."""
    if not orders:
        return (), ()
    quot = build(orders, arg)
    gens = tuple(
        tuple(int(x) % d for x, d in zip(g, orders)) for g in quot.generators()
    )
    return quot.factors, gens


def _induced_map(source: CohomologyGroup, target: CohomologyGroup, elements, coefficients):
    """Matrix of the map on cohomology induced by the cochain map
    f -> (t -> C f(phi(t_1), ..., phi(t_n))), where ``elements`` lists
    phi(t) for each element t of the target group and ``coefficients`` is
    the integer matrix C from source to target coordinates: one column per
    source generator, holding the target class of its image."""
    r, degree, order = source.module.rank, source.degree, source.group.order
    count = len(elements) ** degree
    # the index of (phi(t_1), ..., phi(t_n)) for each target tuple t
    digits = np.indices((len(elements),) * degree).reshape(degree, count)
    pulled = np.reshape(tuple_index(order, np.asarray(elements)[digits]), count)
    reps = np.array([rep.vector for rep in source.representatives], dtype=object)
    coeff = np.array(coefficients, dtype=object)
    images = reps.reshape(len(reps), order**degree, r)[:, pulled] @ coeff.T
    cols = [
        target.class_of(Cochain(target.module, target.degree, tuple(image.ravel()))).coordinates
        for image in images
    ]
    return tuple(
        tuple(col[i] for col in cols) for i in range(len(target.invariant_factors))
    )


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
    for j, d in enumerate(coh.module.orders):
        col = emb[:, j] * d
        if any(int(col[i]) % module.orders[i] != 0 for i in range(module.rank)):
            raise IncompatibleCoefficients("embedding does not respect the orders")
    # both sides are multiplicative in g, so generators of G suffice
    for g in proj.source.generators:
        lhs = module.action_matrix(g) @ emb
        rhs = emb @ coh.module.action_matrix(proj(g))
        for i in range(module.rank):
            for j in range(coh.module.rank):
                if (int(lhs[i, j]) - int(rhs[i, j])) % module.orders[i] != 0:
                    raise IncompatibleCoefficients("embedding is not equivariant")
    if coh.module.orders and kernel_subgroup(coh.module.orders, [(emb, module.orders)]).factors:
        raise IncompatibleCoefficients("embedding is not injective")
    target = cohomology(module.group, module, coh.degree)
    return CohomologyMap(coh, target, _induced_map(coh, target, proj.images, emb))


def _is_identity_mod(matrix, moduli) -> bool:
    """Whether the square matrix is the identity, row i taken mod moduli[i]."""
    return all(
        (matrix[i][j] - (1 if i == j else 0)) % d == 0
        for i, d in enumerate(moduli)
        for j in range(len(moduli))
    )


@dataclass(eq=False)
class ConjugationAction:
    """Action of G/N on H^n(N, M) by conjugation of cochains:
    (g.f)(n_1, ...) = g.f(g^-1 n_1 g, ...)."""

    cohomology: CohomologyGroup
    quotient_group: FiniteGroup
    projection: GroupHom
    matrices: tuple[tuple[tuple[int, ...], ...], ...]

    def fixed_subgroup(self):
        return _subgroup(fixed_subgroup, self.cohomology.invariant_factors, self.matrices)


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
    assert all(
        _is_identity_mod(conjugated_matrix(embed[x]), b) for x in sub_group.generators
    ), "inner action is not trivial"
    return ConjugationAction(
        cohomology=coh, quotient_group=q_group, projection=proj, matrices=matrices
    )


def sha_finite(
    group: FiniteGroup,
    module: GModule,
    family,
) -> CohomologyGroup:
    """Classes of H^1(G, M) restricting to zero on every subgroup in the
    family: the finite-coefficient locally-trivial kernel."""
    family = list(family)
    if not family:
        raise ValueError("the family of subgroups must be nonempty")
    h1 = cohomology(group, module, 1)
    if h1.is_trivial:
        return CohomologyGroup(group, module, 1, (), ())
    maps = []
    for sub in family:
        res = restriction(h1, sub)
        maps.append((res.matrix, res.target.invariant_factors))
    factors, gens = _subgroup(kernel_subgroup, h1.invariant_factors, maps)
    reps = tuple(h1.element(g) for g in gens)
    return CohomologyGroup(
        group=group,
        module=module,
        degree=1,
        invariant_factors=factors,
        representatives=reps,
    )
