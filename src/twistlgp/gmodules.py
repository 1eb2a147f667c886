"""Finite abelian groups with an action of a finite group.

A module is presented as Z/d_1 + ... + Z/d_r with d_1 | d_2 | ... (invariant
factors, unit factors dropped), so equal modules compare equal.  Elements
are coordinate tuples, coordinate i reduced mod d_i.  Each group element acts
by an integer matrix stored with entry (i, j) reduced mod d_i.

There is one checked construction path: ``GModule`` checks an action as one
(|G|, r, r) array.  ``gmodule`` brings any presentation to canonical form
with one Smith form and hands it to ``GModule``.  ``descend_to_quotient``
calls ``GModule`` directly: a lattice quotient's factors are already a
divisibility chain without 1s, so that Smith form would do nothing.  mu_m,
trivial and restricted modules are canonical actions by construction and
skip the check through ``GModule._unchecked``.

Roots of unity are written additively: mu_m is Z/m and a group acts through
a character into the units of Z/m.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .groups import FiniteGroup, GroupHom, Subgroup, _first_difference, _gather, _greedy_generators
from .linalg import diagonal_matrix, fixed_subgroup, int_matrix, smith_normal_form

ModuleElement = tuple[int, ...]

Matrix = tuple[tuple[int, ...], ...]


class BadCharacter(ValueError):
    pass


def _stack(action, r: int) -> tuple[np.ndarray, bool]:
    """The matrices before the first one that is not r x r, as one (n, r, r)
    object array, and whether there was none: a loop over the matrices in
    turn meets the entries of those first."""
    shaped = [len(mat) == r and all(len(row) == r for row in mat) for mat in action]
    n = shaped.index(False) if False in shaped else len(shaped)
    return np.array(action[:n], dtype=object).reshape(n, r, r), n == len(shaped)


def _ill_defined(a: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Where entry (i, j) does not map Z/d_j into Z/d_i: e d_j != 0 mod d_i."""
    return a * orders % orders[:, None] != 0


@dataclass(frozen=True)
class GModule:
    """Use the ``gmodule`` factory; the constructor insists on canonical form
    and checks that the matrices are an action, as one array: shapes, then
    the first entry in (g, i, j) order that is unreduced or ill defined, the
    identity, and action[g x] == action[g] action[x] for each generator x.
    ``_unchecked`` skips the checks, for fields that are canonical and an
    action by construction; the result is the same value, with the same
    hash, as the checked one."""

    group: FiniteGroup
    orders: tuple[int, ...]
    action: tuple[Matrix, ...]

    def __post_init__(self):
        orders = self.orders
        if any(d < 2 for d in orders):
            raise ValueError("orders must be >= 2 in canonical form")
        if any(b % a for a, b in zip(orders, orders[1:])):
            raise ValueError("orders must form a divisibility chain")
        if len(self.action) != self.group.order:
            raise ValueError("need one action matrix per group element")
        a, shaped = _stack(self.action, len(orders))
        col = np.array(orders, dtype=object)
        unreduced = (a < 0) | (a >= col[:, None])
        bad = unreduced | _ill_defined(a, col)
        if bad.any():
            g, i, j = np.unravel_index(np.argmax(bad), bad.shape)
            if unreduced[g, i, j]:
                raise ValueError("entries must be reduced mod the row order")
            raise ValueError(f"action of {g} is not well defined on the module")
        if not shaped:
            raise ValueError("action matrix has wrong shape")
        if not np.array_equal(a[0], np.identity(len(orders), dtype=object)):
            raise ValueError("identity must act trivially")
        for x in self.group.generators:
            # row g: action[g] action[x] against action[g x]
            wrong = (a @ a[x] % col[:, None] != a[list(self.group._columns[x])]).any(axis=(1, 2))
            if wrong.any():
                raise ValueError(f"action matrices incompatible at ({np.argmax(wrong)}, {x})")

    @classmethod
    def _unchecked(cls, group: FiniteGroup, orders, action) -> "GModule":
        module = object.__new__(cls)
        for name, value in (("group", group), ("orders", orders), ("action", action)):
            object.__setattr__(module, name, value)
        return module

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return prod(self.orders) if self.orders else 1

    @property
    def exponent(self) -> int:
        return self.orders[-1] if self.orders else 1

    @property
    def is_trivial(self) -> bool:
        return not self.orders

    @property
    def has_trivial_action(self) -> bool:
        ident = self.action[0]
        return all(mat == ident for mat in self.action)

    def zero(self) -> ModuleElement:
        return (0,) * self.rank

    def add(self, a: ModuleElement, b: ModuleElement) -> ModuleElement:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a: ModuleElement) -> ModuleElement:
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def act(self, g: int, a: ModuleElement) -> ModuleElement:
        mat = self.action[g]
        return tuple(
            sum(mat[i][j] * a[j] for j in range(self.rank)) % self.orders[i]
            for i in range(self.rank)
        )

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def action_matrix(self, g: int) -> np.ndarray:
        # the reshape keeps the 0 x 0 matrix of a zero module
        rows = [[int(x) for x in row] for row in self.action[g]]
        return np.array(rows, dtype=object).reshape(self.rank, self.rank)


def gmodule(group: FiniteGroup, orders, action) -> GModule:
    """Build a module, renormalizing the presentation to canonical form.

    ``orders`` may be any list of positive integers and ``action`` any
    compatible integer matrices, as lists or arrays; the result has a
    divisibility chain with unit factors dropped and the action conjugated
    accordingly.  Entries are read as Python ints before any product, and
    the input is checked to be well defined before its unit factors, and
    their entries, are dropped.
    """
    orders = [int(d) for d in orders]
    if any(d < 1 for d in orders):
        raise ValueError("orders must be positive")
    mats = [int_matrix(m) for m in action]
    if len(mats) != group.order:
        raise ValueError("need one action matrix per group element")
    a, shaped = _stack(mats, len(orders))
    if _ill_defined(a, np.array(orders, dtype=object)).any():
        raise ValueError("action is not well defined on the module")
    if not shaped:
        raise ValueError("action matrix has wrong shape")
    snf = smith_normal_form(diagonal_matrix(orders))
    keep = [i for i, d in enumerate(snf.diagonal) if d != 1]
    factors = tuple(snf.diagonal[i] for i in keep)
    conj = snf.u[keep] @ a @ snf.u_inv[:, keep] % np.array(factors, dtype=object).reshape(-1, 1)
    return GModule(group, factors, tuple(tuple(map(tuple, mat)) for mat in conj.tolist()))


def trivial_module(group: FiniteGroup, orders) -> GModule:
    """Z/d_1 + ... + Z/d_s with trivial action.  The canonical orders are
    the entries other than 1 of one Smith form of diag(orders), and the
    identity is an action on any orders, so nothing is checked again."""
    orders = [int(d) for d in orders]
    if any(d < 1 for d in orders):
        raise ValueError("orders must be positive")
    canonical = tuple(d for d in smith_normal_form(diagonal_matrix(orders)).diagonal if d != 1)
    r = range(len(canonical))
    ident = tuple(tuple(int(i == j) for j in r) for i in r)
    return GModule._unchecked(group, canonical, (ident,) * group.order)


@dataclass(frozen=True)
class CyclotomicCharacter:
    """A homomorphism from the group into the units of Z/m."""

    group: FiniteGroup
    m: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise BadCharacter("modulus must be positive")
        vals = tuple(int(v) % self.m for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.group.order:
            raise BadCharacter("need one value per group element")
        m = self.m
        coprime = tuple(map(gcd, vals, itertools.repeat(m)))
        if coprime.count(1) != len(vals):
            g = next(g for g, c in enumerate(coprime) if c != 1)
            raise BadCharacter(f"value {vals[g]} at element {g} is not a unit mod {m}")
        if vals[0] != 1 % m:
            raise BadCharacter("the identity must map to 1")
        # per generator x: chi(g x) against chi(g) chi(x), for all g
        for x in self.group.generators:
            u = vals[x]
            left = _gather(self.group._columns[x])(vals)
            right = tuple(v * u % m for v in vals)
            if left != right:
                g = _first_difference(left, right)
                raise BadCharacter(f"values are not multiplicative at ({g}, {x})")

    def __call__(self, g: int) -> int:
        return self.values[g]

    @property
    def is_trivial(self) -> bool:
        return all(v == 1 % self.m for v in self.values)

    @classmethod
    def trivial(cls, group: FiniteGroup, m: int) -> "CyclotomicCharacter":
        return cls(group, m, (1,) * group.order)


def mu_module(group: FiniteGroup, m: int, character: CyclotomicCharacter) -> GModule:
    """Z/m with g acting by multiplication by character(g).  A
    ``CyclotomicCharacter`` is checked when built: its values are units
    reduced mod m and multiplicative, so they are already the canonical
    action of rank 1 (rank 0 for m = 1), and nothing is checked again."""
    if character.group != group:
        raise BadCharacter("character is defined on a different group")
    if character.m != m:
        raise BadCharacter("character has the wrong modulus")
    orders = (m,) if m > 1 else ()
    action = tuple(((v,),) * len(orders) for v in character.values)
    return GModule._unchecked(group, orders, action)


def all_characters(group: FiniteGroup, m: int) -> tuple[CyclotomicCharacter, ...]:
    """Every homomorphism from the group into (Z/m)^*, sorted by value tuple.
    The generators reach every element, so each choice of their images that
    is consistent defines a value everywhere.  A generator x of order k can
    only go to a unit u with u^k = 1, so only those are tried."""
    units = [u for u in range(m) if gcd(u, m) == 1]
    choices = [
        [u for u in units if pow(u, group.element_order(x), m) == 1 % m]
        for x in group.generators
    ]
    found = set()
    for images in itertools.product(*choices):
        values = [None] * group.order
        values[0] = 1 % m
        frontier = [0]
        ok = True
        while frontier and ok:
            x = frontier.pop()
            for g, u in zip(group.generators, images):
                y = group.mul(x, g)
                v = (values[x] * u) % m
                if values[y] is None:
                    values[y] = v
                    frontier.append(y)
                elif values[y] != v:
                    ok = False
                    break
        if ok:
            found.add(tuple(values))
    return tuple(
        CyclotomicCharacter(group, m, vals) for vals in sorted(found)
    )


def invariants(module: GModule) -> GModule:
    """The fixed submodule M^G as a module with trivial action: the points
    the generators fix, which every element fixes.  Only the factors are
    read, so no embedding is built."""
    fixed = fixed_subgroup(module.orders, [module.action[g] for g in module.group.generators])
    return trivial_module(module.group, fixed.factors)


def descend_to_quotient(module: GModule, proj: GroupHom):
    """The fixed points under ker(proj) as a module over proj.target,
    together with the embedding into the parent module: one column per
    generator of the fixed points, reduced mod the module orders.

    The points fixed by a greedy generating set of the kernel are the
    kernel's fixed points.  The kernel acts trivially on them by
    construction, so a coset acts as any of its representatives does.  The
    factors and coordinates of the fixed points are already canonical, so
    ``GModule`` checks them as they are.
    """
    if proj.source != module.group:
        raise ValueError("projection does not start at the module's group")
    kernel = _greedy_generators(module.group, proj.kernel_elements())
    quot = fixed_subgroup(module.orders, [module.action[g] for g in kernel])
    embed = quot.generators() % np.array(module.orders, dtype=object).reshape(-1, 1)
    mats = (quot.coordinates(module.action_matrix(g) @ embed).tolist() for g in proj.section)
    return GModule(proj.target, quot.factors, tuple(tuple(map(tuple, mat)) for mat in mats)), embed


def restrict_module(module: GModule, subgroup: Subgroup) -> GModule:
    """The same abelian group seen as a module over the subgroup.  The
    orders stay canonical, and an action restricted along the embedding of
    ``as_group`` is an action, so nothing is checked again."""
    if subgroup.parent != module.group:
        raise ValueError("subgroup belongs to a different group")
    sub, embed = subgroup.as_group
    return GModule._unchecked(sub, module.orders, tuple(module.action[g] for g in embed))
