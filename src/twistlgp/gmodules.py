"""Finite abelian groups with an action of a finite group.

A module is presented as Z/d_1 + ... + Z/d_r with d_1 | d_2 | ... (invariant
factors, unit factors dropped); construction renormalizes any presentation to
this canonical form via Smith normal form, so equal modules compare equal.
Elements are coordinate tuples, coordinate i reduced mod d_i.  Each group
element acts by an integer matrix stored with entry (i, j) reduced mod d_i.

Roots of unity are written additively: mu_m is Z/m and a group acts through
a character into the units of Z/m.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .groups import FiniteGroup, GroupHom, Subgroup
from .linalg import (
    diagonal_matrix,
    fixed_subgroup,
    int_matrix,
    smith_normal_form,
)

ModuleElement = tuple[int, ...]

Matrix = tuple[tuple[int, ...], ...]


class BadCharacter(ValueError):
    pass


@dataclass(frozen=True)
class GModule:
    """Use the ``gmodule`` factory; the constructor insists on canonical form
    and checks that the matrices are an action.  ``_unchecked`` skips both
    checks, for fields that are canonical and an action by construction;
    the result is the same value, with the same hash, as the checked one."""

    group: FiniteGroup
    orders: tuple[int, ...]
    action: tuple[Matrix, ...]

    def __post_init__(self):
        orders = self.orders
        r = len(orders)
        if any(d < 2 for d in orders):
            raise ValueError("orders must be >= 2 in canonical form")
        for a, b in zip(orders, orders[1:]):
            if b % a != 0:
                raise ValueError("orders must form a divisibility chain")
        if len(self.action) != self.group.order:
            raise ValueError("need one action matrix per group element")
        for g, mat in enumerate(self.action):
            if len(mat) != r or any(len(row) != r for row in mat):
                raise ValueError("action matrix has wrong shape")
            for i in range(r):
                for j in range(r):
                    entry = mat[i][j]
                    if not 0 <= entry < orders[i]:
                        raise ValueError("entries must be reduced mod the row order")
                    if (entry * orders[j]) % orders[i] != 0:
                        raise ValueError(
                            f"action of {g} is not well defined on the module"
                        )
        ident = self.action[0]
        for i in range(r):
            for j in range(r):
                if ident[i][j] != (1 if i == j else 0):
                    raise ValueError("identity must act trivially")
        for x in self.group.generators:
            for g in self.group.elements():
                gx = self.group.mul(g, x)
                for i in range(r):
                    for j in range(r):
                        acc = sum(
                            self.action[g][i][k] * self.action[x][k][j]
                            for k in range(r)
                        )
                        if acc % orders[i] != self.action[gx][i][j]:
                            raise ValueError(
                                f"action matrices incompatible at ({g}, {x})"
                            )

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
    compatible integer matrices; the result has a divisibility chain with
    unit factors dropped and the action conjugated accordingly.
    """
    orders = [int(d) for d in orders]
    if any(d < 1 for d in orders):
        raise ValueError("orders must be positive")
    r = len(orders)
    mats = [int_matrix(m) if not isinstance(m, np.ndarray) else m for m in action]
    if len(mats) != group.order:
        raise ValueError("need one action matrix per group element")
    for mat in mats:
        if mat.shape != (r, r):
            raise ValueError("action matrix has wrong shape")
        for i in range(r):
            for j in range(r):
                if (mat[i, j] * orders[j]) % orders[i] != 0:
                    raise ValueError("action is not well defined on the module")
    snf = smith_normal_form(diagonal_matrix(orders))
    new_orders = list(snf.diagonal)
    keep = [i for i, d in enumerate(new_orders) if d != 1]
    final_orders = tuple(new_orders[i] for i in keep)
    new_action = []
    for mat in mats:
        conj = snf.u @ mat @ snf.u_inv
        reduced = tuple(
            tuple(int(conj[i, j]) % new_orders[i] for j in keep) for i in keep
        )
        new_action.append(reduced)
    return GModule(group=group, orders=final_orders, action=tuple(new_action))


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
        for g, v in enumerate(vals):
            if gcd(v, self.m) != 1:
                raise BadCharacter(f"value {v} at element {g} is not a unit mod {self.m}")
        if vals[0] != 1 % self.m:
            raise BadCharacter("the identity must map to 1")
        for x in self.group.generators:
            for g in self.group.elements():
                if (vals[g] * vals[x]) % self.m != vals[self.group.mul(g, x)]:
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
    is consistent defines a value everywhere."""
    units = [u for u in range(m) if gcd(u, m) == 1]
    found = set()
    for images in itertools.product(units, repeat=len(group.generators)):
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


def _fixed_points(module: GModule, elements):
    """The fixed points under the given elements, {x : (action[g] - 1) x == 0},
    as a lattice quotient (its generators lift them to Z^r), with the
    embedding: one column per generator, reduced mod the module orders."""
    quot = fixed_subgroup(module.orders, [module.action[g] for g in elements])
    return quot, quot.generators() % np.array(module.orders, dtype=object).reshape(-1, 1)


def invariants(module: GModule) -> GModule:
    """The fixed submodule M^G as a module with trivial action: the points
    the generators fix, which every element fixes."""
    quot, _ = _fixed_points(module, module.group.generators)
    return trivial_module(module.group, quot.factors)


def descend_to_quotient(module: GModule, proj: GroupHom):
    """The fixed points under ker(proj) as a module over proj.target,
    together with the embedding into the parent module.

    The kernel must act trivially on the fixed points by construction, so
    the action of a coset is the action of any representative.
    """
    if proj.source != module.group:
        raise ValueError("projection does not start at the module's group")
    quot, embed = _fixed_points(module, proj.kernel_elements())
    mats = [quot.coordinates(module.action_matrix(g) @ embed) for g in proj.section]
    return gmodule(proj.target, quot.factors, mats), embed


def restrict_module(module: GModule, subgroup: Subgroup) -> GModule:
    """The same abelian group seen as a module over the subgroup.  The
    orders stay canonical, and an action restricted along the embedding of
    ``as_group`` is an action, so nothing is checked again."""
    if subgroup.parent != module.group:
        raise ValueError("subgroup belongs to a different group")
    sub, embed = subgroup.as_group
    return GModule._unchecked(sub, module.orders, tuple(module.action[g] for g in embed))
