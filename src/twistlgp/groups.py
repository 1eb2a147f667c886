"""Finite groups given by explicit multiplication tables.

Element 0 is always the identity.  Canonical element orderings for the named
families are part of the external contract:

* ``C_n``: element k is the k-th power of the generator.
* direct products: mixed-radix tuples, leftmost factor most significant
  (index of (i_1, ..., i_k) is i_1 * n_2 * ... * n_k + ... + i_k).
* ``D_n`` (order 2n): indices 0..n-1 are the rotations r^k, index n+k is
  the reflection r^k s.
* ``S3``, ``S4``: permutations of {0, .., n-1} sorted lexicographically by
  their image tuples; composition is (p * q)(x) = p(q(x)).
* ``Q8``: 1, -1, i, -i, j, -j, k, -k in that order.

Quotient groups order cosets by their minimal element index, so quotients
are deterministic too.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property

MAX_ORDER = 64


class NotAGroup(ValueError):
    pass


class NotNormal(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mul_table: tuple[tuple[int, ...], ...]
    name: str = field(default="G", compare=False)

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise NotAGroup("order must be positive")
        if n > MAX_ORDER:
            raise NotAGroup(f"order {n} exceeds the supported cap {MAX_ORDER}")
        table = self.mul_table
        if len(table) != n or any(len(row) != n for row in table):
            raise NotAGroup("multiplication table has wrong shape")
        full = set(range(n))
        for i in range(n):
            if set(table[i]) != full or {table[j][i] for j in range(n)} != full:
                raise NotAGroup("multiplication table is not a Latin square")
        for g in range(n):
            if table[0][g] != g or table[g][0] != g:
                raise NotAGroup("element 0 is not a two-sided identity")
        for g in range(n):
            h = table[g].index(0)
            if table[h][g] != 0:
                raise NotAGroup(f"element {g} has no two-sided inverse")
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise NotAGroup(
                            f"associativity fails at ({a}, {b}, {c})"
                        )

    @cached_property
    def _inverse(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.mul_table)

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1"""
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    @cached_property
    def is_abelian(self) -> bool:
        return all(
            self.mul_table[a][b] == self.mul_table[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    @cached_property
    def is_cyclic(self) -> bool:
        return any(self.element_order(a) == self.order for a in self.elements())

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _table_from_mul(n, mul):
    return tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(n, _table_from_mul(n, lambda a, b: (a + b) % n), name=f"C{n}")


def direct_product(*factors: FiniteGroup) -> FiniteGroup:
    if not factors:
        return cyclic(1)
    sizes = [g.order for g in factors]
    order = 1
    for s in sizes:
        order *= s
    if order > MAX_ORDER:
        raise NotAGroup(f"product order {order} exceeds the cap {MAX_ORDER}")

    def split(idx):
        coords = []
        for s in reversed(sizes):
            coords.append(idx % s)
            idx //= s
        return tuple(reversed(coords))

    def join(coords):
        idx = 0
        for s, c in zip(sizes, coords):
            idx = idx * s + c
        return idx

    def mul(a, b):
        ca, cb = split(a), split(b)
        return join(tuple(g.mul(x, y) for g, x, y in zip(factors, ca, cb)))

    name = "x".join(g.name for g in factors)
    return FiniteGroup(order, _table_from_mul(order, mul), name=name)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    if 2 * n > 32:
        raise NotAGroup("dihedral groups are supported up to order 32")

    def mul(a, b):
        ra, fa = a % n, a // n
        rb, fb = b % n, b // n
        if fa == 0:
            return (ra + rb) % n + n * fb
        return (ra - rb) % n + n * (1 - fb)

    return FiniteGroup(2 * n, _table_from_mul(2 * n, mul), name=f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    if n not in (3, 4):
        raise NotAGroup("only S3 and S4 are in the catalog")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(a, b):
        p, q = perms[a], perms[b]
        return index[tuple(p[q[i]] for i in range(n))]

    order = len(perms)
    return FiniteGroup(order, _table_from_mul(order, mul), name=f"S{n}")


def quaternion() -> FiniteGroup:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k."""
    # axis 0 is the scalar 1; i*j = k etc., x*x = -1 for x in {i, j, k}
    axis_mul = {}
    for a in range(4):
        axis_mul[(0, a)] = (a, 0)
        axis_mul[(a, 0)] = (a, 0)
    for a, b, c in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        axis_mul[(a, a)] = (0, 1)
        axis_mul[(a, b)] = (c, 0)
        axis_mul[(b, a)] = (c, 1)

    def mul(x, y):
        ax, sx = x // 2, x % 2
        ay, sy = y // 2, y % 2
        az, extra = axis_mul[(ax, ay)]
        return 2 * az + (sx ^ sy ^ extra)

    return FiniteGroup(8, _table_from_mul(8, mul), name="Q8")


def named_group(name: str) -> FiniteGroup:
    if name == "Q8":
        return quaternion()
    m = re.fullmatch(r"C(\d+)", name)
    if m:
        n = int(m.group(1))
        if not 1 <= n <= MAX_ORDER:
            raise NotAGroup(f"cyclic order {n} out of range")
        return cyclic(n)
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        return dihedral(int(m.group(1)))
    m = re.fullmatch(r"S([34])", name)
    if m:
        return symmetric(int(m.group(1)))
    raise NotAGroup(f"unknown group name {name!r}")


def is_json_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python but not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def build_group(spec) -> FiniteGroup:
    """Build a group from the spec grammar.

    Accepted forms: a bare name string, {"kind": "named", "name": ...},
    {"kind": "table", "order": n, "table": [[...], ...]}, or
    {"kind": "product", "factors": [spec, ...]}.
    """
    if isinstance(spec, str):
        return named_group(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise NotAGroup("group spec must be a name or a dict with a 'kind'")
    kind = spec["kind"]
    if kind == "named":
        return named_group(spec["name"])
    if kind == "table":
        order, rows = spec["order"], spec["table"]
        if not is_json_int(order):
            raise NotAGroup("table order must be an integer")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(is_json_int(x) for x in row) for row in rows
        ):
            raise NotAGroup("table must be a list of lists of integers")
        name = spec.get("name", f"table{order}")
        if not isinstance(name, str):
            raise NotAGroup("table name must be a string")
        return FiniteGroup(order, tuple(tuple(row) for row in rows), name=name)
    if kind == "product":
        return direct_product(*(build_group(f) for f in spec["factors"]))
    raise NotAGroup(f"unknown group spec kind {kind!r}")


def group_spec(group: FiniteGroup) -> dict:
    """Spec-grammar form that rebuilds an equal group."""
    return {
        "kind": "table",
        "order": group.order,
        "table": [list(row) for row in group.mul_table],
        "name": group.name,
    }


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        G = self.parent
        if not elems or elems[0] != 0:
            raise NotAGroup("subgroup must contain the identity")
        inside = set(elems)
        for a in elems:
            if G.inv(a) not in inside:
                raise NotAGroup("subgroup not closed under inverse")
            for b in elems:
                if G.mul(a, b) not in inside:
                    raise NotAGroup("subgroup not closed under multiplication")
        assert G.order % len(elems) == 0  # Lagrange

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, g: int) -> bool:
        return g in set(self.elements)

    @cached_property
    def is_cyclic(self) -> bool:
        return any(
            self.parent.element_order(a) == self.order for a in self.elements
        )

    def is_normal(self) -> bool:
        G = self.parent
        inside = set(self.elements)
        return all(
            G.conjugate(g, h) in inside for g in G.elements() for h in self.elements
        )

    @cached_property
    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The subgroup as a standalone FiniteGroup plus the embedding
        (element i of the new group is self.elements[i] in the parent)."""
        elems = self.elements
        pos = {g: i for i, g in enumerate(elems)}
        table = tuple(
            tuple(pos[self.parent.mul(a, b)] for b in elems) for a in elems
        )
        sub = FiniteGroup(len(elems), table, name=f"{self.parent.name}|sub{len(elems)}")
        return sub, elems

    def __repr__(self):
        return f"Subgroup({self.parent.name}, {list(self.elements)})"


def _closure(group: FiniteGroup, generators) -> frozenset[int]:
    """Elements of the subgroup generated by ``generators``.

    In a finite group every inverse is a positive power, so the subgroup is
    what the identity reaches by right multiplication with the generators:
    one table row per element, one look-up per generator.
    """
    gens = [g for g in dict.fromkeys(generators) if g != 0]
    if any(not 0 <= g < group.order for g in gens):
        raise NotAGroup("generator outside the group")
    table = group.mul_table
    seen = {0}
    frontier = [0]
    while frontier:
        row = table[frontier.pop()]
        for s in gens:
            x = row[s]
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return frozenset(seen)


def subgroup_generated(group: FiniteGroup, generators) -> Subgroup:
    return Subgroup(group, tuple(_closure(group, generators)))


def normal_closure(group: FiniteGroup, elements) -> Subgroup:
    """The smallest normal subgroup containing ``elements``: the subgroup
    generated by all their conjugates."""
    conjugates = {group.conjugate(g, x) for x in set(elements) for g in group.elements()}
    return Subgroup(group, tuple(_closure(group, conjugates)))


def subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups, each once, by breadth-first closure over generator sets."""
    trivial = frozenset({0})
    found = {trivial: ()}  # each subgroup with the generators that found it
    frontier = [trivial]
    while frontier:
        new = []
        for current in frontier:
            gens = found[current]
            for g in range(1, group.order):
                if g in current:
                    continue
                extended = _closure(group, gens + (g,))
                if extended not in found:
                    found[extended] = gens + (g,)
                    new.append(extended)
        frontier = new
    return tuple(
        Subgroup(group, tuple(s)) for s in sorted(found, key=lambda s: (len(s), sorted(s)))
    )


def cyclic_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """The cyclic subgroups: exactly the decomposition groups of unramified
    places that Chebotarev guarantees to occur."""
    found = {_closure(group, [g]) for g in group.elements()}
    return tuple(
        Subgroup(group, tuple(s)) for s in sorted(found, key=lambda s: (len(s), sorted(s)))
    )


@dataclass(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source.order:
            raise ValueError("image list has wrong length")
        if self.images[0] != 0:
            raise ValueError("homomorphism must send identity to identity")
        for a in self.source.elements():
            for b in self.source.elements():
                lhs = self.images[self.source.mul(a, b)]
                rhs = self.target.mul(self.images[a], self.images[b])
                if lhs != rhs:
                    raise ValueError(f"not a homomorphism at ({a}, {b})")

    def __call__(self, g: int) -> int:
        return self.images[g]

    @cached_property
    def section(self) -> tuple[int, ...]:
        """The least preimage of each target element (coset representatives
        of the kernel); raises ValueError unless the map is onto."""
        least: dict[int, int] = {}
        for g in self.source.elements():
            least.setdefault(self.images[g], g)
        if len(least) != self.target.order:
            raise ValueError("homomorphism is not onto")
        return tuple(least[q] for q in self.target.elements())

    def kernel_elements(self) -> tuple[int, ...]:
        return tuple(g for g in self.source.elements() if self.images[g] == 0)


def quotient(group: FiniteGroup, normal: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, with the projection homomorphism.

    Cosets are represented by their minimal element and ordered by it, so
    the identity coset is element 0.
    """
    if normal.parent is not group and normal.parent != group:
        raise NotNormal("subgroup belongs to a different group")
    if not normal.is_normal():
        raise NotNormal(f"{normal!r} is not normal")
    coset_of = {}
    reps = []
    for g in group.elements():
        if g in coset_of:
            continue
        coset = sorted(group.mul(g, n) for n in normal.elements)
        rep = coset[0]
        reps.append(rep)
        for x in coset:
            coset_of[x] = rep
    reps.sort()
    idx = {rep: i for i, rep in enumerate(reps)}

    def mul(a, b):
        return idx[coset_of[group.mul(reps[a], reps[b])]]

    q = FiniteGroup(len(reps), _table_from_mul(len(reps), mul), name=f"{group.name}/N")
    proj = GroupHom(group, q, tuple(idx[coset_of[g]] for g in group.elements()))
    return q, proj
