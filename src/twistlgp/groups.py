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

Group, subgroup, normality and homomorphism axioms (and module and character
axioms in ``gmodules``) are checked on the greedy generating set only.

Checks and derived tables compare or gather whole rows with
``operator.itemgetter`` and tuple or set operations, so Python loops run
over rows or generators, not entries: ``build_group`` reads each row's set
of entry types; ``FiniteGroup`` runs Light's test as one comparison of the
rows (a x) with the rows a read at row x per generator x; ``GroupHom`` and
``CyclotomicCharacter`` compare one gathered column per generator;
``Subgroup`` reads each member's row at the members; ``quotient`` and
``as_group`` gather rows at the coset representatives or the members.  A
failing check names the first failure a per-entry loop would.  Subgroups
built from given elements (declared, or a command-line family) are
checked; ``subgroup_generated``, ``normal_closure``, ``subgroups`` and
``cyclic_subgroups`` build ``_closure`` results, closed by construction,
with ``Subgroup._unchecked``.  Every loop ends on any table: closures and
orbits stop at a visited set, and the power walk behind element orders
stops after |G| steps (x <- x g until x = 0 never ends on a table whose
rows are permutations and whose columns are not).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from operator import itemgetter

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
        table = tuple(map(tuple, table))  # the row comparisons compare tuples
        object.__setattr__(self, "mul_table", table)
        full = set(range(n))
        if any(set(row) != full for row in table):
            raise NotAGroup("multiplication table is not a Latin square")
        identity = tuple(range(n))
        if table[0] != identity or self._columns[0] != identity:
            raise NotAGroup("element 0 is not a two-sided identity")
        # Light's test: the x with (a x) c == a (x c) for all a, c are closed
        # under products, so a generating set proves associativity, and a
        # finite monoid whose rows are permutations is a group.
        for x in self.generators:
            left = _gather(self._columns[x])(table)
            right = tuple(map(_gather(table[x]), table))
            if left != right:
                a = _first_difference(left, right)
                c = _first_difference(left[a], right[a])
                raise NotAGroup(f"associativity fails at ({a}, {x}, {c})")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, of (order, table), read once: a subgroup or
        module key hashes its group, and the table is |G|^2 entries."""
        return hash((self.order, self.mul_table))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The greedy generating set: each element, in table order, that the
        earlier ones do not reach by right multiplication from 0.  A map that
        sends 0 to the identity and is multiplicative on the pairs (g, x), x in
        this set, is a homomorphism (induct on the word of the second factor)."""
        return _greedy_generators(self, self.elements())

    @cached_property
    def _inverse(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.mul_table)

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Column b is the map a -> a b."""
        return tuple(zip(*self.mul_table))

    @cached_property
    def _conjugations(self) -> tuple[tuple[int, ...], ...]:
        """For each generator g, the map h -> g h g^-1: column g^-1 read at
        the entries of row g."""
        table, columns = self.mul_table, self._columns
        return tuple(_gather(table[g])(columns[self.inv(g)]) for g in self.generators)

    @cached_property
    def _powers(self) -> tuple[frozenset[int], ...]:
        """<g> for each element g, walked once per cyclic subgroup and shared
        with the powers g^j that generate it; its size is the order of g."""
        table, n = self.mul_table, self.order
        powers = [frozenset({0})] + [None] * (n - 1)
        for g in range(1, n):
            if powers[g] is None:
                walk, x = [0], g
                while x != 0 and len(walk) < n:
                    walk.append(x)
                    x = table[x][g]
                span = frozenset(walk)
                for j in range(1, len(walk)):
                    if gcd(j, len(walk)) == 1:
                        powers[walk[j]] = span
        return tuple(powers)

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
        return len(self._powers[a])

    @cached_property
    def is_abelian(self) -> bool:
        table, gens = self.mul_table, self.generators
        return all(table[x][y] == table[y][x] for x in gens for y in gens)

    @cached_property
    def is_cyclic(self) -> bool:
        return any(len(powers) == self.order for powers in self._powers)

    @cached_property
    def _cyclic_subgroups(self) -> tuple["Subgroup", ...]:
        return _sorted_subgroups(self, set(self._powers))

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


def is_json_int_list(value) -> bool:
    """A list of JSON integers.  When every entry has type int, as every
    parsed JSON integer does, the set of entry types says so in C."""
    return isinstance(value, list) and (
        {int}.issuperset(map(type, value)) or all(map(is_json_int, value))
    )


def build_group(spec) -> FiniteGroup:
    """Build a group from the spec grammar.

    Accepted forms: a bare name string, {"kind": "named", "name": ...},
    {"kind": "table", "order": n, "table": [[...], ...]} with an optional
    "name", or {"kind": "product", "factors": [spec, ...]}.  Any other key
    is rejected by name.
    """
    if isinstance(spec, str):
        return named_group(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise NotAGroup("group spec must be a name or a dict with a 'kind'")
    kind = spec["kind"]
    keys = {"named": {"name"}, "table": {"order", "table", "name"}, "product": {"factors"}}
    if not isinstance(kind, str) or kind not in keys:
        raise NotAGroup(f"unknown group spec kind {kind!r}")
    if unknown := sorted(spec.keys() - keys[kind] - {"kind"}):
        raise NotAGroup(f"{kind} group spec has unknown key {unknown[0]!r}")
    if kind == "named":
        if not isinstance(spec.get("name"), str):
            raise NotAGroup("named group needs a string name")
        return named_group(spec["name"])
    if kind == "table":
        if missing := sorted({"order", "table"} - spec.keys()):
            raise NotAGroup(f"table group spec is missing {missing[0]!r}")
        order, rows = spec["order"], spec["table"]
        if not is_json_int(order):
            raise NotAGroup("table order must be an integer")
        if not isinstance(rows, list) or not all(map(is_json_int_list, rows)):
            raise NotAGroup("table must be a list of lists of integers")
        name = spec.get("name", f"table{order}")
        if not isinstance(name, str):
            raise NotAGroup("table name must be a string")
        return FiniteGroup(order, tuple(tuple(row) for row in rows), name=name)
    if not isinstance(spec.get("factors"), list):
        raise NotAGroup("product factors must be a list of group specs")
    return direct_product(*(build_group(f) for f in spec["factors"]))


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
        if not elems or elems[0] != 0:
            raise NotAGroup("subgroup must contain the identity")
        if elems[-1] >= self.parent.order:
            raise NotAGroup("generator outside the group")
        table, inside, at_members = self.parent.mul_table, set(elems), _gather(elems)
        if not all(inside.issuperset(at_members(table[a])) for a in elems):
            raise NotAGroup("subgroup not closed under multiplication")

    @classmethod
    def _unchecked(cls, parent: FiniteGroup, elements) -> "Subgroup":
        """The subgroup with these elements, without the closure check: for a
        ``_closure`` result, which is closed by construction.  The result is
        the same value, with the same hash, as the checked one."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "elements", tuple(sorted(elements)))
        return sub

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
        return any(self.parent.element_order(a) == self.order for a in self.elements)

    @cached_property
    def conjugates(self) -> frozenset[tuple[int, ...]]:
        """The element sets g H g^-1, sorted, for g in the parent: the orbit
        of H, closed under conjugation by the parent's generators."""
        conjugations = self.parent._conjugations
        orbit, frontier = {self.elements}, [self.elements]
        while frontier:
            at_members = _gather(frontier.pop())
            for conjugation in conjugations:
                image = tuple(sorted(at_members(conjugation)))
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        return frozenset(orbit)

    def is_normal(self) -> bool:
        return len(self.conjugates) == 1

    @cached_property
    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The subgroup as a standalone FiniteGroup plus the embedding
        (element i of the new group is self.elements[i] in the parent)."""
        elems, table = self.elements, self.parent.mul_table
        at_members, position = _gather(elems), dict(zip(elems, range(len(elems))))
        rows = tuple(_gather(at_members(table[a]))(position) for a in elems)
        sub = FiniteGroup(len(elems), rows, name=f"{self.parent.name}|sub{len(elems)}")
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


def _gather(indices):
    """Reads a sequence or mapping at ``indices`` as a tuple (``itemgetter``
    alone returns a bare item for one index)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda values: tuple(values[i] for i in indices)


def _first_difference(left, right) -> int:
    return next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)


def _greedy_generators(group: FiniteGroup, elements) -> tuple[int, ...]:
    """Each of ``elements``, in order, that the earlier ones do not generate:
    together they generate the subgroup that ``elements`` generate."""
    gens: list[int] = []
    span = {0}
    for g in elements:
        if g not in span:
            gens.append(g)
            span = _closure(group, gens)
    return tuple(gens)


def _sorted_subgroups(group: FiniteGroup, closures) -> tuple[Subgroup, ...]:
    """``_closure`` results as subgroups, by order and then by elements."""
    return tuple(
        Subgroup._unchecked(group, s) for s in sorted(closures, key=lambda s: (len(s), sorted(s)))
    )


def subgroup_generated(group: FiniteGroup, generators) -> Subgroup:
    return Subgroup._unchecked(group, _closure(group, generators))


def normal_closure(group: FiniteGroup, elements) -> Subgroup:
    """The smallest normal subgroup containing ``elements``: the closure of
    their orbit under the generators' conjugation maps (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005)."""
    orbit = set(elements)
    if any(not 0 <= x < group.order for x in orbit):
        raise NotAGroup("generator outside the group")
    frontier = orbit
    while frontier:
        at_frontier = _gather(tuple(frontier))
        frontier = set().union(*map(at_frontier, group._conjugations)) - orbit
        orbit |= frontier
    return Subgroup._unchecked(group, _closure(group, orbit))


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
    return _sorted_subgroups(group, found)


def cyclic_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """The cyclic subgroups: exactly the decomposition groups of unramified
    places that Chebotarev guarantees to occur.  Built once per group, so
    every module over the group hands ``sha_finite`` the same tuple, which
    it reduces once."""
    return group._cyclic_subgroups


@dataclass(frozen=True)
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        images = self.images
        if len(images) != self.source.order:
            raise ValueError("image list has wrong length")
        if min(images) < 0 or max(images) >= self.target.order:
            raise ValueError("image outside the target group")
        if images[0] != 0:
            raise ValueError("homomorphism must send identity to identity")
        # per generator x: f(g x) against f(g) f(x), for all g
        at_images, columns = _gather(images), self.target._columns
        for x in self.source.generators:
            left = _gather(self.source._columns[x])(images)
            right = at_images(columns[images[x]])
            if left != right:
                raise ValueError(f"not a homomorphism at ({_first_difference(left, right)}, {x})")

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
    # in table order, each coset g N (row g read at N) is met at its least
    table, at_normal = group.mul_table, _gather(normal.elements)
    coset_of: dict[int, int] = {}
    reps = []
    for g in group.elements():
        if g not in coset_of:
            coset_of.update(dict.fromkeys(at_normal(table[g]), len(reps)))
            reps.append(g)
    labels = _gather(group.elements())(coset_of)
    at_reps = _gather(reps)
    rows = tuple(_gather(at_reps(table[a]))(labels) for a in reps)
    q = FiniteGroup(len(reps), rows, name=f"{group.name}/N")
    return q, GroupHom(group, q, labels)
