"""The decision engine: sufficient criteria for the local-global principle.

An instance describes one pair (A, m) through finitely checkable data: the
twist order m, the Galois group G of the minimal field of definition of the
geometric endomorphisms, the action on the m-th roots of unity, arithmetic
flags, and optionally dimension data and declared decomposition subgroups.

``decide`` evaluates the criteria below in a fixed order and returns HOLDS
with the first one that fires, or UNKNOWN with the reason each criterion
failed.  Every criterion is evaluated even after a success, so the trace
also records which other criteria would have fired.  The engine only ever
certifies the principle; it never claims a counterexample.

Criteria (in priority order, cheapest first):

  C0 all-endomorphisms-rational        D_L = D
  C1 full-decomposition-group          some D_v = G (declared, or G cyclic)
  C2 twist-order-coprime-to-rank       mu_m in D and gcd(m, d) = 1
  C3 cm-field-coprime-order            CM field and gcd(m, |G|) = 1
  C4 no-invariant-roots                commutative and mu_m^G = 1
  C5 coprime-normal-collapse           commutative, N = O_{m'}(G) (the largest
                                       normal subgroup of order coprime to m),
                                       H^2(G/N, mu_m^N) = 1 (computed)
  C6 coprime-index-decomposition       commutative, N normal, gcd([G:N], m) = 1,
                                       N cyclic or declared as a D_v
  C7 small-dimension-case-analysis     geometrically simple, mu_m in D,
                                       g = 2^a or g <= 7, m odd >= 3:
                                       enumerate the possible G and resolve
                                       every case by C0/C1/C6

The commutativity flag is trusted as Hilbert 90 (a commutative endomorphism
algebra of a geometrically simple variety is a field, so H^1 of every
subgroup in its units vanishes); it is never computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .albert import (
    AlbertProfile,
    InconsistentProfile,
    admissible_m,
    coprimality_certificate,
    factorize,
    is_squarefree,
    totient,
)
from .cohomology import DEFAULT_SIZE_BOUND, TooLarge, cohomology
from .gmodules import CyclotomicCharacter, descend_to_quotient, invariants, mu_module
from .groups import (
    FiniteGroup,
    Subgroup,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    normal_closure,
    quaternion,
    quotient,
    subgroup_generated,
    symmetric,
)

HOLDS = "HOLDS"
UNKNOWN = "UNKNOWN"

CRITERIA = (
    "all-endomorphisms-rational",
    "full-decomposition-group",
    "twist-order-coprime-to-rank",
    "cm-field-coprime-order",
    "no-invariant-roots",
    "coprime-normal-collapse",
    "coprime-index-decomposition",
    "small-dimension-case-analysis",
)

CITATIONS = {
    "all-endomorphisms-rational": (
        "Every geometric endomorphism is defined over the base field, so a "
        "locally m-atic twist is given by a character that lands in mu_m at "
        "a dense set of places, hence everywhere (Chebotarev)."
    ),
    "full-decomposition-group": (
        "A place whose decomposition group is all of G leaves the "
        "locally-trivial kernel nowhere to live; for cyclic G such a place "
        "exists by Chebotarev."
    ),
    "twist-order-coprime-to-rank": (
        "With mu_m inside the rational endomorphism algebra and m coprime "
        "to d = 2g/[Z:Q], a determinant over the center assembles the local "
        "twisting characters into a global one."
    ),
    "cm-field-coprime-order": (
        "For a CM endomorphism field and gcd(m, |G|) = 1, H^2(G, mu_m) is "
        "killed by |G| and by m, hence vanishes, and Hilbert 90 kills "
        "H^1(G, units)."
    ),
    "no-invariant-roots": (
        "A commutative endomorphism algebra identifies G with the Galois "
        "group of the endomorphism field; Hilbert 90 plus mu_m^G = 1 force "
        "the locally-trivial kernel to vanish."
    ),
    "coprime-normal-collapse": (
        "A normal subgroup of order coprime to m has vanishing cohomology "
        "with mu_m coefficients, so inflation collapses H^2(G, mu_m) onto "
        "H^2(G/N, mu_m^N), which is checked to vanish."
    ),
    "coprime-index-decomposition": (
        "For a normal decomposition subgroup of index coprime to m, "
        "restriction is injective on the relevant cohomology, so local "
        "triviality at that place forces global triviality."
    ),
    "small-dimension-case-analysis": (
        "The dimension bounds the possible Galois groups of the "
        "endomorphism field; every group in the enumeration is handled by "
        "a coprimality, full-decomposition-group, or "
        "coprime-index-decomposition argument."
    ),
}


class Inconsistent(ValueError):
    pass


class CatalogIncomplete(ValueError):
    pass


@dataclass(frozen=True)
class Instance:
    """What is known about one pair (A, m).

    The flags assert facts the engine cannot compute and takes on trust:
    dl_equals_d says every geometric endomorphism is already defined over
    the base field (forcing the trivial group); dl_commutative says the
    geometric endomorphism algebra is a commutative field, which is the
    Hilbert 90 hypothesis; dl_cm_field strengthens that to a CM field;
    mu_m_in_d says the m-th roots of unity are rational (forcing the
    trivial character); geometrically_simple is what it says.
    Declared decomposition subgroups record places (typically ramified)
    whose decomposition group is known; cyclic subgroups never need
    declaring.
    """

    m: int
    group: FiniteGroup
    character: CyclotomicCharacter
    g: int | None = None
    dl_equals_d: bool = False
    dl_commutative: bool = False
    dl_cm_field: bool = False
    mu_m_in_d: bool = False
    geometrically_simple: bool = False
    albert: AlbertProfile | None = None
    declared_decomposition_subgroups: tuple[Subgroup, ...] = ()


def validate(instance: Instance) -> Instance:
    """Check every instance invariant; raises Inconsistent naming the first
    violated one."""
    if instance.m < 1:
        raise Inconsistent("m must be a positive integer")
    if instance.character.group != instance.group:
        raise Inconsistent("character is defined on a different group")
    if instance.character.m != instance.m:
        raise Inconsistent("character has modulus different from m")
    if instance.mu_m_in_d and not instance.character.is_trivial:
        raise Inconsistent(
            "mu_m_in_d requires a trivial character: rational roots of unity "
            "are fixed by the Galois group"
        )
    if instance.dl_equals_d and instance.group.order != 1:
        raise Inconsistent(
            "dl_equals_d requires the trivial group: the field of definition "
            "of the endomorphisms is minimal"
        )
    if instance.dl_cm_field and not instance.dl_commutative:
        raise Inconsistent("dl_cm_field implies dl_commutative")
    for sub in instance.declared_decomposition_subgroups:
        if sub.parent != instance.group:
            raise Inconsistent(
                "declared decomposition subgroup lives in a different group"
            )
    if instance.g is not None and instance.g < 1:
        raise Inconsistent("dimension must be positive")
    if instance.albert is not None:
        if instance.albert.m != instance.m:
            raise Inconsistent("albert profile has a different twist order")
        if instance.g is not None and instance.albert.g != instance.g:
            raise Inconsistent("albert profile has a different dimension")
    return instance


@dataclass(frozen=True)
class TraceEntry:
    criterion: str
    outcome: str  # "fired" or "failed"
    reason: str = ""
    hypotheses: dict = field(default_factory=dict)
    citation: str = ""

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "outcome": self.outcome,
            "reason": self.reason,
            "hypotheses": self.hypotheses,
            "citation": self.citation,
        }


@dataclass(frozen=True)
class Verdict:
    status: str
    criterion: str | None
    citations: tuple[str, ...]
    trace: tuple[TraceEntry, ...]

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "criterion": self.criterion,
            "citations": list(self.citations),
            "trace": [entry.to_dict() for entry in self.trace],
        }


def _fired(criterion: str, hypotheses: dict) -> TraceEntry:
    return TraceEntry(
        criterion=criterion,
        outcome="fired",
        hypotheses=hypotheses,
        citation=CITATIONS[criterion],
    )


def _failed(criterion: str, reason: str, hypotheses: dict | None = None) -> TraceEntry:
    return TraceEntry(
        criterion=criterion,
        outcome="failed",
        reason=reason,
        hypotheses=hypotheses or {},
        citation=CITATIONS[criterion],
    )


def _normal_descending(subs) -> list[Subgroup]:
    """The normal members of ``subs``, largest first, ties by elements."""
    return sorted((s for s in subs if s.is_normal()), key=lambda s: (-s.order, s.elements))


def _largest_coprime_normal(group: FiniteGroup, m: int) -> Subgroup:
    """O_{m'}(G), the largest normal subgroup of order coprime to m: the join
    of the normal closures <x^G> of order coprime to m.  (A product of
    normal subgroups of order coprime to m has order coprime to m.)"""
    inside = {0}
    for x in group.elements():
        if x in inside:
            continue  # <x^G> lies in a closure already joined
        closure = normal_closure(group, [x])
        if gcd(closure.order, m) == 1:
            inside.update(closure.elements)
    return subgroup_generated(group, inside)


def _check_c0(instance: Instance) -> TraceEntry:
    cid = "all-endomorphisms-rational"
    if instance.dl_equals_d:
        return _fired(cid, {"dl_equals_d": True})
    return _failed(cid, "dl_equals_d is not set")


def _check_c1(instance: Instance) -> TraceEntry:
    cid = "full-decomposition-group"
    everything = tuple(instance.group.elements())
    for sub in instance.declared_decomposition_subgroups:
        if sub.elements == everything:
            return _fired(
                cid, {"declared_full_decomposition_group": list(sub.elements)}
            )
    if instance.group.is_cyclic:
        return _fired(
            cid,
            {
                "group_is_cyclic": True,
                "group_order": instance.group.order,
                "realized_by": "Chebotarev: inert places have full decomposition group",
            },
        )
    return _failed(
        cid,
        "no declared decomposition subgroup equals G and G is not cyclic",
    )


def _profile_for(instance: Instance) -> AlbertProfile | None:
    if instance.albert is not None:
        return instance.albert
    if instance.g is not None:
        return AlbertProfile(g=instance.g, m=instance.m)
    return None


def _check_c2(instance: Instance) -> TraceEntry:
    cid = "twist-order-coprime-to-rank"
    if not instance.mu_m_in_d:
        return _failed(cid, "mu_m_in_d is not set")
    profile = _profile_for(instance)
    if profile is None:
        return _failed(cid, "no dimension or endomorphism data to bound d")
    try:
        cert = coprimality_certificate(profile)
    except InconsistentProfile as exc:
        return _failed(cid, f"inconsistent profile: {exc}")
    if cert is None:
        return _failed(
            cid,
            "coprimality of m and d is not provable from the given data",
            {"m": instance.m, "g": profile.g},
        )
    return _fired(cid, {"m": instance.m, "g": profile.g, "certificate": cert.to_dict()})


def _check_c3(instance: Instance) -> TraceEntry:
    cid = "cm-field-coprime-order"
    if not instance.dl_cm_field:
        return _failed(cid, "dl_cm_field is not set")
    n = instance.group.order
    g = gcd(instance.m, n)
    if g != 1:
        return _failed(cid, f"gcd(m, |G|) = {g} is not 1", {"m": instance.m, "group_order": n})
    return _fired(cid, {"m": instance.m, "group_order": n, "gcd": 1})


def _check_c4(instance: Instance) -> TraceEntry:
    cid = "no-invariant-roots"
    if not instance.dl_commutative:
        return _failed(cid, "dl_commutative is not set")
    module = mu_module(instance.group, instance.m, instance.character)
    fixed = invariants(module)
    if not fixed.is_trivial:
        return _failed(
            cid,
            "the fixed submodule of mu_m is nontrivial",
            {"fixed_invariant_factors": list(fixed.orders)},
        )
    return _fired(cid, {"fixed_invariant_factors": []})


def _check_c5(instance: Instance, size_bound: int) -> TraceEntry:
    cid = "coprime-normal-collapse"
    if not instance.dl_commutative:
        return _failed(cid, "dl_commutative is not set")
    # For N normal of order coprime to m, H^q(N, mu_m) = 0 for q > 0, so the
    # Hochschild-Serre spectral sequence collapses and inflation
    # H^2(G/N, mu_m^N) -> H^2(G, mu_m) is an isomorphism.  Every such N thus
    # gives the same answer; the largest one gives the smallest quotient.
    module = mu_module(instance.group, instance.m, instance.character)
    normal = _largest_coprime_normal(instance.group, instance.m)
    quotient_group, proj = quotient(instance.group, normal)
    coefficients, _ = descend_to_quotient(module, proj)
    h2 = cohomology(quotient_group, coefficients, 2, size_bound)
    if h2.is_trivial:
        return _fired(
            cid,
            {
                "normal_subgroup": list(normal.elements),
                "normal_order": normal.order,
                "m": instance.m,
                "h2_invariant_factors": [],
            },
        )
    attempt = {
        "normal_subgroup": list(normal.elements),
        "h2_invariant_factors": list(h2.invariant_factors),
    }
    return _failed(
        cid,
        "no coprime-order normal subgroup has vanishing H^2 of the quotient",
        {"attempts": [attempt]},
    )


def _check_c6(instance: Instance) -> TraceEntry:
    cid = "coprime-index-decomposition"
    if not instance.dl_commutative:
        return _failed(cid, "dl_commutative is not set")
    # only cyclic or declared subgroups are realizable as decomposition groups
    realized = {
        s.elements: (s, "cyclic: realized by an unramified place (Chebotarev)")
        for s in cyclic_subgroups(instance.group)
    }
    for declared in instance.declared_decomposition_subgroups:
        realized.setdefault(declared.elements, (declared, "declared decomposition subgroup"))
    for normal in _normal_descending(sub for sub, _ in realized.values()):
        index = instance.group.order // normal.order
        if gcd(index, instance.m) != 1:
            continue
        how = realized[normal.elements][1]
        return _fired(
            cid,
            {
                "normal_subgroup": list(normal.elements),
                "index": index,
                "m": instance.m,
                "realized": how,
            },
        )
    return _failed(
        cid,
        "no normal subgroup of coprime index is realizable as a "
        "decomposition group",
    )


def groups_of_order(n: int) -> list[FiniteGroup]:
    """Every group of order n up to isomorphism, when the catalog is known
    to be complete for that order; raises CatalogIncomplete otherwise."""
    small = {
        1: lambda: [cyclic(1)],
        2: lambda: [cyclic(2)],
        3: lambda: [cyclic(3)],
        4: lambda: [cyclic(4), direct_product(cyclic(2), cyclic(2))],
        5: lambda: [cyclic(5)],
        6: lambda: [cyclic(6), symmetric(3)],
        7: lambda: [cyclic(7)],
        8: lambda: [
            cyclic(8),
            direct_product(cyclic(4), cyclic(2)),
            direct_product(cyclic(2), cyclic(2), cyclic(2)),
            dihedral(4),
            quaternion(),
        ],
        9: lambda: [cyclic(9), direct_product(cyclic(3), cyclic(3))],
        10: lambda: [cyclic(10), dihedral(5)],
        11: lambda: [cyclic(11)],
        13: lambda: [cyclic(13)],
        14: lambda: [cyclic(14), dihedral(7)],
        15: lambda: [cyclic(15)],
    }
    if n in small:
        return small[n]()
    factors = factorize(n)
    if len(factors) == 1:
        p, e = next(iter(factors.items()))
        if e == 1:
            return [cyclic(p)]
        if e == 2:
            return [cyclic(n), direct_product(cyclic(p), cyclic(p))]
    if len(factors) == 2 and all(e == 1 for e in factors.values()):
        p, q = sorted(factors)
        if q % p != 0 and (q - 1) % p != 0:
            return [cyclic(n)]  # pq with q != 1 mod p: only the cyclic group
        if p == 2 and 2 * q <= 32:
            return [cyclic(n), dihedral(q)]
    raise CatalogIncomplete(
        f"the catalog cannot enumerate all groups of order {n}"
    )


def _cyclic_normal_witness(group: FiniteGroup, m: int) -> Subgroup | None:
    """The largest nontrivial cyclic normal subgroup of index coprime to m
    (ties by elements), or None."""
    for normal in _normal_descending(cyclic_subgroups(group)):
        if normal.order > 1 and gcd(group.order // normal.order, m) == 1:
            return normal
    return None


@dataclass(frozen=True)
class CaseAnalysis:
    resolved: bool
    shortcut: dict | None
    cases: tuple[dict, ...]
    reason: str = ""
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "resolved": self.resolved,
            "shortcut": self.shortcut,
            "cases": list(self.cases),
            "reason": self.reason,
            "notes": list(self.notes),
        }


def case_machine_easylgp(g: int, m: int) -> CaseAnalysis:
    """The small-dimension case machine for mu_m contained in D.

    Tries the coprimality certificate first; otherwise enumerates every
    possible Galois group order (divisors of 2g up to 2g/phi(m)) and
    resolves each catalog group of that order by the trivial-group, cyclic,
    or coprime-index-decomposition argument.  The enumeration branch also
    needs g squarefree so that the endomorphism algebra is forced to be a
    commutative CM field (delta^2 divides g).
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("the case machine needs m odd and at least 3")
    if g < 1:
        raise ValueError("dimension must be positive")
    notes = []
    if g == 8:
        notes.append(
            "g = 8 is handled through the power-of-two clause; the general "
            "small-dimension statement stops at g = 7"
        )
    if m not in admissible_m(g):
        return CaseAnalysis(
            resolved=False,
            shortcut=None,
            cases=(),
            reason=(
                f"m = {m} is not an admissible twist order in dimension {g}: "
                f"phi({m}) does not divide {2 * g}"
            ),
            notes=tuple(notes),
        )
    cert = coprimality_certificate(AlbertProfile(g=g, m=m))
    if cert is not None:
        return CaseAnalysis(
            resolved=True,
            shortcut={
                "criterion": "twist-order-coprime-to-rank",
                "certificate": cert.to_dict(),
            },
            cases=(),
            notes=tuple(notes),
        )
    if not is_squarefree(g):
        return CaseAnalysis(
            resolved=False,
            shortcut=None,
            cases=(),
            reason=(
                f"g = {g} is not squarefree, so the endomorphism algebra "
                "cannot be certified commutative and the enumeration does "
                "not apply"
            ),
            notes=tuple(notes),
        )
    notes.append(
        f"g = {g} is squarefree, so delta = 1 and the endomorphism algebra "
        "is a commutative CM field; Hilbert 90 applies to it and to every "
        "subfield"
    )
    bound = (2 * g) // totient(m)
    orders = [n for n in range(1, 2 * g + 1) if (2 * g) % n == 0 and n <= bound]
    cases = []
    all_resolved = True
    for n in orders:
        for candidate in groups_of_order(n):
            entry = {"order": n, "group": candidate.name}
            if n == 1:
                entry["resolved_by"] = "all-endomorphisms-rational"
            elif candidate.is_cyclic:
                entry["resolved_by"] = "full-decomposition-group"
            else:
                witness = _cyclic_normal_witness(candidate, m)
                if witness is not None:
                    entry["resolved_by"] = "coprime-index-decomposition"
                    entry["normal_subgroup"] = list(witness.elements)
                    entry["index"] = candidate.order // witness.order
                else:
                    entry["resolved_by"] = None
                    all_resolved = False
            cases.append(entry)
    return CaseAnalysis(
        resolved=all_resolved,
        shortcut=None,
        cases=tuple(cases),
        reason="" if all_resolved else "some enumerated group is unresolved",
        notes=tuple(notes),
    )


def _check_c7(instance: Instance) -> TraceEntry:
    cid = "small-dimension-case-analysis"
    if not instance.geometrically_simple:
        return _failed(cid, "geometrically_simple is not set")
    if not instance.mu_m_in_d:
        return _failed(cid, "mu_m_in_d is not set")
    if instance.g is None:
        return _failed(cid, "the dimension g is not given")
    g, m = instance.g, instance.m
    if m < 3 or m % 2 == 0:
        return _failed(cid, f"m = {m} is not odd and at least 3")
    power_of_two = (g & (g - 1)) == 0
    if not (power_of_two or g <= 7):
        return _failed(cid, f"g = {g} is neither a power of two nor at most 7")
    try:
        analysis = case_machine_easylgp(g, m)
    except CatalogIncomplete as exc:
        return _failed(cid, f"catalog incomplete: {exc}")
    if not analysis.resolved:
        return _failed(cid, analysis.reason, analysis.to_dict())
    return _fired(cid, analysis.to_dict())


def decide(instance: Instance, size_bound: int = DEFAULT_SIZE_BOUND) -> Verdict:
    """Run every criterion and assemble the verdict.

    A criterion that cannot run because a cohomology computation exceeds
    the size bound is recorded as failed; if in the end nothing fired, the
    size error is re-raised rather than reported as UNKNOWN.
    """
    validate(instance)
    checks = (
        lambda: _check_c0(instance),
        lambda: _check_c1(instance),
        lambda: _check_c2(instance),
        lambda: _check_c3(instance),
        lambda: _check_c4(instance),
        lambda: _check_c5(instance, size_bound),
        lambda: _check_c6(instance),
        lambda: _check_c7(instance),
    )
    entries = []
    too_large: TooLarge | None = None
    for cid, check in zip(CRITERIA, checks):
        try:
            entries.append(check())
        except TooLarge as exc:
            too_large = exc
            entries.append(_failed(cid, f"size bound exceeded: {exc}"))
    fired = next((e for e in entries if e.outcome == "fired"), None)
    if fired is None:
        if too_large is not None:
            raise too_large
        return Verdict(
            status=UNKNOWN, criterion=None, citations=(), trace=tuple(entries)
        )
    return Verdict(
        status=HOLDS,
        criterion=fired.criterion,
        citations=(CITATIONS[fired.criterion],),
        trace=tuple(entries),
    )
