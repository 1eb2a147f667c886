"""The reproduction suite: every headline fact the package is built around,
as a named, rerunnable check.

Each check returns (passed, details) with JSON-serializable, deterministically
ordered details, so two runs of the suite produce identical output.  The CLI
``verify-paper`` subcommand runs these and renders a table; the acceptance
tests run the same registry with timing assertions on top.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Callable

from .albert import admissible_m, fermat_squarefree_check
from .cohomology import (
    cohomology,
    conjugation_on_cohomology,
    inflation,
    restriction,
    sha_finite,
    _cohomology_cached,
)
from .gmodules import (
    CyclotomicCharacter,
    all_characters,
    descend_to_quotient,
    mu_module,
    trivial_module,
)
from .groups import (
    Subgroup,
    cyclic,
    cyclic_subgroups,
    direct_product,
    named_group,
    quotient,
    subgroup_generated,
    symmetric,
)
from .lgp import Instance, _fields_of, decide
from .oracle import BudgetExceeded, OracleBudget, brute_h1, brute_h2

DEFAULT_VERIFY_BUDGET = 600000


@dataclass(frozen=True)
class CheckResult:
    name: str
    statement: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return _fields_of(self)


def _small_group(name: str):
    table = {
        "C2xC2": lambda: direct_product(cyclic(2), cyclic(2)),
        "C2xC4": lambda: direct_product(cyclic(4), cyclic(2)),
        "C2xC2xC2": lambda: direct_product(cyclic(2), cyclic(2), cyclic(2)),
    }
    if name in table:
        return table[name]()
    return named_group(name)


SMALL_CATALOG = [
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "C2xC2", "C2xC4", "C2xC2xC2", "S3", "D4", "Q8",
]


def check_admissible_m_tables() -> tuple[bool, dict]:
    expected = {3: [3, 7, 9], 5: [3, 11], 6: [3, 5, 7, 9, 13, 21], 7: [3]}
    table = {str(g): admissible_m(g) for g in sorted(expected)}
    passed = all(admissible_m(g) == want for g, want in expected.items())
    fermat = {
        str(g): [m for m in admissible_m(g) if fermat_squarefree_check(m)]
        for g in (1, 2, 4, 8)
    }
    powers_ok = all(
        fermat[str(g)] == admissible_m(g) for g in (1, 2, 4, 8)
    )
    return passed and powers_ok, {
        "tables": table,
        "power_of_two_fermat_products": fermat,
    }


def check_small_dimension_twists() -> tuple[bool, dict]:
    placeholder = direct_product(cyclic(2), cyclic(2))
    rows = []
    passed = True
    notes = []
    for g in range(1, 9):
        for m in admissible_m(g):
            expected = (
                "small-dimension-case-analysis"
                if (g, m) in ((3, 3), (6, 3))
                else "twist-order-coprime-to-rank"
            )
            instance = Instance(
                m=m,
                group=placeholder,
                character=CyclotomicCharacter.trivial(placeholder, m),
                g=g,
                mu_m_in_d=True,
                geometrically_simple=True,
            )
            verdict = decide(instance)
            ok = verdict.holds and verdict.criterion == expected
            passed = passed and ok
            row = {
                "g": g,
                "m": m,
                "status": verdict.status,
                "criterion": verdict.criterion,
                "expected": expected,
                "ok": ok,
            }
            if (g, m) in ((3, 3), (6, 3)):
                fired = next(e for e in verdict.trace if e.outcome == "fired")
                row["cases"] = fired.hypotheses["cases"]
            rows.append(row)
            if g == 8 and not notes:
                notes.append(
                    "g = 8 is certified through the power-of-two clause of "
                    "the small-dimension analysis"
                )
    return passed, {"instances": rows, "notes": notes}


def check_coprime_order_vanishing() -> tuple[bool, dict]:
    passed = True
    cases = 0
    failures = []
    for name in SMALL_CATALOG:
        group = _small_group(name)
        for m in (3, 5, 7, 9):
            if gcd(group.order, m) != 1:
                continue
            for chi in all_characters(group, m):
                module = mu_module(group, m, chi)
                h1 = cohomology(group, module, 1)
                h2 = cohomology(group, module, 2)
                cases += 1
                if not (h1.is_trivial and h2.is_trivial):
                    passed = False
                    failures.append(
                        {
                            "group": name,
                            "m": m,
                            "character": list(chi.values),
                            "h1": list(h1.invariant_factors),
                            "h2": list(h2.invariant_factors),
                        }
                    )
    return passed, {"cases_checked": cases, "failures": failures}


def check_cyclic_closed_forms(budget: int = DEFAULT_VERIFY_BUDGET) -> tuple[bool, dict]:
    passed = True
    rows = []
    oracle_budget = OracleBudget(budget)
    for n in range(1, 9):
        group = cyclic(n)
        for m in (3, 5, 7, 9):
            module = trivial_module(group, [m])
            g = gcd(n, m)
            expected = [] if g == 1 else [g]
            h1 = list(cohomology(group, module, 1).invariant_factors)
            h2 = list(cohomology(group, module, 2).invariant_factors)
            row = {"n": n, "m": m, "expected": expected, "h1": h1, "h2": h2}
            ok = h1 == expected and h2 == expected
            for degree, brute in ((1, brute_h1), (2, brute_h2)):
                try:
                    oracle = list(brute(group, module, oracle_budget))
                    row[f"oracle_h{degree}"] = oracle
                    ok = ok and oracle == expected
                except BudgetExceeded:
                    row[f"oracle_h{degree}"] = "budget-exceeded"
            row["ok"] = ok
            passed = passed and ok
            rows.append(row)
    return passed, {"rows": rows}


def check_inflation_restriction_collapse() -> tuple[bool, dict]:
    details = {}
    passed = True
    # inflation H^2(C3, Z/3) -> H^2(C6, Z/3) along C6 -> C6/C2
    c6 = cyclic(6)
    module3 = trivial_module(c6, [3])
    n2 = subgroup_generated(c6, [3])
    q, proj = quotient(c6, n2)
    coeff, embed = descend_to_quotient(module3, proj)
    inf = inflation(cohomology(q, coeff, 2), proj, module3, embed)
    details["inflation_c6_c2_m3"] = {
        "source": list(inf.source.invariant_factors),
        "target": list(inf.target.invariant_factors),
        "matrix": [list(r) for r in inf.matrix],
        "isomorphism": inf.is_isomorphism,
    }
    passed = passed and inf.is_isomorphism and inf.source.invariant_factors == (3,)
    # inflation H^2(C2, Z/5) -> H^2(S3, Z/5) along S3 -> S3/C3
    s3 = symmetric(3)
    module5 = trivial_module(s3, [5])
    c3 = subgroup_generated(s3, [3])
    q5, proj5 = quotient(s3, c3)
    coeff5, embed5 = descend_to_quotient(module5, proj5)
    inf5 = inflation(cohomology(q5, coeff5, 2), proj5, module5, embed5)
    details["inflation_s3_c3_m5"] = {
        "source": list(inf5.source.invariant_factors),
        "target": list(inf5.target.invariant_factors),
        "isomorphism": inf5.is_isomorphism,
    }
    passed = passed and inf5.is_isomorphism
    # restriction H^2(S3, Z/3) -> H^2(C3, Z/3)^{S3/C3} is an isomorphism
    module3s = trivial_module(s3, [3])
    h2 = cohomology(s3, module3s, 2)
    res = restriction(h2, c3)
    action = conjugation_on_cohomology(s3, c3, module3s, 2)
    fixed_factors, _ = action.fixed_subgroup()
    onto_invariants = (
        res.is_injective
        and res.image_invariants() == fixed_factors
    )
    details["restriction_s3_c3_m3"] = {
        "h2_G": list(h2.invariant_factors),
        "h2_N": list(action.cohomology.invariant_factors),
        "conjugation_matrices": [
            [list(r) for r in mat] for mat in action.matrices
        ],
        "fixed_subgroup": list(fixed_factors),
        "isomorphism_onto_invariants": onto_invariants,
    }
    passed = passed and onto_invariants
    # the nontrivial coset must act by -1 on H^2(C3, Z/3)
    passed = passed and action.matrices[1] == ((2,),)
    return passed, details


def check_worked_examples() -> tuple[bool, dict]:
    c2 = cyclic(2)
    chi = CyclotomicCharacter(c2, 3, (1, 2))
    ec = Instance(
        m=3,
        group=c2,
        character=chi,
        g=1,
        dl_commutative=True,
        dl_cm_field=True,
        geometrically_simple=True,
    )
    ec_verdict = decide(ec)
    ggl = Instance(
        m=3,
        group=c2,
        character=chi,
        dl_commutative=True,
        geometrically_simple=True,
    )
    ggl_verdict = decide(ggl)
    ec_ok = ec_verdict.holds and ec_verdict.criterion == "full-decomposition-group"
    ggl_fired = [e.criterion for e in ggl_verdict.trace if e.outcome == "fired"]
    ggl_ok = ggl_verdict.holds and "no-invariant-roots" in ggl_fired
    details = {
        "cm_elliptic_curve": {
            "status": ec_verdict.status,
            "criterion": ec_verdict.criterion,
            "fired": [e.criterion for e in ec_verdict.trace if e.outcome == "fired"],
        },
        "cyclotomic_jacobian_factor": {
            "status": ggl_verdict.status,
            "criterion": ggl_verdict.criterion,
            "fired": ggl_fired,
        },
    }
    return ec_ok and ggl_ok, details


def check_negative_control() -> tuple[bool, dict]:
    group = direct_product(cyclic(2), cyclic(2))
    instance = Instance(
        m=2,
        group=group,
        character=CyclotomicCharacter.trivial(group, 2),
        g=4,
        dl_commutative=True,
    )
    verdict = decide(instance)
    details = {
        "status": verdict.status,
        "failures": {
            e.criterion: e.reason for e in verdict.trace if e.outcome == "failed"
        },
    }
    return verdict.status == "UNKNOWN", details


ORACLE_CASES = [
    ("C1", 3, 1), ("C1", 5, 1), ("C1", 9, 1),
    ("C2", 3, 2), ("C2", 5, 2), ("C2", 7, 2), ("C2", 9, 2),
    ("C3", 3, 1), ("C3", 5, 1), ("C3", 7, 3), ("C3", 9, 3),
    ("C4", 3, 2), ("C4", 5, 4), ("C4", 9, 2),
    ("C2xC2", 3, 4), ("C2xC2", 5, 2),
    ("C5", 3, 1), ("C5", 5, 1),
    ("C6", 3, 2), ("C6", 9, 1),
    ("S3", 3, 2), ("S3", 5, 2),
    ("C7", 3, 1),
    ("C8", 3, 2),
    ("C2xC4", 3, 2),
    ("D4", 3, 2),
    ("Q8", 3, 2),
]


def check_oracle_equivalence(budget: int = DEFAULT_VERIFY_BUDGET) -> tuple[bool, dict]:
    oracle_budget = OracleBudget(budget)
    passed = True
    compared_pairs = 0
    comparisons = 0
    rows = []
    for name, m, char_count in ORACLE_CASES:
        group = _small_group(name)
        chars = all_characters(group, m)[:char_count]
        for idx, chi in enumerate(chars):
            module = mu_module(group, m, chi)
            row = {"group": name, "m": m, "character": list(chi.values)}
            pair_compared = False
            for degree, brute in ((1, brute_h1), (2, brute_h2)):
                engine = list(cohomology(group, module, degree).invariant_factors)
                try:
                    oracle = list(brute(group, module, oracle_budget))
                except BudgetExceeded:
                    row[f"h{degree}"] = {"engine": engine, "oracle": "budget-exceeded"}
                    continue
                agree = engine == oracle
                row[f"h{degree}"] = {"engine": engine, "oracle": oracle, "agree": agree}
                passed = passed and agree
                pair_compared = True
                comparisons += 1
            if pair_compared:
                compared_pairs += 1
            rows.append(row)
    passed = passed and compared_pairs >= 40
    return passed, {
        "pairs_compared": compared_pairs,
        "comparisons": comparisons,
        "rows": rows,
    }


def check_locally_trivial_kernel() -> tuple[bool, dict]:
    passed = True
    rows = []
    cases = [
        ("S3", 6), ("C6", 3), ("C2xC2", 2), ("C2xC2", 3),
        ("Q8", 2), ("C2xC2xC2", 2),
    ]
    for name, m in cases:
        group = _small_group(name)
        module = trivial_module(group, [m])
        h1 = cohomology(group, module, 1)
        full = Subgroup(group, tuple(group.elements()))
        with_full = sha_finite(group, module, [full])
        with_cyclic = sha_finite(group, module, cyclic_subgroups(group))
        with_trivial = sha_finite(group, module, [Subgroup(group, (0,))])
        ok = (
            with_full.invariant_factors == ()
            and with_cyclic.invariant_factors == ()
            and with_trivial.invariant_factors == h1.invariant_factors
        )
        passed = passed and ok
        rows.append(
            {
                "group": name,
                "m": m,
                "h1": list(h1.invariant_factors),
                "family_contains_G": list(with_full.invariant_factors),
                "all_cyclic": list(with_cyclic.invariant_factors),
                "trivial_family": list(with_trivial.invariant_factors),
                "ok": ok,
            }
        )
    return passed, {"rows": rows}


def check_decision_determinism() -> tuple[bool, dict]:
    def run_once() -> str:
        _cohomology_cached.cache_clear()
        s3 = symmetric(3)
        instance = Instance(
            m=3,
            group=s3,
            character=CyclotomicCharacter.trivial(s3, 3),
            g=6,
            dl_commutative=True,
            dl_cm_field=True,
            mu_m_in_d=True,
            geometrically_simple=True,
        )
        verdict = decide(instance)
        module = trivial_module(s3, [3])
        report = cohomology(s3, module, 2).to_report()
        return json.dumps(
            {"verdict": verdict.to_dict(), "cohomology": report}, sort_keys=True
        )
    first = run_once()
    second = run_once()
    return first == second, {"identical": first == second, "bytes": len(first)}


CHECKS: tuple[tuple[str, str, Callable[..., tuple[bool, dict]]], ...] = (
    (
        "admissible-m-tables",
        "The admissible odd twist orders in dimensions 3, 5, 6, 7 are "
        "exactly [3,7,9], [3,11], [3,5,7,9,13,21], [3]; in power-of-two "
        "dimensions they are squarefree products of Fermat primes.",
        check_admissible_m_tables,
    ),
    (
        "small-dimension-twists",
        "For every g <= 8 and admissible odd m, a geometrically simple "
        "instance with rational m-th roots of unity certifies the "
        "local-global principle, by coprimality except for (g, m) = (3, 3) "
        "and (6, 3), which need the cyclic/S3 case analysis.",
        check_small_dimension_twists,
    ),
    (
        "coprime-order-vanishing",
        "H^1(N, mu_m) and H^2(N, mu_m) vanish for every group of order "
        "at most 8 coprime to m, for every character, m in {3, 5, 7, 9}.",
        check_coprime_order_vanishing,
    ),
    (
        "cyclic-closed-forms",
        "H^1 and H^2 of a cyclic group C_n with trivial Z/m coefficients "
        "are cyclic of order gcd(n, m); the brute-force oracle agrees "
        "within budget.",
        check_cyclic_closed_forms,
    ),
    (
        "inflation-restriction-collapse",
        "When a normal subgroup has order coprime to m, inflation from the "
        "quotient is an isomorphism on H^2; when its index is coprime to m, "
        "restriction is an isomorphism onto the conjugation invariants.",
        check_inflation_restriction_collapse,
    ),
    (
        "worked-examples",
        "The CM elliptic curve instance certifies through the cyclic "
        "Galois group; the cyclotomic Jacobian factor instance certifies "
        "through mu_m^G = 1.",
        check_worked_examples,
    ),
    (
        "negative-control-m2",
        "The quadratic twist instance in dimension 4 stays UNKNOWN: the "
        "engine never certifies it.",
        check_negative_control,
    ),
    (
        "oracle-equivalence",
        "Smith-normal-form cohomology and brute-force enumeration agree on "
        "at least 40 (group, module) pairs in degrees 1 and 2.",
        check_oracle_equivalence,
    ),
    (
        "locally-trivial-kernel",
        "The locally-trivial part of H^1 vanishes when the family contains "
        "G or all cyclic subgroups act on trivial coefficients, and equals "
        "H^1 for the trivial-subgroup family.",
        check_locally_trivial_kernel,
    ),
    (
        "decision-determinism",
        "Two independent runs of the decision engine and the cohomology "
        "engine on the same instance serialize identically.",
        check_decision_determinism,
    ),
)


def run_checks(
    name_filter: str | None = None, budget: int = DEFAULT_VERIFY_BUDGET
) -> list[CheckResult]:
    results = []
    for name, statement, func in CHECKS:
        if name_filter and name_filter not in name:
            continue
        if func in (check_cyclic_closed_forms, check_oracle_equivalence):
            passed, details = func(budget)
        else:
            passed, details = func()
        results.append(
            CheckResult(name=name, statement=statement, passed=passed, details=details)
        )
    return results
