"""Property tests: outputs that must not depend on how a group is labelled,
and the engine against the brute-force oracle on random small products."""

from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from twistlgp.cohomology import cohomology, sha_finite
from twistlgp.gmodules import CyclotomicCharacter, all_characters, mu_module
from twistlgp.groups import (
    FiniteGroup,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    quaternion,
    symmetric,
)
from twistlgp.lgp import Instance, decide
from twistlgp.oracle import BudgetExceeded, OracleBudget, brute_h1, brute_h2

RELABEL_GROUPS = [
    cyclic(4),
    cyclic(6),
    direct_product(cyclic(2), cyclic(2)),
    symmetric(3),
    dihedral(4),
    quaternion(),
    direct_product(cyclic(2), cyclic(4)),
]
SMALL_FACTORS = [
    cyclic(1),
    cyclic(2),
    cyclic(3),
    cyclic(4),
    cyclic(5),
    symmetric(3),
    dihedral(4),
    quaternion(),
    direct_product(cyclic(2), cyclic(2)),
]
ORACLE_BUDGET = OracleBudget(max_functions=10**6)


def relabel(group: FiniteGroup, perm: list[int]) -> FiniteGroup:
    """The same group with element g renamed perm[g] (perm fixes 0)."""
    inverse = [0] * group.order
    for g, new in enumerate(perm):
        inverse[new] = g
    table = tuple(
        tuple(perm[group.mul(inverse[a], inverse[b])] for b in group.elements())
        for a in group.elements()
    )
    return FiniteGroup(group.order, table, name=group.name)


def invariants_of(group, character):
    module = mu_module(group, character.m, character)
    degrees = [cohomology(group, module, n).invariant_factors for n in range(3)]
    sha = sha_finite(group, module, cyclic_subgroups(group)).invariant_factors
    verdict = decide(
        Instance(m=character.m, group=group, character=character, dl_commutative=True)
    )
    summary = (
        verdict.status,
        verdict.criterion,
        [entry.outcome for entry in verdict.trace],
    )
    return degrees, sha, summary


@st.composite
def relabelled_cases(draw):
    group = draw(st.sampled_from(RELABEL_GROUPS))
    m = draw(st.sampled_from([2, 3, 4, 6]))
    character = draw(st.sampled_from(all_characters(group, m)))
    perm = [0] + draw(st.permutations(range(1, group.order)))
    return group, character, perm


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(case=relabelled_cases())
def test_relabelling_changes_no_invariant(case):
    group, character, perm = case
    moved = relabel(group, perm)
    values = [0] * group.order
    for g, new in enumerate(perm):
        values[new] = character(g)
    moved_character = CyclotomicCharacter(moved, character.m, tuple(values))
    assert invariants_of(moved, moved_character) == invariants_of(group, character)


@st.composite
def small_products(draw):
    factors = draw(st.lists(st.sampled_from(SMALL_FACTORS), min_size=1, max_size=3))
    while len(factors) > 1 and prod(f.order for f in factors) > 12:
        factors.pop()
    group = direct_product(*factors)
    m = draw(st.integers(min_value=2, max_value=6))
    character = draw(st.sampled_from(all_characters(group, m)))
    return group, character


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=small_products())
def test_engine_matches_oracle_on_products(case):
    group, character = case
    module = mu_module(group, character.m, character)
    for degree, brute in ((1, brute_h1), (2, brute_h2)):
        try:
            expected = brute(group, module, ORACLE_BUDGET)
        except BudgetExceeded:
            continue  # too large to enumerate; not a disagreement
        assert cohomology(group, module, degree).invariant_factors == expected
