"""Exact finite-group cohomology and a decision engine for the local-global
principle for m-atic twists of abelian varieties."""

from .albert import (
    AlbertProfile,
    InconsistentProfile,
    admissible_m,
    coprimality_certificate,
    fermat_squarefree_check,
)
from .cohomology import (
    CohClass,
    Cochain,
    CohomologyGroup,
    CohomologyMap,
    IncompatibleCoefficients,
    TooLarge,
    coboundary,
    cohomology,
    conjugation_on_cohomology,
    inflation,
    restriction,
    sha_finite,
)
from .gmodules import (
    BadCharacter,
    CyclotomicCharacter,
    GModule,
    all_characters,
    gmodule,
    invariants,
    mu_module,
    restrict_module,
    trivial_module,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    NotAGroup,
    NotNormal,
    Subgroup,
    build_group,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    normal_closure,
    quaternion,
    quotient,
    subgroup_generated,
    subgroups,
    symmetric,
)
from .lgp import (
    CatalogIncomplete,
    Inconsistent,
    Instance,
    Verdict,
    case_machine_easylgp,
    decide,
    validate,
)
from .oracle import BudgetExceeded, OracleBudget, brute_h1, brute_h2, brute_sha

__version__ = "0.1.0"
