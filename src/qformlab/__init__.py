"""qformlab: exact arithmetic for eta quotients and senary quadratic forms.

Everything is computed over Q (or an explicit number field): Kronecker
characters and twisted divisor sums, eta-quotient expansions on a
24th-root grading, the weight-3 Eisenstein series and space bases on
Gamma_0(24), representation-number formulas for the 84 senary forms
with coefficients in {1, 2, 3, 6}, the five attached newforms, and a
census of all holomorphic weight-3 eta quotients at level 24.
"""

from .arith import (
    ExactMatrix,
    NumberField,
    NumberFieldElement,
    format_rational,
    minimal_polynomial,
    parse_rational,
)
from .characters import DirichletChar, chi, gen_bernoulli3, kronecker, sigma_twisted
from .eisenstein import EisensteinSpec, eisenstein3, parse_e3
from .etaq import (
    EtaQuotient,
    ModularityReport,
    character_of,
    cusp_order,
    divisors,
    ligozat_check,
    parse_eta,
)
from .etasearch import (
    CensusResult,
    census_crosscheck,
    eisenstein_expressible,
    enumerate_space,
    verify_remark_identities,
)
from .newforms import (
    NEWFORMS,
    NewformSpec,
    build_newform,
    check_eigenform,
    rederive_newform,
)
from .qseries import GRADE, QSeries, eta_expansion, eta_quotient_expansion
from .quadforms import (
    QuadForm,
    all_forms,
    derive_formula,
    genfun,
    rep_count_bruteforce,
    rep_count_formula,
)
from .spaces import (
    SPACE_DISCRIMINANTS,
    SpaceBasis,
    build_basis,
    solve_in_basis,
    sturm_bound,
    verify_basis,
)

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "NumberField",
    "NumberFieldElement",
    "format_rational",
    "minimal_polynomial",
    "parse_rational",
    "DirichletChar",
    "chi",
    "gen_bernoulli3",
    "kronecker",
    "sigma_twisted",
    "EisensteinSpec",
    "eisenstein3",
    "parse_e3",
    "EtaQuotient",
    "ModularityReport",
    "character_of",
    "cusp_order",
    "divisors",
    "ligozat_check",
    "parse_eta",
    "CensusResult",
    "census_crosscheck",
    "eisenstein_expressible",
    "enumerate_space",
    "verify_remark_identities",
    "NEWFORMS",
    "NewformSpec",
    "build_newform",
    "check_eigenform",
    "rederive_newform",
    "GRADE",
    "QSeries",
    "eta_expansion",
    "eta_quotient_expansion",
    "QuadForm",
    "all_forms",
    "derive_formula",
    "genfun",
    "rep_count_bruteforce",
    "rep_count_formula",
    "SPACE_DISCRIMINANTS",
    "SpaceBasis",
    "build_basis",
    "solve_in_basis",
    "sturm_bound",
    "verify_basis",
    "__version__",
]
