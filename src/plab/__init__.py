"""Exact verification lab for sumset-cardinality inequalities over finite groups."""

from .alphabeta import (EQ, GT, LT, AlphaTable, BetaValue, alpha_table, beta_value,
                        cmp_ratio_vs_beta)
from .errors import (CertificateError, PlabError, ResourceError,
                     TheoremViolationError, UsageError, ValidationError)
from .groups import (GSet, Group, Instance, direct_powers, element_cap,
                     integer_group, iterated_sumset, make_abelian_group,
                     make_cayley_group, sumset)
from .magnification import (MagResult, PlunGraph, build_plun_graph,
                            gamma_flow, multiplicativity_check)
from .theorems import (EmpiricalConstant, LargeSubsetResult, TheoremVerdict,
                       check_noncommutative, check_pldiff, check_plgen,
                       check_restricted_sum, check_single_summand,
                       empirical_plgen2, large_subset,
                       restricted_pipeline)
from .constructions import (Lemma21Report, Lemma21Setup, admissible_q,
                            build_extension, lemma21_demo)

__all__ = [
    "AlphaTable", "BetaValue", "CertificateError", "EQ", "EmpiricalConstant", "GSet", "GT", "Group",
    "Instance", "LT", "LargeSubsetResult", "Lemma21Report", "Lemma21Setup",
    "MagResult", "PlabError", "PlunGraph", "ResourceError",
    "TheoremViolationError", "TheoremVerdict", "UsageError", "ValidationError",
    "admissible_q", "alpha_table", "beta_value",
    "build_extension", "build_plun_graph", "check_noncommutative", "check_pldiff",
    "check_plgen", "check_restricted_sum", "check_single_summand",
    "cmp_ratio_vs_beta", "direct_powers", "element_cap", "empirical_plgen2",
    "gamma_flow", "integer_group", "iterated_sumset", "large_subset", "lemma21_demo",
    "make_abelian_group", "make_cayley_group", "multiplicativity_check",
    "restricted_pipeline", "sumset",
]
