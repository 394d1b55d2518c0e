"""Minimal non-Koszul relation degrees on powers of variables and their sum
over F_p, with the derived socle degrees, diagonal F-thresholds, and weak
Lefschetz verdicts.  Closed formulas and an independent rank oracle live in
separate modules so each can check the other.  Public functions check their
arguments; underscore helpers take arguments their caller has checked."""

from .formulas import (ApplicabilityReport, FThresholdResult,
                       NotApplicableError, applicability, condition_char0,
                       e0_formula, ep_dispatch, ep_formula, ep_han, ep_main,
                       fthreshold_formula, frac_str, min_function, tsd_formula,
                       wlp_classify_n3, wlp_classify_n4, wlp_criterion,
                       wlp_feasibility_filter)
from .linalg import MatrixFp, kernel_witness, matrix_from_rows, rank
from .modp import (binomial_mod, check_prime, is_prime, largest_power_leq,
                   multinomial_mod)
from .monomials import hilbert_function, slice_array, top_degree
from .oracle import (EResult, KernelWitness, WlpRecord, WlpReport,
                     e_degree_oracle, mult_map, socle_degree_oracle,
                     wlp_rank_profile)
from .verify import (GridSpec, canonical_json, default_suite,
                     fthreshold_convergence, run_grid, run_suite,
                     verify_e_grid, verify_tsd_grid, verify_wlp_grid)

__version__ = "0.1.0"

__all__ = [
    "ApplicabilityReport", "EResult", "FThresholdResult", "GridSpec",
    "KernelWitness", "MatrixFp", "NotApplicableError", "WlpRecord",
    "WlpReport", "applicability", "binomial_mod",
    "canonical_json", "check_prime", "condition_char0", "default_suite",
    "e0_formula", "e_degree_oracle", "ep_dispatch", "ep_formula", "ep_han",
    "ep_main", "frac_str", "fthreshold_convergence", "fthreshold_formula",
    "hilbert_function", "is_prime", "kernel_witness", "largest_power_leq",
    "matrix_from_rows", "min_function", "mult_map", "multinomial_mod", "rank",
    "run_grid", "run_suite", "slice_array", "socle_degree_oracle",
    "top_degree", "tsd_formula",
    "verify_e_grid", "verify_tsd_grid", "verify_wlp_grid", "wlp_classify_n3",
    "wlp_classify_n4", "wlp_criterion", "wlp_feasibility_filter",
    "wlp_rank_profile",
]
