"""Minimal non-Koszul relation degrees on powers of variables and their sum
over F_p, with the derived socle degrees, diagonal F-thresholds, and weak
Lefschetz verdicts.  Closed formulas and an independent rank oracle live in
separate modules so each can check the other.  Public functions check their
arguments; underscore helpers take arguments their caller has checked."""

from .formulas import (ApplicabilityReport, FThresholdResult,
                       NotApplicableError, applicability, ep_dispatch, ep_han,
                       ep_main, fthreshold_formula, frac_str, tsd_formula,
                       wlp_classify_n3, wlp_classify_n4, wlp_criterion,
                       wlp_feasibility_filter)
from .linalg import MatrixFp, kernel_witness, rank
from .modp import check_prime, is_prime
from .monomials import slice_array
from .oracle import (EResult, KernelWitness, WlpRecord, WlpReport,
                     e_degree_oracle, mult_map, socle_degree_oracle,
                     wlp_rank_profile)
from .verify import (GridSpec, canonical_json, fthreshold_convergence,
                     run_grid, verify_e_grid, verify_tsd_grid,
                     verify_wlp_grid)

__version__ = "0.1.0"

__all__ = [
    "ApplicabilityReport", "EResult", "FThresholdResult", "GridSpec",
    "KernelWitness", "MatrixFp", "NotApplicableError", "WlpRecord",
    "WlpReport", "applicability", "canonical_json", "check_prime",
    "e_degree_oracle", "ep_dispatch",
    "ep_han", "ep_main", "frac_str", "fthreshold_convergence",
    "fthreshold_formula", "is_prime", "kernel_witness", "mult_map", "rank",
    "run_grid", "slice_array",
    "socle_degree_oracle", "tsd_formula",
    "verify_e_grid", "verify_tsd_grid", "verify_wlp_grid", "wlp_classify_n3",
    "wlp_classify_n4", "wlp_criterion", "wlp_feasibility_filter",
    "wlp_rank_profile",
]
