"""Names and units of the per-layer metrics, and how the traced passes of one
run combine into one value each.  Imports nothing from the program, so the
benchmark command can use it without loading nonkoszul."""

from __future__ import annotations

import statistics

# Public functions that at least one workload calls; each gets `.calls` and
# `.self_s`.
FUNCTIONS = (
    "linalg.rank", "linalg.kernel_witness",
    "modp.is_prime", "modp.check_prime", "modp.binomial_mod",
    "modp.multinomial_mod", "modp.q_split", "modp.largest_power_leq",
    "monomials.check_box", "monomials.top_degree", "monomials.hilbert_function",
    "monomials.slice_array",
    "oracle.mult_map", "oracle.e_degree_oracle", "oracle.wlp_rank_profile",
    "oracle.socle_degree_oracle", "oracle.nu_value",
    "formulas.condition_char0", "formulas.ep_base", "formulas.applicability",
    "formulas.min_function", "formulas.ep_main", "formulas.ep_han",
    "formulas.ep_dispatch", "formulas.tsd_formula",
    "formulas.fthreshold_formula", "formulas.frac_str",
    "formulas.wlp_classify_n3", "formulas.wlp_classify_n4",
    "formulas.wlp_feasibility_filter",
    "verify.canonical_json", "verify.verify_e_grid", "verify.verify_wlp_grid",
    "verify.verify_tsd_grid", "verify.fthreshold_convergence",
    "verify.run_grid",
    "cli.main",
)

# Work counters.  A second traced pass with the same seed must reproduce every
# one of them, and every `.calls`, exactly.
COUNTERS = {
    "linalg.rank.cells": "count",               # sum of rows * cols
    "linalg.rank.density": "ratio",             # nonzeros / cells
    "linalg.rank.ops_computed": "count",        # sum of rows * cols * rank
    "linalg.rank.float_path_share": "ratio",    # calls with p < 2^23
    "oracle.mult_map.repeat_ratio": "ratio",
    "oracle.e_degree_oracle.ranks_per_call": "ranks/call",
    "oracle.e_degree_oracle.repeat_ratio": "ratio",
    "oracle.socle_degree_oracle.probes_per_call": "ranks/call",
    "modp.multinomial_mod.zero_ratio": "ratio",
    "formulas.ep_dispatch.closed_form_ratio": "ratio",
}

UNITS = {}
for _fn in FUNCTIONS:
    UNITS[f"{_fn}.calls"] = "count"
    UNITS[f"{_fn}.self_s"] = "s"
UNITS.update(COUNTERS)
UNITS["trace.wall_s"] = "s"          # one traced pass, median
UNITS["trace.overhead_s"] = "s"      # traced pass minus untraced pass


def combine(runs: list[dict]) -> tuple[dict, list[str]]:
    """One value per metric from the traced passes of a run: the median for
    times, the common value for counts.  Also returns the counts that
    differ between passes, which should never happen."""
    out, mismatch = {}, []
    for name in runs[0]:
        values = [run[name] for run in runs]
        if name.endswith(".self_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                mismatch.append(name)
    return out, mismatch
