"""Analytical companion to the simulator: chains, absorption, safety design."""

from snowsim.analysis.chains import (
    BirthDeathChain,
    absorption_probability,
    build_slush_chain,
    build_snowflake_chain,
    ever_hit_probability,
    ever_hit_profile,
    expected_absorption_time,
    hitting_prob_within,
    hitting_profile,
)
from snowsim.analysis.design import (
    Infeasible,
    SafetyDesign,
    churn_adjusted_delta,
    early_commit_threshold,
    feasibility_search,
    find_point_of_no_return,
    phase_shift_index,
    run_length_beta,
    run_length_tail,
)

__all__ = [
    "BirthDeathChain",
    "build_slush_chain",
    "build_snowflake_chain",
    "absorption_probability",
    "expected_absorption_time",
    "hitting_prob_within",
    "hitting_profile",
    "ever_hit_probability",
    "ever_hit_profile",
    "Infeasible",
    "SafetyDesign",
    "phase_shift_index",
    "find_point_of_no_return",
    "run_length_tail",
    "run_length_beta",
    "early_commit_threshold",
    "churn_adjusted_delta",
    "feasibility_search",
]
