"""Coalitional co-investment engine for shared edge infrastructure.

One infrastructure provider (InP) and a set of service providers (SPs)
jointly fund edge capacity.  The package computes, for every coalition,
the profit-maximising capacity and per-slot capacity shares, values the
coalitions in expectation and per demand realization, redistributes the
surplus through Shapley payoffs, derives analytic stability lower
bounds, and estimates profitability and payback through Monte Carlo
simulation.

Player indexing convention used throughout: player 0 is the InP, players
1..N are the SPs in scenario order.  Coalitions are bitmasks over these
indices (bit 0 set means the InP participates).  Load and share matrices
carry one row per SP (no InP row: the InP never consumes capacity).
"""

from .economics import EconomicParams, cost, utility
from .traffic import (
    RateProfile,
    BoundedLoadModel,
    FbmLoadModel,
    LoadMatrix,
    expected_load,
    expected_load_matrix,
    generate_fbm,
    sample_loads,
)
from .allocation import AllocationPlan, optimal_plan, optimal_plan_closed_form, optimal_plan_numeric
from .game import (
    PlayerSet,
    ValueTable,
    build_value_table,
    shapley,
    realized_value,
    marginal_contribution,
    check_supermodularity,
    check_core,
    stability_value_hat,
    stability_value_lp,
    deviation_threshold,
    utility_ranges,
    stability_lower_bound,
)
from .scenario import Scenario
from .montecarlo import (
    RealizationOutcome,
    SimulationSummary,
    simulate,
    summarize,
    profitability_probabilities,
    empirical_stability_frequency,
)

__all__ = [
    "EconomicParams",
    "cost",
    "utility",
    "RateProfile",
    "BoundedLoadModel",
    "FbmLoadModel",
    "LoadMatrix",
    "expected_load",
    "expected_load_matrix",
    "generate_fbm",
    "sample_loads",
    "AllocationPlan",
    "optimal_plan",
    "optimal_plan_closed_form",
    "optimal_plan_numeric",
    "PlayerSet",
    "ValueTable",
    "build_value_table",
    "shapley",
    "realized_value",
    "marginal_contribution",
    "check_supermodularity",
    "check_core",
    "stability_value_hat",
    "stability_value_lp",
    "deviation_threshold",
    "utility_ranges",
    "stability_lower_bound",
    "Scenario",
    "RealizationOutcome",
    "SimulationSummary",
    "simulate",
    "summarize",
    "profitability_probabilities",
    "empirical_stability_frequency",
]

__version__ = "0.1.0"
