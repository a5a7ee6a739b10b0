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

import importlib

# Each exported name and the module that defines it.  Names load on first
# use (PEP 562), so ``import coinvest`` imports no numpy and the CLI can set
# its BLAS defaults before numpy starts.
_EXPORTS = {
    "economics": ("EconomicParams", "cost", "utility"),
    "traffic": (
        "RateProfile",
        "BoundedLoadModel",
        "FbmLoadModel",
        "LoadMatrix",
        "expected_load_matrix",
        "generate_fbm",
        "sample_loads",
    ),
    "players": ("PlayerSet",),
    "allocation": ("AllocationPlan", "optimal_plan", "optimal_plan_closed_form", "optimal_plan_numeric"),
    "game": (
        "ValueTable",
        "build_value_table",
        "shapley",
        "stability_value_hat",
        "deviation_threshold",
        "utility_ranges",
        "stability_lower_bound",
    ),
    "scenario": ("Scenario",),
    "montecarlo": (
        "RealizationOutcome",
        "SimulationSummary",
        "simulate",
        "payback_slots",
        "summarize",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
