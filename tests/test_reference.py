"""The engine's pricing against the slow reference in ``reference.py``.

Twenty random small scenarios (1 to 3 SPs, 2 to 48 slots, bounded and
fBm demand) are planned, simulated in both payment modes and paid back.
Every coalition's plan must match the brute-force planner to 1e-9 in
capacity (relative and absolute) and 1e-8 x max(1, capacity) in shares;
every priced number must agree with the reference to 1e-9 relative,
settlement to 1e-9 of the realization's largest settled |value|, and
payback slots exactly.
"""

import functools

import numpy as np
import pytest

import reference
from coinvest import (
    BoundedLoadModel,
    EconomicParams,
    FbmLoadModel,
    RateProfile,
    Scenario,
    build_value_table,
    payback_slots,
    sample_loads,
    simulate,
    utility_ranges,
)
from coinvest.allocation import optimal_plan, optimal_plan_closed_form, optimal_plan_numeric
from coinvest.montecarlo import PAYMENT_MODES
from coinvest.players import all_coalitions

REL = 1e-9
REALIZATIONS = 3


def random_scenario(seed: int) -> Scenario:
    """Even seeds draw bounded demand, odd seeds fBm demand."""
    rng = np.random.default_rng(seed)
    n_sp = int(rng.integers(1, 4))
    horizon = int(rng.integers(2, 49))
    params = EconomicParams(
        capacity_price=rng.uniform(10.0, 100.0),
        maintenance_price=rng.uniform(0.1, 1.0),
        investment_hours=float(horizon),
        slot_hours=1.0,
        benefits=tuple(rng.uniform(2e-6, 1e-5, n_sp)),
        saturation=rng.uniform(0.01, 0.05),
    )
    profiles = [
        RateProfile(base, ((base * rng.uniform(0.0, 0.5), rng.uniform(0.0, 24.0)),), 24)
        for base in rng.uniform(5e3, 6e4, n_sp)
    ]
    if seed % 2 == 0:
        models = [BoundedLoadModel(p, rng.uniform(0.0, 1.0), 3600.0) for p in profiles]
    else:
        models = [FbmLoadModel(p, rng.uniform(0.0, 1.0), rng.uniform(0.55, 0.95), 3600.0) for p in profiles]
    return Scenario(tuple(f"sp{i}" for i in range(n_sp)), models, params)


SEEDS = range(20)
BOUNDED_SEEDS = range(0, 20, 2)


@functools.cache
def planned(seed: int):
    scenario = random_scenario(seed)
    return scenario, build_value_table(scenario.expected_loads(), scenario.params)


def draws(scenario, seed):
    return [sample_loads(scenario.models, scenario.horizon, (seed, omega)).values for omega in range(REALIZATIONS)]


@pytest.mark.parametrize("seed", SEEDS)
def test_plans_match_the_brute_force_planner(seed):
    scenario, _ = planned(seed)
    loads, params = scenario.expected_loads(), scenario.params
    for coalition in all_coalitions(scenario.n_players):
        plan = optimal_plan(coalition, loads, params)
        capacity, shares = reference.brute_force_plan(coalition, loads, params)
        assert plan.capacity == pytest.approx(capacity, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(plan.shares, shares, rtol=0.0, atol=1e-8 * max(1.0, capacity))


@pytest.mark.parametrize("seed", SEEDS)
def test_plan_objectives_on_both_solver_paths(seed):
    scenario, _ = planned(seed)
    loads, params = scenario.expected_loads(), scenario.params
    for coalition in all_coalitions(scenario.n_players):
        plans = [optimal_plan_numeric(coalition, loads, params), optimal_plan_closed_form(coalition, loads, params)]
        for plan in filter(None, plans):
            assert plan.objective == pytest.approx(reference.value(plan, loads, params), rel=REL)


@pytest.mark.parametrize("seed", SEEDS)
def test_simulate_values_and_collected(seed):
    scenario, table = planned(seed)
    params = scenario.params
    grand = table.plan(table.grand_bits)
    outcomes = simulate(scenario, table, REALIZATIONS, seed=seed)
    for o, loads in zip(outcomes, draws(scenario, seed)):
        assert o.values == pytest.approx(reference.values(table.plans, loads, params), rel=REL)
        assert o.collected == pytest.approx([0.0] + reference.sp_revenues(grand, loads, params), rel=REL)


@pytest.mark.parametrize("payment_mode", PAYMENT_MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_simulate_settlement(seed, payment_mode):
    scenario, table = planned(seed)
    expected_loads = scenario.expected_loads()
    outcomes = simulate(scenario, table, REALIZATIONS, seed=seed, payment_mode=payment_mode)
    for o, loads in zip(outcomes, draws(scenario, seed)):
        expected = reference.settlement(table.plans, loads, expected_loads, scenario.params, payment_mode)
        # payments difference collected revenue and payoffs, so the scale is absolute
        tol = REL * max(abs(x) for column in expected for x in column)
        for got, want in zip((o.payoffs, o.payments, o.rewards), expected):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


@pytest.mark.parametrize("seed", BOUNDED_SEEDS)
def test_utility_ranges(seed):
    scenario, table = planned(seed)
    grand = table.plan(table.grand_bits)
    expected = reference.utility_ranges(grand, scenario.models, scenario.params)
    np.testing.assert_allclose(utility_ranges(grand, scenario.models, scenario.params), expected, rtol=REL, atol=0.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_payback_slots(seed):
    scenario, table = planned(seed)
    grand = table.plan(table.grand_bits)
    expected = [reference.payback_slot(grand, loads, scenario.params) for loads in draws(scenario, seed)]
    assert payback_slots(scenario, grand, REALIZATIONS, seed) == expected
    assert [o.payback_slot for o in simulate(scenario, table, REALIZATIONS, seed=seed)] == expected
