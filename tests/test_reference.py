"""The engine's pricing against the slow reference in ``reference.py``.

Twenty random small scenarios (1 to 3 SPs, 2 to 48 slots, bounded and
fBm demand) are planned, simulated in both payment modes and paid back.
Every coalition's plan must match the brute-force planner to 1e-9 in
capacity (relative and absolute) and 1e-8 x max(1, capacity) in shares;
every priced number must agree with the reference to 1e-9 relative,
settlement to 1e-9 of the realization's largest settled |value|, and
payback slots exactly.  sigma-hat and delta-hat differ values and
payoffs, so they agree to 1e-9 relative or 1e-9 of the largest |value|;
Hoeffding probabilities agree to 1e-9 relative.  The ten bounded
scenarios also run through ``cli.main`` as configs with one spread for
every SP, and every number of ``stability``'s table and sidecar, and
``simulate``'s ``delta``, must match the reference chain.

The paper's invariants are asserted on the reference's own numbers, its
brute-force plans priced slot by slot: the Shapley payoffs sum to the
grand value, every realization's payments sum to the installed cost and
its rewards to the collected revenue, and wherever the value table is
supermodular the Shapley payoff lies in the core.  In every draw whose
deviations all stay below delta-hat, the realized Shapley payoff and the
ex-ante position lie in the realized game's core.  nu^LB <= the empirical
stability frequency needs many realizations, so it stays with AC05 in
``test_acceptance.py``.
"""

import csv
import functools
import json
import math
import types
from dataclasses import replace

import numpy as np
import pytest

import reference
from coinvest import (
    BoundedLoadModel,
    cost,
    EconomicParams,
    FbmLoadModel,
    RateProfile,
    Scenario,
    build_value_table,
    deviation_threshold,
    payback_slots,
    sample_loads,
    shapley,
    simulate,
    stability_lower_bound,
    stability_value_hat,
    utility_ranges,
)
from coinvest.cli import load_config, main
from coinvest.economics import HOURS_PER_YEAR
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
        models = [BoundedLoadModel(p, rng.uniform(0.0, 1.0)) for p in profiles]
    else:
        models = [FbmLoadModel(p, rng.uniform(0.0, 1.0), rng.uniform(0.55, 0.95)) for p in profiles]
    return Scenario(tuple(f"sp{i}" for i in range(n_sp)), models, params)


SEEDS = range(20)
BOUNDED_SEEDS = range(0, 20, 2)


@functools.cache
def planned(seed: int):
    scenario = random_scenario(seed)
    return scenario, build_value_table(scenario.expected_loads(), scenario.params)


@functools.cache
def reference_game(seed: int):
    """``(scenario, plans, values)``: every coalition's brute-force plan, by
    bitmask, and its value priced by the reference at expected loads."""
    scenario = random_scenario(seed)
    loads, params = scenario.expected_loads(), scenario.params
    plans = [
        types.SimpleNamespace(capacity=capacity, shares=shares)
        for capacity, shares in (
            reference.brute_force_plan(coalition, loads, params) for coalition in all_coalitions(scenario.n_players)
        )
    ]
    return scenario, plans, reference.values(plans, loads, params)


def draws(scenario, seed):
    slot_seconds = scenario.params.slot_seconds
    rows = [m.draw_rows(scenario.horizon, slot_seconds) for m in scenario.models]
    return [sample_loads(scenario.models, rows, slot_seconds, (seed, omega)).values for omega in range(REALIZATIONS)]


@pytest.mark.parametrize("seed", SEEDS)
def test_plans_match_the_brute_force_planner(seed):
    scenario, want, _ = reference_game(seed)
    loads, params = scenario.expected_loads(), scenario.params
    for coalition, expected in zip(all_coalitions(scenario.n_players), want, strict=True):
        plan = optimal_plan(coalition, loads, params)
        assert plan.capacity == pytest.approx(expected.capacity, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(plan.shares, expected.shares, rtol=0.0, atol=1e-8 * max(1.0, expected.capacity))


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
    grand = table.plans[table.grand_bits]
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
    grand = table.plans[table.grand_bits]
    expected = reference.utility_ranges(grand, scenario.models, scenario.params)
    np.testing.assert_allclose(utility_ranges(grand, scenario), expected, rtol=REL, atol=0.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_payback_slots(seed):
    scenario, table = planned(seed)
    grand = table.plans[table.grand_bits]
    expected = [reference.payback_slot(grand, loads, scenario.params) for loads in draws(scenario, seed)]
    assert payback_slots(scenario, grand, REALIZATIONS, seed) == expected
    assert [o.payback_slot for o in simulate(scenario, table, REALIZATIONS, seed=seed)] == expected


def value_scale(values) -> float:
    """Absolute tolerance for numbers that difference coalition values."""
    return REL * max(1.0, max(abs(v) for v in values))


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_shapley_is_efficient(seed):
    scenario, _, values = reference_game(seed)
    payoff = reference.shapley(values, scenario.n_players)
    assert math.fsum(payoff) == pytest.approx(values[-1], rel=0.0, abs=value_scale(values))


@pytest.mark.parametrize("payment_mode", PAYMENT_MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_reference_settlement_balances_the_budget(seed, payment_mode):
    scenario, plans, _ = reference_game(seed)
    params, grand = scenario.params, plans[-1]
    for loads in draws(scenario, seed):
        settled = reference.settlement(plans, loads, scenario.expected_loads(), params, payment_mode)
        tol = REL * max(abs(x) for column in settled for x in column)
        _, payments, rewards = settled
        assert math.fsum(payments) == pytest.approx(cost(params, grand.capacity), rel=0.0, abs=tol)
        revenue = math.fsum(reference.sp_revenues(grand, loads, params))
        assert math.fsum(rewards) == pytest.approx(revenue, rel=0.0, abs=tol)


def test_reference_shapley_in_the_core_of_supermodular_games():
    supermodular_seeds = []
    for seed in SEEDS:
        scenario, _, values = reference_game(seed)
        tol = value_scale(values)
        coalitions = range(len(values))
        if any(values[a | b] + values[a & b] < values[a] + values[b] - tol for a in coalitions for b in coalitions):
            continue
        supermodular_seeds.append(seed)
        payoff = reference.shapley(values, scenario.n_players)
        for bits in coalitions:
            excess = math.fsum(payoff[i] for i in reference.members(bits, scenario.n_players)) - values[bits]
            assert excess >= -tol, (seed, bits)
    assert len(supermodular_seeds) >= 5  # 9 of the 20 games are; the core check must not run empty


STABLE_DRAWS = 12


def test_deviations_below_delta_hat_keep_both_positions_in_the_realized_core():
    """delta-hat's promise, realization by realization, on the reference's own numbers.

    Whenever every player's deviation (its revenue under the grand plan
    less its expected revenue) is below delta-hat, two positions lie in
    the core of the realized game, the brute-force plans priced at the
    drawn loads: the realized Shapley payoff, and the ex-ante position
    (expected Shapley payoff plus deviation), what a player nets when it
    pays its ex-ante payment and keeps what it collects.
    """
    checked = 0
    for seed in SEEDS:
        scenario, plans, values = reference_game(seed)
        n_players, params = scenario.n_players, scenario.params
        payoff = reference.shapley(values, n_players)
        delta = reference.deviation_threshold(values, reference.sigma_hat(values, payoff), n_players)
        expected_revenue = reference.sp_revenues(plans[-1], scenario.expected_loads(), params)
        rows = [m.draw_rows(scenario.horizon, params.slot_seconds) for m in scenario.models]
        for omega in range(STABLE_DRAWS):
            loads = sample_loads(scenario.models, rows, params.slot_seconds, (seed, omega)).values
            revenue = reference.sp_revenues(plans[-1], loads, params)
            deviations = [0.0] + [r - e for r, e in zip(revenue, expected_revenue)]
            if not all(abs(d) < delta for d in deviations):
                continue
            checked += 1
            realized = reference.values(plans, loads, params)
            tol = value_scale(realized)
            position = [p + d for p, d in zip(payoff, deviations)]
            for x in (reference.shapley(realized, n_players), position):
                for bits in range(1, len(realized)):
                    excess = math.fsum(x[i] for i in reference.members(bits, n_players)) - realized[bits]
                    assert excess >= -tol, (seed, omega, bits)
    assert checked >= 30  # 52 of the 240 draws are; the core check must not run empty


@pytest.mark.parametrize("seed", SEEDS)
def test_sigma_hat_and_delta_hat(seed):
    _, table = planned(seed)
    values, payoff = table.values.tolist(), shapley(table)
    sigma = stability_value_hat(table, payoff)
    tol = value_scale(values)
    assert sigma == pytest.approx(reference.sigma_hat(values, payoff.tolist()), rel=REL, abs=tol)
    want = reference.deviation_threshold(values, sigma, table.n_players)
    assert deviation_threshold(table, sigma) == pytest.approx(want, rel=REL, abs=tol)


@pytest.mark.parametrize("seed", BOUNDED_SEEDS)
def test_hoeffding_lower_bound(seed):
    scenario, table = planned(seed)
    ranges = utility_ranges(table.plans[table.grand_bits], scenario)
    ssq = [sum(r * r for r in row) for row in ranges.tolist()]
    # delta-hat, then the deltas that put each risky player's bound at one half
    deltas = [deviation_threshold(table, stability_value_hat(table, shapley(table)))]
    deltas += [math.sqrt(q * math.log(4.0) / 2.0) for q in ssq if q > 0.0]
    for delta in deltas:
        probs, joint = stability_lower_bound(delta, ranges)
        want_probs, want_joint = reference.stability_lower_bound(delta, ranges.tolist())
        assert probs.tolist() == pytest.approx(want_probs, rel=REL)
        assert joint == pytest.approx(want_joint, rel=REL)


def bounded_config(scenario: Scenario) -> dict:
    """A config of the bounded ``scenario``, its first SP's spread for every SP."""
    params = scenario.params
    return {
        "schema_version": 1,
        "economics": {
            "capacity_price": params.capacity_price,
            "maintenance_price": params.maintenance_price,
            "investment_years": params.investment_hours / HOURS_PER_YEAR,
            "slot_hours": params.slot_hours,
        },
        "saturation": params.saturation,
        "uncertainty": {"kind": "bounded", "spread": scenario.models[0].spread},
        "players": [
            {
                "name": name,
                "benefit": benefit,
                "profile": {
                    "base_rate": m.profile.base_rate,
                    "period": m.profile.period,
                    "components": [list(c) for c in m.profile.components],
                },
            }
            for name, benefit, m in zip(scenario.sp_names, params.benefits, scenario.models)
        ],
    }


@pytest.mark.parametrize("seed", BOUNDED_SEEDS)
def test_stability_chain_through_the_cli(seed, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(bounded_config(random_scenario(seed))))
    scenario, _ = load_config(str(path))
    params, names, n_players = scenario.params, scenario.player_names, scenario.n_players
    sweep = (1e-3, 1e-2, scenario.models[0].spread)

    # the reference chain on the engine's plans
    table = build_value_table(scenario.expected_loads(), params)
    values = reference.values(table.plans, scenario.expected_loads(), params)
    payoff = reference.shapley(values, n_players)
    sigma = reference.sigma_hat(values, payoff)
    delta = reference.deviation_threshold(values, sigma, n_players)
    grand = table.plans[table.grand_bits]
    bounds = [
        reference.stability_lower_bound(
            delta, reference.utility_ranges(grand, [replace(m, spread=s) for m in scenario.models], params)
        )
        for s in sweep
    ]
    tol = value_scale(values)

    def value_close(got, want):
        return got == pytest.approx(want, rel=REL, abs=tol)

    out = tmp_path / "stability.csv"
    assert main(["stability", str(path), "--out", str(out), "--sweep", ",".join(map(repr, sweep))]) == 0
    side = json.loads(out.with_suffix(".json").read_text())
    assert value_close(side["grand_value"], values[-1])
    assert side["degenerate"] is bool(values[-1] <= 0.0)
    assert value_close([side["expected_payoff"][name] for name in names], payoff)
    assert value_close(side["sigma_hat"], sigma)
    assert value_close(side["delta"], delta)
    assert [entry["spread"] for entry in side["sweep"]] == list(sweep)
    rows = []
    for entry, (probs, joint) in zip(side["sweep"], bounds):
        assert [entry["player_bounds"][name] for name in names] == pytest.approx(probs, rel=REL)
        assert entry["nu_lb"] == pytest.approx(joint, rel=REL)
        rows += [(entry["spread"], name, prob) for name, prob in zip(names, probs)]
        rows.append((entry["spread"], "nu_lb", joint))
    with open(out, newline="") as fh:
        table_rows = list(csv.reader(fh))[1:]
    assert [(float(s), name) for s, name, _ in table_rows] == [(s, name) for s, name, _ in rows]
    assert [float(p) for _, _, p in table_rows] == pytest.approx([p for _, _, p in rows], rel=REL)

    out = tmp_path / "simulate.csv"
    assert main(["simulate", str(path), "--out", str(out), "--realizations", "1"]) == 0
    assert value_close(json.loads(out.with_suffix(".json").read_text())["delta"], delta)
