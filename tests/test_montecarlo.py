"""Simulation engine: settlement identities, determinism, summaries."""

import itertools
import math

import numpy as np
import pytest

from coinvest import (
    BoundedLoadModel,
    EconomicParams,
    RateProfile,
    Scenario,
    build_value_table,
    cost,
    deviation_threshold,
    empirical_stability_frequency,
    profitability_probabilities,
    shapley,
    simulate,
    stability_value_hat,
    summarize,
)


def bounded_scenario(spread, horizon=24, base=(50_000.0, 35_000.0)):
    params = EconomicParams(60.0, 0.5, float(horizon), 1.0, (6e-6, 6e-6), 0.03)
    profiles = (
        RateProfile(base[0], ((base[0] / 5.0, 3.0),), 24),
        RateProfile(base[1], ((base[1] / 5.0, 9.0),), 24),
    )
    models = tuple(BoundedLoadModel(p, spread, 3600.0) for p in profiles)
    return Scenario(("east", "west"), models, params)


@pytest.fixture(scope="module")
def noisy_run():
    scenario = bounded_scenario(0.4)
    table = build_value_table(scenario.expected_loads(), scenario.params)
    outcomes = simulate(scenario, table, 200, seed=17)
    return scenario, table, outcomes


class TestDegenerateSpread:
    def test_zero_spread_reproduces_the_nominal_game(self):
        scenario = bounded_scenario(0.0)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        outcomes = simulate(scenario, table, 3, seed=1)
        expected_payoff = shapley(table)
        for o in outcomes:
            assert np.allclose(o.values, table.values, rtol=1e-9, atol=1e-9)
            assert np.allclose(o.payoffs, expected_payoff, rtol=1e-9, atol=1e-9)
            assert np.allclose(o.deviations, 0.0, atol=1e-6)

    def test_payment_modes_coincide_at_zero_spread(self):
        scenario = bounded_scenario(0.0)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        ex_post = simulate(scenario, table, 2, seed=1, payment_mode="ex-post")
        ex_ante = simulate(scenario, table, 2, seed=1, payment_mode="ex-ante")
        for a, b in zip(ex_post, ex_ante):
            assert np.allclose(a.payments, b.payments, rtol=1e-9, atol=1e-9)
            assert np.allclose(a.rewards, b.rewards, rtol=1e-9, atol=1e-9)

    def test_payback_slot_constant_at_zero_spread(self):
        scenario = bounded_scenario(0.0)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        outcomes = simulate(scenario, table, 5, seed=2)
        slots = {o.payback_slot for o in outcomes}
        assert len(slots) == 1


class TestSettlementIdentities:
    def test_payments_cover_the_cost_exactly(self, noisy_run):
        scenario, table, outcomes = noisy_run
        total_cost = cost(scenario.params, table.plan(table.grand_bits).capacity)
        for o in outcomes:
            assert o.payments.sum() == pytest.approx(total_cost, rel=1e-9)

    def test_rewards_split_collected_revenue(self, noisy_run):
        _, _, outcomes = noisy_run
        for o in outcomes:
            assert np.allclose(o.rewards, o.payoffs + o.payments, rtol=1e-12, atol=1e-9)
            assert o.rewards.sum() == pytest.approx(o.collected.sum(), rel=1e-9)

    def test_ex_ante_payments_constant_and_provider_compensated(self):
        scenario = bounded_scenario(0.4)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        outcomes = simulate(scenario, table, 50, seed=3, payment_mode="ex-ante")
        expected_payoff = shapley(table)
        first = outcomes[0].payments
        assert first[0] == pytest.approx(-expected_payoff[0], rel=1e-12)
        for o in outcomes:
            assert np.array_equal(o.payments, first)
            assert o.payments.sum() == pytest.approx(
                cost(scenario.params, table.plan(table.grand_bits).capacity), rel=1e-9
            )

    def test_provider_collects_no_direct_revenue(self, noisy_run):
        _, _, outcomes = noisy_run
        for o in outcomes:
            assert o.collected[0] == 0.0

    def test_per_realization_shapley_matches_permutations(self):
        scenario = bounded_scenario(0.5)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        outcome = simulate(scenario, table, 1, seed=9)[0]
        n = table.n_players
        acc = np.zeros(n)
        for perm in itertools.permutations(range(n)):
            bits = 0
            for p in perm:
                before = outcome.values[bits]
                bits |= 1 << p
                acc[p] += outcome.values[bits] - before
        acc /= math.factorial(n)
        assert np.allclose(outcome.payoffs, acc, rtol=1e-10, atol=1e-10)

    def test_efficiency_per_realization(self, noisy_run):
        _, table, outcomes = noisy_run
        for o in outcomes:
            assert o.payoffs.sum() == pytest.approx(o.values[table.grand_bits], rel=1e-9)

    def test_null_player_earns_nothing(self):
        params = EconomicParams(60.0, 0.5, 24.0, 1.0, (6e-6, 6e-6), 0.03)
        models = (
            BoundedLoadModel(RateProfile(50_000.0), 0.5, 3600.0),
            BoundedLoadModel(RateProfile(0.0), 0.5, 3600.0),
        )
        scenario = Scenario(("busy", "idle"), models, params)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        for o in simulate(scenario, table, 30, seed=4):
            assert abs(o.payoffs[2]) <= 1e-9 * max(1.0, table.grand_value)


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        scenario = bounded_scenario(0.3)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        serial = simulate(scenario, table, 600, seed=5, workers=1)
        threaded = simulate(scenario, table, 600, seed=5, workers=4)
        assert len(serial) == len(threaded) == 600
        for a, b in zip(serial, threaded):
            assert a.index == b.index
            assert np.array_equal(a.loads.values, b.loads.values)
            assert np.array_equal(a.payoffs, b.payoffs)
            assert np.array_equal(a.rewards, b.rewards)

    def test_seed_changes_results(self):
        scenario = bounded_scenario(0.3)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        a = simulate(scenario, table, 2, seed=5)
        b = simulate(scenario, table, 2, seed=6)
        assert not np.array_equal(a[0].loads.values, b[0].loads.values)

    def test_rerun_is_identical(self):
        scenario = bounded_scenario(0.3)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        a = simulate(scenario, table, 7, seed=8)
        b = simulate(scenario, table, 7, seed=8)
        for x, y in zip(a, b):
            assert np.array_equal(x.loads.values, y.loads.values)
            assert np.array_equal(x.payoffs, y.payoffs)


class TestSummaries:
    def test_probabilities_recomputed_by_hand(self, noisy_run):
        _, _, outcomes = noisy_run
        per_player, joint = profitability_probabilities(outcomes)
        payoffs = np.stack([o.payoffs for o in outcomes])
        assert np.array_equal(per_player, (payoffs >= 0.0).mean(axis=0))
        assert joint == pytest.approx(((payoffs >= 0.0).all(axis=1)).mean())
        assert joint <= per_player.min() + 1e-15

    def test_stability_frequency_edge_cases(self, noisy_run):
        _, _, outcomes = noisy_run
        assert empirical_stability_frequency(outcomes, 0.0) == 0.0
        huge = empirical_stability_frequency(outcomes, 1e18)
        assert huge == 1.0

    def test_zero_spread_always_stable(self):
        scenario = bounded_scenario(0.0)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        outcomes = simulate(scenario, table, 3, seed=1)
        delta = deviation_threshold(table, stability_value_hat(table, shapley(table)))
        assert delta > 0.0
        assert empirical_stability_frequency(outcomes, delta) == 1.0

    def test_summary_shapes_and_bounds(self, noisy_run):
        scenario, table, outcomes = noisy_run
        delta = deviation_threshold(table, stability_value_hat(table, shapley(table)))
        summary = summarize(outcomes, delta)
        n = table.n_players
        assert summary.n_realizations == len(outcomes)
        assert summary.payoff_quantiles.shape == (n, 5)
        # quantile rows are sorted min..max
        assert (np.diff(summary.payoff_quantiles, axis=1) >= -1e-12).all()
        assert summary.joint_profit_prob <= summary.player_profit_prob.min() + 1e-15
        assert summary.stability_frequency is not None
        assert 0.0 <= summary.stability_frequency <= 1.0

    def test_paybacks_censored_when_revenue_never_covers_cost(self):
        # single slot, full spread: demand can land low enough that the
        # one-slot revenue misses the installed cost
        params = EconomicParams(60.0, 0.5, 1.0, 1.0, (6e-6,), 0.03)
        models = (BoundedLoadModel(RateProfile(150_000.0), 1.0, 3600.0),)
        scenario = Scenario(("solo",), models, params)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        plan = table.plan(table.grand_bits)
        assert plan.capacity > 0.0
        outcomes = simulate(scenario, table, 300, seed=13)
        slots = [o.payback_slot for o in outcomes]
        censored = [s for s in slots if s is None]
        recovered = [s for s in slots if s is not None]
        assert censored and recovered
        assert set(recovered) == {0}
        summary = summarize(outcomes)
        assert summary.payback_censored == len(censored)
        assert summary.payback_quantiles is not None
        total_cost = cost(params, plan.capacity)
        for o in outcomes:
            if o.payback_slot is None:
                assert o.collected.sum() < total_cost
            else:
                assert o.collected.sum() >= total_cost

    def test_zero_cost_pays_back_immediately(self):
        # price so high that nothing is installed: cost 0 is covered at slot 0
        params = EconomicParams(1e9, 1e6, 4.0, 1.0, (6e-6,), 0.03)
        models = (BoundedLoadModel(RateProfile(100.0), 0.2, 3600.0),)
        scenario = Scenario(("tiny",), models, params)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        assert table.plan(table.grand_bits).capacity == 0.0
        for o in simulate(scenario, table, 5, seed=1):
            assert o.payback_slot == 0


class TestValidation:
    def test_rejects_bad_arguments(self):
        scenario = bounded_scenario(0.1)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        with pytest.raises(ValueError):
            simulate(scenario, table, 0, seed=1)
        with pytest.raises(ValueError):
            simulate(scenario, table, 1, seed=1, payment_mode="net-30")
        with pytest.raises(ValueError):
            simulate(scenario, table, 1, seed=1, workers=0)
