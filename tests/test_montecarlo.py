"""Simulation engine: settlement identities, determinism, summaries."""

import concurrent.futures
import math
import os
import pathlib
import sys
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import reference
from coinvest import montecarlo
from coinvest import (
    BoundedLoadModel,
    EconomicParams,
    FbmLoadModel,
    RateProfile,
    Scenario,
    build_value_table,
    cost,
    deviation_threshold,
    payback_slots,
    sample_loads,
    shapley,
    simulate,
    stability_value_hat,
    summarize,
    utility_ranges,
)
from coinvest.cli import load_config

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def bounded_scenario(spread, horizon=24, base=(50_000.0, 35_000.0)):
    params = EconomicParams(60.0, 0.5, float(horizon), 1.0, (6e-6, 6e-6), 0.03)
    profiles = (
        RateProfile(base[0], ((base[0] / 5.0, 3.0),), 24),
        RateProfile(base[1], ((base[1] / 5.0, 9.0),), 24),
    )
    models = tuple(BoundedLoadModel(p, spread) for p in profiles)
    return Scenario(("east", "west"), models, params)


def fbm_scenario(horizon=48):
    params = EconomicParams(60.0, 0.5, float(horizon), 1.0, (6e-6, 6e-6), 0.03)
    profiles = (
        RateProfile(5_000.0, ((1_000.0, 3.0),), 24),
        RateProfile(3_500.0, ((700.0, 9.0),), 24),
    )
    models = tuple(FbmLoadModel(p, 0.8, 0.7) for p in profiles)
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
        total_cost = cost(scenario.params, table.plans[table.grand_bits].capacity)
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
                cost(scenario.params, table.plans[table.grand_bits].capacity), rel=1e-9
            )

    def test_provider_collects_no_direct_revenue(self, noisy_run):
        _, _, outcomes = noisy_run
        for o in outcomes:
            assert o.collected[0] == 0.0

    def test_per_realization_shapley_matches_permutations(self):
        scenario = bounded_scenario(0.5)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        outcome = simulate(scenario, table, 1, seed=9)[0]
        acc = reference.shapley(outcome.values, table.n_players)
        assert np.allclose(outcome.payoffs, acc, rtol=1e-10, atol=1e-10)

    def test_efficiency_per_realization(self, noisy_run):
        _, table, outcomes = noisy_run
        for o in outcomes:
            assert o.payoffs.sum() == pytest.approx(o.values[table.grand_bits], rel=1e-9)

    def test_null_player_earns_nothing(self):
        params = EconomicParams(60.0, 0.5, 24.0, 1.0, (6e-6, 6e-6), 0.03)
        models = (
            BoundedLoadModel(RateProfile(50_000.0), 0.5),
            BoundedLoadModel(RateProfile(0.0), 0.5),
        )
        scenario = Scenario(("busy", "idle"), models, params)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        for o in simulate(scenario, table, 30, seed=4):
            assert abs(o.payoffs[2]) <= 1e-9 * max(1.0, table.grand_value)


class TestDeterminism:
    def test_worker_count_does_not_change_results(self, pool):
        scenario = bounded_scenario(0.3)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        pool(1)
        serial = simulate(scenario, table, 600, seed=5)
        pool(4)
        threaded = simulate(scenario, table, 600, seed=5)
        assert len(serial) == len(threaded) == 600
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.loads.values, b.loads.values)
            assert np.array_equal(a.payoffs, b.payoffs)
            assert np.array_equal(a.rewards, b.rewards)

    @pytest.mark.parametrize("workers", (1, 3))
    @pytest.mark.parametrize("make", (lambda: bounded_scenario(0.4), fbm_scenario), ids=("bounded", "fbm"))
    def test_each_outcome_is_its_own_draw_priced_by_hand(self, make, workers, pool):
        scenario = make()
        table = build_value_table(scenario.expected_loads(), scenario.params)
        pool(workers)
        outcomes = simulate(scenario, table, 515, seed=11)
        assert len(outcomes) == 515  # outcome omega is realization omega's draw, checked below
        slot_seconds = scenario.params.slot_seconds
        rows = [m.draw_rows(scenario.horizon, slot_seconds) for m in scenario.models]
        for omega, o in enumerate(outcomes):
            drawn = sample_loads(scenario.models, rows, slot_seconds, (11, omega))
            assert np.array_equal(o.loads.values, drawn.values)
            by_hand = reference.values(table.plans, o.loads.values, scenario.params)
            assert o.values == pytest.approx(by_hand, rel=1e-9)

    @pytest.mark.parametrize("workers", (1, 4))
    @pytest.mark.parametrize("make", (lambda: bounded_scenario(0.4), fbm_scenario), ids=("bounded", "fbm"))
    def test_scenarios_sharing_models_draw_alone_or_interleaved(self, make, workers, pool):
        # the payback --periods pattern: one set of models over scenarios of two horizons and two
        # slot lengths; each call's draws come from its own rows, never the other call's
        base = make()
        scenarios = [
            replace(base, params=replace(base.params, investment_hours=48.0, slot_hours=1.0)),
            replace(base, params=replace(base.params, investment_hours=36.0, slot_hours=0.5)),
        ]
        assert scenarios[0].models is scenarios[1].models
        tables = [build_value_table(s.expected_loads(), s.params) for s in scenarios]
        pool(workers)

        def run(i):
            return [o.loads.values for o in simulate(scenarios[i], tables[i], 64, seed=3)]

        alone = [run(0), run(1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                interleaved = list(pool.map(run, (0, 1, 0, 1)))
        finally:
            sys.setswitchinterval(interval)
        assert [a.shape for a in alone[0][:1] + alone[1][:1]] == [(2, 48), (2, 72)]
        for i, draws in enumerate(interleaved):
            assert len(draws) == 64
            assert all(np.array_equal(a, b) for a, b in zip(draws, alone[i % 2]))
        for model in base.models:  # the models keep nothing of the draws
            assert vars(model).keys() == {f.name for f in fields(model)}

    def test_many_threads_on_cold_caches(self, pool):
        # more threads than cores, all reading the call's shared draw rows
        # and filling their own draw buffers at once
        scenario = fbm_scenario()
        table = build_value_table(scenario.expected_loads(), scenario.params)
        count = 2049
        pool(1)
        serial = simulate(scenario, table, count, 12)
        pool(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            threaded = simulate(fbm_scenario(), table, count, 12)
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - start < 60.0
        assert len(threaded) == count
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.loads.values, b.loads.values)
            assert np.array_equal(a.payoffs, b.payoffs)
            assert a.payback_slot == b.payback_slot

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
        _, table, outcomes = noisy_run
        summary = summarize(outcomes, deviation_threshold(table, stability_value_hat(table, shapley(table))))
        per_player, joint = summary.player_profit_prob, summary.joint_profit_prob
        payoffs = np.stack([o.payoffs for o in outcomes])
        assert np.array_equal(per_player, (payoffs >= 0.0).mean(axis=0))
        assert joint == pytest.approx(((payoffs >= 0.0).all(axis=1)).mean())
        assert joint <= per_player.min() + 1e-15

    def test_stability_frequency_edge_cases(self, noisy_run):
        _, _, outcomes = noisy_run
        assert summarize(outcomes, 0.0).stability_frequency == 0.0
        huge = summarize(outcomes, 1e18).stability_frequency
        assert huge == 1.0

    def test_zero_spread_always_stable(self):
        scenario = bounded_scenario(0.0)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        outcomes = simulate(scenario, table, 3, seed=1)
        delta = deviation_threshold(table, stability_value_hat(table, shapley(table)))
        assert delta > 0.0
        assert summarize(outcomes, delta).stability_frequency == 1.0

    def test_summary_shapes_and_bounds(self, noisy_run):
        scenario, table, outcomes = noisy_run
        delta = deviation_threshold(table, stability_value_hat(table, shapley(table)))
        summary = summarize(outcomes, delta)
        n = table.n_players
        assert summary.payoff_quantiles.shape == (n, 5)
        # quantile rows are sorted min..max
        assert (np.diff(summary.payoff_quantiles, axis=1) >= -1e-12).all()
        assert summary.joint_profit_prob <= summary.player_profit_prob.min() + 1e-15
        assert summary.stability_frequency is not None
        assert 0.0 <= summary.stability_frequency <= 1.0

    def test_quantiles_are_numpys_bit_for_bit(self):
        # ties of 0.0 and -0.0 resolve where numpy's partition leaves them; NaN and inf as numpy's do
        rng = np.random.default_rng(455)
        draws = (
            lambda shape: rng.normal(size=shape),
            lambda shape: rng.choice([0.0, -0.0], size=shape),
            lambda shape: rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], size=shape),
            lambda shape: rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0], size=shape),
        )
        for case in range(480):
            n = int(rng.integers(1, 40))
            values = draws[case % 4]((n,) if case % 3 == 0 else (n, int(rng.integers(1, 5))))
            with np.errstate(invalid="ignore"):
                expected = np.quantile(values, montecarlo.QUANTILE_GRID, axis=0).T
                got = montecarlo._quantiles(values)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), values
        slots = [7, 0, 3, 3]  # payback slots come as a list of ints
        expected = np.quantile(np.array(slots, dtype=float), montecarlo.QUANTILE_GRID)
        assert montecarlo._quantiles(slots).tobytes() == expected.tobytes()

    def test_paybacks_censored_when_revenue_never_covers_cost(self):
        # single slot, full spread: demand can land low enough that the
        # one-slot revenue misses the installed cost
        params = EconomicParams(60.0, 0.5, 1.0, 1.0, (6e-6,), 0.03)
        models = (BoundedLoadModel(RateProfile(150_000.0), 1.0),)
        scenario = Scenario(("solo",), models, params)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        plan = table.plans[table.grand_bits]
        assert plan.capacity > 0.0
        outcomes = simulate(scenario, table, 300, seed=13)
        slots = [o.payback_slot for o in outcomes]
        censored = [s for s in slots if s is None]
        recovered = [s for s in slots if s is not None]
        assert censored and recovered
        assert set(recovered) == {0}
        summary = summarize(outcomes, deviation_threshold(table, stability_value_hat(table, shapley(table))))
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
        models = (BoundedLoadModel(RateProfile(100.0), 0.2),)
        scenario = Scenario(("tiny",), models, params)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        assert table.plans[table.grand_bits].capacity == 0.0
        for o in simulate(scenario, table, 5, seed=1):
            assert o.payback_slot == 0


class TestPaybackSlots:
    """``payback_slots`` draws one grand-plan realization at a time."""

    @pytest.mark.parametrize("workers", (1, 3))
    @pytest.mark.parametrize("make", (lambda: bounded_scenario(0.4), fbm_scenario), ids=("bounded", "fbm"))
    def test_equals_the_simulated_payback_slots(self, make, workers, pool):
        scenario = make()
        table = build_value_table(scenario.expected_loads(), scenario.params)
        count = 515
        pool(workers)
        expected = [o.payback_slot for o in simulate(scenario, table, count, seed=5)]
        slots = payback_slots(scenario, table.plans[table.grand_bits], count, 5)
        assert slots == expected
        assert len(set(slots)) > 2  # the draws move the payback slot

    def test_rejects_bad_arguments(self):
        scenario = bounded_scenario(0.1)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        plan = table.plans[table.grand_bits]
        with pytest.raises(ValueError):
            payback_slots(scenario, plan, 0, seed=1)


def overflow_scenario(benefit, factor, horizon=876):
    """One fBm SP (alpha 1, H 0.7) over hourly slots whose load bound is ``factor`` of the largest
    float, or, when ``benefit * horizon`` exceeds 1, whose revenue bound is."""
    envelope = (horizon - 1) ** 0.7 / math.sqrt(2.0 * math.pi)
    base = factor * sys.float_info.max / (envelope * 3600.0 * max(1.0, benefit * horizon))
    params = EconomicParams(10.94, 16.25, float(horizon), 1.0, (benefit,), 0.03)
    return Scenario(("metro",), (FbmLoadModel(RateProfile(base), 1.0, 0.7),), params)


class TestRealizedOverflow:
    """``Scenario`` bounds the expected demand only.  A drawn path that overflows, in its loads or
    in its revenue, ends both functions with a named ``RuntimeError`` and no warning."""

    # seed 0: realization 13 is the first whose loads (benefit 6e-6, load bound half the largest
    # float) or whose revenue (benefit 1, revenue bound 0.99 of it, loads finite) overflow
    CASES = {
        "loads": ((6e-6, 0.5), "realization 13: players[0]: realized loads are not finite"),
        "revenue": ((1.0, 0.99), "realization 13: players[0]: realized revenue over players[0..0] is not finite"),
    }

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("case", CASES)
    def test_simulate_and_payback_name_the_realization_and_sp(self, case, workers, pool):
        args, message = self.CASES[case]
        scenario = overflow_scenario(*args)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        pool(workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError) as simulated:
                simulate(scenario, table, 20, seed=0)
            with pytest.raises(RuntimeError) as paid_back:
                payback_slots(scenario, table.plans[table.grand_bits], 20, 0)
        assert str(simulated.value) == str(paid_back.value) == message

    def test_revenue_case_draws_finite_loads(self):
        scenario = overflow_scenario(1.0, 0.99)
        rows = [m.draw_rows(scenario.horizon, 3600.0) for m in scenario.models]
        loads = sample_loads(scenario.models, rows, 3600.0, (0, 13)).values
        assert np.isfinite(loads).all()
        table = build_value_table(scenario.expected_loads(), scenario.params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(payback_slots(scenario, table.plans[table.grand_bits], 13, 0)) == 13

    def test_refusal_names_where_the_running_sum_overflows(self):
        big = 0.6 * sys.float_info.max
        err = montecarlo._revenue_overflow(3, np.array([big, big, 1.0]))
        assert str(err) == "realization 3: players[1]: realized revenue over players[0..1] is not finite"
        # a sum that overflows only in another order names the last SP
        err = montecarlo._revenue_overflow(3, np.array([0.5 * big, 0.5 * big]))
        assert str(err) == "realization 3: players[1]: realized revenue over players[0..1] is not finite"


class TestWorkerThreads:
    """``simulate`` settles on a pool of ``_pool_size`` threads: one thread, and no pool, below
    ``_POOL_COALITIONS`` coalitions; else one per CPU it may run on, at most one per realization.
    ``payback_slots`` settles one plan, on one thread."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """``max_workers`` of every thread pool started; the stand-in maps serially, starting no thread."""
        started = []

        class Recording:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        return started

    @pytest.fixture
    def cpus(self, monkeypatch):
        """``cpus(k)``: the process may run on ``k`` CPUs."""
        return lambda k: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    K = montecarlo._POOL_COALITIONS

    @pytest.mark.parametrize(
        "coalitions, n, n_cpus, size",
        [
            (K // 2, 1000, 4, 1),
            (K - 1, 1000, 4, 1),
            (K // 2, 250, 100_000, 1),
            (K, 1000, 4, 4),
            (1 << 16, 1000, 4, 4),
            (K, 3, 4, 3),
            (K, 1, 4, 1),
            (K, 250, 100_000, 250),
        ],
        ids=[
            "serial-below-K",
            "serial-just-below-K",
            "serial-below-K-on-many-cpus",
            "pool-at-K",
            "pool-far-above-K",
            "pool-capped-by-realizations",
            "one-realization-one-thread",
            "pool-of-one-per-realization",
        ],
    )
    def test_pool_size_follows_coalitions_cpus_and_realizations(self, cpus, coalitions, n, n_cpus, size):
        cpus(n_cpus)
        assert montecarlo._pool_size(coalitions, n) == size

    @pytest.mark.parametrize("cpu_count, size", [(6, 6), (None, 1)], ids=str)
    def test_pool_size_without_affinity_counts_every_cpu(self, monkeypatch, cpu_count, size):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert montecarlo._pool_size(self.K, 1000) == size

    @pytest.mark.parametrize("fewer_sps, count, started", [(0, 3, [3]), (0, 1, []), (1, 3, [])], ids=str)
    def test_simulate_pools_from_the_coalition_count(self, pools, cpus, fewer_sps, count, started):
        cpus(100_000)
        n_sp = montecarlo._POOL_COALITIONS.bit_length() - 2 - fewer_sps  # 2**(n_sp + 1) coalitions
        base = bounded_scenario(0.3)
        params = replace(base.params, benefits=(6e-6,) * n_sp)
        scenario = Scenario(tuple(f"sp{i}" for i in range(n_sp)), (base.models * n_sp)[:n_sp], params)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        assert len(table.plans) == 1 << (n_sp + 1)
        payoffs = [o.payoffs.tolist() for o in simulate(scenario, table, count, 9)]
        assert pools == started
        cpus(1)
        assert payoffs == [o.payoffs.tolist() for o in simulate(scenario, table, count, 9)]
        assert pools == started

    def test_payback_slots_start_no_pool(self, pools, pool):
        pool(100_000)
        scenario = bounded_scenario(0.3)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        assert len(payback_slots(scenario, table.plans[table.grand_bits], 5, 9)) == 5
        assert pools == []


class TestValidation:
    def test_rejects_bad_arguments(self):
        scenario = bounded_scenario(0.1)
        table = build_value_table(scenario.expected_loads(), scenario.params)
        with pytest.raises(ValueError):
            simulate(scenario, table, 0, seed=1)
        with pytest.raises(ValueError):
            simulate(scenario, table, 1, seed=1, payment_mode="net-30")


def edge_bounded(horizon, n_sp=2):
    """The shipped edge-bounded scenario over ``horizon`` slots, with its first ``n_sp`` SPs."""
    scenario, _ = load_config(str(CONFIGS / "edge-bounded.json"))
    params = replace(scenario.params, investment_hours=horizon * scenario.params.slot_hours)
    params = replace(params, benefits=params.benefits[:n_sp])
    return Scenario(scenario.sp_names[:n_sp], scenario.models[:n_sp], params)


# The three calls that take a scenario with a value table or plan made for it.
FIT_CALLS = {
    "simulate": lambda scenario, table: simulate(scenario, table, 2, 0),
    "payback_slots": lambda scenario, table: payback_slots(scenario, table.plans[table.grand_bits], 2, 0),
    "utility_ranges": lambda scenario, table: utility_ranges(table.plans[table.grand_bits], scenario),
}


class TestForeignPlans:
    """A value table or plan made for another scenario is refused, naming both counts, before any draw."""

    @pytest.mark.parametrize("call", FIT_CALLS.values(), ids=FIT_CALLS)
    def test_a_plan_for_more_players_is_refused(self, call):
        two = edge_bounded(48)
        table = build_value_table(two.expected_loads(), two.params)
        with pytest.raises(ValueError, match=r"^planned for 3 players, but the scenario has 2$"):
            call(edge_bounded(48, n_sp=1), table)

    @pytest.mark.parametrize("call", FIT_CALLS.values(), ids=FIT_CALLS)
    def test_a_plan_for_another_horizon_is_refused(self, call):
        longer = edge_bounded(48)
        table = build_value_table(longer.expected_loads(), longer.params)
        with pytest.raises(ValueError, match=r"^planned over 48 slots, but the scenario has 24$"):
            call(edge_bounded(24), table)
