"""Acceptance suite: twelve end-to-end checks, one test per criterion.

``pytest tests/test_acceptance.py -v`` prints one verdict line per
criterion; add ``-s`` to also see the ``[ACnn]`` detail lines with
wall-clock timings.  Monte Carlo fixtures are shared across criteria,
so the suite runs each heavy simulation exactly once.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import reference
from coinvest import (
    BoundedLoadModel,
    EconomicParams,
    FbmLoadModel,
    PlayerSet,
    RateProfile,
    Scenario,
    build_value_table,
    cost,
    deviation_threshold,
    expected_load_matrix,
    optimal_plan,
    optimal_plan_closed_form,
    optimal_plan_numeric,
    sample_loads,
    shapley,
    simulate,
    stability_lower_bound,
    stability_value_hat,
    summarize,
    utility_ranges,
)
from coinvest.cli import main as cli_main
from coinvest.traffic import generate_fbm

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _passed(tag, started, budget, detail, extra=0.0):
    elapsed = extra + time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"{tag}: {elapsed:.1f}s exceeded the {budget:.0f}s budget"
    print(f"[{tag}] {detail} PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# shared randomized instances


def _closed_form_instance(rng):
    """One random instance on which the closed-form allocation applies."""
    while True:
        n_sp = int(rng.integers(1, 5))
        horizon = int(rng.integers(4, 13))
        base = rng.uniform(1e6, 5e6, size=(n_sp, 1))
        loads = base * rng.uniform(0.7, 1.3, size=(n_sp, horizon))
        benefits = tuple(float(b) for b in rng.uniform(2e-6, 8e-6, size=n_sp))
        xi = float(rng.uniform(0.01, 0.08))
        weights = xi * np.asarray(benefits)[:, None] * loads
        total = float(np.exp(np.log(weights).mean(axis=0)).sum())
        unit = total * float(rng.uniform(0.05, 0.6))
        params = EconomicParams(
            unit / 2.0, unit / (2.0 * horizon), float(horizon), 1.0, benefits, xi
        )
        coalition = PlayerSet.grand(n_sp + 1)
        plan = optimal_plan_closed_form(coalition, loads, params)
        if plan is not None:
            return coalition, loads, params, plan


def _random_game(rng):
    """A value table over 2..6 players with a shared demand rhythm.

    Every provider follows the same temporal pattern, scaled by a per-provider
    demand level (possibly zero); some slots of the pattern may be idle.  Under
    a common rhythm each provider's contribution to a coalition is independent
    of its partners, which keeps the coalition values convex while still
    exercising zero-capacity corners, priced-out providers, and idle slots.
    """
    n_sp = int(rng.integers(1, 6))
    horizon = int(rng.integers(6, 25))
    pattern = rng.uniform(0.2, 1.0, size=horizon)
    if rng.random() < 0.3:
        pattern[rng.random(horizon) < 0.2] = 0.0
    scales = np.exp(rng.uniform(np.log(5e4), np.log(5e6), size=(n_sp, 1)))
    if n_sp >= 2 and rng.random() < 0.15:
        scales[int(rng.integers(0, n_sp))] = 0.0
    loads = scales * pattern[None, :]
    benefits = tuple(float(b) for b in rng.uniform(2e-6, 8e-6, size=n_sp))
    xi = float(rng.uniform(0.01, 0.08))
    ceiling = float((xi * np.asarray(benefits)[:, None] * loads).max(axis=0).sum())
    unit = ceiling * float(rng.uniform(0.05, 0.8)) if ceiling > 0.0 else 1.0
    params = EconomicParams(
        unit / 2.0, unit / (2.0 * horizon), float(horizon), 1.0, benefits, xi
    )
    return build_value_table(loads, params)


@pytest.fixture(scope="module")
def closed_form_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    instances = [_closed_form_instance(rng) for _ in range(200)]
    return instances, time.perf_counter() - start


@pytest.fixture(scope="module")
def random_games():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    games = [_random_game(rng) for _ in range(100)]
    return games, time.perf_counter() - start


# ---------------------------------------------------------------------------
# shared Monte Carlo runs


def _band_scenario(spread):
    params = EconomicParams(60.0, 0.5, 24.0, 1.0, (6e-6, 6e-6), 0.03)
    profiles = (
        RateProfile(50000.0, ((10000.0, 3.0),), 24),
        RateProfile(35000.0, ((7000.0, 9.0),), 24),
    )
    models = tuple(BoundedLoadModel(p, spread) for p in profiles)
    return Scenario(("east", "west"), models, params)


@pytest.fixture(scope="module")
def band_runs():
    """Bounded 2-SP scenario simulated at three uncertainty levels."""
    start = time.perf_counter()
    table = None
    delta = None
    runs = []
    for spread in (0.1, 0.3, 0.5):
        scenario = _band_scenario(spread)
        if table is None:
            table = build_value_table(scenario.expected_loads(), scenario.params)
            payoff = shapley(table)
            delta = deviation_threshold(table, stability_value_hat(table, payoff))
        spans = utility_ranges(table.plans[table.grand_bits], scenario)
        _, joint = stability_lower_bound(delta, spans)
        outcomes = simulate(scenario, table, 10_000, 505)
        runs.append((spread, scenario, joint, outcomes))
    return table, delta, runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def settlement_runs(band_runs):
    """1000 settled realizations under each payment mode."""
    table, delta, runs, _ = band_runs
    scenario = runs[1][1]  # the spread-0.3 variant
    by_mode = {
        mode: simulate(scenario, table, 1000, 606, payment_mode=mode)
        for mode in ("ex-post", "ex-ante")
    }
    return table, delta, scenario, by_mode


@pytest.fixture(scope="module")
def fbm_runs():
    """Self-similar-demand 2-SP scenario swept over the mixing weight."""
    start = time.perf_counter()
    params = EconomicParams(10.94, 16.25, 43800.0, 1.0, (6e-6, 6e-6), 0.03)
    trends = (
        RateProfile(100.0, ((20.0, 5.0),), 24),
        RateProfile(70.0, ((14.0, 11.0),), 24),
    )
    ref = Scenario(
        ("north", "south"), tuple(FbmLoadModel(t, 1.0, 0.7) for t in trends), params
    )
    table = build_value_table(ref.expected_loads(), params)
    payoff = shapley(table)
    delta = deviation_threshold(table, stability_value_hat(table, payoff))
    runs = []
    for alpha in (0.001, 0.25, 0.5, 0.75, 1.0):
        models = tuple(FbmLoadModel(t, alpha, 0.7) for t in trends)
        scenario = Scenario(("north", "south"), models, params)
        outcomes = simulate(scenario, table, 100, 901)
        runs.append((alpha, outcomes))
    return table, delta, runs, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criteria


def test_ac01_closed_form_matches_numeric_solver(closed_form_instances):
    start = time.perf_counter()
    instances, build = closed_form_instances
    assert len(instances) == 200
    for coalition, loads, params, closed in instances:
        numeric = optimal_plan_numeric(coalition, loads, params)
        scale = max(1.0, abs(closed.capacity))
        assert abs(numeric.capacity - closed.capacity) <= 1e-6 * scale
        np.testing.assert_allclose(
            numeric.shares, closed.shares, rtol=1e-6, atol=1e-6 * scale
        )
        assert abs(numeric.objective - closed.objective) <= 1e-6 * max(
            1.0, abs(closed.objective)
        )
    _passed(
        "AC01",
        start,
        60.0,
        "closed-form and numeric allocations agree on 200 instances",
        extra=build,
    )


def test_ac02_coalition_values_are_supermodular(random_games):
    start = time.perf_counter()
    games, build = random_games
    assert len(games) == 100
    for table in games:
        violations = reference.supermodularity_violations(
            table.values, table.n_players, 1e-7 * abs(table.grand_value)
        )
        assert not violations, violations
    _passed(
        "AC02",
        start,
        120.0,
        "no supermodularity violation across 100 random games",
        extra=build,
    )


def test_ac03_shapley_allocation_lies_in_the_core(random_games):
    start = time.perf_counter()
    games, _ = random_games
    for table in games:
        payoff = shapley(table)
        assert not reference.core_violations(
            table.values, payoff, 1e-9 * max(1.0, abs(table.grand_value))
        )
    _passed("AC03", start, None, "Shapley payoff unblocked in 100 random games")


def test_ac04_threshold_from_exact_stability_value_dominates(random_games):
    start = time.perf_counter()
    games, _ = random_games
    for table in games:
        payoff = shapley(table)
        quick = deviation_threshold(table, stability_value_hat(table, payoff))
        exact = deviation_threshold(table, reference.least_core_value(table.values, table.n_players))
        assert quick <= exact + 1e-9
    _passed("AC04", start, None, "closed-form threshold never exceeds the LP threshold")


def test_ac05_stability_bound_is_conservative(band_runs):
    """nu^LB bounds both the delta-hat event and the event it stands for: the realized Shapley
    payoff lies in the realized core, checked at AC09's tolerance."""
    start = time.perf_counter()
    table, delta, runs, build = band_runs
    assert delta > 0.0
    tol = 1e-9 * max(1.0, abs(table.grand_value))
    for spread, _, joint, outcomes in runs:
        freq = summarize(outcomes, delta).stability_frequency
        se = math.sqrt(freq * (1.0 - freq) / len(outcomes))
        assert freq >= joint - 3.0 * se, (spread, freq, joint)
        in_core = [not reference.core_violations(o.values.tolist(), o.payoffs.tolist(), tol) for o in outcomes]
        for omega, (o, stable) in enumerate(zip(outcomes, in_core)):
            if np.all(np.abs(o.deviations) < delta):
                assert stable, (spread, omega)
        core_freq = float(np.mean(in_core))
        core_se = math.sqrt(core_freq * (1.0 - core_freq) / len(outcomes))
        assert core_freq >= joint - 3.0 * core_se, (spread, core_freq, joint)
    _passed(
        "AC05",
        start,
        300.0,
        "the delta-hat event and realized-core frequencies dominate the analytic bound at three spreads",
        extra=build,
    )


def test_ac06_settlement_conserves_cash(settlement_runs):
    start = time.perf_counter()
    table, _, scenario, by_mode = settlement_runs
    grand_cost = cost(scenario.params, table.plans[table.grand_bits].capacity)
    for mode, outcomes in by_mode.items():
        assert len(outcomes) == 1000
        for omega, o in enumerate(outcomes):
            paid = float(o.payments.sum())
            assert abs(paid - grand_cost) <= 1e-9 * max(1.0, grand_cost), (mode, omega)
            gathered = float(o.collected.sum())
            handed_out = float(o.rewards.sum())
            assert abs(handed_out - gathered) <= 1e-9 * max(1.0, abs(gathered)), (
                mode,
                omega,
            )
    _passed(
        "AC06", start, None, "payments fund the cost and rewards redistribute the revenue"
    )


def test_ac07_fbm_load_mean_matches_envelope():
    start = time.perf_counter()
    slots = (1, 10, 100)
    for hurst in (0.3, 0.5, 0.7):
        rng = np.random.default_rng((707, int(hurst * 10)))
        paths = np.stack([generate_fbm(hurst, 101, rng) for _ in range(100_000)])
        loads = 100.0 * np.maximum(paths, 0.0)  # unit slot duration
        for t in slots:
            sample = loads[:, t]
            target = 100.0 * t**hurst / SQRT_2PI
            se = float(sample.std(ddof=1)) / math.sqrt(sample.shape[0])
            assert abs(float(sample.mean()) - target) <= 3.0 * se, (hurst, t)
    # public-API cross-check with a one-hour slot duration
    model = FbmLoadModel(RateProfile(100.0, (), 24), 1.0, 0.5)
    rows = [model.draw_rows(101, 3600.0)]
    draws = np.stack(
        [sample_loads([model], rows, (7073, k)).values[0] for k in range(3000)]
    )
    for t in slots:
        sample = draws[:, t]
        target = 100.0 * t**0.5 / SQRT_2PI * 3600.0
        se = float(sample.std(ddof=1)) / math.sqrt(sample.shape[0])
        assert abs(float(sample.mean()) - target) <= 3.0 * se, t
    _passed("AC07", start, 60.0, "sampled mean load tracks rate*t^H/sqrt(2pi)*duration")


def test_ac08_shares_rise_with_benefit_and_demand(closed_form_instances):
    start = time.perf_counter()
    instances, _ = closed_form_instances
    rng = np.random.default_rng(808)
    for coalition, loads, params, base_plan in instances[:50]:
        sp = int(rng.integers(0, loads.shape[0]))
        row = base_plan.shares[sp]
        benefits = list(params.benefits)
        benefits[sp] *= 1.01
        richer = optimal_plan(coalition, loads, replace(params, benefits=tuple(benefits)))
        assert np.all(richer.shares[sp] > row), sp
        slot = int(rng.integers(0, loads.shape[1]))
        heavier_loads = loads.copy()
        heavier_loads[sp, slot] *= 1.01
        heavier = optimal_plan(coalition, heavier_loads, params)
        assert heavier.shares[sp, slot] > row[slot], (sp, slot)
    _passed(
        "AC08",
        start,
        None,
        "+1% benefit or +1% demand strictly raises the owner's optimal share",
    )


def test_ac09_stable_realizations_are_profitable(band_runs, settlement_runs, fbm_runs):
    start = time.perf_counter()
    batches = []
    table5, delta5, runs5, _ = band_runs
    batches += [(delta5, outcomes, table5.grand_value) for _, _, _, outcomes in runs5]
    table6, delta6, _, by_mode = settlement_runs
    batches += [(delta6, outcomes, table6.grand_value) for outcomes in by_mode.values()]
    table10, delta10, runs10, _ = fbm_runs
    batches += [(delta10, outcomes, table10.grand_value) for _, outcomes in runs10]
    for delta, outcomes, grand in batches:
        tol = 1e-9 * max(1.0, abs(grand))
        for omega, o in enumerate(outcomes):
            if np.all(np.abs(o.deviations) < delta):
                assert np.all(o.payoffs >= -tol), omega
        summary = summarize(outcomes, delta)
        assert summary.joint_profit_prob >= summary.stability_frequency - 1e-12
    _passed(
        "AC09",
        start,
        None,
        f"stable realizations stayed profitable across {len(batches)} runs",
    )


def test_ac10_profitability_decays_with_demand_volatility(fbm_runs):
    start = time.perf_counter()
    _, delta, runs, build = fbm_runs
    alphas = [alpha for alpha, _ in runs]
    assert alphas == [0.001, 0.25, 0.5, 0.75, 1.0]
    per_player = []
    joints = []
    for _, outcomes in runs:
        summary = summarize(outcomes, delta)
        per_player.append(summary.player_profit_prob)
        joints.append(summary.joint_profit_prob)
    matrix = np.stack(per_player)  # (alpha, player)
    assert np.all(matrix[0] >= 1.0 - 1e-12), matrix[0]
    for k in range(1, len(alphas)):
        assert np.all(matrix[k] <= matrix[k - 1] + 0.05), (alphas[k], matrix[k])
        assert joints[k] <= joints[k - 1] + 0.05
    for k in range(len(alphas)):
        assert matrix[k, 0] >= matrix[k, 1:].max() - 1e-12, alphas[k]
    _passed(
        "AC10",
        start,
        300.0,
        "profit probabilities decay with volatility and the investor leads",
        extra=build,
    )


def test_ac11_bound_separates_even_from_lopsided_coalitions():
    start = time.perf_counter()
    bases = (48000.0, 52000.0, 45000.0, 120000.0, 3000.0)
    profiles = tuple(
        RateProfile(b, ((0.2 * b, 3.0 + i),), 24) for i, b in enumerate(bases)
    )
    horizon = 1008

    def joint_bounds(idx):
        params = EconomicParams(80.0, 0.2, float(horizon), 1.0, (6e-6,) * len(idx), 0.03)
        models = tuple(BoundedLoadModel(profiles[i], 0.001) for i in idx)
        table = build_value_table(expected_load_matrix(models, horizon, params.slot_seconds), params)
        payoff = shapley(table)
        delta = deviation_threshold(table, stability_value_hat(table, payoff))
        plan = table.plans[table.grand_bits]
        joints = []
        for spread in (0.001, 0.25, 0.5):
            sized = Scenario(tuple(f"sp{i}" for i in idx), tuple(replace(m, spread=spread) for m in models), params)
            _, joint = stability_lower_bound(delta, utility_ranges(plan, sized))
            joints.append(joint)
        return joints

    even = joint_bounds((0, 1, 2))
    with_heavy = joint_bounds((0, 1, 2, 3))
    full = joint_bounds((0, 1, 2, 3, 4))
    assert all(j >= 1.0 - 1e-12 for j in even), even
    assert full[0] >= 1.0 - 1e-12, full
    assert full[1] == 0.0 and full[2] == 0.0, full
    for b, c in zip(with_heavy, full):
        assert b >= c - 1e-12
    for js in (even, with_heavy, full):
        assert js[0] >= js[1] >= js[2], js
    _passed(
        "AC11",
        start,
        None,
        "similar partners keep a certain bound; a lopsided grand coalition loses it",
    )


def test_ac12_cli_output_identical_across_worker_counts(tmp_path, pool):
    start = time.perf_counter()
    config = {
        "schema_version": 1,
        "economics": {
            "capacity_price": 60.0,
            "maintenance_price": 0.5,
            "investment_years": 24.0 / 8760.0,
            "slot_hours": 1.0,
        },
        "saturation": 0.03,
        "uncertainty": {"kind": "bounded", "spread": 0.3},
        "players": [
            {
                "name": "east",
                "benefit": 6e-6,
                "profile": {
                    "base_rate": 50000.0,
                    "period": 24,
                    "components": [[10000.0, 3.0]],
                },
            },
            {
                "name": "west",
                "benefit": 6e-6,
                "profile": {
                    "base_rate": 35000.0,
                    "period": 24,
                    "components": [[7000.0, 9.0]],
                },
            },
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    outputs = {}
    for workers in (1, 8):
        pool(workers)
        out = tmp_path / f"sim{workers}.csv"
        code = cli_main(
            ["simulate", str(path), "--out", str(out), "--realizations", "1100", "--seed", "77"]
        )
        assert code == 0
        outputs[workers] = (out.read_bytes(), out.with_suffix(".json").read_bytes())
    assert outputs[1] == outputs[8]
    _passed("AC12", start, None, "simulate output is byte-identical at 1 and 8 workers")
