"""Coalition values, Shapley payoffs, and the stability chain."""

import itertools
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import reference
from coinvest import (
    EconomicParams,
    PlayerSet,
    ValueTable,
    build_value_table,
    check_core,
    check_supermodularity,
    cost,
    deviation_threshold,
    expected_load_matrix,
    marginal_contribution,
    realized_value,
    shapley,
    stability_lower_bound,
    stability_value_hat,
    stability_value_lp,
    utility_ranges,
)
from coinvest.cli import load_config
from coinvest.economics import HOURS_PER_YEAR
from coinvest.game import core_violations, coalition_payoff_sums, shapley_matrix
from coinvest.players import membership
from coinvest.traffic import BoundedLoadModel, FbmLoadModel, RateProfile


def table_from(values):
    values = np.asarray(values, dtype=float)
    n = values.size.bit_length() - 1
    return ValueTable(n, values, (None,) * values.size)


def veto_game(n_players, grand_value):
    """Worth only materializes when everyone is present."""
    values = np.zeros(1 << n_players)
    values[-1] = grand_value
    return table_from(values)


def random_monotone_game(rng, n):
    """Random monotone game with player 0 as a veto player."""
    values = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        if mask & 1 and mask > 1:
            values[mask] = values[mask & (mask - 1)] + rng.uniform(0.0, 100.0)
    return table_from(values)


def small_scenario():
    params = EconomicParams(1.0, 0.0, 6.0, 1.0, (1e-3, 8e-4), 0.03)
    rng = np.random.default_rng(42)
    loads = rng.uniform(5e5, 3e6, (2, 6))
    return loads, params


class TestValueTable:
    def test_veto_structure_two_players(self):
        loads = np.full((1, 4), 1e6)
        params = EconomicParams(1.0, 0.0, 4.0, 1.0, (1e-3,), 0.03)
        table = build_value_table(loads, params)
        assert table.value(0b00) == 0.0
        assert table.value(0b01) == 0.0  # provider alone serves nobody
        assert table.value(0b10) == 0.0  # SP alone has no infrastructure
        assert table.grand_value == pytest.approx(table.plan(0b11).objective, rel=1e-15)
        assert table.grand_value > 0.0

    def test_grand_coalition_dominates(self):
        loads, params = small_scenario()
        table = build_value_table(loads, params)
        assert (table.grand_value >= table.values - 1e-12).all()

    def test_all_zero_loads_zero_table(self):
        params = EconomicParams(1.0, 0.0, 3.0, 1.0, (1e-3, 1e-3), 0.03)
        table = build_value_table(np.zeros((2, 3)), params)
        assert not table.values.any()

    def test_player_set_refuses_more_sps_than_it_holds(self):
        params = EconomicParams(1.0, 0.0, 2.0, 1.0, (1e-3,) * 16, 0.03)
        with pytest.raises(ValueError, match=r"^n_players must lie in \[2, 16\]$"):
            build_value_table(np.ones((16, 2)), params)

    def test_rejects_wrong_value_length(self):
        with pytest.raises(ValueError):
            ValueTable(2, np.zeros(3), (None,) * 3)


class TestRealizedValue:
    @pytest.mark.parametrize("method", ("closed-form", "numeric"))
    def test_at_expected_loads_equals_nominal(self, method):
        loads, params = small_scenario()
        if method == "numeric":
            loads[0, 0] = 0.0  # an fBm-style row: no demand at slot 0
        table = build_value_table(loads, params)
        plan = table.plan(table.grand_bits)
        assert plan.method == method
        assert realized_value(plan, loads, params) == table.grand_value

    def test_zero_demand_burns_the_cost(self):
        loads, params = small_scenario()
        table = build_value_table(loads, params)
        plan = table.plan(table.grand_bits)
        assert plan.capacity > 0.0
        assert realized_value(plan, np.zeros_like(loads), params) == pytest.approx(
            -cost(params, plan.capacity), rel=1e-12
        )

    def test_matches_slot_by_slot_resummation(self):
        loads, params = small_scenario()
        table = build_value_table(loads, params)
        plan = table.plan(table.grand_bits)
        rng = np.random.default_rng(7)
        realized = rng.uniform(0.0, 2.0, loads.shape) * loads
        total = reference.value(plan, realized, params)
        assert realized_value(plan, realized, params) == pytest.approx(total, rel=1e-12)

    def test_negative_loads_rejected(self):
        loads, params = small_scenario()
        table = build_value_table(loads, params)
        with pytest.raises(ValueError, match="nonnegative"):
            realized_value(table.plan(table.grand_bits), -loads, params)

    def test_shape_mismatch_rejected(self):
        loads, params = small_scenario()
        table = build_value_table(loads, params)
        with pytest.raises(ValueError):
            realized_value(table.plan(table.grand_bits), np.zeros((2, 5)), params)


class TestShapley:
    def test_two_player_veto_split(self):
        payoff = shapley(veto_game(2, 100.0))
        assert payoff == pytest.approx([50.0, 50.0], rel=1e-12)

    def test_matches_permutation_average(self):
        rng = np.random.default_rng(3)
        table = random_monotone_game(rng, 4)
        expect = reference.shapley(table.values, 4)
        assert shapley(table) == pytest.approx(expect, rel=1e-10)

    def test_efficiency(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            table = random_monotone_game(rng, int(rng.integers(2, 6)))
            payoff = shapley(table)
            assert payoff.sum() == pytest.approx(table.grand_value, rel=1e-9)

    def test_null_player_gets_nothing(self):
        params = EconomicParams(1.0, 0.0, 4.0, 1.0, (1e-3, 1e-3), 0.03)
        loads = np.vstack([np.full(4, 1e6), np.zeros(4)])
        table = build_value_table(loads, params)
        payoff = shapley(table)
        assert abs(payoff[2]) <= 1e-9 * max(1.0, table.grand_value)

    def test_symmetric_sps_paid_equally(self):
        params = EconomicParams(1.0, 0.0, 4.0, 1.0, (1e-3, 1e-3), 0.03)
        loads = np.full((2, 4), 1e6)
        payoff = shapley(build_value_table(loads, params))
        assert payoff[1] == pytest.approx(payoff[2], rel=1e-12)

    def test_batched_matches_rowwise(self):
        rng = np.random.default_rng(6)
        batch = rng.normal(0.0, 50.0, (7, 16))
        batch[:, 0] = 0.0
        stacked = shapley(batch, 4)
        rows = np.vstack([shapley(batch[k], 4) for k in range(7)])
        assert np.allclose(stacked, rows, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            shapley(np.zeros(6), 3)

    def test_matrix_rows_encode_efficiency(self):
        # summing payoffs reproduces v(N): the grand row contributes its
        # value once, every proper nonempty row cancels (v(empty) is
        # always 0, so its row weight never matters)
        m = shapley_matrix(4)
        sums = m.sum(axis=1)
        assert sums[-1] == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(sums[1:-1], 0.0, atol=1e-12)


class TestMembership:
    def test_rows_spell_out_the_bits(self):
        for n in range(2, 7):
            member = membership(n)
            assert member.shape == (1 << n, n) and not member.flags.writeable
            for bits in range(1 << n):
                assert tuple(np.flatnonzero(member[bits])) == PlayerSet(bits, n).members
        assert membership(4) is membership(4)


class TestMarginalContribution:
    def test_veto_player_alone_adds_nothing(self):
        table = veto_game(3, 60.0)
        assert marginal_contribution(table, 0, PlayerSet(0, 3)) == 0.0

    def test_last_member_brings_everything(self):
        table = veto_game(2, 80.0)
        assert marginal_contribution(table, 1, PlayerSet(0b01, 2)) == 80.0

    def test_rejects_member(self):
        table = veto_game(2, 1.0)
        with pytest.raises(ValueError):
            marginal_contribution(table, 0, PlayerSet(0b01, 2))


class TestSupermodularity:
    def test_scenario_games_are_convex(self):
        loads, params = small_scenario()
        table = build_value_table(loads, params)
        assert check_supermodularity(table, 1e-7 * abs(table.grand_value)) == []

    def test_detects_handmade_violation(self):
        # v(12)=v(13)=v(123)=1: adding player 3 to {1} gains 1 but to
        # {1,2} gains 0 - marginal contributions shrink.
        values = np.zeros(8)
        values[0b011] = values[0b101] = values[0b111] = 1.0
        violations = check_supermodularity(table_from(values))
        assert violations
        players = {v[0] for v in violations}
        assert 2 in players

    def test_additive_games_pass(self):
        c = np.array([3.0, 5.0, 7.0])
        values = np.array([c[[i for i in range(3) if m >> i & 1]].sum() for m in range(8)])
        assert check_supermodularity(table_from(values)) == []


class TestCore:
    def test_shapley_in_core_for_scenario(self):
        loads, params = small_scenario()
        table = build_value_table(loads, params)
        assert check_core(table, shapley(table), 1e-9 * max(1.0, table.grand_value))

    def test_lopsided_allocation_blocked(self):
        loads, params = small_scenario()
        table = build_value_table(loads, params)
        assert table.value(0b101) > 0.0
        lopsided = np.array([0.0, table.grand_value, 0.0])
        violations = core_violations(table, lopsided)
        assert any(bits == 0b101 for bits, _ in violations)
        assert not check_core(table, lopsided)

    def test_zero_game_zero_allocation(self):
        assert check_core(table_from(np.zeros(8)), np.zeros(3))

    def test_inefficient_allocation_rejected(self):
        table = veto_game(2, 10.0)
        assert not check_core(table, np.array([1.0, 1.0]))

    def test_violations_match_a_loop_over_masks(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            table = random_monotone_game(rng, n)
            allocation = shapley(table) + rng.normal(0.0, 10.0, n)
            sums = coalition_payoff_sums(allocation)
            by_loop = []
            for bits in range(1, table.grand_bits):
                gap = sums[bits] - table.values[bits]
                if gap < -0.5:
                    by_loop.append((bits, float(gap)))
            found = core_violations(table, allocation, 0.5)
            assert [v for v in found if v[0] != table.grand_bits] == by_loop

    def test_payoff_sums_enumerate_masks(self):
        payoff = np.array([1.0, 2.0, 4.0])
        sums = coalition_payoff_sums(payoff)
        assert sums[0b000] == 0.0
        assert sums[0b101] == 5.0
        assert sums[0b111] == 7.0


class TestStabilityValues:
    def test_two_player_veto_worst_surplus(self):
        table = veto_game(2, 100.0)
        assert stability_value_hat(table, shapley(table)) == pytest.approx(50.0)
        assert stability_value_lp(table) == pytest.approx(50.0)

    def test_zero_game(self):
        table = table_from(np.zeros(8))
        assert stability_value_hat(table, np.zeros(3)) == 0.0
        assert stability_value_lp(table) == 0.0

    def test_hat_matches_exhaustive_minimum(self):
        rng = np.random.default_rng(19)
        table = random_monotone_game(rng, 4)
        payoff = shapley(table)
        best = math.inf
        for mask in range(1, 15):
            total = sum(payoff[i] for i in range(4) if mask >> i & 1)
            best = min(best, total - table.values[mask])
        assert stability_value_hat(table, payoff) == pytest.approx(best, rel=1e-12)

    def test_lp_matches_vertex_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            table = random_monotone_game(rng, n)
            mine = stability_value_lp(table)
            oracle = least_core_by_vertex_enumeration(table.values, n)
            assert mine == pytest.approx(oracle, rel=1e-8, abs=1e-8)

    def test_lp_dominates_hat(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            table = random_monotone_game(rng, int(rng.integers(2, 6)))
            hat = stability_value_hat(table, shapley(table))
            assert stability_value_lp(table) >= hat - 1e-9

    def test_lp_player_cap(self):
        with pytest.raises(ValueError):
            stability_value_lp(table_from(np.zeros(1 << 9)))


def least_core_by_vertex_enumeration(values, n):
    """Independent reference optimum: check every basic feasible point."""
    full = (1 << n) - 1
    masks = list(range(1, full))
    best = -math.inf
    scale = max(1.0, abs(values[full]))
    for combo in itertools.combinations(masks, n):
        a = np.zeros((n + 1, n + 1))
        b = np.zeros(n + 1)
        for r, mask in enumerate(combo):
            for i in range(n):
                a[r, i] = 1.0 if mask >> i & 1 else 0.0
            a[r, n] = -1.0
            b[r] = values[mask]
        a[n, :n] = 1.0
        b[n] = values[full]
        try:
            sol = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        x, sigma = sol[:n], sol[n]
        feasible = all(
            sum(x[i] for i in range(n) if mask >> i & 1) - values[mask] >= sigma - 1e-9 * scale
            for mask in masks
        )
        if feasible and sigma > best:
            best = sigma
    return best


class TestDeviationThreshold:
    def test_two_player_veto(self):
        table = veto_game(2, 100.0)
        sigma = stability_value_hat(table, shapley(table))
        assert deviation_threshold(table, sigma) == pytest.approx(50.0, rel=1e-12)

    def test_degenerate_game_gives_zero(self):
        assert deviation_threshold(table_from(np.zeros(8)), 0.0) == 0.0

    def test_negative_surplus_clamps_to_zero(self):
        values = np.zeros(8)
        values[0b111] = 10.0
        values[0b011] = values[0b101] = values[0b110] = 50.0
        table = table_from(values)
        sigma = stability_value_hat(table, shapley(table))
        assert sigma < 0.0
        assert deviation_threshold(table, sigma) == 0.0

    def test_nonpositive_denominators_fall_back_to_equal_split(self):
        # pairs worth 30 and singletons worth -20 push every denominator
        # below zero at sigma = 0, so only the v(N)/n guard binds.
        values = np.full(8, -20.0)
        values[0] = 0.0
        values[0b011] = values[0b101] = values[0b110] = 30.0
        values[0b111] = 10.0
        assert deviation_threshold(table_from(values), 0.0) == pytest.approx(10.0 / 3.0)

    def test_never_exceeds_equal_split(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            table = random_monotone_game(rng, 4)
            delta = deviation_threshold(table, stability_value_hat(table, shapley(table)))
            assert 0.0 <= delta <= table.grand_value / 4 + 1e-12


class TestUtilityRanges:
    SECOND = 1.0 / 3600.0  # slot_hours of a one-second slot

    def make_plan(self, shares):
        shares = np.asarray(shares, dtype=float)
        return type(
            "P", (), {"shares": shares, "capacity": float(shares.sum(axis=0).max())}
        )()

    def test_zero_spread_zero_range(self):
        params = EconomicParams(1.0, 0.0, self.SECOND, self.SECOND, (1.0,), 0.03)
        model = BoundedLoadModel(RateProfile(100.0), 0.0)
        plan = self.make_plan([[10.0]])
        assert np.array_equal(utility_ranges(plan, [model], params), np.zeros((2, 1)))

    def test_provider_has_no_range(self):
        # SP width = beta * (1 - e^{-xi h}) * 2 * spread * mean
        params = EconomicParams(1.0, 0.0, self.SECOND, self.SECOND, (1.0,), 0.03)
        model = BoundedLoadModel(RateProfile(100.0), 0.9)
        plan = self.make_plan([[10.0]])
        spans = utility_ranges(plan, [model], params)
        assert spans[0, 0] == 0.0
        assert spans[1, 0] == pytest.approx(-math.expm1(-0.3) * 2.0 * 0.9 * 100.0, rel=1e-12)

    def test_saturated_share_spans_band_width(self):
        # swing factor 1 - e^{-xi h} saturates to 1; width = 2*0.5*100
        params = EconomicParams(1.0, 0.0, self.SECOND, self.SECOND, (1.0,), 1000.0)
        model = BoundedLoadModel(RateProfile(100.0), 0.5)
        plan = self.make_plan([[10.0]])
        assert utility_ranges(plan, [model], params)[1, 0] == pytest.approx(100.0, rel=1e-12)

    def test_matrix_variant_stacks_players(self):
        params = EconomicParams(1.0, 0.0, 2.0 * self.SECOND, self.SECOND, (1.0, 2.0), 0.5)
        models = [
            BoundedLoadModel(RateProfile(100.0), 0.5),
            BoundedLoadModel(RateProfile(50.0), 0.2),
        ]
        plan = self.make_plan([[10.0, 5.0], [1.0, 2.0]])
        spans = utility_ranges(plan, models, params)
        # row i: beta_i * (1 - e^{-0.5 h}) * 2 * spread_i * mean_i
        expect = np.array(
            [
                [0.0, 0.0],
                [100.0 * -math.expm1(-5.0), 100.0 * -math.expm1(-2.5)],
                [40.0 * -math.expm1(-0.5), 40.0 * -math.expm1(-1.0)],
            ]
        )
        assert spans.shape == (3, 2)
        assert not spans[0].any()
        assert np.allclose(spans, expect, rtol=1e-12, atol=0.0)

    def test_unbounded_model_rejected(self):
        params = EconomicParams(1.0, 0.0, self.SECOND, self.SECOND, (1.0,), 0.03)
        fbm = FbmLoadModel(RateProfile(100.0), 0.5, 0.7)
        plan = self.make_plan([[10.0]])
        with pytest.raises(TypeError):
            utility_ranges(plan, [fbm], params)


class TestStabilityLowerBound:
    def test_no_uncertainty_certainty(self):
        probs, joint = stability_lower_bound(5.0, np.zeros((3, 4)))
        assert np.array_equal(probs, np.ones(3))
        assert joint == 1.0

    def test_zero_threshold_zero_bound(self):
        probs, joint = stability_lower_bound(0.0, np.array([[1.0, 1.0]]))
        assert probs[0] == 0.0 and joint == 0.0

    def test_frozen_hoeffding_point(self):
        # delta=1 and squared range sum 2: 1 - 2 e^{-1}
        probs, joint = stability_lower_bound(1.0, np.array([[1.0, 1.0]]))
        assert probs[0] == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-14)
        assert joint == pytest.approx(probs[0], rel=1e-14)

    def test_joint_is_product(self):
        ranges = np.array([[0.0, 0.0], [3.0, 1.0], [2.0, 2.0]])
        probs, joint = stability_lower_bound(4.0, ranges)
        assert probs[0] == 1.0
        assert joint == pytest.approx(probs.prod(), rel=1e-14)
        assert 0.0 <= joint <= probs.min() <= 1.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            stability_lower_bound(-0.1, np.zeros((2, 2)))

    def test_never_falls_as_the_investment_period_grows(self):
        # The paper's abstract: nu^LB is high "when the investment period is sufficiently long".
        config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "edge-bounded.json"
        scenario, _ = load_config(str(config))
        series = {0.3: [], 0.5: []}
        for years in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            params = replace(scenario.params, investment_hours=years * HOURS_PER_YEAR)
            means = expected_load_matrix(scenario.models, params.horizon, params.slot_seconds)
            table = build_value_table(means, params)
            delta = deviation_threshold(table, stability_value_hat(table, shapley(table)))
            for spread, bounds in series.items():
                models = tuple(replace(m, spread=spread) for m in scenario.models)
                spans = utility_ranges(table.plan(table.grand_bits), models, params)
                bounds.append(stability_lower_bound(delta, spans)[1])
        for bounds in series.values():
            assert all(a <= b for a, b in zip(bounds, bounds[1:])), bounds
        assert series[0.5][0] < series[0.5][-1]

