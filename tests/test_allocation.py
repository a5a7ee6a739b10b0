"""Capacity/share planning: closed form vs numeric water-filling."""

import math

import numpy as np
import pytest

from coinvest import (
    EconomicParams,
    PlayerSet,
    optimal_plan,
    optimal_plan_closed_form,
    optimal_plan_numeric,
)
from reference import brute_force_plan


def params_for(n_sp, price=1.0, upkeep=0.0, hours=1.0, slot=1.0, beta=1e-3, xi=0.03):
    benefits = (beta,) * n_sp if isinstance(beta, float) else tuple(beta)
    return EconomicParams(price, upkeep, hours, slot, benefits, xi)


def grand(n_sp):
    return PlayerSet.grand(n_sp + 1)


class TestClosedForm:
    def test_single_sp_single_slot_logarithm(self):
        loads = np.array([[1e6]])
        plan = optimal_plan_closed_form(grand(1), loads, params_for(1))
        # xi*beta*load/price = 30; capacity = ln(30)/xi, all of it to the one SP
        expect = math.log(30.0) / 0.03
        assert plan.capacity == pytest.approx(expect, rel=1e-13)
        assert plan.shares[0, 0] == pytest.approx(expect, rel=1e-13)
        assert plan.method == "closed-form"

    def test_without_inp_no_capacity(self):
        loads = np.array([[1e6], [2e6]])
        coalition = PlayerSet(0b110, 3)
        plan = optimal_plan_closed_form(coalition, loads, params_for(2))
        assert plan.capacity == 0.0
        assert not plan.shares.any()
        assert plan.objective == 0.0

    def test_identical_sps_split_evenly(self):
        loads = np.full((2, 6), 5e5)
        plan = optimal_plan_closed_form(grand(2), loads, params_for(2))
        assert plan is not None
        assert np.allclose(plan.shares[0], plan.shares[1], rtol=1e-12)
        assert plan.shares.sum(axis=0) == pytest.approx(plan.capacity, rel=1e-12)

    def test_inapplicable_when_loads_mix_zero_and_positive(self):
        loads = np.array([[1e6, 0.0, 1e6]])
        assert optimal_plan_closed_form(grand(1), loads, params_for(1)) is None

    def test_inapplicable_when_capacity_formula_negative(self):
        loads = np.array([[10.0]])  # xi*beta*load far below the price
        assert optimal_plan_closed_form(grand(1), loads, params_for(1)) is None

    def test_idle_sp_is_dropped_not_fatal(self):
        loads = np.array([[1e6, 1e6], [0.0, 0.0]])
        plan = optimal_plan_closed_form(grand(2), loads, params_for(2))
        assert plan is not None
        assert not plan.shares[1].any()
        solo = optimal_plan_closed_form(grand(1), loads[:1], params_for(1))
        assert plan.capacity == pytest.approx(solo.capacity, rel=1e-13)

    def test_all_zero_loads_idle_plan(self):
        loads = np.zeros((2, 4))
        plan = optimal_plan_closed_form(grand(2), loads, params_for(2))
        assert plan.capacity == 0.0 and plan.objective == 0.0


class TestNumeric:
    def test_matches_closed_form_single_sp(self):
        loads = np.array([[1e6]])
        numeric = optimal_plan_numeric(grand(1), loads, params_for(1))
        assert numeric.capacity == pytest.approx(math.log(30.0) / 0.03, rel=1e-9)
        assert numeric.method == "numeric"

    def test_clamps_to_zero_when_revenue_slope_below_cost(self):
        # constant 7.2e6 requests over a year: marginal revenue at zero
        # capacity is ~11,353 while a vcore costs ~142,361 for the year.
        params = params_for(1, price=10.94, upkeep=16.25, hours=8760.0, beta=6e-6)
        loads = np.full((1, 8760), 7.2e6)
        assert 0.03 * 6e-6 * 7.2e6 * 8760 < params.unit_capacity_cost
        plan = optimal_plan_numeric(grand(1), loads, params)
        assert plan.capacity == 0.0
        assert plan.objective == 0.0

    def test_handles_per_slot_zero_loads(self):
        loads = np.array([[1e6, 0.0, 2e6], [0.0, 3e6, 1e6]])
        params = params_for(2)
        plan = optimal_plan_numeric(grand(2), loads, params)
        assert plan.shares[0, 1] == 0.0
        assert plan.shares[1, 0] == 0.0
        assert plan.capacity > 0.0
        assert np.isfinite(plan.objective)

    def test_all_zero_loads(self):
        plan = optimal_plan_numeric(grand(2), np.zeros((2, 3)), params_for(2))
        assert plan.capacity == 0.0 and plan.objective == 0.0

    def test_stationarity_certificate(self):
        rng = np.random.default_rng(5)
        loads = rng.uniform(2e5, 4e6, (3, 12))
        params = params_for(3, price=2.0, beta=(8e-4, 1.2e-3, 9e-4))
        plan = optimal_plan_numeric(grand(3), loads, params)
        assert plan.capacity > 0.0
        xi = params.saturation
        beta = np.asarray(params.benefits)[:, None]
        marginal = beta * loads * xi * np.exp(-xi * plan.shares)
        active = plan.shares > 1e-9
        lam = np.where(active, marginal, -np.inf).max(axis=0)
        # every SP holding capacity in a slot sees the same multiplier
        for t in range(loads.shape[1]):
            lam_t = marginal[active[:, t], t]
            assert lam_t.max() - lam_t.min() <= 1e-6 * lam_t.max()
        # multipliers integrate to the unit capacity cost
        assert lam.sum() == pytest.approx(params.unit_capacity_cost, rel=1e-6)
        # shares exhaust the capacity in every slot
        assert np.allclose(plan.shares.sum(axis=0), plan.capacity, rtol=1e-9, atol=1e-9)

    def test_feasibility_on_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            n_sp = int(rng.integers(1, 5))
            horizon = int(rng.integers(1, 13))
            loads = rng.uniform(0.0, 3e6, (n_sp, horizon))
            loads[rng.random((n_sp, horizon)) < 0.25] = 0.0
            params = params_for(n_sp, price=float(rng.uniform(0.5, 6.0)),
                                beta=tuple(rng.uniform(5e-4, 2e-3, n_sp)))
            bits = int(rng.integers(0, 1 << (n_sp + 1)))
            coalition = PlayerSet(bits, n_sp + 1)
            plan = optimal_plan_numeric(coalition, loads, params)
            assert (plan.shares >= 0.0).all()
            assert (plan.shares.sum(axis=0) <= plan.capacity + 1e-9).all()
            outside = [i - 1 for i in range(1, n_sp + 1) if not coalition.bits >> i & 1]
            assert not plan.shares[outside].any()
            if not coalition.includes_inp:
                assert plan.capacity == 0.0

    def test_perturbations_never_beat_the_optimum(self):
        rng = np.random.default_rng(12)
        loads = rng.uniform(1e5, 3e6, (2, 8))
        params = params_for(2, price=1.5)
        plan = optimal_plan_numeric(grand(2), loads, params)
        beta = np.asarray(params.benefits)[:, None]

        def objective(shares, capacity):
            revenue = (beta * loads * -np.expm1(-params.saturation * shares)).sum()
            return revenue - params.unit_capacity_cost * capacity

        base = objective(plan.shares, plan.capacity)
        assert base == pytest.approx(plan.objective, rel=1e-12)
        for _ in range(60):
            noise = rng.normal(0.0, 0.05, plan.shares.shape) * max(plan.capacity, 1.0)
            trial = np.clip(plan.shares + noise, 0.0, None)
            over = trial.sum(axis=0)
            cap = max(plan.capacity, float(over.max()))
            assert objective(trial, cap) <= base + 1e-7 * abs(base)


def random_instance(rng):
    n_sp = int(rng.integers(1, 5))
    horizon = int(rng.integers(1, 7))
    loads = rng.uniform(1e4, 3e6, (n_sp, horizon))
    loads[rng.random((n_sp, horizon)) < 0.3] = 0.0
    if n_sp > 1 and rng.random() < 0.5:
        loads[1] = loads[0]  # tied entries in every slot
    beta = rng.uniform(5e-4, 2e-3, n_sp)
    if rng.random() < 0.5:
        beta[:] = beta[0]
    params = params_for(n_sp, price=float(rng.uniform(0.3, 6.0)), beta=tuple(beta),
                        xi=float(rng.uniform(0.01, 0.08)))
    return loads, params


class TestExactWaterFilling:
    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            loads, params = random_instance(rng)
            plan = optimal_plan_numeric(grand(loads.shape[0]), loads, params)
            capacity, shares = brute_force_plan(grand(loads.shape[0]), loads, params)
            scale = max(1.0, capacity)
            assert plan.capacity == pytest.approx(capacity, rel=1e-9, abs=1e-9)
            assert np.allclose(plan.shares, shares, rtol=0.0, atol=1e-8 * scale)

    def test_idle_threshold(self):
        loads = np.array([[1e6, 0.0, 2e6], [5e5, 3e6, 0.0]])
        base = params_for(2)
        xi = base.saturation
        first_core = (xi * np.asarray(base.benefits)[:, None] * loads).max(axis=0).sum()
        at = params_for(2, price=first_core)
        plan = optimal_plan_numeric(grand(2), loads, at)
        assert plan.capacity == 0.0 and plan.objective == 0.0
        below = params_for(2, price=first_core * (1.0 - 1e-6))
        plan = optimal_plan_numeric(grand(2), loads, below)
        capacity, shares = brute_force_plan(grand(2), loads, below)
        assert 0.0 < plan.capacity < 1e-3
        assert plan.capacity == pytest.approx(capacity, rel=1e-6)
        assert np.allclose(plan.shares, shares, rtol=0.0, atol=1e-9)

    def test_priced_out_identical_sps_buy_nothing(self):
        # With three or more tied entries the water level at C = 0 averages equal logs, and
        # the average can round above them; only the first-core check keeps such a
        # coalition from buying dust.
        rng = np.random.default_rng(16)
        for _ in range(2000):
            n_sp = int(rng.integers(3, 6))
            loads = np.tile(rng.uniform(1e4, 3e6, int(rng.integers(1, 8))), (n_sp, 1))
            beta, xi = float(rng.uniform(5e-4, 2e-3)), float(rng.uniform(0.01, 0.08))
            first_core = xi * beta * loads[0].sum()
            params = params_for(n_sp, price=first_core * float(rng.uniform(1.0, 3.0)), beta=beta, xi=xi)
            for solver in (optimal_plan_numeric, optimal_plan):
                plan = solver(grand(n_sp), loads, params)
                assert plan.capacity == 0.0 and plan.objective == 0.0
                assert not plan.shares.any() and not np.signbit(plan.shares).any()

    def test_single_sp_takes_the_whole_capacity(self):
        loads = np.array([[2e6, 0.0, 5e5, 1e6]])
        plan = optimal_plan_numeric(grand(1), loads, params_for(1, price=2.0))
        capacity, _ = brute_force_plan(grand(1), loads, params_for(1, price=2.0))
        assert plan.capacity == pytest.approx(capacity, rel=1e-12)
        assert np.array_equal(plan.shares[0], np.where(loads[0] > 0.0, plan.capacity, 0.0))

    def test_shares_exhaust_capacity_in_every_live_slot(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            loads, params = random_instance(rng)
            plan = optimal_plan_numeric(grand(loads.shape[0]), loads, params)
            live = loads.max(axis=0) > 0.0
            filled = plan.shares.sum(axis=0)
            tol = 1e-12 * max(1.0, plan.capacity)
            if plan.capacity > 0.0:
                assert np.all(np.abs(filled[live] - plan.capacity) <= tol)
            assert not filled[~live].any()

    def test_six_sps_over_five_years(self):
        # 6 SPs x 43,800 hourly slots: the size of a five-year value table.
        rng = np.random.default_rng(6)
        loads = rng.uniform(1.8e8, 2.2e8, (6, 43_800))
        params = params_for(6, price=10.94, upkeep=16.25, hours=43_800.0, beta=6e-6)
        numeric = optimal_plan_numeric(grand(6), loads, params)
        closed = optimal_plan_closed_form(grand(6), loads, params)
        assert numeric.method == "numeric" and closed is not None
        assert numeric.capacity == pytest.approx(closed.capacity, rel=1e-9)
        assert np.allclose(numeric.shares, closed.shares, rtol=0.0, atol=1e-9 * closed.capacity)
        assert numeric.objective == pytest.approx(closed.objective, rel=1e-9)

        loads[1:, 0] = 0.0  # slot 0 served by one SP only: no closed form
        assert optimal_plan_closed_form(grand(6), loads, params) is None
        plan = optimal_plan(grand(6), loads, params)
        assert plan.method == "numeric"
        assert np.all(np.abs(plan.shares.sum(axis=0) - plan.capacity) <= 1e-12 * plan.capacity)
        xi = params.saturation
        beta = np.asarray(params.benefits)[:, None]
        lam = np.where(plan.shares > 0.0, beta * loads * xi * np.exp(-xi * plan.shares), 0.0).max(axis=0)
        assert lam.sum() == pytest.approx(params.unit_capacity_cost, rel=1e-12)


class TestDispatch:
    @pytest.mark.parametrize(
        "bits, idle_load",
        [(0b000, 0.0), (0b001, 0.0), (0b110, 0.0), (0b101, 0.0), (0b101, 1e-322)],
        ids=("empty", "inp", "sps", "idle-sp", "underflow"),
    )
    def test_both_solvers_plan_nothing_for_an_idle_coalition(self, bits, idle_load):
        # no InP, no SP, or members with no expected revenue: SP 2 (bit 0b100) has none, its
        # load 0 or so small that benefit 1e-3 times it underflows to 0
        loads = np.array([[1e6, 2e6], [idle_load, idle_load]])
        for solve, method in ((optimal_plan_closed_form, "closed-form"), (optimal_plan_numeric, "numeric")):
            plan = solve(PlayerSet(bits, 3), loads, params_for(2))
            assert (plan.capacity, plan.objective, plan.method) == (0.0, 0.0, method)
            assert plan.shares.shape == loads.shape and not plan.shares.any()

    def test_prefers_closed_form_when_applicable(self):
        loads = np.full((2, 4), 1e6)
        plan = optimal_plan(grand(2), loads, params_for(2))
        assert plan.method == "closed-form"

    def test_falls_back_on_mixed_zeros(self):
        loads = np.array([[1e6, 0.0], [1e6, 1e6]])
        plan = optimal_plan(grand(2), loads, params_for(2))
        assert plan.method == "numeric"

    def test_falls_back_where_benefit_times_load_underflows(self):
        # 1e-3 * 1e-322 is 0: that slot earns nothing, as a zero load would
        loads = np.array([[1e6, 1e-322], [1e6, 1e6]])
        plan = optimal_plan(grand(2), loads, params_for(2))
        assert plan.method == "numeric" and plan.shares[0, 1] == 0.0
        assert np.isfinite(plan.shares).all() and np.isfinite(plan.objective)

    def test_equivalent_to_always_numeric(self):
        rng = np.random.default_rng(200)
        for _ in range(40):
            n_sp = int(rng.integers(1, 5))
            horizon = int(rng.integers(1, 25))
            loads = rng.uniform(1e4, 5e6, (n_sp, horizon))
            if rng.random() < 0.5:
                loads[rng.random((n_sp, horizon)) < 0.2] = 0.0
            params = params_for(
                n_sp,
                price=float(rng.uniform(0.2, 4.0)),
                beta=tuple(rng.uniform(4e-4, 2e-3, n_sp)),
                xi=float(rng.uniform(0.01, 0.08)),
            )
            dispatched = optimal_plan(grand(n_sp), loads, params)
            numeric = optimal_plan_numeric(grand(n_sp), loads, params)
            scale = max(1.0, numeric.capacity)
            assert dispatched.capacity == pytest.approx(numeric.capacity, abs=1e-6 * scale)
            assert np.allclose(dispatched.shares, numeric.shares, rtol=1e-6, atol=1e-6 * scale)
            assert dispatched.objective == pytest.approx(
                numeric.objective, rel=1e-6, abs=1e-6 * max(1.0, abs(numeric.objective))
            )

    def test_input_validation(self):
        params = params_for(2)
        with pytest.raises(ValueError):
            optimal_plan(grand(2), np.ones(4), params)
        with pytest.raises(ValueError):
            optimal_plan(grand(2), np.ones((3, 4)), params)
        with pytest.raises(ValueError):
            optimal_plan(grand(1), -np.ones((1, 4)), params_for(1))
        with pytest.raises(ValueError):
            optimal_plan(PlayerSet.grand(4), np.ones((2, 4)), params)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_loads(self, bad):
        loads = np.ones((2, 4))
        loads[1, 2] = bad
        for solver in (optimal_plan, optimal_plan_closed_form, optimal_plan_numeric):
            with pytest.raises(ValueError, match="finite"):
                solver(grand(2), loads, params_for(2))
