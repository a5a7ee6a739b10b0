"""Cost and utility primitives: frozen-value oracles and shape checks."""

import math

import numpy as np
import pytest

from coinvest import EconomicParams, cost, utility


def make_params(**overrides):
    base = dict(
        capacity_price=10.94,
        maintenance_price=16.25,
        investment_hours=43800.0,
        slot_hours=1.0,
        benefits=(6e-6,),
        saturation=0.03,
    )
    base.update(overrides)
    return EconomicParams(**base)


class TestCost:
    def test_zero_capacity_costs_nothing(self):
        assert cost(make_params(), 0.0) == 0.0

    def test_one_vcore_one_hour(self):
        params = make_params(investment_hours=1.0)
        assert cost(params, 1.0) == pytest.approx(27.19, rel=1e-12)

    def test_ten_vcores_five_years(self):
        # 10.94 * 10 + 16.25 * 43800 * 10, computed by hand
        assert cost(make_params(), 10.0) == pytest.approx(7117609.40, rel=1e-12)

    def test_linear_in_capacity(self):
        params = make_params()
        a, b = 3.7, 9.21
        assert cost(params, a) + cost(params, b) == pytest.approx(cost(params, a + b), rel=1e-12)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            cost(make_params(), -1.0)


class TestUtility:
    def test_zero_share_collects_nothing(self):
        assert utility(6e-6, 0.03, 7.2e6, 0.0) == 0.0

    def test_saturation_limit_is_benefit_times_load(self):
        assert utility(6e-6, 0.03, 7.2e6, 1e9) == pytest.approx(43.2, rel=1e-12)

    def test_frozen_midpoint_value(self):
        # beta*l*(1 - e^{-xi*h}) at beta=6e-6, xi=0.03, l=7.2e6, h=100,
        # checked against an independent math.exp evaluation.
        expect = 43.2 * (1.0 - math.exp(-3.0))
        assert expect == pytest.approx(41.04919864650828, rel=1e-14)
        assert utility(6e-6, 0.03, 7.2e6, 100.0) == pytest.approx(expect, rel=1e-12)

    def test_monotone_and_concave_in_share(self):
        grid = np.linspace(0.0, 400.0, 81)
        values = utility(6e-6, 0.03, 7.2e6, grid)
        diffs = np.diff(values)
        assert (diffs > 0.0).all()
        assert (np.diff(diffs) <= 1e-12).all()

    def test_linear_in_load(self):
        one = utility(6e-6, 0.03, 7.2e6, 55.0)
        two = utility(6e-6, 0.03, 2 * 7.2e6, 55.0)
        assert two == pytest.approx(2 * one, rel=1e-14)

    def test_vectorizes_over_arrays(self):
        loads = np.array([[1e6, 2e6], [3e6, 4e6]])
        shares = np.array([[10.0, 20.0], [30.0, 40.0]])
        out = utility(6e-6, 0.03, loads, shares)
        assert out.shape == (2, 2)
        assert out[1, 1] == pytest.approx(utility(6e-6, 0.03, 4e6, 40.0), rel=1e-14)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            utility(6e-6, 0.03, -1.0, 1.0)
        with pytest.raises(ValueError):
            utility(6e-6, 0.03, 1.0, -1.0)


class TestEconomicParams:
    def test_unit_capacity_cost_combines_prices(self):
        params = make_params()
        assert params.unit_capacity_cost == pytest.approx(10.94 + 16.25 * 43800.0, rel=1e-15)

    def test_horizon_and_slot_seconds(self):
        params = make_params(investment_hours=48.0, slot_hours=2.0)
        assert params.horizon == 24
        assert params.slot_seconds == 7200.0

    def test_n_sp_counts_benefits(self):
        assert make_params(benefits=(1e-6, 2e-6, 3e-6)).n_sp == 3

    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError):
            make_params(capacity_price=-1.0)
        with pytest.raises(ValueError):
            make_params(maintenance_price=-0.01)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            make_params(investment_hours=0.0)
        with pytest.raises(ValueError):
            make_params(slot_hours=-1.0)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field", ["investment_hours", "slot_hours"])
    def test_names_the_one_field_that_is_not_positive(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            make_params(**{field: value})

    def test_rejects_fractional_slot_count(self):
        with pytest.raises(ValueError):
            make_params(investment_hours=10.0, slot_hours=3.0)

    def test_rejects_horizon_below_one_slot(self):
        # 1e-300 slots passes the integer-slot tolerance but rounds to 0
        with pytest.raises(ValueError, match="at least one slot"):
            make_params(investment_hours=1.0, slot_hours=1e300)

    @pytest.mark.parametrize("slot_hours", (1e-300, 5e-324))
    def test_rejects_slot_count_beyond_an_index(self, slot_hours):
        # 43 800 / 5e-324 overflows to infinity; 43 800 / 1e-300 is finite but no array index
        with pytest.raises(ValueError, match="exceeds the largest array index"):
            make_params(slot_hours=slot_hours)

    def test_rejects_a_slot_past_a_float_in_seconds(self):
        # one slot of 1e305 hours is a valid horizon, but 3.6e308 seconds overflows
        with pytest.raises(ValueError, match="^slot_seconds must be finite$"):
            make_params(investment_hours=1e305, slot_hours=1e305)

    def test_rejects_free_capacity(self):
        with pytest.raises(ValueError):
            make_params(capacity_price=0.0, maintenance_price=0.0)

    def test_rejects_bad_benefits(self):
        with pytest.raises(ValueError):
            make_params(benefits=())
        with pytest.raises(ValueError):
            make_params(benefits=(1e-6, 0.0))

    def test_rejects_nonpositive_saturation(self):
        with pytest.raises(ValueError):
            make_params(saturation=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capacity_price", math.nan),
            ("capacity_price", math.inf),
            ("maintenance_price", math.nan),
            ("maintenance_price", math.inf),
            ("investment_hours", math.nan),
            ("investment_hours", math.inf),
            ("slot_hours", math.nan),
            ("slot_hours", math.inf),
            ("saturation", math.nan),
            ("saturation", math.inf),
            ("benefits", (math.nan,)),
            ("benefits", (6e-6, math.inf)),
        ],
    )
    def test_rejects_non_finite_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            make_params(**{field: value})
