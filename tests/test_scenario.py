"""Scenario: the rules that need the demand models, the horizon and the slot length."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from coinvest import BoundedLoadModel, EconomicParams, FbmLoadModel, RateProfile, Scenario


def params(slots, n_sp=2, benefit=6e-6, saturation=0.03, slot_hours=1.0):
    return EconomicParams(
        capacity_price=10.94,
        maintenance_price=16.25,
        investment_hours=slots * slot_hours,
        slot_hours=slot_hours,
        benefits=(benefit,) * n_sp,
        saturation=saturation,
    )


def fbm(base_rate):
    return FbmLoadModel(RateProfile(base_rate), 0.5, 0.7)


def flat(base_rate, spread=0.0):
    return BoundedLoadModel(RateProfile(base_rate), spread)


@pytest.fixture(autouse=True)
def warnings_as_errors():
    """An overflow is refused by name, never computed first with a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


class TestNames:
    def test_a_repeated_name_is_refused_at_its_second_occurrence(self):
        with pytest.raises(ValueError, match=r"^players\[2\]\.name: duplicate SP name 'a'$"):
            Scenario(("a", "b", "a"), (flat(100.0),) * 3, params(24, n_sp=3))

    @pytest.mark.parametrize(
        "names, models, n_sp, refused",
        [
            (("a", "b"), (flat(100.0),), 1, "one model per SP name required"),
            (("a", "b"), (flat(100.0),) * 2, 3, "one benefit per SP required"),
            (("a", "b"), (flat(100.0), fbm(100.0)), 2, "all SPs must share one demand model kind"),
            (("a",), (RateProfile(100.0),), 1, "unsupported demand model RateProfile"),
        ],
        ids=("names", "benefits", "kinds", "kind"),
    )
    def test_refuses_sps_that_do_not_line_up(self, names, models, n_sp, refused):
        with pytest.raises(ValueError) as caught:
            Scenario(names, models, params(24, n_sp=n_sp))
        assert str(caught.value) == refused


class TestFbmLoadRefusal:
    @pytest.mark.parametrize("i", [0, 1])
    def test_overflowing_expected_load_names_the_sp(self, i):
        # 4e304 requests/s x 23**0.7 / sqrt(2*pi) x 3600 s overflows at 24 slots
        models = [fbm(600.0), fbm(600.0)]
        models[i] = fbm(4e304)
        with pytest.raises(ValueError) as caught:
            Scenario(("a", "b"), models, params(24))
        assert str(caught.value) == (
            f"players[{i}]: expected load overflows at 24 slots: "
            "peak rate * (horizon - 1)**hurst / sqrt(2*pi) * slot_seconds is not finite"
        )

    def test_a_copy_at_a_longer_horizon_is_checked_again(self):
        # 4e303 requests/s fits 24 slots, but not the 8 760 of one year
        scenario = Scenario(("a", "b"), (fbm(600.0), fbm(4e303)), params(24))
        with pytest.raises(ValueError, match=r"^players\[1\]: expected load overflows at 8760 slots: "):
            replace(scenario, params=params(8760))
        assert replace(scenario, params=params(48)).horizon == 48

    def test_a_bounded_band_does_not_grow_with_the_horizon(self):
        # the same rate in a band of spread 0 fits a float, and no horizon changes that
        wide = BoundedLoadModel(RateProfile(4e304), 0.0)
        scenario = Scenario(("a", "b"), (wide, BoundedLoadModel(RateProfile(600.0), 0.3)), params(24))
        assert replace(scenario, params=params(8760)).horizon == 8760


class TestBandRefusal:
    def test_rejects_a_band_whose_top_overflows(self):
        # (1 + 0.3) * 4e304 * 3600 overflows; (1 + 0) * 4e304 * 3600 does not
        with pytest.raises(ValueError, match="load band overflows"):
            Scenario(("a",), (flat(4e304, 0.3),), params(24, n_sp=1))
        Scenario(("a",), (flat(4e304, 0.0),), params(24, n_sp=1))

    @pytest.mark.parametrize("i", [0, 1])
    def test_overflowing_band_names_the_sp(self, i):
        models = [flat(600.0, 0.3), flat(600.0, 0.3)]
        models[i] = flat(4e304, 0.3)
        with pytest.raises(ValueError) as caught:
            Scenario(("a", "b"), models, params(24))
        assert str(caught.value) == (
            f"players[{i}]: load band overflows: (1 + spread) * peak rate * slot_seconds is not finite"
        )

    def test_the_band_is_priced_at_the_economic_slot_length(self):
        # 4e304 requests/s in a band of spread 0 fits a float over slots of one hour, not of two
        Scenario(("a",), (flat(4e304),), params(24, n_sp=1))
        with pytest.raises(ValueError, match=r"^players\[0\]: load band overflows"):
            Scenario(("a",), (flat(4e304),), params(24, n_sp=1, slot_hours=2.0))


class TestRevenueRefusal:
    """``max(1, saturation) * sum_i benefit_i * horizon * load_bound_i`` must stay a finite float."""

    MESSAGE = (
        "revenue overflows at {} slots: max(1, saturation) * "
        "sum of benefit * horizon * load bound over players[0..i] is not finite"
    )

    def test_names_the_sp_at_which_the_running_sum_overflows(self):
        # each SP's 1.2e303 * 3600 * 24 is 1.04e308; the two together pass the largest float
        Scenario(("a",), (flat(1.2e303),), params(24, n_sp=1, benefit=1.0))
        with pytest.raises(ValueError) as caught:
            Scenario(("a", "b"), (flat(1.2e303), flat(1.2e303)), params(24, benefit=1.0))
        assert str(caught.value) == "players[1]: " + self.MESSAGE.format(24)

    def test_saturation_scales_the_sum_but_never_shrinks_it(self):
        # the two SPs' 1.73e307 times 5 fits, times 15 does not; a saturation below 1 counts as 1
        models = (flat(1e302), flat(1e302))
        Scenario(("a", "b"), models, params(24, benefit=1.0, saturation=5.0))
        with pytest.raises(ValueError, match=r"^players\[1\]: revenue overflows at 24 slots"):
            Scenario(("a", "b"), models, params(24, benefit=1.0, saturation=15.0))
        with pytest.raises(ValueError, match=r"^players\[1\]: revenue overflows at 24 slots"):
            Scenario(("a", "b"), (flat(1.2e303), flat(1.2e303)), params(24, benefit=1.0, saturation=1e-300))

    def test_a_copy_at_a_longer_horizon_is_checked_again(self):
        scenario = Scenario(("a", "b"), (flat(1e302), flat(1e302)), params(24, benefit=1.0))
        with pytest.raises(ValueError) as caught:
            replace(scenario, params=params(8760, benefit=1.0))
        assert str(caught.value) == "players[0]: " + self.MESSAGE.format(8760)

    def test_fbm_loads_are_bounded_at_the_horizon(self):
        # 1e300 requests/s x 23**0.7 / sqrt(2*pi) x 3600 s is 1.3e304 per slot; x 24 slots x 1e4 overflows
        Scenario(("a",), (fbm(1e300),), params(24, n_sp=1, benefit=1.0))
        with pytest.raises(ValueError, match=r"^players\[0\]: revenue overflows at 24 slots"):
            Scenario(("a",), (fbm(1e300),), params(24, n_sp=1, benefit=1e4))

    def test_runs_after_every_load_bound(self):
        # players[0]'s revenue overflows, but players[1]'s band is refused first
        with pytest.raises(ValueError, match=r"^players\[1\]: load band overflows"):
            Scenario(("a", "b"), (flat(1e304), flat(4e304, 0.3)), params(24, benefit=1.0))

    def test_an_idle_sp_adds_nothing_whatever_its_benefit(self):
        Scenario(("a",), (flat(0.0),), params(24, n_sp=1, benefit=1e300, saturation=1e300))


@pytest.mark.parametrize("kind", ["bounded", "fbm"])
def test_expected_loads_are_rates_times_the_economic_slot(kind):
    profiles = (RateProfile(100.0, ((20.0, 2.0),), 24), RateProfile(55.0, ((5.0, 7.5),), 12))
    models = [BoundedLoadModel(p, 0.3) if kind == "bounded" else FbmLoadModel(p, 0.5, 0.7) for p in profiles]
    scenario = Scenario(("a", "b"), models, params(48, slot_hours=0.25))
    slots = np.arange(48)
    want = np.vstack([m.expected_rate(slots) * scenario.params.slot_seconds for m in models])
    assert np.array_equal(scenario.expected_loads().view(np.int64), want.view(np.int64))
