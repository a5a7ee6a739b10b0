"""Scenario: the rules that need both the demand models and the horizon."""

import warnings
from dataclasses import replace

import pytest

from coinvest import BoundedLoadModel, EconomicParams, FbmLoadModel, RateProfile, Scenario


def params(slots, n_sp=2):
    return EconomicParams(
        capacity_price=10.94,
        maintenance_price=16.25,
        investment_hours=float(slots),
        slot_hours=1.0,
        benefits=(6e-6,) * n_sp,
        saturation=0.03,
    )


def fbm(base_rate, slot_seconds=3600.0):
    return FbmLoadModel(RateProfile(base_rate), 0.5, 0.7, slot_seconds)


@pytest.fixture(autouse=True)
def warnings_as_errors():
    """An overflow is refused by name, never computed first with a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


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

    def test_bounded_scenarios_have_no_horizon_rule(self):
        # the same rate in a band of spread 0 fits a float, and no horizon changes that
        wide = BoundedLoadModel(RateProfile(4e304), 0.0, 3600.0)
        scenario = Scenario(("a", "b"), (wide, BoundedLoadModel(RateProfile(600.0), 0.3, 3600.0)), params(24))
        assert replace(scenario, params=params(8760)).horizon == 8760


def test_slot_length_mismatch_names_the_sp():
    with pytest.raises(ValueError, match=r"^players\[1\]: slot length disagrees with the economic slot length$"):
        Scenario(("a", "b"), (fbm(600.0), fbm(600.0, slot_seconds=60.0)), params(24))
