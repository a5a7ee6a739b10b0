"""Demand models: rate profiles, bounded sampling, and fBm generation."""

import inspect
import math
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

import reference
from coinvest import (
    BoundedLoadModel,
    EconomicParams,
    FbmLoadModel,
    LoadMatrix,
    RateProfile,
    Scenario,
    build_value_table,
    expected_load_matrix,
    generate_fbm,
    payback_slots,
    sample_loads,
    simulate,
)
from coinvest import traffic
from coinvest.traffic import (
    MAX_FBM_SLOTS,
    _circulant_roots,
    _circulant_spectrum,
    _embedding_size,
    _fgn_autocov,
    _fgn_davies_harte,
    _substream,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
# An integer too large for a float: float() of it raises OverflowError.
BIG = 10**400


def full_fft_fgn(hurst, n, rng, paths=1):
    """Oracle: Davies-Harte through the full complex FFT of the Hermitian-extended weights."""
    m = _embedding_size(n)
    eig = np.clip(reference.circulant_spectrum(hurst, m), 0.0, None)
    two_m = 2 * m
    z = rng.standard_normal((paths, two_m))
    w = np.zeros((paths, two_m), dtype=complex)
    w[:, 0] = math.sqrt(eig[0] / two_m) * z[:, 0]
    w[:, m] = math.sqrt(eig[m] / two_m) * z[:, m]
    scale = np.sqrt(eig[1:m] / (2.0 * two_m))
    w[:, 1:m] = scale * (z[:, 1:m] + 1j * z[:, m + 1:][:, ::-1])
    w[:, m + 1:] = np.conj(w[:, 1:m])[:, ::-1]
    return np.fft.fft(w, axis=1).real[:, :n]


def fgn(hurst, n, rng):
    """``n`` steps of fGn drawn from ``rng`` with the memoised spectrum of their embedding."""
    return _fgn_davies_harte(_circulant_roots(hurst, _embedding_size(n)), n, rng)


def small_fbm():
    """A two-SP fBm scenario over 1000 hourly slots whose grand coalition plans capacity, and its
    value table."""
    profile = RateProfile(100.0, ((20.0, 4.0),), 24)
    params = EconomicParams(60.0, 0.5, 1000.0, 1.0, (6e-6, 6e-6), 0.03)
    scenario = Scenario(("a", "b"), tuple(FbmLoadModel(profile, 0.5, h) for h in (0.7, 0.3)), params)
    return scenario, build_value_table(scenario.expected_loads(), params)


def rows_of(models, horizon, slot_seconds):
    """Each model's draw rows over ``horizon`` slots, as ``montecarlo._priced`` builds them."""
    return [m.draw_rows(horizon, slot_seconds) for m in models]


def random_profile(rng):
    """A profile of up to three harmonics that each swing at most 30% of a random base rate."""
    base = float(rng.uniform(10.0, 1000.0))
    components = tuple(
        (float(rng.uniform(-0.3, 0.3)) * base, float(rng.uniform(-50.0, 50.0)))
        for _ in range(int(rng.integers(0, 4)))
    )
    return RateProfile(base, components, int(rng.integers(1, 49)))


class TestRateProfile:
    def test_constant_profile(self):
        assert RateProfile(5.0).rate(17) == 5.0

    def test_sine_peak_adds_full_amplitude(self):
        # sin(2*pi*6/24) = sin(pi/2) = 1, so the peak sits base + amplitude
        profile = RateProfile(1.0, ((1.0, 0.0),), 24)
        assert profile.rate(6) == pytest.approx(2.0, rel=1e-14)
        assert profile.rate(18) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_sine_value(self):
        # 2000 + 400*sin(2*pi*(9-3)/24) = 2000 + 400*sin(pi/2) = 2400
        profile = RateProfile(2000.0, ((400.0, 3.0),), 24)
        assert profile.rate(9) == pytest.approx(2400.0, rel=1e-14)

    def test_harmonics_are_indexed_from_one(self):
        profile = RateProfile(10.0, ((0.0, 0.0), (2.0, 0.0)), 24)
        # second harmonic peaks a quarter of its own period in
        assert profile.rate(6) == pytest.approx(10.0, abs=1e-12)
        assert profile.rate(3) == pytest.approx(12.0, rel=1e-12)

    def test_vectorized_rate(self):
        profile = RateProfile(100.0, ((10.0, 1.0),), 24)
        slots = np.arange(24)
        out = profile.rate(slots)
        assert out.shape == (24,)
        assert out[5] == pytest.approx(profile.rate(5), rel=1e-15)

    def test_rejects_profile_dipping_negative(self):
        with pytest.raises(ValueError, match="below zero"):
            RateProfile(0.5, ((1.0, 0.0),), 24)

    def test_rejects_negative_base(self):
        with pytest.raises(ValueError):
            RateProfile(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, BIG, -BIG], ids=("nan", "inf", "big", "minus-big"))
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RateProfile(bad)
        with pytest.raises(ValueError, match="finite"):
            RateProfile(10.0, ((bad, 0.0),))
        with pytest.raises(ValueError, match="finite"):
            RateProfile(10.0, ((1.0, bad),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, BIG], ids=("nan", "inf", "big"))
    def test_names_the_component_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match=r"^components\[1\]: amplitude and phase must be finite$"):
            RateProfile(10.0, ((1.0, 0.0), (1.0, bad)))

    @pytest.mark.parametrize(
        "args, refused",
        [
            (("5",), "base_rate must be a real number, not str"),
            ((None,), "base_rate must be a real number, not NoneType"),
            ((True,), "base_rate must be a real number, not bool"),
            ((1.0, ((None, 0.0),)), "components[0]"),
            ((1.0, ((0.0, 0.0), ("a", 0.0))), "components[1]"),
            ((1.0, ((0.0, False),)), "components[0]"),
            ((1.0, ((0.0, 0.0, 0.0), (0.5,))), "components[0]"),
        ],
        ids=repr,
    )
    def test_names_a_base_rate_or_component_that_is_no_real_number(self, args, refused):
        with pytest.raises(ValueError) as caught:
            RateProfile(*args)
        pair = ": expected an (amplitude, phase) pair of real numbers"
        assert str(caught.value) == (refused + pair if refused.startswith("components") else refused)

    def test_an_integer_base_rate_is_a_float(self):
        # kept as an int, the base rate would make the rate array integer, and adding a component would fail
        assert RateProfile(5, ((1.0, 0.0),)) == RateProfile(5.0, ((1.0, 0.0),))

    @pytest.mark.parametrize("period", [2.5, 24.0, True, "24", 0], ids=repr)
    def test_refuses_a_period_that_is_no_slot_count(self, period):
        with pytest.raises(ValueError, match="^period must be a positive integer number of slots$"):
            RateProfile(10.0, ((1.0, 0.0),), period)

    @pytest.mark.parametrize("period", [MAX_FBM_SLOTS + 1, 10**12])
    def test_refuses_a_period_past_the_ceiling_before_allocating(self, period):
        start = time.perf_counter()
        with pytest.raises(ValueError) as caught:
            RateProfile(10.0, ((1.0, 0.0),), period)
        assert time.perf_counter() - start < 1.0
        assert str(caught.value) == f"period of {period} slots exceeds the ceiling of {MAX_FBM_SLOTS}"

    def test_a_numpy_integer_period_is_a_slot_count(self):
        components = ((10.0, 1.0), (3.0, 7.0))
        profile, plain = RateProfile(100.0, components, np.int64(24)), RateProfile(100.0, components, 24)
        assert profile == plain and hash(profile) == hash(plain)
        slots = np.arange(48)
        assert np.array_equal(profile.rate(slots).view(np.int64), plain.rate(slots).view(np.int64))
        assert RateProfile(1.0, (), MAX_FBM_SLOTS).period == MAX_FBM_SLOTS  # the ceiling itself is a period

    def test_rate_bound_is_the_period_peak(self):
        profile = RateProfile(10.0, ((2.0, 1.0), (-3.0, 5.0)), 24)
        assert profile.rate_bound == profile.rate(np.arange(24)).max() < 15.0
        assert RateProfile(1.0, ((1.0, 0.0),), 4).rate_bound == 2.0  # sin(pi/2) = 1 at slot 1
        # sin(0) = 0 at the one slot, so the amplitude never shows and the bound stays finite
        assert RateProfile(4e307, ((-1.5e308, 0.0),), 1).rate_bound == 4e307

    def test_rate_bound_bounds_every_slot(self):
        rng = np.random.default_rng(17)
        slots = np.arange(100_000)
        for _ in range(50):
            profile = random_profile(rng)
            assert profile.rate(slots).max() <= profile.rate_bound

    def test_matches_the_formula_evaluated_at_each_slot(self):
        # evaluated afresh at slot t, the sine's argument rounds with an error of about t*k ulps
        rng = np.random.default_rng(5)
        slots = np.arange(100_000)
        for _ in range(50):
            profile = random_profile(rng)
            fresh = np.full(slots.shape, profile.base_rate)
            for k, (amp, phase) in enumerate(profile.components, start=1):
                fresh += amp * np.sin(2.0 * math.pi * k * (slots - phase) / profile.period)
            assert np.allclose(profile.rate(slots), fresh, rtol=1e-9, atol=0.0)
            head = slots[: profile.period]  # the first period is that formula, bit for bit
            assert np.array_equal(profile.rate(head).view(np.int64), fresh[: profile.period].view(np.int64))

    def test_every_period_repeats_the_first_bit_for_bit(self):
        # evaluated afresh at each slot, this profile's top rate over 2**21 slots would sit 6.2e-9
        # relative above its top over slots 0..2; read from the one stored period, it repeats exactly
        profile = RateProfile(1.0, ((0.0, 0.0),) * 12 + ((1.0, 2.056625953442084),), 3)
        slots = np.arange(1 << 21)
        rates = profile.rate(slots)
        assert np.array_equal(rates.view(np.int64), profile.rate(slots % 3).view(np.int64))
        assert profile.rate_bound == profile.rate(np.arange(3)).max() == rates.max()

    @pytest.mark.parametrize("slot", [2.5, 3.0, np.array([1.0, 2.0])])
    def test_refuses_a_slot_that_is_not_an_integer(self, slot):
        with pytest.raises(TypeError, match="safe"):
            RateProfile(100.0, ((10.0, 1.0),), 24).rate(slot)

    def test_stored_period_is_read_only_and_outside_equality(self):
        profile = RateProfile(100.0, ((10.0, 1.0),), 24)
        assert profile == RateProfile(100.0, [(10, 1)], 24)
        assert hash(profile) == hash(RateProfile(100.0, [(10, 1)], 24))
        assert "_rates" not in repr(profile)
        rates = profile.rate(np.arange(24))
        rates[0] = -1.0  # a copy: the profile's own period stays as built
        assert profile.rate(0) > 0.0
        with pytest.raises(ValueError, match="read-only"):
            profile._rates[0] = -1.0


class TestModelFields:
    """The demand models refuse by name a field of the wrong type, as ``RateProfile`` does."""

    PROFILE = RateProfile(100.0)

    @pytest.mark.parametrize(
        "build, refused",
        [
            (lambda p: BoundedLoadModel(p, "0.3"), "spread must be a real number, not str"),
            (lambda p: BoundedLoadModel(p, True), "spread must be a real number, not bool"),
            (lambda p: BoundedLoadModel(p, None), "spread must be a real number, not NoneType"),
            (lambda p: BoundedLoadModel("x", 0.3), "profile must be a RateProfile, not str"),
            (lambda p: BoundedLoadModel(100.0, 0.3), "profile must be a RateProfile, not float"),
            (lambda p: FbmLoadModel(p, 0.5, "0.7"), "hurst must be a real number, not str"),
            (lambda p: FbmLoadModel(p, True, 0.7), "alpha must be a real number, not bool"),
            (lambda p: FbmLoadModel(p, "0.5", 0.7), "alpha must be a real number, not str"),
            (lambda p: FbmLoadModel(p, 0.5, False), "hurst must be a real number, not bool"),
            (lambda p: FbmLoadModel("x", 0.5, 0.7), "trend must be a RateProfile, not str"),
        ],
        ids=("spread-str", "spread-bool", "spread-None", "profile-str", "profile-float", "hurst-str",
             "alpha-bool", "alpha-str", "hurst-bool", "trend-str"),
    )
    def test_refuses_a_field_of_the_wrong_type_by_name(self, build, refused):
        with pytest.raises(ValueError) as caught:
            build(self.PROFILE)
        assert str(caught.value) == refused

    @pytest.mark.parametrize(
        "alpha, hurst, refused",
        [
            (-0.1, 0.7, "alpha must lie in [0, 1]"),
            (1.5, 0.7, "alpha must lie in [0, 1]"),
            (0.5, 0.0, "hurst must lie in (0, 1)"),
            (0.5, 1, "hurst must lie in (0, 1)"),
        ],
        ids=repr,
    )
    def test_refuses_an_fbm_field_out_of_its_range(self, alpha, hurst, refused):
        with pytest.raises(ValueError) as caught:
            FbmLoadModel(self.PROFILE, alpha, hurst)
        assert str(caught.value) == refused

    @pytest.mark.parametrize("spread", [0, 1, np.float64(0.3), np.int64(1)], ids=repr)
    def test_numpy_and_integer_numbers_are_numbers(self, spread):
        assert BoundedLoadModel(self.PROFILE, spread).spread == spread
        assert FbmLoadModel(self.PROFILE, spread, np.float64(0.7)).alpha == spread


class TestExpectedLoad:
    def test_bounded_load_is_rate_times_slot(self):
        model = BoundedLoadModel(RateProfile(2000.0), 0.3)
        assert expected_load_matrix([model], 6, 3600.0)[0, 5] == pytest.approx(7.2e6, rel=1e-14)

    def test_fbm_load_zero_at_origin(self):
        model = FbmLoadModel(RateProfile(123.0), 0.5, 0.7)
        assert expected_load_matrix([model], 1, 3600.0)[0, 0] == 0.0

    def test_fbm_load_frozen_value(self):
        # 100 * 4^0.5 / sqrt(2*pi) * 1  = 79.78845608028654
        model = FbmLoadModel(RateProfile(100.0), 0.5, 0.5)
        expect = 200.0 / SQRT_2PI
        assert expect == pytest.approx(79.78845608028654, rel=1e-14)
        assert expected_load_matrix([model], 5, 1.0)[0, 4] == pytest.approx(expect, rel=1e-12)

    def test_matrix_stacks_models(self):
        models = [
            BoundedLoadModel(RateProfile(100.0), 0.2),
            BoundedLoadModel(RateProfile(200.0, ((50.0, 2.0),), 12), 0.2),
        ]
        mat = expected_load_matrix(models, 12, 60.0)
        assert mat.shape == (2, 12)
        assert mat[0, 0] == pytest.approx(6000.0, rel=1e-14)
        assert mat[1, 7] == pytest.approx(models[1].expected_rate(7) * 60.0, rel=1e-15)

    def test_matrix_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            expected_load_matrix([BoundedLoadModel(RateProfile(1.0), 0.1)], 0, 1.0)


class TestFbmLoadBound:
    @pytest.mark.parametrize("slots", [1, 2, 3, 24, 1000, 8760])
    def test_bounds_the_expected_load(self, slots):
        rng = np.random.default_rng(slots)
        for _ in range(40):
            alpha, hurst, slot_seconds = rng.uniform(), rng.uniform(0.01, 0.99), rng.uniform(1.0, 3600.0)
            model = FbmLoadModel(random_profile(rng), float(alpha), float(hurst))
            slot_seconds = float(slot_seconds)
            assert expected_load_matrix([model], slots, slot_seconds).max() <= model.load_bound(slots, slot_seconds)
            flat = replace(model, trend=RateProfile(model.trend.base_rate))  # attains its rate bound
            assert expected_load_matrix([flat], slots, slot_seconds).max() <= flat.load_bound(slots, slot_seconds)

    def test_a_flat_profile_attains_the_bound_at_the_last_slot(self):
        model = FbmLoadModel(RateProfile(250.0), 0.4, 0.7)
        for slots in (2, 24, 8760):
            assert model.load_bound(slots, 3600.0) == model.expected_rate(slots - 1) * 3600.0

    def test_overflow_gives_inf_without_a_warning(self):
        # 4e303 requests/s x (slots - 1)**0.7 / sqrt(2*pi) x 3600 s fits 24 slots, but not 8 760
        model = FbmLoadModel(RateProfile(4e303), 0.5, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert math.isfinite(model.load_bound(24, 3600.0))
            assert model.load_bound(8760, 3600.0) == math.inf
            assert replace(model, trend=RateProfile(4e304)).load_bound(24, 3600.0) == math.inf


class TestBoundedSampling:
    def make_models(self, spread):
        return [
            BoundedLoadModel(RateProfile(100.0, ((20.0, 2.0),), 24), spread),
            BoundedLoadModel(RateProfile(55.0), spread),
        ]

    def test_zero_spread_is_exactly_the_mean(self):
        models = self.make_models(0.0)
        loads = sample_loads(models, rows_of(models, 24, 3600.0), (7,))
        assert np.array_equal(loads.values, expected_load_matrix(models, 24, 3600.0))

    def test_full_spread_stays_in_doubled_band(self):
        models = self.make_models(1.0)
        mean = expected_load_matrix(models, 24, 3600.0)
        rows = rows_of(models, 24, 3600.0)
        for seed in range(20):
            loads = sample_loads(models, rows, (seed,))
            assert (loads.values >= 0.0).all()
            assert (loads.values <= 2.0 * mean + 1e-9).all()

    def test_band_containment_mid_spread(self):
        models = self.make_models(0.35)
        mean = expected_load_matrix(models, 24, 3600.0)
        rows = rows_of(models, 24, 3600.0)
        for seed in range(20):
            loads = sample_loads(models, rows, (seed,)).values
            assert (loads >= 0.65 * mean - 1e-9).all()
            assert (loads <= 1.35 * mean + 1e-9).all()

    def test_deterministic_per_seed(self):
        models = self.make_models(0.5)
        rows = rows_of(models, 24, 3600.0)
        a = sample_loads(models, rows, (42,)).values
        b = sample_loads(models, rows, (42,)).values
        c = sample_loads(models, rows, (43,)).values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rows_do_not_depend_on_other_players(self):
        models = self.make_models(0.5)
        rows = rows_of(models, 24, 3600.0)
        both = sample_loads(models, rows, (11,)).values
        first_alone = sample_loads(models[:1], rows[:1], (11,)).values
        assert np.array_equal(both[:1], first_alone)

    @pytest.mark.parametrize("horizon, streams", [(1, 200), (24, 200), (43_800, 20)])
    @pytest.mark.parametrize("spread", [0.0, 0.3, 1.0])
    def test_draws_equal_numpy_uniform_bit_for_bit(self, spread, horizon, streams):
        model = BoundedLoadModel(RateProfile(100.0, ((20.0, 2.0), (7.5, 5.25)), 24), spread)
        mean = expected_load_matrix([model], horizon, 3600.0)[0]
        rows = model.draw_rows(horizon, 3600.0)
        for k in range(streams):
            want = _substream((3,), k).uniform((1.0 - spread) * mean, (1.0 + spread) * mean)
            got = model.sample(rows, _substream((3,), k))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_sample_mean_converges(self):
        # one long-horizon draw gives many independent slot samples
        model = BoundedLoadModel(RateProfile(100.0), 0.5)
        n = 100_000
        draws = sample_loads([model], rows_of([model], n, 1.0), (9,)).values[0]
        assert draws.min() >= 50.0 and draws.max() <= 150.0
        se = (100.0 / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(draws.mean() - 100.0) < 3 * se


class TestFbmGeneration:
    def test_starts_at_zero(self):
        for h in (0.3, 0.5, 0.8):
            assert generate_fbm(h, 16, _substream((5,)))[0] == 0.0

    def test_deterministic_per_seed(self):
        a = generate_fbm(0.7, 64, _substream((123,)))
        b = generate_fbm(0.7, 64, _substream((123,)))
        c = generate_fbm(0.7, 64, _substream((124,)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_brownian_increments_uncorrelated(self):
        rng = np.random.default_rng(21)
        path = generate_fbm(0.5, 100_001, rng)
        inc = np.diff(path)
        n = inc.size
        r1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(r1) < 3.0 / math.sqrt(n)
        assert abs(inc.mean()) < 3.0 / math.sqrt(n)
        assert abs(inc.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_variance_matches_covariance_formula(self):
        rng = np.random.default_rng(8)
        paths = np.stack([generate_fbm(0.7, 17, rng) for _ in range(10_000)])
        for t in (4, 16):
            target = float(t) ** 1.4
            sample = paths[:, t].var()
            se = target * math.sqrt(2.0 / 10_000)
            assert abs(sample - target) < 3 * se

    def test_cross_covariance_matches_formula(self):
        rng = np.random.default_rng(13)
        h = 0.65
        paths = np.stack([generate_fbm(h, 33, rng) for _ in range(20_000)])
        s, t = 8, 32
        target = 0.5 * (s ** (2 * h) + t ** (2 * h) - (t - s) ** (2 * h))
        prod = paths[:, s] * paths[:, t]
        se = prod.std() / math.sqrt(paths.shape[0])
        assert abs(prod.mean() - target) < 4 * se

    @pytest.mark.parametrize("hurst", (0.01, 0.3, 0.49, 0.51, 0.7, 0.99))
    def test_autocovariance_matches_50_digit_reference(self, hurst):
        lags = (1, 2, 10, 10**3, 10**4, 10**6)
        with np.errstate(all="raise"):
            gamma = _fgn_autocov(hurst, np.full(max(lags) + 1, np.nan))[list(lags)]
        with localcontext() as ctx:
            ctx.prec = 50
            two_h = 2 * Decimal(hurst)
            for k, got in zip(lags, gamma):
                k = Decimal(k)
                ref = ((k + 1) ** two_h - 2 * k ** two_h + (k - 1) ** two_h) / 2
                assert abs(Decimal(float(got)) - ref) <= Decimal("1e-12") * abs(ref), (hurst, k)

    def test_autocovariance_of_brownian_increments_is_white(self):
        gamma = _fgn_autocov(0.5, np.full(10**6 + 1, np.nan))
        assert gamma[0] == 1.0
        assert np.all(gamma[1:] == 0.0)

    @pytest.mark.parametrize(
        "hurst, m",
        [(h, m) for h in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999) for m in (1 << 4, 1 << 10, 1 << 16)]
        + [(0.95, 1 << 20), (0.99, 1 << 20)],
    )
    def test_circulant_spectrum_is_nonnegative(self, hurst, m):
        eig = _circulant_spectrum(hurst, m)
        assert eig.min() >= -1e-10 * eig.max()

    def test_spectral_and_recursive_generators_agree_in_law(self):
        h = 0.75
        n = 10
        gamma = _fgn_autocov(h, np.empty(n))
        rng = np.random.default_rng(31)
        dh = np.stack([fgn(h, n, rng) for _ in range(30_000)])
        for lag in (1, 4):
            prod = dh[:, 0] * dh[:, lag]
            se = prod.std() / math.sqrt(dh.shape[0])
            assert abs(prod.mean() - gamma[lag]) < 4 * se

    def test_draws_identical_with_cold_or_warm_spectrum_cache(self, monkeypatch):
        # a call builds every spectrum in montecarlo._priced, and no draw builds one
        scenario, table = small_fbm()
        build, callers = _circulant_roots, []

        def spy(hurst, m):
            callers.append({frame.function for frame in inspect.stack(0)})
            return build(hurst, m)

        monkeypatch.setattr(traffic, "_circulant_roots", spy)
        _circulant_roots.cache_clear()
        cold = simulate(scenario, table, 3, seed=9), payback_slots(scenario, table.plans[-1], 3, seed=9)
        warm = simulate(scenario, table, 3, seed=9), payback_slots(scenario, table.plans[-1], 3, seed=9)
        assert len(callers) == 2 * 2 * len(scenario.models)
        assert all("_priced" in names and "sample_loads" not in names for names in callers)
        for a, b in zip(cold[0], warm[0]):
            assert np.array_equal(a.loads.values, b.loads.values)
        assert cold[1] == warm[1] == [o.payback_slot for o in cold[0]]

    def test_cached_spectrum_is_read_only(self):
        roots = _circulant_roots(0.7, 64)
        assert roots is _circulant_roots(0.7, 64)
        with pytest.raises(ValueError):
            roots[0] = 0.0

    @pytest.mark.parametrize("m", (2, 4, 64, 1 << 14, 1 << 17))
    @pytest.mark.parametrize("hurst", (0.01, 0.3, 0.5, 0.7, 0.99))
    def test_in_place_spectrum_matches_the_concatenated_build_bit_for_bit(self, hurst, m):
        gamma = _fgn_autocov(hurst, np.full(m + 1, np.nan))
        assert gamma.tobytes() == reference.fgn_autocov(hurst, np.arange(m + 1)).tobytes()
        assert _circulant_spectrum(hurst, m).tobytes() == reference.real_circulant_spectrum(hurst, m).tobytes()
        assert _circulant_roots.__wrapped__(hurst, m).tobytes() == reference.circulant_roots(hurst, m).tobytes()

    @pytest.mark.parametrize("hurst", (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999))
    def test_real_fft_spectrum_matches_the_complex_fft_definition(self, hurst):
        # the real FFT moves only round-off: 5.6e-16 of the largest eigenvalue at most over this grid
        for m in (1 << k for k in range(1, 18)):
            got = _circulant_spectrum(hurst, m)
            want = reference.circulant_spectrum(hurst, m)[: m + 1]
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15 * want.max(), m

    def test_no_complex_fft_builds_or_draws_a_spectrum(self, monkeypatch):
        scenario, table = small_fbm()
        calls = dict.fromkeys(("fft", "rfft"), 0)
        for name in calls:

            def spy(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        for run in (
            lambda: _circulant_roots(0.7, 64),
            lambda: simulate(scenario, table, 3, seed=9),
            lambda: payback_slots(scenario, table.plans[-1], 3, seed=9),
        ):
            _circulant_roots.cache_clear()
            calls.update(fft=0, rfft=0)
            run()
            assert calls["fft"] == 0 and calls["rfft"] > 0

    def test_fbm_simulate_moves_only_round_off_with_the_complex_fft_spectrum(self, monkeypatch):
        # the real FFT's eigenvalues differ from the complex FFT's in the last bits; settlement
        # keeps them to 1e-12 of each column's largest magnitude, and payback slots do not move
        scenario, table = small_fbm()

        def run():
            _circulant_roots.cache_clear()
            outcomes = simulate(scenario, table, 20, seed=9)
            return outcomes, payback_slots(scenario, table.plans[-1], 20, seed=9)

        got, got_slots = run()
        monkeypatch.setattr(traffic, "_circulant_spectrum", lambda h, m: reference.circulant_spectrum(h, m)[: m + 1])
        try:
            want, want_slots = run()
        finally:
            _circulant_roots.cache_clear()
        for column in ("collected", "payments", "rewards", "payoffs", "deviations"):
            a, b = (np.stack([getattr(o, column) for o in outcomes]) for outcomes in (got, want))
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), column
        assert [o.payback_slot for o in got] == [o.payback_slot for o in want] == got_slots == want_slots
        assert any(slot is not None for slot in got_slots)

    def test_spectrum_build_peaks_below_five_and_a_half_mib(self):
        # the real row (2 MiB) and the autocovariance's three scratch rows (1 MiB each) read 5.0 MiB
        _circulant_roots.__wrapped__(0.7, 4)  # numpy's FFT module is loaded before the count
        tracemalloc.start()
        try:
            _circulant_roots.__wrapped__(0.7, 1 << 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * (1 << 20)

    @pytest.mark.parametrize("n", (2, 3, 100, 8760, 43800))
    @pytest.mark.parametrize("hurst", (0.01, 0.3, 0.5, 0.7, 0.99))
    def test_half_spectrum_draw_matches_full_fft_oracle(self, hurst, n):
        got = fgn(hurst, n, np.random.default_rng(n))
        want = full_fft_fgn(hurst, n, np.random.default_rng(n))[0]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_paths_consume_the_stream_in_order(self):
        rng = np.random.default_rng(3)
        got = np.stack([fgn(0.7, 100, rng) for _ in range(3)])
        want = full_fft_fgn(0.7, 100, np.random.default_rng(3), paths=3)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_returned_paths_survive_the_next_draw(self):
        rng = np.random.default_rng(6)
        noise = fgn(0.7, 100, rng)
        path = generate_fbm(0.7, 101, _substream((1,)))
        kept = noise.copy(), path.copy()
        fgn(0.7, 100, rng)
        generate_fbm(0.7, 101, _substream((2,)))
        assert np.array_equal(noise, kept[0])
        assert np.array_equal(path, kept[1])

    def test_non_psd_embedding_raises(self, monkeypatch):
        # a lag-1 correlation above 1 is no covariance at all
        def no_covariance(hurst, out):
            out[...] = 0.0
            out[:2] = 1.0, 2.0
            return out

        monkeypatch.setattr(traffic, "_fgn_autocov", no_covariance)
        _circulant_roots.cache_clear()
        with pytest.raises(RuntimeError, match=r"hurst=0\.8, m=8"):
            generate_fbm(0.8, 9, np.random.default_rng(4))
        assert _circulant_roots.cache_info().currsize == 0

    def test_rejects_bad_hurst(self):
        with pytest.raises(ValueError):
            generate_fbm(0.0, 8, _substream((0,)))
        with pytest.raises(ValueError):
            generate_fbm(1.0, 8, _substream((0,)))

    def test_rejects_paths_beyond_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            generate_fbm(0.5, MAX_FBM_SLOTS + 1, _substream((0,)))

    def test_rejects_an_empty_path(self):
        with pytest.raises(ValueError, match=r"^need at least one slot$"):
            generate_fbm(0.5, 0, _substream((0,)))


class TestFbmSampling:
    def make_model(self, alpha, hurst=0.7):
        return FbmLoadModel(RateProfile(100.0, ((20.0, 4.0),), 24), alpha, hurst)

    def test_alpha_zero_equals_expected_load(self):
        model = self.make_model(0.0)
        slots = np.arange(24)
        loads = sample_loads([model], rows_of([model], 24, 60.0), (99,)).values[0]
        assert np.allclose(loads, model.expected_rate(slots) * 60.0, rtol=1e-12, atol=0.0)

    def test_alpha_one_is_pure_path(self):
        model = self.make_model(1.0)
        loads = sample_loads([model], rows_of([model], 24, 60.0), (5,)).values[0]
        assert loads[0] == 0.0  # path starts at the origin
        # reconstruct from the same substream to confirm the formula
        path = generate_fbm(0.7, 24, _substream((5,), 0))
        slots = np.arange(24)
        expect = model.trend.rate(slots) * np.maximum(path, 0.0) * 60.0
        assert np.array_equal(loads, expect)

    def test_sample_mean_matches_expected_load(self):
        model = self.make_model(0.6)
        t = 5
        rows = rows_of([model], 6, 60.0)
        draws = np.array(
            [sample_loads([model], rows, (4, k)).values[0, t] for k in range(20_000)]
        )
        target = model.expected_rate(t) * 60.0
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 3 * se

    def test_loads_nonnegative(self):
        model = self.make_model(1.0, hurst=0.4)
        rows = rows_of([model], 48, 60.0)
        for seed in range(10):
            assert (sample_loads([model], rows, (seed,)).values >= 0.0).all()

    def test_deterministic_and_player_keyed(self):
        models = [self.make_model(0.5), self.make_model(0.9)]
        rows = rows_of(models, 24, 60.0)
        a = sample_loads(models, rows, (77,)).values
        b = sample_loads(models, rows, (77,)).values
        assert np.array_equal(a, b)
        alone = sample_loads(models[:1], rows[:1], (77,)).values
        assert np.array_equal(a[:1], alone)

    def test_dispatcher_routes_by_kind(self):
        bounded = BoundedLoadModel(RateProfile(10.0), 0.1)
        fbm = self.make_model(0.5)
        assert sample_loads([bounded], rows_of([bounded], 4, 1.0), (0,)).values.shape == (1, 4)
        assert sample_loads([fbm], rows_of([fbm], 4, 60.0), (0,)).values.shape == (1, 4)
        with pytest.raises(ValueError):
            sample_loads([], [], (0,))
        with pytest.raises(ValueError, match="shorter"):  # one model without its rows
            sample_loads([bounded, fbm], rows_of([bounded], 4, 60.0), (0,))


class TestSamplerRows:
    """``draw_rows`` builds each model's deterministic rows, and the model keeps none of them.

    Each row holds one entry per slot, but for an fBm model's third and fourth: its spectrum roots
    and its 0-d slot length, so a draw takes only its rows and its generator."""

    MODELS = (
        BoundedLoadModel(RateProfile(100.0, ((20.0, 4.0),), 24), 0.3),
        FbmLoadModel(RateProfile(100.0, ((20.0, 4.0),), 24), 0.5, 0.7),
    )

    @pytest.mark.parametrize("model", MODELS, ids=("bounded", "fbm"))
    def test_rows_are_read_only(self, model):
        rows = model.draw_rows(48, 60.0)
        model.sample(rows, np.random.default_rng(0))
        assert rows
        for row in rows:
            assert not row.flags.writeable
        assert all(row.shape == (48,) for row in rows[:2])  # an fBm model's spectrum and slot length follow
        assert vars(model).keys() == {f.name for f in fields(model)}

    def test_a_draw_takes_only_its_rows_and_its_generator(self):
        assert all(list(inspect.signature(m.sample).parameters) == ["rows", "rng"] for m in self.MODELS)
        assert list(inspect.signature(sample_loads).parameters) == ["models", "rows", "key"]
        slot_seconds = self.MODELS[1].draw_rows(24, 60.0)[3]  # the fBm rows carry the slot length
        assert slot_seconds.shape == () and slot_seconds == 60.0

    @pytest.mark.parametrize("model", MODELS, ids=("bounded", "fbm"))
    def test_draws_follow_the_horizon(self, model):
        day = model.draw_rows(24, 60.0)
        a = model.sample(day, np.random.default_rng(1))
        first = model.sample(day, np.random.default_rng(2))
        kept = first.copy()
        two_days = model.draw_rows(48, 60.0)
        model.sample(two_days, np.random.default_rng(1))
        b = model.sample(model.draw_rows(24, 60.0), np.random.default_rng(1))
        twin = replace(model)
        fresh = twin.sample(twin.draw_rows(24, 60.0), np.random.default_rng(1))
        assert np.array_equal(a, b) and np.array_equal(a, fresh)
        assert np.array_equal(first, kept)
        assert all(np.array_equal(long[:24], short) for long, short in zip(two_days[:2], day[:2]))

    @pytest.mark.parametrize("model", MODELS, ids=("bounded", "fbm"))
    def test_draws_follow_the_slot_length(self, model):
        # doubling the slot doubles each load exactly
        a = model.sample(model.draw_rows(24, 60.0), np.random.default_rng(1))
        b = model.sample(model.draw_rows(24, 120.0), np.random.default_rng(1))
        twin = replace(model)
        assert np.array_equal(b, 2.0 * a)
        assert np.array_equal(b, twin.sample(twin.draw_rows(24, 120.0), np.random.default_rng(1)))


class TestLoadMatrix:
    def test_shape_properties(self):
        m = LoadMatrix(np.ones((3, 7)))
        assert m.values.shape == (3, 7)

