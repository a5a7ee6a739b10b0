"""Demand models: rate profiles, bounded sampling, and fBm generation."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from coinvest import (
    BoundedLoadModel,
    FbmLoadModel,
    LoadMatrix,
    RateProfile,
    expected_load,
    expected_load_matrix,
    generate_fbm,
    sample_loads,
)
from coinvest import traffic
from coinvest.traffic import (
    MAX_FBM_SLOTS,
    _circulant_eigenvalues,
    _fbm_paths,
    _fgn_autocov,
    _fgn_davies_harte,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RateProfile(bad)
        with pytest.raises(ValueError, match="finite"):
            RateProfile(10.0, ((bad, 0.0),))
        with pytest.raises(ValueError, match="finite"):
            RateProfile(10.0, ((1.0, bad),))


class TestExpectedLoad:
    def test_bounded_load_is_rate_times_slot(self):
        model = BoundedLoadModel(RateProfile(2000.0), 0.3, 3600.0)
        assert expected_load(model, 5) == pytest.approx(7.2e6, rel=1e-14)

    def test_fbm_load_zero_at_origin(self):
        model = FbmLoadModel(RateProfile(123.0), 0.5, 0.7, 3600.0)
        assert expected_load(model, 0) == 0.0

    def test_fbm_load_frozen_value(self):
        # 100 * 4^0.5 / sqrt(2*pi) * 1  = 79.78845608028654
        model = FbmLoadModel(RateProfile(100.0), 0.5, 0.5, 1.0)
        expect = 200.0 / SQRT_2PI
        assert expect == pytest.approx(79.78845608028654, rel=1e-14)
        assert expected_load(model, 4) == pytest.approx(expect, rel=1e-12)

    def test_matrix_stacks_models(self):
        models = [
            BoundedLoadModel(RateProfile(100.0), 0.2, 60.0),
            BoundedLoadModel(RateProfile(200.0, ((50.0, 2.0),), 12), 0.2, 60.0),
        ]
        mat = expected_load_matrix(models, 12)
        assert mat.shape == (2, 12)
        assert mat[0, 0] == pytest.approx(6000.0, rel=1e-14)
        assert mat[1, 7] == pytest.approx(expected_load(models[1], 7), rel=1e-15)

    def test_matrix_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            expected_load_matrix([BoundedLoadModel(RateProfile(1.0), 0.1, 1.0)], 0)


class TestBoundedSampling:
    def make_models(self, spread):
        return [
            BoundedLoadModel(RateProfile(100.0, ((20.0, 2.0),), 24), spread, 3600.0),
            BoundedLoadModel(RateProfile(55.0), spread, 3600.0),
        ]

    def test_zero_spread_is_exactly_the_mean(self):
        models = self.make_models(0.0)
        loads = sample_loads(models, 24, 7)
        assert np.array_equal(loads.values, expected_load_matrix(models, 24))

    def test_full_spread_stays_in_doubled_band(self):
        models = self.make_models(1.0)
        mean = expected_load_matrix(models, 24)
        for seed in range(20):
            loads = sample_loads(models, 24, seed)
            assert (loads.values >= 0.0).all()
            assert (loads.values <= 2.0 * mean + 1e-9).all()

    def test_band_containment_mid_spread(self):
        models = self.make_models(0.35)
        mean = expected_load_matrix(models, 24)
        for seed in range(20):
            loads = sample_loads(models, 24, seed).values
            assert (loads >= 0.65 * mean - 1e-9).all()
            assert (loads <= 1.35 * mean + 1e-9).all()

    def test_deterministic_per_seed(self):
        models = self.make_models(0.5)
        a = sample_loads(models, 24, 42).values
        b = sample_loads(models, 24, 42).values
        c = sample_loads(models, 24, 43).values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rows_do_not_depend_on_other_players(self):
        models = self.make_models(0.5)
        both = sample_loads(models, 24, 11).values
        first_alone = sample_loads(models[:1], 24, 11).values
        assert np.array_equal(both[:1], first_alone)

    def test_sample_mean_converges(self):
        # one long-horizon draw gives many independent slot samples
        model = BoundedLoadModel(RateProfile(100.0), 0.5, 1.0)
        n = 100_000
        draws = sample_loads([model], n, 9).values[0]
        assert draws.min() >= 50.0 and draws.max() <= 150.0
        se = (100.0 / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(draws.mean() - 100.0) < 3 * se


class TestFbmGeneration:
    def test_starts_at_zero(self):
        for h in (0.3, 0.5, 0.8):
            assert generate_fbm(h, 16, 5)[0] == 0.0

    def test_deterministic_per_seed(self):
        a = generate_fbm(0.7, 64, 123)
        b = generate_fbm(0.7, 64, 123)
        c = generate_fbm(0.7, 64, 124)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_brownian_increments_uncorrelated(self):
        rng = np.random.default_rng(21)
        path = _fbm_paths(0.5, 100_001, rng, 1)[0]
        inc = np.diff(path)
        n = inc.size
        r1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(r1) < 3.0 / math.sqrt(n)
        assert abs(inc.mean()) < 3.0 / math.sqrt(n)
        assert abs(inc.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_variance_matches_covariance_formula(self):
        rng = np.random.default_rng(8)
        paths = _fbm_paths(0.7, 17, rng, 10_000)
        for t in (4, 16):
            target = float(t) ** 1.4
            sample = paths[:, t].var()
            se = target * math.sqrt(2.0 / 10_000)
            assert abs(sample - target) < 3 * se

    def test_cross_covariance_matches_formula(self):
        rng = np.random.default_rng(13)
        h = 0.65
        paths = _fbm_paths(h, 33, rng, 20_000)
        s, t = 8, 32
        target = 0.5 * (s ** (2 * h) + t ** (2 * h) - (t - s) ** (2 * h))
        prod = paths[:, s] * paths[:, t]
        se = prod.std() / math.sqrt(paths.shape[0])
        assert abs(prod.mean() - target) < 4 * se

    @pytest.mark.parametrize("hurst", (0.01, 0.3, 0.49, 0.51, 0.7, 0.99))
    def test_autocovariance_matches_50_digit_reference(self, hurst):
        lags = (1, 2, 10, 10**3, 10**4, 10**6)
        with np.errstate(all="raise"):
            gamma = _fgn_autocov(hurst, np.array(lags))
        with localcontext() as ctx:
            ctx.prec = 50
            two_h = 2 * Decimal(hurst)
            for k, got in zip(lags, gamma):
                k = Decimal(k)
                ref = ((k + 1) ** two_h - 2 * k ** two_h + (k - 1) ** two_h) / 2
                assert abs(Decimal(float(got)) - ref) <= Decimal("1e-12") * abs(ref), (hurst, k)

    def test_autocovariance_of_brownian_increments_is_white(self):
        gamma = _fgn_autocov(0.5, np.arange(10**6 + 1))
        assert gamma[0] == 1.0
        assert np.all(gamma[1:] == 0.0)

    @pytest.mark.parametrize(
        "hurst, m",
        [(h, m) for h in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999) for m in (1 << 4, 1 << 10, 1 << 16)]
        + [(0.95, 1 << 20), (0.99, 1 << 20)],
    )
    def test_circulant_spectrum_is_nonnegative(self, hurst, m):
        gamma = _fgn_autocov(hurst, np.arange(m + 1))
        eig = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
        assert eig.min() >= -1e-10 * eig.max()

    def test_spectral_and_recursive_generators_agree_in_law(self):
        h = 0.75
        n = 10
        gamma = _fgn_autocov(h, np.arange(n))
        dh = _fgn_davies_harte(h, n, np.random.default_rng(31), 30_000)
        for lag in (1, 4):
            prod = dh[:, 0] * dh[:, lag]
            se = prod.std() / math.sqrt(dh.shape[0])
            assert abs(prod.mean() - gamma[lag]) < 4 * se

    def test_draws_identical_with_cold_or_warm_spectrum_cache(self):
        models = [
            FbmLoadModel(RateProfile(100.0, ((20.0, 4.0),), 24), 0.5, h, 60.0) for h in (0.7, 0.3)
        ]
        _circulant_eigenvalues.cache_clear()
        cold = sample_loads(models, 1000, (9, 2)).values
        assert _circulant_eigenvalues.cache_info().currsize == 2
        warm = sample_loads(models, 1000, (9, 2)).values
        assert _circulant_eigenvalues.cache_info().hits >= 2
        assert np.array_equal(cold, warm)

    def test_cached_spectrum_is_read_only(self):
        eig = _circulant_eigenvalues(0.7, 64)
        assert eig is _circulant_eigenvalues(0.7, 64)
        with pytest.raises(ValueError):
            eig[0] = 0.0

    def test_non_psd_embedding_raises(self, monkeypatch):
        # a lag-1 correlation above 1 is no covariance at all
        monkeypatch.setattr(traffic, "_fgn_autocov", lambda hurst, lags: np.where(lags == 1, 2.0, lags == 0))
        _circulant_eigenvalues.cache_clear()
        with pytest.raises(RuntimeError, match=r"hurst=0\.8, m=8"):
            _fbm_paths(0.8, 9, np.random.default_rng(4), 1)
        assert _circulant_eigenvalues.cache_info().currsize == 0

    def test_rejects_bad_hurst(self):
        with pytest.raises(ValueError):
            generate_fbm(0.0, 8, 0)
        with pytest.raises(ValueError):
            generate_fbm(1.0, 8, 0)

    def test_rejects_paths_beyond_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            generate_fbm(0.5, MAX_FBM_SLOTS + 1, 0)


class TestFbmSampling:
    def make_model(self, alpha, hurst=0.7):
        return FbmLoadModel(RateProfile(100.0, ((20.0, 4.0),), 24), alpha, hurst, 60.0)

    def test_alpha_zero_equals_expected_load(self):
        model = self.make_model(0.0)
        slots = np.arange(24)
        loads = sample_loads([model], 24, 99).values[0]
        assert np.allclose(loads, expected_load(model, slots), rtol=1e-12, atol=0.0)

    def test_alpha_one_is_pure_path(self):
        from coinvest.traffic import _substream

        model = self.make_model(1.0)
        loads = sample_loads([model], 24, 5).values[0]
        assert loads[0] == 0.0  # path starts at the origin
        # reconstruct from the same substream to confirm the formula
        path = _fbm_paths(0.7, 24, _substream(5, 0), 1)[0]
        slots = np.arange(24)
        expect = model.trend.rate(slots) * np.maximum(path, 0.0) * 60.0
        assert np.array_equal(loads, expect)

    def test_sample_mean_matches_expected_load(self):
        model = self.make_model(0.6)
        t = 5
        draws = np.array(
            [sample_loads([model], 6, (4, k)).values[0, t] for k in range(20_000)]
        )
        target = expected_load(model, t)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < 3 * se

    def test_loads_nonnegative(self):
        model = self.make_model(1.0, hurst=0.4)
        for seed in range(10):
            assert (sample_loads([model], 48, seed).values >= 0.0).all()

    def test_deterministic_and_player_keyed(self):
        models = [self.make_model(0.5), self.make_model(0.9)]
        a = sample_loads(models, 24, 77).values
        b = sample_loads(models, 24, 77).values
        assert np.array_equal(a, b)
        alone = sample_loads(models[:1], 24, 77).values
        assert np.array_equal(a[:1], alone)

    def test_dispatcher_routes_by_kind(self):
        bounded = BoundedLoadModel(RateProfile(10.0), 0.1, 1.0)
        fbm = self.make_model(0.5)
        assert sample_loads([bounded], 4, 0).values.shape == (1, 4)
        assert sample_loads([fbm], 4, 0).values.shape == (1, 4)
        with pytest.raises(ValueError):
            sample_loads([], 4, 0)


class TestLoadMatrix:
    def test_shape_properties(self):
        m = LoadMatrix(np.ones((3, 7)))
        assert m.n_sp == 3 and m.horizon == 7

    def test_rejects_negative_or_misshaped(self):
        with pytest.raises(ValueError):
            LoadMatrix(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LoadMatrix(np.array([[1.0, -2.0]]))
