"""Traffic descriptions and demand sampling.

Expected demand follows a sinusoidal daily profile.  On top of the
profile two uncertainty models are supported:

* bounded: the per-slot load is drawn uniformly from the symmetric
  interval ``[(1 - spread) * mean, (1 + spread) * mean]``, independently
  across slots and across service providers.  This is the model the
  analytic stability bounds apply to, because per-slot utilities are
  then bounded random variables.
* fBm: the per-slot request rate mixes the deterministic envelope of a
  fractional Brownian motion with a realized path,
  ``rate = trend * ((1 - alpha) * t**H / sqrt(2*pi) + alpha * max(0, f_t))``,
  which captures long-range dependence (Hurst exponent ``H``) and lets
  ``alpha`` interpolate from the smooth mean envelope to a fully rough
  path.  ``t**H / sqrt(2*pi)`` is exactly ``E[max(0, f_t)]`` for a
  standard fBm, so the expected rate is the same for every ``alpha``.

Loads are requests per slot: ``load = rate * slot_seconds``.

Randomness contract: every sampler derives one independent substream
per (seed, realization, player) through ``numpy.random.SeedSequence``
initialised with that integer tuple.  Results are therefore
reproducible bit-for-bit for a given master seed and independent of
how work is distributed across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Largest fBm path length we are willing to synthesise.  The circulant
# embedding needs a handful of complex arrays of twice the next power of
# two, so this cap keeps a single path under ~1 GiB of scratch.
MAX_FBM_SLOTS = 1 << 21


@dataclass(frozen=True)
class RateProfile:
    """Sinusoidal expected request rate, requests/second.

    rate(t) = base_rate + sum_k amplitude_k * sin(2*pi*k*(t - phase_k) / period)

    ``components`` holds ``(amplitude, phase)`` pairs for harmonics
    k = 1, 2, ...  The profile must be nonnegative at every slot of one
    full period; construction fails otherwise.
    """

    base_rate: float
    components: tuple = ()
    period: int = 24

    def __post_init__(self):
        if not 0.0 <= self.base_rate < math.inf:
            raise ValueError("base_rate must be finite and nonnegative")
        if self.period < 1:
            raise ValueError("period must be a positive number of slots")
        object.__setattr__(self, "components", tuple((float(a), float(p)) for a, p in self.components))
        if not all(math.isfinite(v) for pair in self.components for v in pair):
            raise ValueError("profile components must be finite")
        slots = np.arange(self.period)
        rates = self.rate(slots)
        bad = np.nonzero(rates < 0.0)[0]
        if bad.size:
            raise ValueError(
                f"rate profile dips below zero at slot {int(bad[0])} "
                f"({rates[bad[0]]:.6g} requests/s)"
            )

    def rate(self, t):
        """Expected rate at slot(s) ``t`` (scalar or array)."""
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.base_rate, dtype=float)
        for k, (amp, phase) in enumerate(self.components, start=1):
            out += amp * np.sin(2.0 * math.pi * k * (t - phase) / self.period)
        return out if out.shape else float(out)


@dataclass(frozen=True)
class BoundedLoadModel:
    """Uniform load noise in a symmetric band around the profile mean."""

    profile: RateProfile
    spread: float
    slot_seconds: float

    def __post_init__(self):
        if not 0.0 <= self.spread <= 1.0:
            raise ValueError("spread must lie in [0, 1]")
        if self.slot_seconds <= 0.0:
            raise ValueError("slot_seconds must be positive")


@dataclass(frozen=True)
class FbmLoadModel:
    """Fractional-Brownian-motion load with trend envelope ``trend``."""

    trend: RateProfile
    alpha: float
    hurst: float
    slot_seconds: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie in (0, 1)")
        if self.slot_seconds <= 0.0:
            raise ValueError("slot_seconds must be positive")


LoadModel = Union[BoundedLoadModel, FbmLoadModel]


@dataclass(frozen=True, eq=False)
class LoadMatrix:
    """Per-SP, per-slot loads in requests.  Shape (n_sp, horizon).

    The InP carries no row: it never consumes capacity.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("loads must be a 2-D (n_sp, horizon) array")
        if (v < 0.0).any():
            raise ValueError("loads must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def n_sp(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[1]


def expected_rate(model: LoadModel, t):
    """Expected request rate of ``model`` at slot(s) ``t``."""
    if isinstance(model, BoundedLoadModel):
        return model.profile.rate(t)
    if isinstance(model, FbmLoadModel):
        t_arr = np.asarray(t, dtype=float)
        env = model.trend.rate(t_arr) * np.power(t_arr, model.hurst) / SQRT_2PI
        return env if env.shape else float(env)
    raise TypeError(f"unsupported load model {type(model).__name__}")


def expected_load(model: LoadModel, t):
    """Expected load (requests) of ``model`` at slot(s) ``t``."""
    return expected_rate(model, t) * model.slot_seconds


def expected_load_matrix(models: Sequence[LoadModel], horizon: int) -> np.ndarray:
    """Stack expected loads into an (n_sp, horizon) array."""
    if horizon < 1:
        raise ValueError("horizon must be at least one slot")
    slots = np.arange(horizon)
    return np.vstack([expected_load(m, slots) for m in models])


def _seed_key(seed) -> tuple:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _substream(seed, *extra) -> np.random.Generator:
    """Independent generator for the integer key ``(*seed, *extra)``."""
    entropy = list(_seed_key(seed)) + [int(e) for e in extra]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _fgn_autocov(hurst: float, lags: np.ndarray) -> np.ndarray:
    """Autocovariance of unit-variance fractional Gaussian noise.

    ``((k+1)**2H - 2*k**2H + (k-1)**2H) / 2`` cancels to a few digits at
    long lags.  With ``x = 1/k`` it equals ``k**2H * (e**s * cosh(d) - 1)``
    for ``s = H*log(1 - x**2)`` and ``d = 2H*atanh(x)``, evaluated below
    without cancellation as ``expm1(s)*cosh(d) + 2*sinh(d/2)**2``.
    """
    k = np.abs(lags).astype(float)
    gamma = (k == 0.0).astype(float)
    if hurst == 0.5:  # white noise; the form below would leave 1e-17 of round-off
        return gamma
    gamma[k == 1.0] = math.expm1((2.0 * hurst - 1.0) * math.log(2.0))
    far = k >= 2.0
    x = 1.0 / k[far]
    s = hurst * np.log1p(-x * x)
    d = 2.0 * hurst * np.arctanh(x)
    gamma[far] = k[far] ** (2.0 * hurst) * (np.expm1(s) * np.cosh(d) + 2.0 * np.sinh(0.5 * d) ** 2)
    return gamma


# One spectrum at MAX_FBM_SLOTS holds 2**22 floats (32 MiB); a few
# entries cover every distinct Hurst exponent of a typical scenario.
@functools.lru_cache(maxsize=4)
def _circulant_eigenvalues(hurst: float, m: int) -> np.ndarray:
    """Read-only spectrum of the fGn circulant embedding of size ``2m``.

    The embedding of fGn is nonnegative definite for every H (Dietrich &
    Newsam, 1997), so round-off dips below zero are clipped; a dip below
    ``-1e-10 * max`` raises ``RuntimeError``.  Memoised per
    ``(hurst, m)``: every draw reuses the same deterministic array.
    """
    gamma = _fgn_autocov(hurst, np.arange(m + 1))
    eig = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if eig.min() < -1e-10 * eig.max():
        raise RuntimeError(
            f"fGn circulant embedding not nonnegative at hurst={hurst}, m={m} "
            f"(min/max eigenvalue {eig.min() / eig.max():.3g})"
        )
    eig = np.clip(eig, 0.0, None)
    eig.flags.writeable = False
    return eig


def _fgn_davies_harte(hurst: float, n: int, rng: np.random.Generator, paths: int) -> np.ndarray:
    """Exact fGn via circulant embedding (Davies-Harte), O(n log n)."""
    m = 1 << max(1, (n - 1).bit_length())
    eig = _circulant_eigenvalues(float(hurst), m)
    two_m = 2 * m
    z = rng.standard_normal((paths, two_m))
    w = np.zeros((paths, two_m), dtype=complex)
    w[:, 0] = math.sqrt(eig[0] / two_m) * z[:, 0]
    w[:, m] = math.sqrt(eig[m] / two_m) * z[:, m]
    scale = np.sqrt(eig[1:m] / (2.0 * two_m))
    w[:, 1:m] = scale * (z[:, 1:m] + 1j * z[:, m + 1:][:, ::-1])
    w[:, m + 1:] = np.conj(w[:, 1:m])[:, ::-1]
    return np.fft.fft(w, axis=1).real[:, :n]


def _fbm_paths(hurst: float, n: int, rng: np.random.Generator, paths: int) -> np.ndarray:
    """``paths`` standard fBm paths over slots 0..n-1 (f_0 = 0 exactly)."""
    if n < 1:
        raise ValueError("need at least one slot")
    if n > MAX_FBM_SLOTS:
        raise ValueError(f"fBm path of {n} slots exceeds the ceiling of {MAX_FBM_SLOTS}")
    out = np.zeros((paths, n))
    if n > 1:
        np.cumsum(_fgn_davies_harte(hurst, n - 1, rng, paths), axis=1, out=out[:, 1:])
    return out


def generate_fbm(hurst: float, n: int, seed) -> np.ndarray:
    """One standard fBm path sampled at integer slots 0..n-1.

    ``Cov(f_s, f_t) = (s**2H + t**2H - |t - s|**2H) / 2`` with ``f_0 = 0``.
    ``seed`` may be an integer, an integer tuple, or a ready Generator.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    rng = seed if isinstance(seed, np.random.Generator) else _substream(seed)
    return _fbm_paths(hurst, n, rng, 1)[0]


def sample_bounded_loads(models: Sequence[BoundedLoadModel], horizon: int, seed) -> LoadMatrix:
    """One joint load realization under the bounded model.

    Player ``i`` consumes the substream keyed ``(*seed, i)``, so the
    matrix is identical regardless of evaluation order.
    """
    for i, m in enumerate(models):
        if not isinstance(m, BoundedLoadModel):
            raise TypeError(f"model {i} is {type(m).__name__}, expected BoundedLoadModel")
    slots = np.arange(horizon)
    rows = []
    for i, m in enumerate(models):
        mean = expected_load(m, slots)
        rng = _substream(seed, i)
        rows.append(rng.uniform((1.0 - m.spread) * mean, (1.0 + m.spread) * mean))
    return LoadMatrix(np.vstack(rows))


def sample_fbm_loads(models: Sequence[FbmLoadModel], horizon: int, seed) -> LoadMatrix:
    """One joint load realization under the fBm model."""
    for i, m in enumerate(models):
        if not isinstance(m, FbmLoadModel):
            raise TypeError(f"model {i} is {type(m).__name__}, expected FbmLoadModel")
    slots = np.arange(horizon)
    rows = []
    for i, m in enumerate(models):
        rng = _substream(seed, i)
        path = _fbm_paths(m.hurst, horizon, rng, 1)[0]
        envelope = np.power(slots.astype(float), m.hurst) / SQRT_2PI
        rate = m.trend.rate(slots) * ((1.0 - m.alpha) * envelope + m.alpha * np.maximum(path, 0.0))
        rows.append(rate * m.slot_seconds)
    return LoadMatrix(np.vstack(rows))


def sample_loads(models: Sequence[LoadModel], horizon: int, seed) -> LoadMatrix:
    """Dispatch to the sampler matching the (homogeneous) model kind."""
    if not models:
        raise ValueError("need at least one load model")
    if isinstance(models[0], BoundedLoadModel):
        return sample_bounded_loads(models, horizon, seed)
    return sample_fbm_loads(models, horizon, seed)
