"""Traffic descriptions and demand sampling.

Expected demand follows a periodic (daily) sinusoidal profile, evaluated
once over its period: every later slot repeats it exactly.  On top of
the profile two uncertainty models are supported:

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

A model describes rates only.  Loads are requests per slot, ``rate *
slot_seconds``, with the one slot length passed in where they are made; a
``LoadMatrix`` is the record of one draw, and nothing re-checks it.  The
demand formulas live here alone: ``RateProfile.rate_bound``, the period's
peak, bounds the rate at every slot, and each model's ``load_bound`` reads
it.  ``Scenario``, which holds the horizon and the slot length, refuses a
bound that is not finite with the model's ``OVERFLOW`` text.

Every fBm draw is one path: fractional Gaussian noise drawn exactly by
Davies-Harte circulant embedding, cumulated by ``generate_fbm``.  A draw
weights the Hermitian half of the spectrum (``m + 1`` complex entries
for an embedding of ``2m``) and runs one real inverse FFT; the
spectrum's square roots are memoised per ``(H, m)``, and each thread
reuses its normal and half-spectrum buffers from one draw to the next.
Each model also keeps the deterministic rows of its last horizon and
slot length, read-only: the bounded band's lower edge and width, or the
fBm trend and smooth envelope term.

Randomness contract: every sampler derives one independent substream
per (seed, realization, player) through ``numpy.random.SeedSequence``
initialised with that integer tuple.  Results are therefore
reproducible bit-for-bit for a given master seed and independent of
how work is distributed across threads.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Largest fBm path length we are willing to synthesise.  A draw needs a
# few arrays of twice the next power of two (2**22 floats, 32 MiB, here),
# so this cap keeps a single path under ~200 MiB of working memory.
MAX_FBM_SLOTS = 1 << 21


@dataclass(frozen=True)
class RateProfile:
    """Periodic expected request rate, requests/second.

    rate(t) = base_rate + sum_k amplitude_k * sin(2*pi*k*(t - phase_k) / period)

    ``components`` holds ``(amplitude, phase)`` pairs for harmonics
    k = 1, 2, ...  The profile is evaluated once, over slots
    ``0..period-1``, and every slot ``t`` reads slot ``t mod period`` of
    that read-only array, so the profile repeats exactly.  It refuses by name
    a ``base_rate`` that is negative or not finite, a component that is not
    finite (``components[k]``), a ``period`` that is no integer in
    ``1..MAX_FBM_SLOTS`` (checked before allocating; ``bool`` is refused),
    and a rate that is negative or not finite at some slot of the period.
    """

    base_rate: float
    components: tuple = ()
    period: int = 24
    _rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.base_rate < math.inf:
            raise ValueError("base_rate must be finite and nonnegative")
        object.__setattr__(self, "components", tuple((float(a), float(p)) for a, p in self.components))
        for k, pair in enumerate(self.components):
            if not all(map(math.isfinite, pair)):
                raise ValueError(f"components[{k}]: amplitude and phase must be finite")
        if isinstance(self.period, bool) or not isinstance(self.period, (int, np.integer)) or self.period < 1:
            raise ValueError("period must be a positive integer number of slots")
        if self.period > MAX_FBM_SLOTS:
            raise ValueError(f"period of {self.period} slots exceeds the ceiling of {MAX_FBM_SLOTS}")
        t = np.arange(self.period, dtype=float)
        rates = np.full(self.period, self.base_rate)
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (amp, phase) in enumerate(self.components, start=1):
                rates += amp * np.sin(2.0 * math.pi * k * (t - phase) / self.period)
        bad = np.nonzero(~np.isfinite(rates))[0]
        if bad.size:
            raise ValueError(f"rate profile is not finite at slot {int(bad[0])}")
        bad = np.nonzero(rates < 0.0)[0]
        if bad.size:
            raise ValueError(
                f"rate profile dips below zero at slot {int(bad[0])} "
                f"({rates[bad[0]]:.6g} requests/s)"
            )
        rates.flags.writeable = False
        object.__setattr__(self, "_rates", rates)

    @property
    def rate_bound(self) -> float:
        """The period's peak rate: every slot repeats the period, so no slot's rate exceeds it."""
        return float(self._rates.max())

    def rate(self, t):
        """Expected rate at integer slot(s) ``t`` (scalar or array); a non-integer slot is refused."""
        slots = np.asarray(t).astype(np.intp, casting="safe")
        out = self._rates[slots % self.period]
        return out if out.shape else float(out)


@dataclass(frozen=True)
class BoundedLoadModel:
    """Uniform load noise in a symmetric band around the profile mean."""

    profile: RateProfile
    spread: float

    # ``Scenario``'s refusal when ``load_bound`` is not finite
    OVERFLOW = "load band overflows: (1 + spread) * peak rate * slot_seconds is not finite"

    def __post_init__(self):
        if not 0.0 <= self.spread <= 1.0:
            raise ValueError("spread must lie in [0, 1]")

    def expected_rate(self, t):
        """Expected request rate at slot(s) ``t``."""
        return self.profile.rate(t)

    def load_bound(self, slots: int, slot_seconds: float) -> float:
        """``(1 + spread) * rate_bound * slot_seconds``, the band's top at every slot of any horizon;
        in Python floats, so an overflow gives inf without a RuntimeWarning."""
        return (1.0 + self.spread) * (self.profile.rate_bound * slot_seconds)

    def sample(self, slots: int, slot_seconds: float, rng: np.random.Generator) -> np.ndarray:
        """One load row over ``slots`` slots: ``U * width + low``, rounded as ``rng.uniform`` does."""
        low, width = _cached_rows(self, slots, slot_seconds, self._rows)
        load = rng.random(slots)
        load *= width
        load += low
        return load

    def _rows(self, t: np.ndarray, slot_seconds: float) -> tuple:
        """The band's lower edge ``(1 - spread) * mean`` and its width ``(1 + spread) * mean - low``."""
        mean = self.expected_rate(t) * slot_seconds
        low = (1.0 - self.spread) * mean
        return low, (1.0 + self.spread) * mean - low


@dataclass(frozen=True)
class FbmLoadModel:
    """Fractional-Brownian-motion load with trend envelope ``trend``."""

    trend: RateProfile
    alpha: float
    hurst: float

    # ``Scenario``'s refusal when ``load_bound`` is not finite
    OVERFLOW = (
        "expected load overflows at {slots} slots: "
        "peak rate * (horizon - 1)**hurst / sqrt(2*pi) * slot_seconds is not finite"
    )

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie in (0, 1)")

    def expected_rate(self, t):
        """Expected request rate at integer slot(s) ``t``: trend times ``t**H / sqrt(2*pi)``."""
        env = self.trend.rate(t) * np.power(t, self.hurst) / SQRT_2PI
        return env if env.shape else float(env)

    def load_bound(self, slots: int, slot_seconds: float) -> float:
        """``rate_bound * (slots - 1)**H / sqrt(2*pi) * slot_seconds`` bounds the expected load over
        ``slots`` slots; in Python floats, so an overflow gives inf without a RuntimeWarning.

        The power is numpy's, as in ``expected_rate``: it can differ from ``math.pow`` by an ulp,
        and it does not fall as ``t`` grows.
        """
        envelope = float(np.power([slots - 1.0], self.hurst)[0])
        return self.trend.rate_bound * envelope / SQRT_2PI * slot_seconds

    def sample(self, slots: int, slot_seconds: float, rng: np.random.Generator) -> np.ndarray:
        """One load row over ``slots`` slots from one fBm path.

        ``trend * ((1 - alpha) * envelope + alpha * max(0, path)) * slot_seconds``,
        evaluated in place on the fresh path.
        """
        trend, smooth = _cached_rows(self, slots, slot_seconds, self._rows)
        load = generate_fbm(self.hurst, slots, rng)
        np.maximum(load, 0.0, out=load)
        load *= self.alpha
        load += smooth
        load *= trend
        load *= slot_seconds
        return load

    def _rows(self, t: np.ndarray, slot_seconds: float) -> tuple:
        """The trend rate and the smooth part ``(1 - alpha) * t**H / sqrt(2*pi)``."""
        envelope = np.power(t, self.hurst) / SQRT_2PI
        return self.trend.rate(t), (1.0 - self.alpha) * envelope


LoadModel = Union[BoundedLoadModel, FbmLoadModel]


@dataclass(frozen=True, eq=False)
class LoadMatrix:
    """One draw's per-SP, per-slot loads in requests, shape (n_sp, horizon), kept
    as drawn: nothing re-checks them.  The InP carries no row.
    """

    values: np.ndarray


def _cached_rows(model: LoadModel, slots: int, slot_seconds: float, build) -> tuple:
    """``build(np.arange(slots), slot_seconds)``, memoised on ``model`` for its last
    ``(slots, slot_seconds)``.

    Every draw of a model over one horizon reuses the same deterministic
    rows, so they are computed once and frozen read-only.  One entry per
    model keeps the memory at a few rows per SP.
    """
    key = (slots, slot_seconds)
    hit = model.__dict__.get("_rows_cache")
    if hit is not None and hit[0] == key:
        return hit[1]
    rows = build(np.arange(slots), slot_seconds)
    for row in rows:
        row.flags.writeable = False
    object.__setattr__(model, "_rows_cache", (key, rows))
    return rows


def expected_load_matrix(models: Sequence[LoadModel], horizon: int, slot_seconds: float) -> np.ndarray:
    """Expected loads (requests) of ``models`` over slots of ``slot_seconds``, an (n_sp, horizon) array."""
    if horizon < 1:
        raise ValueError("horizon must be at least one slot")
    slots = np.arange(horizon)
    return np.vstack([m.expected_rate(slots) * slot_seconds for m in models])


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


# One spectrum at MAX_FBM_SLOTS holds 2**21 + 1 floats (16 MiB); a few
# entries cover every distinct Hurst exponent of a typical scenario.
@functools.lru_cache(maxsize=4)
def _circulant_roots(hurst: float, m: int) -> np.ndarray:
    """Read-only scaled square roots of the fGn circulant spectrum, size ``2m``.

    Entry ``k`` of the returned ``m + 1`` is ``sqrt(eig_k / 2m)`` at
    ``k = 0, m`` and ``sqrt(eig_k / 4m)`` in between, the Davies-Harte
    weights of the Hermitian half.  The embedding of fGn is nonnegative
    definite for every H (Dietrich & Newsam, 1997), so round-off dips
    below zero are clipped; a dip below ``-1e-10 * max`` raises
    ``RuntimeError``.  Memoised per ``(hurst, m)``: every draw reuses
    the same deterministic array.
    """
    gamma = _fgn_autocov(hurst, np.arange(m + 1))
    eig = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if eig.min() < -1e-10 * eig.max():
        raise RuntimeError(
            f"fGn circulant embedding not nonnegative at hurst={hurst}, m={m} "
            f"(min/max eigenvalue {eig.min() / eig.max():.3g})"
        )
    eig = np.clip(eig[: m + 1], 0.0, None)
    two_m = 2 * m
    roots = np.sqrt(eig / (2.0 * two_m))
    roots[[0, m]] = np.sqrt(eig[[0, m]] / two_m)
    roots.flags.writeable = False
    return roots


# Per-thread draw buffers, reused while the embedding size stays the same.
_draw_local = threading.local()


def _draw_buffers(m: int):
    """This thread's ``2m`` normals and Hermitian half of ``m + 1`` entries.

    The imaginary parts of the half's first and last entries are never
    written, so they stay zero.
    """
    if getattr(_draw_local, "m", None) != m:
        _draw_local.z = np.empty(2 * m)
        _draw_local.half = np.zeros(m + 1, dtype=complex)
        _draw_local.m = m
    return _draw_local.z, _draw_local.half


def _fgn_davies_harte(hurst: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact fGn via circulant embedding (Davies-Harte), O(n log n).

    ``2m`` standard normals weight the spectrum's Hermitian half
    ``w_k = r_k * (z_k + i * z_{2m-k})`` (real at ``k = 0, m``).  One
    real inverse FFT of length ``2m`` of its conjugate equals the real
    part of the full complex FFT of the Hermitian-extended ``w``.
    """
    m = 1 << max(1, (n - 1).bit_length())
    roots = _circulant_roots(float(hurst), m)
    z, half = _draw_buffers(m)
    rng.standard_normal(out=z)
    np.multiply(z[: m + 1], roots, out=half.real)
    imag = half.imag[1:m]
    np.multiply(z[:m:-1], roots[1:m], out=imag)
    np.negative(imag, out=imag)
    return np.fft.irfft(half, n=2 * m, norm="forward")[:n]


def generate_fbm(hurst: float, n: int, seed) -> np.ndarray:
    """One standard fBm path sampled at integer slots 0..n-1.

    ``Cov(f_s, f_t) = (s**2H + t**2H - |t - s|**2H) / 2`` with ``f_0 = 0``.
    ``seed`` may be an integer, an integer tuple, or a ready Generator.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    if n < 1:
        raise ValueError("need at least one slot")
    if n > MAX_FBM_SLOTS:
        raise ValueError(f"fBm path of {n} slots exceeds the ceiling of {MAX_FBM_SLOTS}")
    rng = seed if isinstance(seed, np.random.Generator) else _substream(seed)
    out = np.zeros(n)
    if n > 1:
        np.cumsum(_fgn_davies_harte(hurst, n - 1, rng), out=out[1:])
    return out


def sample_loads(models: Sequence[LoadModel], horizon: int, slot_seconds: float, seed) -> LoadMatrix:
    """One joint load realization over slots of ``slot_seconds``, one row per model.

    Model ``i`` consumes the substream keyed ``(*seed, i)``, so the
    matrix is identical regardless of evaluation order.
    """
    if not models:
        raise ValueError("need at least one load model")
    rows = [m.sample(horizon, slot_seconds, _substream(seed, i)) for i, m in enumerate(models)]
    return LoadMatrix(np.vstack(rows))
