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
Davies-Harte circulant embedding, then cumulated.  A draw weights the
Hermitian half of the spectrum (``m + 1`` complex entries for an
embedding of ``2m``) and runs one real inverse FFT; each thread reuses
its normal and half-spectrum buffers from one draw to the next.  The
embedding's first row is real and symmetric, so its spectrum is one real
FFT of that row, the ``m + 1`` eigenvalues the draws weight; their square
roots are built in place, before any draw, and memoised per ``(H, m)``.
A model keeps nothing of its draws: its ``draw_rows`` are the read-only
rows of one horizon and slot length (the bounded band's lower edge and
width, or the fBm trend, smooth term, spectrum roots and slot length),
built once by the caller and handed to each draw with its generator.
``generate_fbm`` draws a standalone path from the same memoised spectrum.

Randomness contract: a key is an integer tuple such as ``(seed,
realization)``; ``sample_loads`` draws model ``i`` from the substream of
``numpy.random.SeedSequence((*key, i))``, and ``generate_fbm`` from the
``Generator`` it is given.  Output is therefore bit-for-bit reproducible
per master seed and independent of how work is spread across threads.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Largest fBm path length we are willing to synthesise.  Its embedding has
# 2**22 entries: at this cap the spectrum build peaks at 80 MiB under
# ``tracemalloc`` (its real row, 32 MiB, and the autocovariance's three
# scratch rows of 16 MiB), one model's ``draw_rows`` at 96 MiB and
# one ``sample`` at 113 MiB above its rows (a draw's normals, half spectrum
# and inverse FFT), and the peak resident set of a fresh process grows by
# 224 MiB, numpy's FFT scratch and plans included (python 3.11, numpy 2.4,
# x86-64; 10 processes, each reading its own ``VmHWM``).
MAX_FBM_SLOTS = 1 << 21


def _is_real(x) -> bool:
    """Whether ``x`` is a real number: a Python or numpy int or float, never a ``bool``."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """``math.isfinite(x)``, but ``False`` for an int too large for a float, where that raises."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class RateProfile:
    """Periodic expected request rate, requests/second.

    rate(t) = base_rate + sum_k amplitude_k * sin(2*pi*k*(t - phase_k) / period)

    ``components`` holds ``(amplitude, phase)`` pairs for harmonics
    k = 1, 2, ...  The profile is evaluated once, over slots
    ``0..period-1``, and every slot ``t`` reads slot ``t mod period`` of
    that read-only array, so the profile repeats exactly.  It refuses by name
    a ``base_rate`` that is no real number, negative or not finite, a
    component that is no pair of finite real numbers (``components[k]``), a
    ``period`` that is no integer in ``1..MAX_FBM_SLOTS`` (checked before
    allocating), and a rate that is negative or not finite at some slot of
    the period.  ``bool`` is no number here.
    """

    base_rate: float
    components: tuple = ()
    period: int = 24
    _rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_real(self.base_rate):
            raise ValueError(f"base_rate must be a real number, not {type(self.base_rate).__name__}")
        if not (_is_finite(self.base_rate) and self.base_rate >= 0.0):
            raise ValueError("base_rate must be finite and nonnegative")
        components = tuple(self.components)  # one pass over it, should it be an iterator
        for k, pair in enumerate(components):
            if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2 and all(map(_is_real, pair))):
                raise ValueError(f"components[{k}]: expected an (amplitude, phase) pair of real numbers")
            if not all(map(_is_finite, pair)):
                raise ValueError(f"components[{k}]: amplitude and phase must be finite")
        object.__setattr__(self, "base_rate", float(self.base_rate))
        object.__setattr__(self, "components", tuple((float(a), float(p)) for a, p in components))
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


def _check_types(model, profile: str, *numbers: str):
    """Refuse by name a field ``profile`` of ``model`` that is no ``RateProfile``, or a field of
    ``numbers`` that is no real number (``bool`` is none)."""
    value = getattr(model, profile)
    if not isinstance(value, RateProfile):
        raise ValueError(f"{profile} must be a RateProfile, not {type(value).__name__}")
    for name in numbers:
        value = getattr(model, name)
        if not _is_real(value):
            raise ValueError(f"{name} must be a real number, not {type(value).__name__}")


def _read_only(*rows: np.ndarray) -> tuple:
    """``rows``, each frozen read-only, as every draw of a call shares them."""
    for row in rows:
        row.flags.writeable = False
    return rows


@dataclass(frozen=True)
class BoundedLoadModel:
    """Uniform load noise in a symmetric band around the profile mean.

    Refuses by name a ``profile`` that is no ``RateProfile`` and a ``spread``
    that is no real number or lies outside ``[0, 1]``.
    """

    profile: RateProfile
    spread: float

    # ``Scenario``'s refusal when ``load_bound`` is not finite
    OVERFLOW = "load band overflows: (1 + spread) * peak rate * slot_seconds is not finite"

    def __post_init__(self):
        _check_types(self, "profile", "spread")
        if not 0.0 <= self.spread <= 1.0:
            raise ValueError("spread must lie in [0, 1]")

    def expected_rate(self, t):
        """Expected request rate at slot(s) ``t``."""
        return self.profile.rate(t)

    def load_bound(self, slots: int, slot_seconds: float) -> float:
        """``(1 + spread) * rate_bound * slot_seconds``, the band's top at every slot of any horizon;
        in Python floats, so an overflow gives inf without a RuntimeWarning."""
        return (1.0 + self.spread) * (self.profile.rate_bound * slot_seconds)

    def draw_rows(self, slots: int, slot_seconds: float) -> tuple:
        """The band's lower edge ``(1 - spread) * mean`` and its width ``(1 + spread) * mean - low``
        over ``slots`` slots, read-only."""
        mean = self.expected_rate(np.arange(slots)) * slot_seconds
        low = (1.0 - self.spread) * mean
        return _read_only(low, (1.0 + self.spread) * mean - low)

    def sample(self, rows: tuple, rng: np.random.Generator) -> np.ndarray:
        """One load row from ``draw_rows``' ``rows``: ``U * width + low``, rounded as ``rng.uniform`` does."""
        low, width = rows
        load = rng.random(low.size)
        load *= width
        load += low
        return load


@dataclass(frozen=True)
class FbmLoadModel:
    """Fractional-Brownian-motion load with trend envelope ``trend``.

    Refuses by name a ``trend`` that is no ``RateProfile``, and an ``alpha``
    or ``hurst`` that is no real number or lies outside its range.
    """

    trend: RateProfile
    alpha: float
    hurst: float

    # ``Scenario``'s refusal when ``load_bound`` is not finite
    OVERFLOW = (
        "expected load overflows at {slots} slots: "
        "peak rate * (horizon - 1)**hurst / sqrt(2*pi) * slot_seconds is not finite"
    )

    def __post_init__(self):
        _check_types(self, "trend", "alpha", "hurst")
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

    def draw_rows(self, slots: int, slot_seconds: float) -> tuple:
        """Read-only trend rate, smooth part ``(1 - alpha) * t**H / sqrt(2*pi)`` and memoised spectrum
        roots over ``slots`` slots, so no draw builds one, and 0-d ``slot_seconds``, multiplied in last."""
        roots = _fbm_roots(self.hurst, slots)  # first, so its build's temporaries meet no other row
        t = np.arange(slots)
        envelope = np.power(t, self.hurst) / SQRT_2PI
        return _read_only(self.trend.rate(t), (1.0 - self.alpha) * envelope, roots, np.array(float(slot_seconds)))

    def sample(self, rows: tuple, rng: np.random.Generator) -> np.ndarray:
        """One load row from ``draw_rows``' ``rows`` and one fBm path drawn with their spectrum.

        ``trend * ((1 - alpha) * envelope + alpha * max(0, path)) * slot_seconds``,
        evaluated in place on the fresh path.
        """
        trend, smooth, roots, slot_seconds = rows
        load = _fbm_path(roots, trend.size, rng)
        np.maximum(load, 0.0, out=load)
        load *= self.alpha
        load += smooth
        load *= trend
        load *= slot_seconds
        return load


LoadModel = Union[BoundedLoadModel, FbmLoadModel]


@dataclass(frozen=True, eq=False)
class LoadMatrix:
    """One draw's per-SP, per-slot loads in requests, shape (n_sp, horizon), kept
    as drawn: nothing re-checks them.  The InP carries no row.
    """

    values: np.ndarray


def expected_load_matrix(models: Sequence[LoadModel], horizon: int, slot_seconds: float) -> np.ndarray:
    """Expected loads (requests) of ``models`` over slots of ``slot_seconds``, an (n_sp, horizon) array."""
    if horizon < 1:
        raise ValueError("horizon must be at least one slot")
    slots = np.arange(horizon)
    return np.vstack([m.expected_rate(slots) * slot_seconds for m in models])


def _substream(key: tuple, *extra) -> np.random.Generator:
    """Independent generator for the integer key ``(*key, *extra)``."""
    entropy = [int(e) for e in (*key, *extra)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _fgn_autocov(hurst: float, out: np.ndarray) -> np.ndarray:
    """Autocovariance of unit-variance fractional Gaussian noise at lags
    ``0 .. out.size - 1``, written into ``out`` (two entries or more) and
    returned.

    ``((k+1)**2H - 2*k**2H + (k-1)**2H) / 2`` cancels to a few digits at
    long lags.  With ``x = 1/k`` it equals ``k**2H * (e**s * cosh(d) - 1)``
    for ``s = H*log(1 - x**2)`` and ``d = 2H*atanh(x)``, evaluated below
    without cancellation as ``expm1(s)*cosh(d) + 2*sinh(d/2)**2``.  The lags
    from 2 on take three scratch rows of their length, which hold ``d``,
    ``s`` and ``cosh(d)`` while ``out`` holds ``k**2H``: the formula needs
    all four at once.  Every transcendental runs on a scratch row, so the
    bits do not depend on the layout of ``out``; ``_circulant_spectrum``
    passes the contiguous head of its row.
    """
    out[0] = 1.0
    if hurst == 0.5:  # white noise; the form below would leave 1e-17 of round-off
        out[1:] = 0.0
        return out
    out[1] = math.expm1((2.0 * hurst - 1.0) * math.log(2.0))
    far = out[2:]
    k = np.arange(2.0, out.size)
    x = np.divide(1.0, k)
    k **= 2.0 * hurst
    far[...] = k
    d = np.arctanh(x, out=k)
    d *= 2.0 * hurst
    s = np.multiply(x, x, out=x)
    np.negative(s, out=s)
    np.log1p(s, out=s)
    s *= hurst
    np.expm1(s, out=s)
    t = np.cosh(d)
    s *= t
    np.multiply(d, 0.5, out=t)
    np.sinh(t, out=t)
    np.square(t, out=t)
    t *= 2.0
    s += t
    far *= s
    return out


def _circulant_spectrum(hurst: float, m: int) -> np.ndarray:
    """Eigenvalues ``0..m`` of the fGn circulant embedding of size ``2m``: the real FFT of the
    autocovariance at lags ``0..m`` followed by its mirror, lags ``m-1..1``.

    The embedding's row is real and symmetric, so its spectrum is real and
    its entries ``m+1..2m-1`` mirror ``1..m-1``: the autocovariance and its
    mirror are written into one real array of ``2m`` floats, and one real
    FFT gives the ``m + 1`` eigenvalues a draw weights.  The result is a
    view of that FFT's ``m + 1`` complex entries.
    """
    row = np.empty(2 * m)
    _fgn_autocov(hurst, row[: m + 1])
    row[m + 1:] = row[m - 1:0:-1]
    return np.fft.rfft(row).real


# One spectrum at MAX_FBM_SLOTS holds 2**21 + 1 floats (16 MiB); a few
# entries cover every distinct Hurst exponent of a typical scenario.
@functools.lru_cache(maxsize=4)
def _circulant_roots(hurst: float, m: int) -> np.ndarray:
    """Read-only scaled square roots of the fGn circulant spectrum, size ``2m``, from the real
    FFT of ``_circulant_spectrum``.

    Entry ``k`` of the returned ``m + 1`` is ``sqrt(eig_k / 2m)`` at
    ``k = 0, m`` and ``sqrt(eig_k / 4m)`` in between, the Davies-Harte
    weights of the Hermitian half, taken in place.  The embedding of fGn is
    nonnegative definite for every H (Dietrich & Newsam, 1997), so round-off
    dips below zero are clipped; a dip below ``-1e-10 * max`` raises
    ``RuntimeError``.  Memoised per ``(hurst, m)``: every draw reuses the
    same deterministic array.  A build at ``m = 2**17`` peaks at 5.0 MiB
    under ``tracemalloc``: the real row of ``2m`` floats and the
    autocovariance's three scratch rows of ``m``.
    """
    eig = _circulant_spectrum(hurst, m)
    if eig.min() < -1e-10 * eig.max():
        raise RuntimeError(
            f"fGn circulant embedding not nonnegative at hurst={hurst}, m={m} "
            f"(min/max eigenvalue {eig.min() / eig.max():.3g})"
        )
    roots = np.clip(eig, 0.0, None)
    del eig  # the complex FFT it views
    two_m = 2 * m
    ends = np.sqrt(roots[[0, m]] / two_m)
    roots /= 2.0 * two_m
    np.sqrt(roots, out=roots)
    roots[[0, m]] = ends
    roots.flags.writeable = False
    return roots


def _fbm_roots(hurst: float, n: int) -> np.ndarray:
    """The memoised spectrum roots an fBm path of ``n`` slots is drawn with; ``n`` outside
    ``1..MAX_FBM_SLOTS`` is refused before anything is built."""
    if n < 1:
        raise ValueError("need at least one slot")
    if n > MAX_FBM_SLOTS:
        raise ValueError(f"fBm path of {n} slots exceeds the ceiling of {MAX_FBM_SLOTS}")
    return _circulant_roots(float(hurst), _embedding_size(n - 1))


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


def _embedding_size(n: int) -> int:
    """Half the circulant embedding's size for ``n`` fGn steps: the least power of two >= ``max(n, 2)``."""
    return 1 << max(1, (n - 1).bit_length())


def _fgn_davies_harte(roots: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact fGn of ``n`` steps via circulant embedding (Davies-Harte), O(n log n), weighted by
    the ``m + 1`` spectrum ``roots`` of an embedding of ``2m >= n``.

    ``2m`` standard normals weight the spectrum's Hermitian half
    ``w_k = r_k * (z_k + i * z_{2m-k})`` (real at ``k = 0, m``).  One
    real inverse FFT of length ``2m`` of its conjugate equals the real
    part of the full complex FFT of the Hermitian-extended ``w``.
    """
    m = roots.size - 1
    z, half = _draw_buffers(m)
    rng.standard_normal(out=z)
    np.multiply(z[: m + 1], roots, out=half.real)
    imag = half.imag[1:m]
    np.multiply(z[:m:-1], roots[1:m], out=imag)
    np.negative(imag, out=imag)
    return np.fft.irfft(half, n=2 * m, norm="forward")[:n]


def _fbm_path(roots: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """An fBm path of ``n`` slots from ``_fbm_roots(hurst, n)``: 0, then the cumulated fGn."""
    out = np.zeros(n)
    if n > 1:
        np.cumsum(_fgn_davies_harte(roots, n - 1, rng), out=out[1:])
    return out


def generate_fbm(hurst: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """One standard fBm path sampled at integer slots 0..n-1, drawn from ``rng``.

    ``Cov(f_s, f_t) = (s**2H + t**2H - |t - s|**2H) / 2`` with ``f_0 = 0``.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    return _fbm_path(_fbm_roots(hurst, n), n, rng)


def sample_loads(models: Sequence[LoadModel], rows: Sequence[tuple], key: tuple) -> LoadMatrix:
    """One joint load realization, model ``i`` drawn from its ``rows[i]``, which fix the slot length.

    Model ``i`` consumes the substream keyed ``(*key, i)``, so the
    matrix is identical regardless of evaluation order.
    """
    if not models:
        raise ValueError("need at least one load model")
    pairs = enumerate(zip(models, rows, strict=True))
    return LoadMatrix(np.vstack([m.sample(r, _substream(key, i)) for i, (m, r) in pairs]))
