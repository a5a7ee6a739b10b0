"""Slow, direct pricing of the model, for the tests to check the engine against.

Every function walks the horizon slot by slot in plain Python and prices
a share ``h`` at load ``l`` as ``beta * l * (1 - math.exp(-xi * h))``,
the paper's utility written out, so it shares no arithmetic with
``economics.utility``.  Capacity is priced by ``economics.cost``, and
loads come from the engine's samplers and expected-load rows: drawing
is not pricing.  ``first_overflow`` finds the first realization whose
drawn loads, or their revenue so priced, are not finite.  Shapley
payoffs average marginal contributions over every join order, and
settlement follows the ``montecarlo`` docstring.
The stability chain, sigma-hat, delta-hat and the Hoeffding bound, walks
the coalitions and players one by one, and so do the supermodularity and
core checks; ``least_core_value`` solves the least-core LP exactly.
``brute_force_plan`` plans a coalition without the engine's water-filling:
it tries every active set of every slot and bisects on the capacity.
``circulant_spectrum`` is the definition of the fBm sampler's spectrum:
the autocovariance ``fgn_autocov`` at any lags, concatenated with its
mirror and passed to a complex FFT, all ``2m`` eigenvalues.
``real_circulant_spectrum`` and ``circulant_roots`` build the same
eigenvalues ``0..m`` by the allocating formula the engine's build must
match bit for bit: the same row passed to a real FFT.
"""

import itertools
import math

import numpy as np

from coinvest import cost
from coinvest.traffic import expected_load_matrix, sample_loads


def utilities(params, loads, shares) -> list:
    """One list per SP of its per-slot utilities ``beta * l * (1 - exp(-xi * h))``."""
    xi = params.saturation
    return [
        [beta * load * (1.0 - math.exp(-xi * share)) for load, share in zip(load_row, share_row)]
        for beta, load_row, share_row in zip(params.benefits, np.asarray(loads).tolist(), shares.tolist())
    ]


def sp_revenues(plan, loads, params) -> list:
    """Revenue each SP collects under ``plan`` at ``loads``, summed slot by slot."""
    return [sum(row) for row in utilities(params, loads, plan.shares)]


def first_overflow(scenario, plans, seed, n_realizations):
    """The first of ``n_realizations`` draws, keyed ``(seed, omega)`` as the engine keys them, whose
    loads, or whose revenue under any of ``plans``, are not finite; None when every one is.

    Each draw comes from ``sample_loads`` over the scenario's ``draw_rows`` and is priced by
    ``sp_revenues`` in Python floats, which overflow to inf without a warning."""
    rows = [m.draw_rows(scenario.horizon, scenario.params.slot_seconds) for m in scenario.models]
    for omega in range(n_realizations):
        with np.errstate(over="ignore"):  # an overflow leaves inf, caught below
            loads = sample_loads(scenario.models, rows, (seed, omega)).values
        if not np.isfinite(loads).all():
            return omega
        if not all(math.isfinite(sum(sp_revenues(p, loads, scenario.params))) for p in plans):
            return omega
    return None


def value(plan, loads, params) -> float:
    """Coalition value of ``plan`` at ``loads``: revenue minus installed cost."""
    return sum(sp_revenues(plan, loads, params)) - cost(params, plan.capacity)


def values(plans, loads, params) -> list:
    """``value`` of every plan, in order."""
    return [value(p, loads, params) for p in plans]


def utility_ranges(plan, models, params) -> list:
    """Per-player rows of each slot's utility width under the bounded model.

    A load uniform on ``mean * (1 -/+ spread)`` moves the utility, linear
    in the load, over the utility of the width ``2 * spread * mean``.
    Row 0 is the InP's, all zero.
    """
    horizon = plan.shares.shape[1]
    means = expected_load_matrix(models, horizon, params.slot_seconds).tolist()
    widths = [[2.0 * m.spread * mean for mean in row] for m, row in zip(models, means)]
    return [[0.0] * horizon] + utilities(params, widths, plan.shares)


def payback_slot(plan, loads, params):
    """First slot whose running revenue covers the installed cost, or None."""
    installed = cost(params, plan.capacity)
    running = 0.0
    for t, slot in enumerate(zip(*utilities(params, loads, plan.shares))):
        running += sum(slot)
        if running >= installed:
            return t
    return None


def shapley(values, n_players) -> list:
    """Each player's mean marginal contribution over all ``n_players!`` join orders.

    ``values[bits]`` is the value of the coalition whose members' bits are set.
    """
    totals = [0.0] * n_players
    orders = list(itertools.permutations(range(n_players)))
    for order in orders:
        bits = 0
        for player in order:
            totals[player] += values[bits | 1 << player] - values[bits]
            bits |= 1 << player
    return [total / len(orders) for total in totals]


def members(bits, n_players) -> list:
    return [i for i in range(n_players) if bits >> i & 1]


def sigma_hat(values, payoff) -> float:
    """Worst surplus of ``payoff`` over the proper nonempty coalitions S:
    ``min_S sum_{i in S} payoff_i - values[S]``."""
    n_players = len(payoff)
    return min(
        sum(payoff[i] for i in members(bits, n_players)) - values[bits] for bits in range(1, (1 << n_players) - 1)
    )


def deviation_threshold(values, sigma, n_players) -> float:
    """delta-hat at surplus level ``sigma``, coalition by coalition.

    With grand value ``v``: zero when ``v <= 0``.  Otherwise each proper
    nonempty S of size k has ``d_S = k + (n - 2k) * (values[S] + sigma) / v``,
    and delta-hat is ``v / n``, capped by ``sigma / max_S d_S`` when that
    maximum is positive, and floored at zero.
    """
    grand_value = values[(1 << n_players) - 1]
    if grand_value <= 0.0:
        return 0.0
    worst = -math.inf
    for bits in range(1, (1 << n_players) - 1):
        size = len(members(bits, n_players))
        worst = max(worst, size + (n_players - 2 * size) * (values[bits] + sigma) / grand_value)
    bound = grand_value / n_players
    if worst > 0.0:
        bound = min(bound, sigma / worst)
    return max(0.0, bound)


def supermodularity_violations(values, n_players, tolerance=0.0) -> list:
    """``(player, inner, outer, deficit)`` for each pair ``inner`` ⊆ ``outer`` and
    ``player`` outside ``outer`` whose marginal gain on ``outer`` falls short of its
    gain on ``inner`` by more than ``tolerance``; ``deficit`` is the (negative) difference."""
    out = []
    for player in range(n_players):
        bit = 1 << player
        for outer in range(1 << n_players):
            if outer & bit:
                continue
            for inner in range(outer):
                if not set(members(inner, n_players)) <= set(members(outer, n_players)):
                    continue
                deficit = values[outer | bit] - values[outer] - (values[inner | bit] - values[inner])
                if deficit < -tolerance:
                    out.append((player, inner, outer, float(deficit)))
    return out


def core_violations(values, payoff, tolerance=0.0) -> list:
    """``(bits, surplus)`` of each proper nonempty coalition whose members' payoffs fall
    short of ``values[bits]`` by more than ``tolerance``, led by the grand coalition when
    the payoffs miss its value by more than ``max(tolerance, 1e-9 * max(1, |grand value|))``."""
    n_players = len(payoff)
    grand = (1 << n_players) - 1
    surplus = [sum(payoff[i] for i in members(bits, n_players)) - values[bits] for bits in range(grand + 1)]
    out = []
    if abs(surplus[grand]) > max(tolerance, 1e-9 * max(1.0, abs(values[grand]))):
        out.append((grand, float(surplus[grand])))
    out += [(bits, float(surplus[bits])) for bits in range(1, grand) if surplus[bits] < -tolerance]
    return out


def least_core_value(values, n) -> float:
    """The least-core value of an ``n``-player game: the best worst-coalition
    surplus over all efficient payoffs.

    Solved exactly through the dual linear program over the proper nonempty
    coalitions S,

        min  values[grand] * mu - sum_S values[S] * y_S
        s.t. sum_S y_S = 1,   sum_{S owns i} y_S = mu,   y >= 0,

    whose optimum equals the primal max-min surplus, by a dense revised
    simplex with Bland's rule on its ``n + 1`` rows.
    """
    grand = (1 << n) - 1
    mu_col = grand - 1  # the last column; column k < mu_col holds coalition k + 1
    a = np.zeros((n + 1, grand))
    for col in range(mu_col):
        a[members(col + 1, n), col] = 1.0
    a[:n, mu_col] = -1.0
    a[n, :mu_col] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    c = np.array([-values[bits] for bits in range(1, grand)] + [values[grand]], dtype=float)

    # Singleton coalitions (column j holds coalition j + 1) plus mu form
    # a nonsingular starting basis with y = mu = 1/n, strictly feasible.
    basis = [(1 << i) - 1 for i in range(n)] + [mu_col]
    for _ in range(20000):
        bmat = a[:, basis]
        x_b = np.linalg.solve(bmat, b)
        pi = np.linalg.solve(bmat.T, c[basis])
        reduced = c - pi @ a
        entering = next((j for j in range(grand) if reduced[j] < -1e-11 and j not in basis), None)
        if entering is None:
            return float(c[basis] @ x_b)
        direction = np.linalg.solve(bmat, a[:, entering])
        best, leave = math.inf, -1
        for pos in range(n + 1):
            if direction[pos] > 1e-12:
                ratio = x_b[pos] / direction[pos]
                if ratio < best - 1e-15 or (abs(ratio - best) <= 1e-15 and (leave < 0 or basis[pos] < basis[leave])):
                    best, leave = ratio, pos
        assert leave >= 0, "the least-core LP is bounded for every value table"
        basis[leave] = entering
    raise RuntimeError("least-core simplex did not terminate")


def stability_lower_bound(delta, ranges) -> tuple:
    """Hoeffding: per player ``max(0, 1 - 2 * exp(-2 * delta**2 / sum_t r_t**2))``,
    one for a player whose ranges are all zero, and the product over players."""
    probs = []
    for row in ranges:
        ssq = sum(r * r for r in row)
        probs.append(max(0.0, 1.0 - 2.0 * math.exp(-2.0 * delta * delta / ssq)) if ssq > 0.0 else 1.0)
    return probs, math.prod(probs)


def settlement(plans, loads, expected_loads, params, payment_mode) -> tuple:
    """``(payoffs, payments, rewards)`` per player of one realization at ``loads``.

    ``plans`` holds every coalition's plan by bitmask.  Payoffs are the
    Shapley split of the coalition values at ``loads``.  Ex-post, each
    player pays what it collected less its payoff; ex-ante, what it
    would collect less its payoff at ``expected_loads``.  A reward is
    the payoff plus the payment.
    """
    n_players = len(plans).bit_length() - 1
    settled_at = loads if payment_mode == "ex-post" else expected_loads
    collected = [0.0] + sp_revenues(plans[-1], settled_at, params)  # the InP collects nothing
    payments = [c - p for c, p in zip(collected, shapley(values(plans, settled_at, params), n_players))]
    payoffs = shapley(values(plans, loads, params), n_players)
    return payoffs, payments, [p + q for p, q in zip(payoffs, payments)]


def brute_force_levels(log_w, xi, capacity):
    """Per-slot log-multiplier found by trying every active set in turn."""
    levels = []
    for col in log_w.T:
        finite = [i for i in range(col.size) if np.isfinite(col[i])]
        found = None
        for size in range(1, len(finite) + 1):
            for subset in itertools.combinations(finite, size):
                level = (math.fsum(col[list(subset)]) - xi * capacity) / size
                tol = 1e-12 * max(1.0, abs(level))
                if all(col[i] >= level - tol for i in subset) and all(
                    col[i] <= level + tol for i in finite if i not in subset
                ):
                    found = level
                    break
            if found is not None:
                break
        levels.append(found)
    return np.array(levels)


def brute_force_plan(coalition, loads, params):
    """``(capacity, shares)`` of ``coalition``: subset enumeration per slot,
    plain bisection on the stationarity residual for the capacity.

    Only member SPs' rows are solved; without the InP or without an SP the
    coalition buys nothing and every share is zero.
    """
    shares = np.zeros_like(loads)
    rows = coalition.sp_rows
    if not coalition.includes_inp or rows.size == 0:
        return 0.0, shares
    xi = params.saturation
    price = params.unit_capacity_cost
    bl = np.asarray(params.benefits)[rows, None] * loads[rows]
    with np.errstate(divide="ignore"):
        log_w = np.log(xi * bl)
    live = bl.max(axis=0) > 0.0
    log_w = log_w[:, live]
    if not live.any() or np.exp(log_w.max(axis=0)).sum() <= price:
        return 0.0, shares

    def residual(capacity):
        return np.exp(brute_force_levels(log_w, xi, capacity)).sum() - price

    lo, hi = 0.0, 1.0
    while residual(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if residual(mid) > 0.0 else (lo, mid)
    capacity = 0.5 * (lo + hi)
    levels = brute_force_levels(log_w, xi, capacity)
    shares[np.ix_(rows, live)] = np.clip((log_w - levels) / xi, 0.0, None)
    return capacity, shares


def fgn_autocov(hurst, lags):
    """Autocovariance of unit-variance fGn at ``lags``, by the engine's cancellation-free form
    ``k**2H * (expm1(s)*cosh(d) + 2*sinh(d/2)**2)``, ``s = H*log(1 - 1/k**2)``, ``d = 2H*atanh(1/k)``,
    with one fresh array per step."""
    k = np.abs(lags).astype(float)
    gamma = (k == 0.0).astype(float)
    if hurst == 0.5:
        return gamma
    gamma[k == 1.0] = math.expm1((2.0 * hurst - 1.0) * math.log(2.0))
    far = k >= 2.0
    x = 1.0 / k[far]
    s = hurst * np.log1p(-x * x)
    d = 2.0 * hurst * np.arctanh(x)
    gamma[far] = k[far] ** (2.0 * hurst) * (np.expm1(s) * np.cosh(d) + 2.0 * np.sinh(0.5 * d) ** 2)
    return gamma


def circulant_spectrum(hurst, m):
    """Eigenvalues of the fGn circulant embedding of size ``2m``: ``fft(concatenate([γ, γ[-2:0:-1]])).real``."""
    gamma = fgn_autocov(hurst, np.arange(m + 1))
    return np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real


def real_circulant_spectrum(hurst, m):
    """Eigenvalues ``0..m`` of the same embedding: ``rfft(concatenate([γ, γ[-2:0:-1]])).real``."""
    gamma = fgn_autocov(hurst, np.arange(m + 1))
    return np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real


def circulant_roots(hurst, m):
    """Davies-Harte weights of the spectrum's Hermitian half, from ``real_circulant_spectrum``:
    ``sqrt(eig / 2m)`` at ``0, m``, ``sqrt(eig / 4m)`` in between, round-off dips below zero clipped."""
    eig = np.clip(real_circulant_spectrum(hurst, m), 0.0, None)
    two_m = 2 * m
    roots = np.sqrt(eig / (2.0 * two_m))
    roots[[0, m]] = np.sqrt(eig[[0, m]] / two_m)
    return roots
