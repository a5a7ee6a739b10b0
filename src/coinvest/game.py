"""Coalition values, Shapley redistribution, and stability analysis.

The characteristic function values a coalition at its optimally planned
expected profit.  The InP is a veto player (no InP, no capacity) and so
is the SP side as a whole (no SPs, no revenue), which zeroes every
coalition missing either.  Values are stored densely, indexed by the
coalition bitmask.

Stability chain, all on expected values:

* ``stability_value_hat``: worst coalition surplus of the expected
  Shapley payoff, ``min_S payoff(S) - value(S)`` over proper nonempty
  coalitions.  Nonnegative iff the payoff sits in the core.
* ``stability_value_lp``: the least-core value, the largest uniform
  surplus any efficient payoff can guarantee.  Solved exactly with a
  small dual simplex (basis size ``n + 1``); no LP library involved.
* ``deviation_threshold``: per-player tolerance on realized payoff
  deviations below which the realized game stays stable and profitable.
* ``stability_lower_bound``: Hoeffding bound turning the threshold into
  a guaranteed probability of coalition stability under the bounded
  demand model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import AllocationPlan, optimal_plan
from .economics import EconomicParams, cost, utility
from .players import MAX_PLAYERS, PlayerSet, all_coalitions, membership
from .traffic import BoundedLoadModel, expected_load_matrix


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Dense coalition values plus the plans that generated them."""

    n_players: int
    values: np.ndarray
    plans: tuple

    def __post_init__(self):
        if self.values.shape != (1 << self.n_players,):
            raise ValueError("values must have one entry per coalition bitmask")

    @property
    def grand_bits(self) -> int:
        return (1 << self.n_players) - 1

    @property
    def grand_value(self) -> float:
        return float(self.values[self.grand_bits])

    def value(self, bits: int) -> float:
        return float(self.values[bits])

    def plan(self, bits: int) -> AllocationPlan:
        return self.plans[bits]


def build_value_table(expected_loads: np.ndarray, params: EconomicParams) -> ValueTable:
    """Solve the planning problem for every coalition."""
    loads = np.asarray(expected_loads, dtype=float)
    n_players = loads.shape[0] + 1
    if n_players > MAX_PLAYERS:
        raise ValueError(f"at most {MAX_PLAYERS - 1} SPs supported")
    plans = [optimal_plan(s, loads, params) for s in all_coalitions(n_players)]
    values = np.array([p.objective for p in plans])
    return ValueTable(n_players, values, tuple(plans))


def realized_value(plan: AllocationPlan, loads, params: EconomicParams) -> float:
    """Coalition value at one realized (n_sp, horizon) load array, plan held fixed."""
    loads = np.asarray(loads, dtype=float)
    if loads.shape != plan.shares.shape:
        raise ValueError("realized loads must match the plan's share matrix shape")
    beta = np.asarray(params.benefits)[:, None]
    revenue = utility(beta, params.saturation, loads, plan.shares).sum()
    return float(revenue - cost(params, plan.capacity))


@functools.cache
def shapley_matrix(n_players: int) -> np.ndarray:
    """Matrix M with payoff = values @ M; encodes the subset-sum weights.

    Memoised per ``n_players``; the returned array is read-only.
    """
    fact = [math.factorial(i) for i in range(n_players + 1)]
    w = np.array([fact[s] * fact[n_players - s - 1] / fact[n_players] for s in range(n_players)])
    member = membership(n_players)
    size = member.sum(axis=1)[:, None]
    m = np.where(member == 1, w[np.maximum(size - 1, 0)], -w[np.minimum(size, n_players - 1)])
    m.flags.writeable = False
    return m


def shapley(values, n_players: int | None = None) -> np.ndarray:
    """Shapley payoffs; accepts a ValueTable or a dense value array.

    A trailing axis of length ``2**n_players`` may be batched.
    """
    if isinstance(values, ValueTable):
        n_players = values.n_players
        values = values.values
    values = np.asarray(values, dtype=float)
    if n_players is None:
        n_players = values.shape[-1].bit_length() - 1
    if values.shape[-1] != 1 << n_players:
        raise ValueError("value array length must be 2**n_players")
    return values @ shapley_matrix(n_players)


def marginal_contribution(table: ValueTable, player: int, coalition: PlayerSet) -> float:
    if coalition.bits >> player & 1:
        raise ValueError("player already belongs to the coalition")
    return table.value(coalition.bits | 1 << player) - table.value(coalition.bits)


def coalition_payoff_sums(payoff: np.ndarray) -> np.ndarray:
    """Sum of payoffs over every coalition bitmask at once."""
    payoff = np.asarray(payoff, dtype=float)
    member = membership(payoff.shape[0])
    sums = np.zeros(member.shape[0])
    # player by player, not a matmul, so every sum adds in the same order
    for i, column in enumerate(member.T):
        sums += column * payoff[i]
    return sums


def check_supermodularity(table: ValueTable, tolerance: float = 0.0):
    """Violations of increasing marginal contributions.

    Returns tuples ``(player, inner_bits, outer_bits, deficit)`` where
    the marginal gain of ``player`` on the outer coalition falls short
    of the gain on the inner one by more than ``tolerance``.
    """
    v = table.values
    n = table.n_players
    out = []
    for j in range(n):
        bit = 1 << j
        universe = table.grand_bits & ~bit
        s = universe
        while True:
            gain_s = v[s | bit] - v[s]
            r = (s - 1) & s
            while True:
                gain_r = v[r | bit] - v[r]
                if gain_s - gain_r < -tolerance:
                    out.append((j, r, s, float(gain_s - gain_r)))
                if r == 0:
                    break
                r = (r - 1) & s
            if s == 0:
                break
            s = (s - 1) & universe
    return out


def core_violations(table: ValueTable, allocation: np.ndarray, tolerance: float = 0.0):
    """Coalitions whose value exceeds what the allocation hands them."""
    allocation = np.asarray(allocation, dtype=float)
    sums = coalition_payoff_sums(allocation)
    out = []
    scale = max(1.0, abs(table.grand_value))
    if abs(sums[table.grand_bits] - table.grand_value) > max(tolerance, 1e-9 * scale):
        out.append((table.grand_bits, float(sums[table.grand_bits] - table.grand_value)))
    gaps = sums - table.values
    for bits in np.flatnonzero(gaps[1:table.grand_bits] < -tolerance) + 1:
        out.append((int(bits), float(gaps[bits])))
    return out


def check_core(table: ValueTable, allocation: np.ndarray, tolerance: float = 0.0) -> bool:
    return not core_violations(table, allocation, tolerance)


def stability_value_hat(table: ValueTable, payoff: np.ndarray) -> float:
    """Worst coalition surplus of ``payoff``: min_S payoff(S) - value(S)."""
    sums = coalition_payoff_sums(payoff)
    excess = sums[1:table.grand_bits] - table.values[1:table.grand_bits]
    return float(excess.min())


def stability_value_lp(table: ValueTable) -> float:
    """Least-core value: the best worst-coalition surplus over all
    efficient payoffs.

    Solved through the dual linear program

        min  value(grand) * mu - sum_S value(S) * y_S
        s.t. sum_S y_S = 1,   sum_{S owns i} y_S = mu,   y >= 0,

    whose optimum equals the primal max-min surplus.  The dual has only
    ``n + 1`` rows, so a dense revised simplex with Bland's rule is
    exact and fast for the supported player counts.
    """
    n = table.n_players
    if n > 8:
        raise ValueError("least-core LP supported for at most 8 players")
    grand = table.grand_bits
    masks = np.arange(1, grand)
    n_cols = masks.size + 1
    mu_col = masks.size

    a = np.zeros((n + 1, n_cols))
    a[:n, :mu_col] = membership(n)[masks].T
    a[:n, mu_col] = -1.0
    a[n, :mu_col] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    c = np.empty(n_cols)
    c[:mu_col] = -table.values[masks]
    c[mu_col] = table.grand_value

    # Singleton coalitions (column j holds coalition j + 1) plus mu form
    # a nonsingular starting basis with y = mu = 1/n, strictly feasible.
    basis = [(1 << i) - 1 for i in range(n)] + [mu_col]
    for _ in range(20000):
        bmat = a[:, basis]
        x_b = np.linalg.solve(bmat, b)
        pi = np.linalg.solve(bmat.T, c[basis])
        reduced = c - pi @ a
        entering = -1
        for j in range(n_cols):
            if reduced[j] < -1e-11 and j not in basis:
                entering = j
                break
        if entering < 0:
            return float(c[basis] @ x_b)
        direction = np.linalg.solve(bmat, a[:, entering])
        best, leave = math.inf, -1
        for pos in range(n + 1):
            if direction[pos] > 1e-12:
                ratio = x_b[pos] / direction[pos]
                if ratio < best - 1e-15 or (
                    abs(ratio - best) <= 1e-15 and (leave < 0 or basis[pos] < basis[leave])
                ):
                    best, leave = ratio, pos
        if leave < 0:
            raise RuntimeError("least-core LP is unbounded; value table is inconsistent")
        basis[leave] = entering
    raise RuntimeError("least-core simplex did not terminate")


def deviation_threshold(table: ValueTable, sigma: float) -> float:
    """Largest per-player deviation of realized payoffs from expected
    ones that provably keeps every coalition constraint satisfied.

    ``sigma`` is a surplus level the expected payoff guarantees (either
    the payoff-specific worst surplus or the least-core value).  With
    grand value ``v`` and ``n`` players, each proper nonempty coalition
    S of size k has ``d_S = k + (n - 2k) * (v_S + sigma) / v``, and the
    threshold is ``v / n``, capped by ``sigma / max_S d_S`` when that
    maximum is positive, and floored at zero.  For nonpositive grand
    value the game is degenerate and the threshold is zero.
    """
    grand_value = table.grand_value
    n = table.n_players
    if grand_value <= 0.0:
        return 0.0
    bound = grand_value / n
    masks = np.arange(1, table.grand_bits)
    sizes = membership(n)[masks].sum(axis=1)
    y = (table.values[masks] + sigma) / grand_value
    denominators = sizes + (n - 2 * sizes) * y
    dmax = denominators.max()
    if dmax > 0.0:
        bound = min(bound, sigma / dmax)
    return max(0.0, bound)


def utility_ranges(plan: AllocationPlan, models: Sequence, params: EconomicParams) -> np.ndarray:
    """Per-player, per-slot width of the utility's support under the
    bounded demand model, at the given plan.  Row 0 (the InP) is zero:
    it collects no demand-driven revenue.
    """
    for i, m in enumerate(models):
        if not isinstance(m, BoundedLoadModel):
            raise TypeError(
                f"model {i} is {type(m).__name__}; analytic stability bounds "
                "require the bounded demand model"
            )
    horizon = plan.shares.shape[1]
    means = expected_load_matrix(models, horizon, params.slot_seconds)
    spreads = np.array([m.spread for m in models])[:, None]
    beta = np.asarray(params.benefits)[:, None]
    sp_rows = utility(beta, params.saturation, 1.0, plan.shares) * 2.0 * spreads * means
    return np.vstack([np.zeros((1, horizon)), sp_rows])


def stability_lower_bound(delta: float, ranges: np.ndarray):
    """Hoeffding bound on the probability that every player's realized
    payoff stays within ``delta`` of its expectation.

    Returns per-player probabilities and their product, a lower bound
    on the joint probability that the realized game is stable.  Players
    with zero utility range (the InP) contribute a factor of one.
    """
    ranges = np.asarray(ranges, dtype=float)
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    probs = np.ones(ranges.shape[0])
    with np.errstate(over="ignore"):  # an infinite ssq gives its limit, p = 0
        ssq = (ranges * ranges).sum(axis=1)
        risky = ssq > 0.0
        probs[risky] = np.maximum(1.0 - 2.0 * np.exp(-2.0 * delta * delta / ssq[risky]), 0.0)
    return probs, float(probs.prod())
