"""Coalition values, Shapley redistribution, and stability analysis.

The characteristic function values a coalition at its optimally planned
expected profit.  The InP is a veto player (no InP, no capacity) and so
is the SP side as a whole (no SPs, no revenue), which zeroes every
coalition missing either.  Values are stored densely, indexed by the
coalition bitmask.  ``shapley(table)`` splits a table's values by the
memoised ``shapley_matrix``; ``simulate`` applies that matrix to each
realized value row itself.

Stability chain, all on expected values:

* ``stability_value_hat``: worst coalition surplus of the expected
  Shapley payoff, ``min_S payoff(S) - value(S)`` over proper nonempty
  coalitions.  Nonnegative iff the payoff sits in the core.
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

import numpy as np

from .allocation import AllocationPlan, _check_fit, _revenue_per_request, optimal_plan
from .economics import EconomicParams
from .players import all_coalitions, membership
from .scenario import Scenario


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


def build_value_table(expected_loads: np.ndarray, params: EconomicParams) -> ValueTable:
    """Solve the planning problem for every coalition."""
    loads = np.asarray(expected_loads, dtype=float)
    n_players = loads.shape[0] + 1
    plans = [optimal_plan(s, loads, params) for s in all_coalitions(n_players)]  # PlayerSet refuses past MAX_PLAYERS
    values = np.array([p.objective for p in plans])
    return ValueTable(n_players, values, tuple(plans))


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


def shapley(table: ValueTable) -> np.ndarray:
    """Shapley payoffs of ``table``'s game, ``table.values @ shapley_matrix(n_players)``."""
    return table.values @ shapley_matrix(table.n_players)


def coalition_payoff_sums(payoff: np.ndarray) -> np.ndarray:
    """Sum of payoffs over every coalition bitmask at once."""
    payoff = np.asarray(payoff, dtype=float)
    member = membership(payoff.shape[0])
    sums = np.zeros(member.shape[0])
    # player by player, not a matmul, so every sum adds in the same order
    for i, column in enumerate(member.T):
        sums += column * payoff[i]
    return sums


def stability_value_hat(table: ValueTable, payoff: np.ndarray) -> float:
    """Worst coalition surplus of ``payoff``: min_S payoff(S) - value(S)."""
    sums = coalition_payoff_sums(payoff)
    excess = sums[1:table.grand_bits] - table.values[1:table.grand_bits]
    return float(excess.min())


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


def utility_ranges(plan: AllocationPlan, scenario: Scenario) -> np.ndarray:
    """Per-player, per-slot width of the utility's support under the
    bounded demand model, at the given plan.  Row 0 (the InP) is zero:
    it collects no demand-driven revenue.  A plan made for another number
    of SPs or slots than ``scenario`` has is refused, and so is fBm demand.
    """
    _check_fit(plan, scenario)
    if scenario.kind != "bounded":
        raise TypeError("analytic stability bounds require the bounded demand model; this scenario uses fBm")
    spreads = np.array([m.spread for m in scenario.models])[:, None]
    sp_rows = _revenue_per_request(plan, scenario.params) * 2.0 * spreads * scenario.expected_loads()
    return np.vstack([np.zeros((1, scenario.horizon)), sp_rows])


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
