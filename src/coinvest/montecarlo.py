"""Monte Carlo assessment of a co-investment.

Plans are committed on expected demand and held fixed; each realization
re-prices every coalition at the realized loads, recomputes Shapley
payoffs on the realized value table, settles payments and rewards, and
locates the payback slot of the grand coalition.

Settlement modes:

* ``ex-post``: payments depend on the realization,
  ``p_i = collected_i - payoff_i``, so each player's reward equals the
  revenue it collected.  Payments sum exactly to the infrastructure
  cost in every realization.
* ``ex-ante``: payments are fixed before demand is seen,
  ``p_i = expected_collected_i - expected_payoff_i``; realized rewards
  then fluctuate with the realized Shapley payoffs.

Determinism: realization ``omega`` for player ``i`` consumes the
substream keyed ``(master_seed, omega, i)``.  Work is split into
fixed-size chunks regardless of the worker count, so output is
bit-for-bit identical at any parallelism level.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .economics import cost
from .game import ValueTable, shapley, shapley_matrix
from .scenario import Scenario
from .traffic import LoadMatrix, sample_loads

CHUNK_SIZE = 512

PAYMENT_MODES = ("ex-ante", "ex-post")


@dataclass(frozen=True, eq=False)
class RealizationOutcome:
    """Everything one demand draw implies for the grand coalition."""

    index: int
    loads: LoadMatrix
    values: np.ndarray
    payoffs: np.ndarray
    deviations: np.ndarray
    collected: np.ndarray
    payments: np.ndarray
    rewards: np.ndarray
    payback_slot: Optional[int]


@dataclass(frozen=True, eq=False)
class SimulationSummary:
    n_realizations: int
    player_profit_prob: np.ndarray
    joint_profit_prob: float
    stability_frequency: Optional[float]
    payoff_quantiles: np.ndarray
    payment_quantiles: np.ndarray
    reward_quantiles: np.ndarray
    payback_quantiles: Optional[np.ndarray]
    payback_censored: int

QUANTILE_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def simulate(
    scenario: Scenario,
    table: ValueTable,
    n_realizations: int,
    seed: int,
    payment_mode: str = "ex-post",
    workers: int = 1,
):
    """Draw ``n_realizations`` demand paths and settle each one."""
    if payment_mode not in PAYMENT_MODES:
        raise ValueError(f"payment_mode must be one of {PAYMENT_MODES}")
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    if workers < 1:
        raise ValueError("workers must be positive")
    params = scenario.params
    n = table.n_players
    n_sp = n - 1
    horizon = scenario.horizon
    grand = table.grand_bits

    beta = np.asarray(params.benefits)[:, None]
    weights = np.stack(
        [beta * -np.expm1(-params.saturation * p.shares) for p in table.plans]
    )
    costs = np.array([cost(params, p.capacity) for p in table.plans])
    lbar = scenario.expected_loads()
    nominal_collected = (weights * lbar).sum(axis=2)
    expected_payoff = shapley(table)
    mix = shapley_matrix(n)

    if payment_mode == "ex-ante":
        fixed_payments = np.zeros(n)
        fixed_payments[1:] = nominal_collected[grand]
        fixed_payments -= expected_payoff

    def run_chunk(start: int, stop: int):
        count = stop - start
        loads = np.empty((count, n_sp, horizon))
        for k in range(count):
            loads[k] = sample_loads(scenario.models, horizon, (seed, start + k)).values
        collected_sp = np.einsum("sit,bit->bsi", weights, loads)
        values = collected_sp.sum(axis=2) - costs
        payoffs = values @ mix
        collected = np.zeros((count, n))
        collected[:, 1:] = collected_sp[:, grand, :]
        deviations = np.zeros((count, n))
        deviations[:, 1:] = collected_sp[:, grand, :] - nominal_collected[grand]
        if payment_mode == "ex-post":
            payments = collected - payoffs
        else:
            payments = np.broadcast_to(fixed_payments, (count, n)).copy()
        rewards = payoffs + payments
        slot_cash = np.einsum("it,bit->bt", weights[grand], loads)
        surplus = np.cumsum(slot_cash, axis=1, out=slot_cash)
        surplus -= costs[grand]
        recovered = surplus >= 0.0
        first = recovered.argmax(axis=1)
        out = []
        for k in range(count):
            out.append(
                RealizationOutcome(
                    index=start + k,
                    loads=LoadMatrix(loads[k]),
                    values=values[k],
                    payoffs=payoffs[k],
                    deviations=deviations[k],
                    collected=collected[k],
                    payments=payments[k],
                    rewards=rewards[k],
                    payback_slot=int(first[k]) if recovered[k].any() else None,
                )
            )
        return out

    bounds = [(s, min(s + CHUNK_SIZE, n_realizations)) for s in range(0, n_realizations, CHUNK_SIZE)]
    if workers == 1 or len(bounds) == 1:
        chunks = [run_chunk(s, e) for s, e in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda se: run_chunk(*se), bounds))
    return [o for chunk in chunks for o in chunk]


def profitability_probabilities(outcomes: Sequence[RealizationOutcome]):
    """Per-player and joint frequencies of nonnegative realized payoff."""
    payoffs = np.stack([o.payoffs for o in outcomes])
    ok = payoffs >= 0.0
    return ok.mean(axis=0), float(ok.all(axis=1).mean())


def empirical_stability_frequency(outcomes: Sequence[RealizationOutcome], delta: float) -> float:
    """Fraction of realizations with every |deviation| strictly below delta."""
    dev = np.stack([o.deviations for o in outcomes])
    return float((np.abs(dev) < delta).all(axis=1).mean())


def _quantiles(matrix: np.ndarray) -> np.ndarray:
    return np.quantile(matrix, QUANTILE_GRID, axis=0).T


def summarize(outcomes: Sequence[RealizationOutcome], delta: Optional[float] = None) -> SimulationSummary:
    player_prob, joint_prob = profitability_probabilities(outcomes)
    stability = None if delta is None else empirical_stability_frequency(outcomes, delta)
    payoffs = np.stack([o.payoffs for o in outcomes])
    payments = np.stack([o.payments for o in outcomes])
    rewards = np.stack([o.rewards for o in outcomes])
    slots = [o.payback_slot for o in outcomes if o.payback_slot is not None]
    censored = len(outcomes) - len(slots)
    payback_q = np.quantile(np.array(slots, dtype=float), QUANTILE_GRID) if slots else None
    return SimulationSummary(
        n_realizations=len(outcomes),
        player_profit_prob=player_prob,
        joint_profit_prob=joint_prob,
        stability_frequency=stability,
        payoff_quantiles=_quantiles(payoffs),
        payment_quantiles=_quantiles(payments),
        reward_quantiles=_quantiles(rewards),
        payback_quantiles=payback_q,
        payback_censored=censored,
    )
