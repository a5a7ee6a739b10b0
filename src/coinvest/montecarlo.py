"""Monte Carlo assessment of a co-investment.

Plans are committed on expected demand and held fixed.  Each call builds
its SPs' draw rows once, beside its revenue weights and before its first
draw, and no model keeps them: an fBm SP's rows include its spectrum
roots, so no draw builds a spectrum.  Each realization is drawn from the
rows and settled on its own, and results come in realization order.
``simulate`` re-prices every coalition at its loads, splits the realized
values by Shapley (``values @ shapley_matrix(n)``), settles payments and
rewards, and locates the payback slot of the grand coalition; each
outcome keeps its loads.  ``payback_slots`` needs only one plan and keeps
only its payback slot, the first slot at which its collected revenue
covers its cost.  ``summarize`` reduces the outcomes to the per-player
and joint shares of nonnegative payoffs, the share of realizations with
every |deviation| below delta (the stability frequency), and quantiles.

A value table or plan made for another number of SPs or another horizon
than the scenario's is refused up front, naming both counts.  A
realization whose loads, or whose revenue summed over its slots, are
not a finite float ends either function with a ``RuntimeError`` that
names the realization and the SP, ``players[i]``; ``Scenario``'s rules
bound only the expected demand, and a drawn fBm path can exceed it.

Settlement modes:

* ``ex-post``: payments depend on the realization,
  ``p_i = collected_i - payoff_i``, so each player's reward equals the
  revenue it collected.  Payments sum exactly to the infrastructure
  cost in every realization.
* ``ex-ante``: payments are fixed before demand is seen,
  ``p_i = expected_collected_i - expected_payoff_i``; realized rewards
  then fluctuate with the realized Shapley payoffs.

Threads: ``simulate`` settles on ``_pool_size`` threads: one below 128
coalitions (6 SPs), else one per CPU the process may run on (so
``taskset`` bounds them), at most one per realization; the README gives
the measured crossover.  ``payback_slots`` settles one plan, serially.
Each pool thread keeps its own fBm draw buffers, ``32 * m`` bytes for an
embedding of ``2m`` points (2 MB at 43 800 slots).

Determinism: realization ``omega`` for player ``i`` consumes the
substream keyed ``(master_seed, omega, i)`` in both functions and reads
nothing else random, so output is bit-for-bit identical on any number of
threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .allocation import AllocationPlan, _check_fit, _revenue_per_request
from .economics import cost
from .game import ValueTable, shapley, shapley_matrix
from .scenario import Scenario
from .traffic import LoadMatrix, sample_loads

PAYMENT_MODES = ("ex-ante", "ex-post")


@dataclass(frozen=True, eq=False)
class RealizationOutcome:
    """Everything one demand draw implies for the grand coalition."""

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
    player_profit_prob: np.ndarray
    joint_profit_prob: float
    stability_frequency: float
    payoff_quantiles: np.ndarray
    payment_quantiles: np.ndarray
    reward_quantiles: np.ndarray
    payback_quantiles: Optional[np.ndarray]
    payback_censored: int


# The quantiles every summary reports, each under the label the CLI's sidecar gives it.
QUANTILES = {"min": 0.0, "p25": 0.25, "p50": 0.5, "p75": 0.75, "max": 1.0}
QUANTILE_GRID = tuple(QUANTILES.values())

_POOL_COALITIONS = 128  # coalitions from which simulate settles on a thread pool


def _priced(scenario: Scenario, plans: Sequence[AllocationPlan], n_realizations: int):
    """Revenue per request (plan x SP x slot) and installed cost of each of ``plans``, and each SP's
    ``draw_rows`` (an fBm spectrum included), once the count and the last plan's fit are checked (a
    table's last is the grand)."""
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    _check_fit(plans[-1], scenario)
    weights = np.empty((len(plans),) + plans[-1].shares.shape)
    for w, p in zip(weights, plans):
        w[...] = _revenue_per_request(p, scenario.params)
    rows = [m.draw_rows(scenario.horizon, scenario.params.slot_seconds) for m in scenario.models]
    return weights, np.array([cost(scenario.params, p.capacity) for p in plans]), rows


def _draw(scenario: Scenario, rows: list, seed: int, omega: int) -> LoadMatrix:
    """Realization ``omega``'s loads from ``rows``; a load that is not finite is refused, naming its SP."""
    with np.errstate(over="ignore"):  # an overflow leaves inf, refused below
        loads = sample_loads(scenario.models, rows, (seed, omega))
    finite = np.isfinite(loads.values).all(axis=1)
    if not finite.all():
        raise RuntimeError(f"realization {omega}: players[{finite.argmin()}]: realized loads are not finite")
    return loads


def _revenue_overflow(omega: int, per_sp: np.ndarray) -> RuntimeError:
    """The refusal of realization ``omega`` whose revenue, ``per_sp`` by SP, sums to no finite float.

    It names the first SP at which the running sum of ``per_sp`` is not finite, or the last
    SP when only a sum in another order is not.
    """
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.cumsum(per_sp))
    i = len(finite) - 1 if finite.all() else finite.argmin()
    return RuntimeError(
        f"realization {omega}: players[{i}]: realized revenue over players[0..{i}] is not finite"
    )


def _payback_slot(weights: np.ndarray, loads: np.ndarray, installed: float, omega: int) -> Optional[int]:
    """First slot whose cumulative revenue covers ``installed``, or None.

    Weights and loads are nonnegative, so the cumulative revenue only grows, and it is refused
    when its last slot is not finite.
    """
    with np.errstate(over="ignore"):
        surplus = np.cumsum(np.einsum("it,it->t", weights, loads))
        if not np.isfinite(surplus[-1]):
            raise _revenue_overflow(omega, np.einsum("it,it->i", weights, loads))
    surplus -= installed
    recovered = surplus >= 0.0
    first = int(recovered.argmax())
    return first if recovered[first] else None


def _pool_size(coalitions: int, n_realizations: int) -> int:
    """Threads ``simulate`` settles on: one below ``_POOL_COALITIONS`` coalitions, else one per CPU
    this process may run on, at most one per realization."""
    if coalitions < _POOL_COALITIONS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_realizations)


def simulate(
    scenario: Scenario,
    table: ValueTable,
    n_realizations: int,
    seed: int,
    payment_mode: str = "ex-post",
):
    """Draw ``n_realizations`` demand paths and settle each one."""
    if payment_mode not in PAYMENT_MODES:
        raise ValueError(f"payment_mode must be one of {PAYMENT_MODES}")
    weights, costs, rows = _priced(scenario, table.plans, n_realizations)
    grand = table.grand_bits
    # each player's collected revenue at the expected loads, the InP's 0 first
    nominal = np.concatenate(([0.0], (weights[grand] * scenario.expected_loads()).sum(axis=1)))
    split = shapley_matrix(table.n_players)
    if payment_mode == "ex-ante":
        fixed_payments = nominal - shapley(table)

    def settle(omega: int) -> RealizationOutcome:
        loads = _draw(scenario, rows, seed, omega)
        with np.errstate(over="ignore"):
            collected_sp = np.einsum("sit,it->si", weights, loads.values)
            revenue = collected_sp.sum(axis=1)
        finite = np.isfinite(revenue)
        if not finite.all():
            raise _revenue_overflow(omega, collected_sp[finite.argmin()])
        payback_slot = _payback_slot(weights[grand], loads.values, costs[grand], omega)
        values = revenue - costs
        payoffs = values @ split
        collected = np.concatenate(([0.0], collected_sp[grand]))
        payments = collected - payoffs if payment_mode == "ex-post" else fixed_payments.copy()
        return RealizationOutcome(
            loads=loads,
            values=values,
            payoffs=payoffs,
            deviations=collected - nominal,
            collected=collected,
            payments=payments,
            rewards=payoffs + payments,
            payback_slot=payback_slot,
        )

    workers = _pool_size(len(table.plans), n_realizations)
    if workers == 1:
        return [settle(omega) for omega in range(n_realizations)]
    from concurrent.futures import ThreadPoolExecutor  # here, so a serial process never imports it
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(settle, range(n_realizations)))


def payback_slots(
    scenario: Scenario,
    plan: AllocationPlan,
    n_realizations: int,
    seed: int,
) -> list:
    """Payback slot of ``plan`` in each of ``n_realizations`` demand draws.

    The payback slot is the first slot at which the revenue ``plan``
    has collected covers its installed cost, or None when the horizon
    ends first.  Realization ``omega`` draws the loads ``simulate``
    draws, so for the grand plan the list equals the outcomes'
    ``payback_slot``s, with no value table, Shapley split or kept loads.
    """
    (weights,), (installed,), rows = _priced(scenario, (plan,), n_realizations)
    return [
        _payback_slot(weights, _draw(scenario, rows, seed, omega).values, installed, omega)
        for omega in range(n_realizations)
    ]


def _quantiles(values) -> np.ndarray:
    """``np.quantile(values, QUANTILE_GRID, axis=0).T`` bit for bit, by numpy's linear steps (the same
    partition, so 0.0 and -0.0 tie alike), without the ``np.unique`` that imports ``numpy.ma``."""
    ordered = np.array(values, dtype=float)  # a copy, partitioned in place
    n = len(ordered)
    virtual = (n - 1) * np.array(QUANTILE_GRID)
    last = virtual >= n - 1  # numpy reads index -1 on both sides there, with t = virtual + 1
    prev = np.where(last, -1, np.floor(virtual)).astype(np.intp)
    next_ = np.where(last, -1, np.floor(virtual) + 1).astype(np.intp)
    ordered.partition(sorted({0, -1, *prev.tolist(), *next_.tolist()}), axis=0)
    a, b = ordered[prev], ordered[next_]
    t = (virtual - prev).reshape((-1,) + (1,) * (ordered.ndim - 1))
    d = b - a
    result = np.where(t >= 0.5, b - d * (1 - t), a + d * t)
    np.copyto(result, ordered[-1], where=np.isnan(ordered[-1]))
    return result.T


def payback_quantiles(slots: Sequence[Optional[int]]):
    """Quantiles of the recovered payback slots (None if there are none) and the censored count."""
    recovered = [s for s in slots if s is not None]
    return (_quantiles(recovered) if recovered else None), len(slots) - len(recovered)


def summarize(outcomes: Sequence[RealizationOutcome], delta: float) -> SimulationSummary:
    """Shares of realizations where each player's payoff, and every player's, is >= 0, and where
    every |deviation| is below ``delta``; quantiles of payoffs, payments, rewards and payback."""
    payoffs = np.stack([o.payoffs for o in outcomes])
    payments = np.stack([o.payments for o in outcomes])
    rewards = np.stack([o.rewards for o in outcomes])
    deviations = np.stack([o.deviations for o in outcomes])
    profitable = payoffs >= 0.0
    payback_q, censored = payback_quantiles([o.payback_slot for o in outcomes])
    return SimulationSummary(
        player_profit_prob=profitable.mean(axis=0),
        joint_profit_prob=float(profitable.all(axis=1).mean()),
        stability_frequency=float((np.abs(deviations) < delta).all(axis=1).mean()),
        payoff_quantiles=_quantiles(payoffs),
        payment_quantiles=_quantiles(payments),
        reward_quantiles=_quantiles(rewards),
        payback_quantiles=payback_q,
        payback_censored=censored,
    )
