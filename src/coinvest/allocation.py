"""Optimal capacity sizing and per-slot capacity shares for a coalition.

A coalition buys capacity ``C`` once and splits it among its SPs anew
every slot.  The planning problem maximises expected coalition profit

    sum_t sum_i beta_i * lbar_i^t * (1 - exp(-xi * h_i^t)) - (d + d'I) * C
    s.t.  sum_i h_i^t <= C,   h_i^t >= 0,   C >= 0

over the expected loads ``lbar``.  Without the infrastructure provider
no capacity can be bought, and without SPs, or without expected revenue
``beta_i * lbar_i^t`` at any member's slot, nothing earns revenue; such a
coalition plans the idle plan (zero capacity, zero value).  That veto is
decided once, in ``_check_inputs``, for both solvers.

Two solvers are provided.  ``optimal_plan_closed_form`` evaluates the
interior-optimum formula, valid when every participating SP has
positive expected load at every slot and the resulting shares stay
nonnegative.  ``optimal_plan_numeric`` water-fills every slot exactly:
with each slot's ``log(xi * beta_i * lbar_i^t)`` sorted in descending
order, the slot's level for capacity ``C`` follows from a cumulative
sum and the size of its active set (Palomar & Fonollosa, IEEE TSP
2005).  Newton's method then finds the capacity at which the summed
slot multipliers equal the unit capacity cost.  The numeric path is the
source of truth; ``optimal_plan`` dispatches to the closed form first
and falls back whenever the formula reports itself inapplicable.  Both
end in one builder, ``_plan``, which fills the SP rows and prices the plan.
``_revenue_per_request`` prices a made plan per request for the later layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economics import EconomicParams, cost, utility
from .players import PlayerSet

# Newton on the capacity takes a handful of steps; reaching this cap
# means the inputs are broken.
_NEWTON_STEPS = 100


class AllocationError(RuntimeError):
    """The numeric solver failed to converge; indicates broken inputs."""


@dataclass(frozen=True, eq=False)
class AllocationPlan:
    """Capacity and shares a coalition commits to before demand is known.

    ``shares`` has one row per scenario SP (not per coalition member);
    rows of SPs outside the coalition are identically zero.  ``shares``
    is built by ``np.zeros``, not ``np.zeros_like``: calloc hands back
    untouched zero pages, so a value table's 2^n plans take memory only
    for their member rows, and an idle plan takes none.  ``zeros_like``
    would write every zero.
    """

    capacity: float
    shares: np.ndarray
    objective: float
    method: str


def _check_fit(plan: AllocationPlan, scenario):
    """Refuse ``plan`` unless it was made for ``scenario``'s SPs and horizon, naming both counts."""
    planned_sp, planned_slots = plan.shares.shape
    if planned_sp != scenario.n_sp:
        raise ValueError(f"planned for {planned_sp + 1} players, but the scenario has {scenario.n_players}")
    if planned_slots != scenario.horizon:
        raise ValueError(f"planned over {planned_slots} slots, but the scenario has {scenario.horizon}")


def _check_inputs(coalition: PlayerSet, loads: np.ndarray, params: EconomicParams):
    """The checked ``loads``, the rows of the member SPs, and their ``beta_i * lbar_i^t``; the rows
    are ``None`` for an idle coalition, one without the InP, without SPs, or whose members earn
    nothing at any slot."""
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2:
        raise ValueError("expected_loads must be (n_sp, horizon)")
    if loads.shape[0] != params.n_sp:
        raise ValueError("expected_loads rows must match the number of SP benefits")
    if coalition.n_players != params.n_sp + 1:
        raise ValueError("coalition player count must be n_sp + 1")
    if not np.isfinite(loads).all():
        raise ValueError("expected loads must be finite")
    if (loads < 0.0).any():
        raise ValueError("expected loads must be nonnegative")
    rows = coalition.sp_rows
    bl = np.asarray(params.benefits)[rows, None] * loads[rows]  # 0 where a load is 0 or the product underflows
    return loads, (rows if coalition.includes_inp and bl.any() else None), bl


def _idle_plan(loads: np.ndarray, method: str) -> AllocationPlan:
    return AllocationPlan(0.0, np.zeros(loads.shape), 0.0, method)


def _plan(loads, rows, shares_rows, capacity: float, params: EconomicParams, method: str) -> AllocationPlan:
    """SPs ``rows`` get ``shares_rows`` of ``capacity``, the rest 0; objective = revenue at ``loads`` - cost."""
    shares = np.zeros(loads.shape)
    shares[rows] = shares_rows
    beta = np.asarray(params.benefits)[rows, None]
    objective = utility(beta, params.saturation, loads[rows], shares_rows).sum() - cost(params, capacity)
    return AllocationPlan(capacity, shares, objective, method)


def _revenue_per_request(plan: AllocationPlan, params: EconomicParams) -> np.ndarray:
    """Dollars one request earns each SP in each slot under ``plan``, ``beta_i * (1 - exp(-xi * h_i^t))``."""
    return utility(np.asarray(params.benefits)[:, None], params.saturation, 1.0, plan.shares)


def optimal_plan_closed_form(coalition, expected_loads, params):
    """Interior-optimum formula; ``None`` when it does not apply.

    Applicable when every coalition SP's ``beta_i * lbar_i^t`` is positive
    at all slots (it participates) or zero at all slots (it is idle), the
    implied capacity is positive, and no implied share is negative.
    ``None`` is a dispatch signal, not an error: the caller should use
    the numeric solver.
    """
    loads, rows, bl = _check_inputs(coalition, expected_loads, params)
    if rows is None:
        return _idle_plan(loads, "closed-form")
    positive = bl > 0.0
    everywhere = positive.all(axis=1)
    if not np.all(everywhere | ~positive.any(axis=1)):
        return None
    active = rows[everywhere]
    k = active.size

    xi = params.saturation
    log_bl = np.log(bl[everywhere])
    log_w = math.log(xi) + log_bl
    slot_geomean = np.exp(log_w.mean(axis=0))
    total = slot_geomean.sum()
    capacity = (k / xi) * math.log(total / params.unit_capacity_cost)
    if capacity <= 0.0:
        return None
    shares_active = capacity / k + (log_bl - log_bl.mean(axis=0)) / xi
    if (shares_active < 0.0).any():
        return None
    return _plan(loads, active, shares_active, capacity, params, "closed-form")


def _water_levels(ordered: np.ndarray, csum: np.ndarray, xi: float, capacity: float):
    """Per-slot levels ``log(lambda_t)`` and active counts for capacity ``C``.

    ``ordered`` holds each slot's ``log(xi * beta_i * load_i^t)`` sorted
    in descending order, ``-inf`` marking zero loads, and ``csum`` its
    cumulative sum down the rows.  With the ``k`` largest entries active
    the level is ``(csum_k - xi*C) / k``; the active set is the largest
    ``k`` whose ``k``-th entry still lies above that level (at least one).
    Shares ``(log_w_i - level) / xi`` over the active set then sum to
    ``C`` exactly.
    """
    ranks = np.arange(1, ordered.shape[0] + 1)[:, None]
    trial = (csum - xi * capacity) / ranks
    count = np.where(ordered > trial, ranks, 1).max(axis=0)
    level = np.take_along_axis(trial, count[None, :] - 1, axis=0)[0]
    return level, count


def optimal_plan_numeric(coalition, expected_loads, params):
    """Water-filling solver; optimal for any nonnegative load pattern."""
    loads, rows, bl = _check_inputs(coalition, expected_loads, params)
    if rows is None:
        return _idle_plan(loads, "numeric")

    xi = params.saturation
    with np.errstate(divide="ignore"):
        log_w = np.where(bl > 0.0, np.log(xi) + np.log(bl), -np.inf)
    live = np.isfinite(log_w.max(axis=0))
    log_w_live = log_w[:, live]

    # Stationarity in C: g(C) = log(sum_t lambda_t(C)) - log(price) = 0.
    # Each level is convex and decreasing in C (slope -xi/k_t, with k_t
    # growing in C), so g is convex and decreasing, and Newton started at
    # C = 0 climbs to the root without overshooting.  At C = 0 each level is
    # at most its slot's best log_w (a tie of three or more can average below
    # it), so g(0) <= 0, where the first core earns no more than it costs,
    # stops at C = 0: the idle plan, with no dust shares from that rounding.
    log_price = math.log(params.unit_capacity_cost)
    ordered = -np.sort(-log_w_live, axis=0)
    csum = np.cumsum(ordered, axis=0)
    capacity = 0.0
    for _ in range(_NEWTON_STEPS):
        level, count = _water_levels(ordered, csum, xi, capacity)
        top = level.max()
        lam = np.exp(level - top)
        total = lam.sum()
        residual = top + math.log(total) - log_price
        if residual <= 0.0:
            break
        step = residual * total / (xi * (lam / count).sum())
        capacity += step
        if step <= 1e-15 * max(1.0, capacity):
            break
    else:
        raise AllocationError("Newton capacity search did not converge")
    if capacity == 0.0:
        return _idle_plan(loads, "numeric")

    level, _ = _water_levels(ordered, csum, xi, capacity)
    shares_live = np.clip((log_w_live - level) / xi, 0.0, None)
    shares_sub = np.zeros_like(bl)
    shares_sub[:, live] = shares_live
    return _plan(loads, rows, shares_sub, capacity, params, "numeric")


def optimal_plan(coalition, expected_loads, params):
    """Closed form when valid, numeric water-filling otherwise."""
    plan = optimal_plan_closed_form(coalition, expected_loads, params)
    if plan is None:
        plan = optimal_plan_numeric(coalition, expected_loads, params)
    return plan
