"""Cost and revenue primitives: the allocation, game and Monte Carlo
layers price shares through ``utility`` and capacity through ``cost``.

Installing capacity ``C`` (virtual cores) for an investment horizon of
``I`` hours costs ``d * C + d' * I * C``: a one-off purchase price plus
maintenance billed per hour and per core.  An SP that is granted a
capacity share ``h`` during a slot carrying load ``l`` requests collects

    u = benefit * l * (1 - exp(-saturation * h))

dollars: linear in demand, increasing and strictly concave in the
share, with diminishing returns governed by ``saturation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HOURS_PER_YEAR = 8760.0


@dataclass(frozen=True)
class EconomicParams:
    """Market constants of one co-investment scenario.

    capacity_price     dollars per vcore (d)
    maintenance_price  dollars per hour per vcore (d')
    investment_hours   horizon of the investment (I), hours
    slot_hours         duration of one slot, hours
    benefits           dollars per request, one entry per SP
    saturation         1/vcore, curvature of the utility
    """

    capacity_price: float
    maintenance_price: float
    investment_hours: float
    slot_hours: float
    benefits: tuple
    saturation: float

    def __post_init__(self):
        object.__setattr__(self, "benefits", tuple(float(b) for b in self.benefits))
        for name in ("capacity_price", "maintenance_price", "investment_hours", "slot_hours", "saturation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(math.isfinite(b) for b in self.benefits):
            raise ValueError("benefits must be finite")
        if self.capacity_price < 0.0 or self.maintenance_price < 0.0:
            raise ValueError("prices must be nonnegative")
        for name in ("investment_hours", "slot_hours", "saturation"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.benefits:
            raise ValueError("need at least one SP benefit")
        if any(b <= 0.0 for b in self.benefits):
            raise ValueError("benefits must be positive")
        if self.unit_capacity_cost <= 0.0:
            raise ValueError("degenerate pricing: d + d' * I must be positive")
        ratio = self.investment_hours / self.slot_hours
        if ratio > np.iinfo(np.intp).max:  # also catches an infinite ratio
            raise ValueError(f"investment_hours / slot_hours = {ratio:g} slots exceeds the largest array index")
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("investment_hours must be an integer number of slots")
        if round(ratio) < 1:
            raise ValueError("investment_hours must span at least one slot of slot_hours")
        if not math.isfinite(self.slot_seconds):
            raise ValueError("slot_seconds must be finite")

    @property
    def unit_capacity_cost(self) -> float:
        """Full cost of one vcore held for the whole horizon, d + d' * I."""
        return self.capacity_price + self.maintenance_price * self.investment_hours

    @property
    def horizon(self) -> int:
        """Number of slots in the investment horizon."""
        return int(round(self.investment_hours / self.slot_hours))

    @property
    def n_sp(self) -> int:
        return len(self.benefits)

    @property
    def slot_seconds(self) -> float:
        return self.slot_hours * 3600.0


def cost(params: EconomicParams, capacity: float) -> float:
    """Total infrastructure cost of ``capacity`` vcores over the horizon."""
    if capacity < 0.0:
        raise ValueError("capacity must be nonnegative")
    return params.unit_capacity_cost * capacity


def utility(benefit: float, saturation: float, load, share):
    """Dollars collected in one slot; vectorises over benefit/load/share arrays."""
    load = np.asarray(load, dtype=float)
    share = np.asarray(share, dtype=float)
    if (load < 0.0).any() or (share < 0.0).any():
        raise ValueError("load and share must be nonnegative")
    out = benefit * load * -np.expm1(-saturation * share)
    return out if out.shape else float(out)
