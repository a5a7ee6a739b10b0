"""One co-investment scenario: SPs, their demand models, market constants.

A ``Scenario`` holds the one horizon and the one slot length
(``params.slot_seconds``) its models are drawn over, so it owns the rules
that need both.  Every SP's ``load_bound`` over the horizon is a finite
float, refused with its model's ``OVERFLOW`` text.  Then the revenue bound
``max(1, saturation) * sum_i benefit_i * horizon * load_bound_i`` stays a
finite float, added SP by SP.  ``dataclasses.replace`` copies are checked
again.  Refusals name an SP as ``players[i]``, its index in ``sp_names``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economics import EconomicParams
from .traffic import BoundedLoadModel, FbmLoadModel, expected_load_matrix


@dataclass(frozen=True)
class Scenario:
    sp_names: tuple
    models: tuple
    params: EconomicParams

    def __post_init__(self):
        object.__setattr__(self, "sp_names", tuple(self.sp_names))
        object.__setattr__(self, "models", tuple(self.models))
        if len(self.sp_names) != len(self.models):
            raise ValueError("one model per SP name required")
        if len(self.models) != self.params.n_sp:
            raise ValueError("one benefit per SP required")
        if not self.models:
            raise ValueError("need at least one SP")
        if len(set(self.sp_names)) != len(self.sp_names):
            raise ValueError("SP names must be unique")
        kinds = {type(m) for m in self.models}
        if len(kinds) != 1:
            raise ValueError("all SPs must share one demand model kind")
        kind = kinds.pop()
        if kind not in (BoundedLoadModel, FbmLoadModel):
            raise ValueError(f"unsupported demand model {kind.__name__}")
        bounds = [m.load_bound(self.horizon, self.params.slot_seconds) for m in self.models]
        for i, (m, bound) in enumerate(zip(self.models, bounds)):
            if not math.isfinite(bound):
                raise ValueError(f"players[{i}]: {m.OVERFLOW.format(slots=self.horizon)}")
        # Python floats: an overflow gives inf without a RuntimeWarning.  Every factor after
        # ``bound * benefit`` is at least 1, so no partial product overflows unless the whole does.
        scale, revenue = max(1.0, self.params.saturation), 0.0
        for i, (bound, benefit) in enumerate(zip(bounds, self.params.benefits)):
            revenue += bound * benefit * self.horizon
            if not math.isfinite(scale * revenue):
                raise ValueError(
                    f"players[{i}]: revenue overflows at {self.horizon} slots: max(1, saturation) * "
                    "sum of benefit * horizon * load bound over players[0..i] is not finite"
                )

    @property
    def n_sp(self) -> int:
        return len(self.models)

    @property
    def n_players(self) -> int:
        return self.n_sp + 1

    @property
    def horizon(self) -> int:
        return self.params.horizon

    @property
    def kind(self) -> str:
        return "bounded" if isinstance(self.models[0], BoundedLoadModel) else "fbm"

    @property
    def player_names(self) -> tuple:
        return ("InP",) + self.sp_names

    def expected_loads(self) -> np.ndarray:
        return expected_load_matrix(self.models, self.horizon, self.params.slot_seconds)
