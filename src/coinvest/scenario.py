"""One co-investment scenario: SPs, their demand models, market constants.

A ``Scenario`` holds the one horizon its models are drawn over, so it owns
the rules that need both: every model's slot length is the economic one,
and an fBm model's expected load (``FbmLoadModel.load_bound``) is a finite
float over the horizon.  ``dataclasses.replace`` copies are checked again.
Refusals name an SP as ``players[i]``, its index in ``sp_names``.
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
        for i, m in enumerate(self.models):
            if abs(m.slot_seconds - self.params.slot_seconds) > 1e-6 * self.params.slot_seconds:
                raise ValueError(f"players[{i}]: slot length disagrees with the economic slot length")
            if kind is FbmLoadModel and not math.isfinite(m.load_bound(self.horizon)):
                raise ValueError(
                    f"players[{i}]: expected load overflows at {self.horizon} slots: "
                    "peak rate * (horizon - 1)**hurst / sqrt(2*pi) * slot_seconds is not finite"
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
        return expected_load_matrix(self.models, self.horizon)
