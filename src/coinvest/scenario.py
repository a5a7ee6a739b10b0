"""One co-investment scenario: SPs, their demand models, market constants."""

from __future__ import annotations

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
                raise ValueError(f"model {i} slot length disagrees with the economic slot length")

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
