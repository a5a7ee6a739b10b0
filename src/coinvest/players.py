"""Coalition bitmasks and their membership matrix.

Player 0 is the infrastructure provider; players 1..N are the service
providers in scenario order.  A coalition is the set of players whose
bits are set.  SP ``i`` (player index ``i``, ``i >= 1``) maps to row
``i - 1`` of every load and share matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

MAX_PLAYERS = 16


@dataclass(frozen=True)
class PlayerSet:
    bits: int
    n_players: int

    def __post_init__(self):
        if not 2 <= self.n_players <= MAX_PLAYERS:
            raise ValueError(f"n_players must lie in [2, {MAX_PLAYERS}]")
        if not 0 <= self.bits < (1 << self.n_players):
            raise ValueError("coalition bits out of range for this player count")

    @classmethod
    def grand(cls, n_players: int) -> "PlayerSet":
        return cls((1 << n_players) - 1, n_players)

    @property
    def includes_inp(self) -> bool:
        return bool(self.bits & 1)

    @property
    def members(self) -> tuple:
        return tuple(i for i in range(self.n_players) if self.bits >> i & 1)

    @property
    def sp_rows(self) -> np.ndarray:
        """Load-matrix rows of the member SPs (player index minus one)."""
        return np.array([i - 1 for i in self.members if i >= 1], dtype=int)

    def label(self, names) -> str:
        if self.bits == 0:
            return "none"
        return "+".join(names[i] for i in self.members)


def all_coalitions(n_players: int) -> Iterator[PlayerSet]:
    for bits in range(1 << n_players):
        yield PlayerSet(bits, n_players)


@functools.cache
def membership(n_players: int) -> np.ndarray:
    """Memoised read-only 0/1 matrix: row ``S`` marks the members of coalition ``S``."""
    member = np.arange(1 << n_players)[:, None] >> np.arange(n_players) & 1
    member.flags.writeable = False
    return member
