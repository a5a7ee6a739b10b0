"""Coalition bitmasks.

Player 0 is the infrastructure provider; players 1..N are the service
providers in scenario order.  A coalition is the set of players whose
bits are set.  SP ``i`` (player index ``i``, ``i >= 1``) maps to row
``i - 1`` of every load and share matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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
    def of(cls, members: Iterable[int], n_players: int) -> "PlayerSet":
        bits = 0
        for m in members:
            if not 0 <= m < n_players:
                raise ValueError(f"player {m} out of range")
            bits |= 1 << m
        return cls(bits, n_players)

    @classmethod
    def grand(cls, n_players: int) -> "PlayerSet":
        return cls((1 << n_players) - 1, n_players)

    @classmethod
    def empty(cls, n_players: int) -> "PlayerSet":
        return cls(0, n_players)

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

    def contains(self, player: int) -> bool:
        return bool(self.bits >> player & 1)

    def add(self, player: int) -> "PlayerSet":
        return PlayerSet(self.bits | 1 << player, self.n_players)

    def label(self, names=None) -> str:
        if self.bits == 0:
            return "none"
        if names is None:
            names = ["InP"] + [f"SP{i}" for i in range(1, self.n_players)]
        return "+".join(names[i] for i in self.members)


def all_coalitions(n_players: int) -> Iterator[PlayerSet]:
    for bits in range(1 << n_players):
        yield PlayerSet(bits, n_players)
