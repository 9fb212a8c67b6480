"""Per-episode trajectory storage feeding the PPO updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TypeRollout:
    """Fixed-length arrays for one agent type: [T, U, ...] layout."""

    obs: np.ndarray
    actions: np.ndarray        # unit-interval actions
    log_probs: np.ndarray      # [T, U]
    rewards: np.ndarray        # [T, U]
    values: np.ndarray | None = None
    advantages: np.ndarray | None = None
    targets: np.ndarray | None = None


@dataclass
class RolloutBatch:
    """One episode of transitions for every agent plus global state."""

    mu: TypeRollout
    uav: TypeRollout
    global_state: np.ndarray           # [T, S], concatenated observations
    reports: list = field(default_factory=list)
    mu_breakdowns: list = field(default_factory=list)   # [T] RewardBreakdown of [K] arrays
    uav_breakdowns: list = field(default_factory=list)  # [T] RewardBreakdown of [M] arrays
    trajectory: list | None = None     # per-entity rows when recording is on

    @property
    def length(self) -> int:
        return self.global_state.shape[0]

    def of(self, kind: str) -> TypeRollout:
        return self.mu if kind == "mu" else self.uav
