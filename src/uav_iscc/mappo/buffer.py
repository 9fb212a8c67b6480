"""Per-episode trajectory storage feeding the PPO updates: each agent type's
actor inputs, and one [T, K + M] array of every agent's values, targets and
advantages, in the critic's agent order (MUs first)."""

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

    @classmethod
    def empty(cls, t_len: int, count: int, obs_dim: int, act_dim: int) -> "TypeRollout":
        return cls(obs=np.zeros((t_len, count, obs_dim)),
                   actions=np.zeros((t_len, count, act_dim)),
                   log_probs=np.zeros((t_len, count)), rewards=np.zeros((t_len, count)))


@dataclass
class RolloutBatch:
    """One episode of transitions for every agent, with each slot's world."""

    mu: TypeRollout
    uav: TypeRollout
    values: np.ndarray | None = None       # [T, K + M], set by Trainer.prepare_batch
    advantages: np.ndarray | None = None   # [T, K + M]
    targets: np.ndarray | None = None      # [T, K + M]
    reports: list = field(default_factory=list)
    mu_breakdowns: list = field(default_factory=list)   # [T] RewardBreakdown of [K] arrays
    uav_breakdowns: list = field(default_factory=list)  # [T] RewardBreakdown of [M] arrays
    trajectory: list = field(default_factory=list)      # [T] (world, allocation, accels)

    @property
    def length(self) -> int:
        return self.mu.obs.shape[0]

    def of(self, kind: str) -> TypeRollout:
        return self.mu if kind == "mu" else self.uav
