"""Generalized advantage estimation over fixed-length episodes."""

from __future__ import annotations

import numpy as np


def compute_gae(rewards: np.ndarray, values: np.ndarray, bootstrap_value: float,
                gamma: float, lam: float) -> np.ndarray:
    """Exponentially weighted sums of TD errors, truncated at the episode end.

    rewards/values have shape [T], or [T, N] with one independent column per
    agent; `bootstrap_value` stands in for V(s_T) in every column. Returns the
    advantages, shaped like `rewards`.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    adv = np.zeros_like(rewards)
    running = 0.0
    next_value = float(bootstrap_value)
    for t in reversed(range(rewards.shape[0])):
        delta = rewards[t] + gamma * next_value - values[t]
        running = delta + gamma * lam * running
        adv[t] = running
        next_value = values[t]
    return adv
