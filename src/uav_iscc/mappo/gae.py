"""Generalized advantage estimation over fixed-length episodes: discounted
reverse sums of the TD errors δ = target − V of the critic's one-step targets."""

from __future__ import annotations

import numpy as np


def compute_gae(deltas: np.ndarray, decay: float) -> np.ndarray:
    """A_t = Σ_l decay^l · δ_{t+l}, truncated at the episode end.

    `deltas` has shape [T], or [T, N] with one independent column per agent;
    `decay` is γ·λ. Returns the advantages, shaped like `deltas`.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    adv = np.empty_like(deltas)
    running = 0.0
    for t in reversed(range(deltas.shape[0])):
        running = deltas[t] + decay * running
        adv[t] = running
    return adv
