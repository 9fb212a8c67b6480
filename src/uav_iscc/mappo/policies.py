"""Stochastic actors: one shared MLP trunk per agent type, read as Beta shapes.

A trunk maps an observation to 2*A raw outputs; each half goes through
1 + softplus, so both Beta shapes of every action dimension stay above one and
each density is unimodal. Policies live on the unit cube: stored actions are
the unit draws, which also feed the critics, and log-probabilities are
densities on that cube. Decoding (`agents.actions`) alone maps a unit draw to
its physical range; that affine map has a constant Jacobian, which cancels in
the PPO ratio. A Beta has its support on the unit interval itself, so no draw
is clamped at a boundary.
"""

from __future__ import annotations

import numpy as np

from ..numerics import (
    MlpParams,
    Tensor,
    beta_entropy,
    beta_log_prob,
    beta_sample,
    mlp_forward,
    no_grad,
)


def actor_forward(trunk: MlpParams, obs) -> tuple[Tensor, Tensor]:
    """Per-dimension Beta shape pair (zeta, eta), both > 1."""
    raw = mlp_forward(trunk, obs)
    half = raw.shape[-1] // 2
    return 1.0 + raw[..., :half].softplus(), 1.0 + raw[..., half:].softplus()


def sample_action(trunk: MlpParams, obs_batch: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one action per row of `obs_batch`.

    Returns (unit actions [B, A], log-probs [B]); the log-probability is the
    joint density on the unit cube.
    """
    with no_grad():  # the forward records no graph; the density runs on plain arrays
        zeta, eta = (t.data for t in actor_forward(trunk, Tensor(obs_batch)))
    unit = beta_sample(zeta, eta, rng)
    logp = beta_log_prob(zeta, eta, unit).sum(axis=-1).data
    return unit, logp


def greedy_action(trunk: MlpParams, obs_batch: np.ndarray) -> np.ndarray:
    """Deterministic unit action [B, A]: the Beta mean z/(z+e)."""
    with no_grad():
        zeta, eta = (t.data for t in actor_forward(trunk, Tensor(obs_batch)))
    return zeta / (zeta + eta)


def log_prob_entropy(trunk: MlpParams, obs_batch, unit_actions) -> tuple[Tensor, Tensor]:
    """Differentiable joint log-density and entropy for stored unit actions.

    Shapes: obs [.., B, obs_dim], actions [.., B, A] -> both outputs [.., B].
    Both are taken on the unit cube and summed over dimensions.
    """
    zeta, eta = actor_forward(trunk, obs_batch)
    x = np.asarray(unit_actions, dtype=np.float64)
    logp = beta_log_prob(zeta, eta, x).sum(axis=-1)
    ent = beta_entropy(zeta, eta).sum(axis=-1)
    return logp, ent
