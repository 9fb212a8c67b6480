"""Stochastic actors: one shared MLP trunk per agent type, read as Beta shapes.

A trunk maps an observation to 2*A raw outputs; each half goes through
1 + softplus, so both Beta shapes of every action dimension stay above one and
each density is unimodal. Policies live on the unit cube: stored actions are
the unit draws, which also feed the critic, and log-probabilities are
densities on that cube. Decoding (`agents.actions`) alone maps a unit draw to
its physical range; that affine map has a constant Jacobian, which cancels in
the PPO ratio. A Beta has its support on the unit interval itself, so no draw
is clamped at a boundary. The rollout's stored log-probability and the
update's recomputed one come from the same Beta node, so before any step they
agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..numerics import (
    MlpParams,
    Tensor,
    beta_log_prob_entropy,
    beta_sample,
    mlp_forward,
    no_grad,
)


def actor_forward(trunk: MlpParams, obs) -> tuple[Tensor, Tensor]:
    """Per-dimension Beta shape pair (zeta, eta), both > 1: the two halves of
    1 + softplus of the trunk output."""
    shapes = 1.0 + mlp_forward(trunk, obs).softplus()
    half = shapes.shape[-1] // 2
    return shapes[..., :half], shapes[..., half:]


def sample_action(trunk: MlpParams, obs_batch: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one action per row of `obs_batch`.

    Returns (unit actions [B, A], log-probs [B]); the log-probability is the
    joint density on the unit cube. Nothing is recorded and no entropy is
    taken, so the density costs three lnGamma and no psi.
    """
    with no_grad():  # the forward records no graph, so its outputs are constants
        zeta, eta = actor_forward(trunk, Tensor(obs_batch))
    unit = beta_sample(zeta.data, eta.data, rng)
    logp, _ = beta_log_prob_entropy(zeta, eta, unit, with_entropy=False)
    return unit, logp.data.sum(axis=-1)


def greedy_action(trunk: MlpParams, obs_batch: np.ndarray) -> np.ndarray:
    """Deterministic unit action [B, A]: the Beta mean z/(z+e), in float64."""
    with no_grad():
        zeta, eta = (t.data.astype(np.float64) for t in actor_forward(trunk, Tensor(obs_batch)))
    return zeta / (zeta + eta)


def log_prob_entropy(trunk: MlpParams, obs_batch, unit_actions) -> tuple[Tensor, Tensor]:
    """Differentiable joint log-density and entropy for stored unit actions.

    Shapes: obs [.., B, obs_dim], actions [.., B, A] -> both outputs [.., B].
    Both are taken on the unit cube, by one Beta node per call, and summed
    over dimensions.
    """
    zeta, eta = actor_forward(trunk, obs_batch)
    logp, ent = beta_log_prob_entropy(zeta, eta, unit_actions)
    return logp.sum(axis=-1), ent.sum(axis=-1)
