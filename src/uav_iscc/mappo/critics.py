"""Centralized critic: one attention critic for every agent over all agents'
observation-action features (the MAAC critic, shared by both agent types).

One pass values all U = K + M agents, MUs first, with one encoder per agent
type, a self-attention block in which each agent attends to the other U − 1,
and one value head over the pooled context and the agent's own feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import (
    AttentionBlockParams,
    MlpParams,
    Tensor,
    concat,
    dense,
    mlp_forward,
    self_masked_attention,
)


@dataclass
class CriticParams:
    """Value network of every agent: per-type encoders, shared attention and head."""

    encoder_mu: MlpParams
    encoder_uav: MlpParams
    attention: AttentionBlockParams
    value_head: MlpParams

    @classmethod
    def create(cls, mu_in: int, uav_in: int, feature_dim: int, heads: int,
               hidden: tuple, rng: np.random.Generator) -> "CriticParams":
        return cls(encoder_mu=MlpParams.create([mu_in, hidden[0], feature_dim], rng),
                   encoder_uav=MlpParams.create([uav_in, hidden[0], feature_dim], rng),
                   attention=AttentionBlockParams.create(feature_dim, heads, rng),
                   value_head=MlpParams.create([2 * feature_dim, *hidden, 1], rng))

    def parameters(self):
        parts = (self.encoder_mu, self.encoder_uav, self.attention, self.value_head)
        return [p for part in parts for p in part.parameters()]


def critic_values_batch(params: CriticParams, mu_obs, mu_act, uav_obs, uav_act) -> Tensor:
    """Values of every agent across a batch of time steps, in one pass.

    Inputs: mu_obs [T, K, d_mu_obs], mu_act [T, K, A_mu], uav_obs [T, M, ...],
    uav_act [T, M, ...]. Every agent is encoded once, supplies attention keys
    and values, and queries all the others, as in the MAAC critic.
    Returns a Tensor [T, K + M], the MUs' columns first. A batch of fewer than
    two agents is rejected: an agent attends only to the others.
    """
    t_len, n_agents = mu_obs.shape[0], mu_obs.shape[1] + uav_obs.shape[1]
    if n_agents < 2:
        raise ValueError(f"the critic needs at least two agents, got K + M = {n_agents}")
    mu_feats = mlp_forward(params.encoder_mu, np.concatenate([mu_obs, mu_act], axis=-1))
    uav_feats = mlp_forward(params.encoder_uav, np.concatenate([uav_obs, uav_act], axis=-1))
    feats = concat([mu_feats, uav_feats], axis=-2)        # [T, U, V]
    block = params.attention
    heads, head_dim = block.heads, block.head_dim

    def split_heads(w):                                   # [T, U, V] -> [T, H, U, Vh]
        return dense(feats, w.swapaxes(0, 1)).reshape(t_len, n_agents, heads, head_dim).swapaxes(1, 2)

    pooled = self_masked_attention(split_heads(block.w_que), split_heads(block.w_key),
                                   split_heads(block.w_val))      # [T, H, U, Vh]
    pooled = pooled.swapaxes(1, 2).reshape(t_len, n_agents, heads * head_dim)
    context = dense(pooled, block.w_mix)                   # [T, U, V]
    joined = concat([context, feats], axis=-1)             # [T, U, 2V]
    return mlp_forward(params.value_head, joined).reshape(t_len, n_agents)
