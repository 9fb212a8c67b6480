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
    MlpParams,
    Tensor,
    concat,
    dense,
    mlp_forward,
    parameter,
    self_masked_attention,
)


@dataclass
class CriticParams:
    """Value network of every agent: per-type encoders, shared attention and head.

    `w_que`, `w_key` and `w_val` stack the heads' [Vh, V] maps: head h owns rows
    h*Vh:(h+1)*Vh. `w_mix` maps the concatenated heads back to feature width V.
    """

    encoder_mu: MlpParams
    encoder_uav: MlpParams
    heads: int
    w_que: Tensor       # [heads*Vh, V]
    w_key: Tensor
    w_val: Tensor
    w_mix: Tensor       # [heads*Vh, V]
    value_head: MlpParams

    @classmethod
    def create(cls, mu_in: int, uav_in: int, feature_dim: int, heads: int,
               hidden: tuple, rng: np.random.Generator) -> "CriticParams":
        encoder_mu = MlpParams.create([mu_in, hidden[0], feature_dim], rng)
        encoder_uav = MlpParams.create([uav_in, hidden[0], feature_dim], rng)
        # drawn head by head (query, key, value) and stacked by rows
        draws = [[parameter((feature_dim // heads, feature_dim), rng).data for _ in range(3)]
                 for _ in range(heads)]
        w_que, w_key, w_val = (parameter(np.vstack(rows)) for rows in zip(*draws))
        w_mix = parameter((feature_dim, feature_dim), rng)
        return cls(encoder_mu=encoder_mu, encoder_uav=encoder_uav, heads=heads, w_que=w_que,
                   w_key=w_key, w_val=w_val, w_mix=w_mix,
                   value_head=MlpParams.create([2 * feature_dim, *hidden, 1], rng))

    def parameters(self):
        return [*self.encoder_mu.parameters(), *self.encoder_uav.parameters(),
                self.w_que, self.w_key, self.w_val, self.w_mix, *self.value_head.parameters()]


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
    heads, head_dim = params.heads, params.w_que.shape[0] // params.heads

    def split_heads(w):                                   # [T, U, V] -> [T, H, U, Vh]
        return dense(feats, w.swapaxes(0, 1)).reshape(t_len, n_agents, heads, head_dim).swapaxes(1, 2)

    pooled = self_masked_attention(split_heads(params.w_que), split_heads(params.w_key),
                                   split_heads(params.w_val))     # [T, H, U, Vh]
    pooled = pooled.swapaxes(1, 2).reshape(t_len, n_agents, heads * head_dim)
    context = dense(pooled, params.w_mix)                  # [T, U, V]
    joined = concat([context, feats], axis=-1)             # [T, U, 2V]
    return mlp_forward(params.value_head, joined).reshape(t_len, n_agents)
