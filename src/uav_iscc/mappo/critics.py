"""Centralized critics: one attention critic per agent type over all agents'
observation-action features (the MAAC critic).

Agents are globally ordered MUs first, then UAVs. A critic owns one encoder
per agent type, an attention block, and a value head that reads the pooled
context concatenated with the agent's own feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import (
    AttentionBlockParams,
    MlpParams,
    Tensor,
    concat,
    mlp_forward,
    self_masked_attention,
)


@dataclass
class CriticParams:
    """Value network of one agent type."""

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


def critic_values_batch(params: CriticParams, mu_obs, mu_act, uav_obs, uav_act,
                        want: str) -> Tensor:
    """Values for every agent of one type across a batch of time steps.

    Inputs: mu_obs [T, K, d_mu_obs], mu_act [T, K, A_mu], uav_obs [T, M, ...],
    uav_act [T, M, ...]. Every agent is encoded and supplies attention keys and
    values; queries, attention and the value head run only for the Q agents of
    type `want` ("mu": Q = K, "uav": Q = M), as in the MAAC critic.
    Returns a Tensor [T, Q]. A batch of fewer than two agents is rejected:
    an agent attends only to the others.
    """
    if want not in ("mu", "uav"):
        raise ValueError(f"want must be 'mu' or 'uav', got {want!r}")
    t_len, k = mu_obs.shape[0], mu_obs.shape[1]
    m = uav_obs.shape[1]
    if k + m < 2:
        raise ValueError(f"the critic needs at least two agents, got K + M = {k + m}")
    mu_feats = mlp_forward(params.encoder_mu, np.concatenate([mu_obs, mu_act], axis=-1))
    uav_feats = mlp_forward(params.encoder_uav, np.concatenate([uav_obs, uav_act], axis=-1))
    feats = concat([mu_feats, uav_feats], axis=-2)        # [T, U, V]
    own, offset = (mu_feats, 0) if want == "mu" else (uav_feats, k)
    n_own = own.shape[1]
    block = params.attention
    heads, head_dim = block.heads, block.head_dim

    def split_heads(x, w):                                # [T, N, V] -> [T, H, N, Vh]
        return (x @ w.swapaxes(0, 1)).reshape(t_len, x.shape[1], heads, head_dim).swapaxes(1, 2)

    q = split_heads(own, block.w_que)
    key, val = split_heads(feats, block.w_key), split_heads(feats, block.w_val)
    pooled = self_masked_attention(q, key, val, offset)   # [T, H, Q, Vh]
    pooled = pooled.swapaxes(1, 2).reshape(t_len, n_own, heads * head_dim)
    context = pooled @ block.w_mix                         # [T, Q, V]
    joined = concat([context, own], axis=-1)               # [T, Q, 2V]
    return mlp_forward(params.value_head, joined).reshape(t_len, n_own)
