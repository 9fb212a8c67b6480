"""Per-sample reference implementations that the batched code is tested against.

Each oracle evaluates one agent or one value at a time, so it shares no
batching logic with the path it checks.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma, gammaln

from uav_iscc.mappo import CriticParams
from uav_iscc.numerics import AttentionBlockParams, Tensor, concat, mlp_forward, softmax


def head_rows(block: AttentionBlockParams, h: int) -> slice:
    """Rows of head `h` in the stacked query/key/value weights."""
    return slice(h * block.head_dim, (h + 1) * block.head_dim)


def attention_pool(block: AttentionBlockParams, query_feature, other_features) -> Tensor:
    """Pool other agents' features into a context vector of length V.

    Per head, weights over `other_features` come from a softmax of scaled
    key-query inner products (scale 1/sqrt(head_dim)); the head outputs
    sum(weight * W_val z) and are concatenated then linearly mixed back to
    length V. An empty `other_features` yields the zero vector.
    """
    query_feature = Tensor._lift(query_feature)
    if not other_features:
        return Tensor(np.zeros(block.feature_dim))
    others = concat([Tensor._lift(z).reshape(1, -1) for z in other_features], axis=0)  # [N, V]
    scale = 1.0 / np.sqrt(block.head_dim)
    head_outputs = []
    for h in range(block.heads):
        rows = head_rows(block, h)
        q = block.w_que[rows] @ query_feature            # [head_dim]
        keys = others @ block.w_key[rows].transpose()    # [N, head_dim]
        weights = softmax(keys @ q * scale, axis=0)      # [N]
        vals = others @ block.w_val[rows].transpose()    # [N, head_dim]
        head_outputs.append(weights @ vals)              # [head_dim]
    return concat(head_outputs, axis=0) @ block.w_mix


def attention_weights(block: AttentionBlockParams, query_feature, other_features) -> np.ndarray:
    """Per-head weight vectors [heads, N]."""
    q_np = np.asarray(Tensor._lift(query_feature).data)
    others = np.stack([np.asarray(Tensor._lift(z).data) for z in other_features])
    scale = 1.0 / np.sqrt(block.head_dim)
    rows = []
    for h in range(block.heads):
        hr = head_rows(block, h)
        scores = (others @ block.w_key.data[hr].T) @ (block.w_que.data[hr] @ q_np) * scale
        e = np.exp(scores - scores.max())
        rows.append(e / e.sum())
    return np.stack(rows)


def critic_forward(params: CriticParams, all_obs: list, all_acts: list,
                   num_mus: int, agent: int) -> Tensor:
    """Value of one agent for one time step (`critic_values_batch` must agree).

    `all_obs`/`all_acts` are per-agent vectors in global order, MUs first. A
    lone agent pools an all-zero context.
    """
    feats = []
    for u, (o, a) in enumerate(zip(all_obs, all_acts)):
        enc = params.encoder_mu if u < num_mus else params.encoder_uav
        feats.append(mlp_forward(enc, concat([Tensor(o), Tensor(a)], axis=0)))
    others = [feats[w] for w in range(len(feats)) if w != agent]
    context = attention_pool(params.attention, feats[agent], others)
    return mlp_forward(params.value_head, concat([context, feats[agent]], axis=0))


def beta_entropy_value(zeta: float, eta: float) -> float:
    """Plain-float Beta entropy in nats, independent of the autodiff path."""
    t = zeta + eta
    return float(gammaln(zeta) + gammaln(eta) - gammaln(t)
                 - (zeta - 1.0) * digamma(zeta)
                 - (eta - 1.0) * digamma(eta)
                 + (t - 2.0) * digamma(t))
