"""Per-sample reference implementations that the batched code is tested against.

Each oracle evaluates one agent or one value at a time, so it shares no
batching logic with the path it checks.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma, gammaln

from uav_iscc.agents import mu_obs_dim, uav_obs_dim
from uav_iscc.env import Allocation, ScenarioConfig, TaskSpec, WorldState, radar_leakage
from uav_iscc.mappo import CriticParams
from uav_iscc.numerics import AttentionBlockParams, Tensor, concat, mlp_forward

_MASK = -1e30


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax; outputs are positive and sum to one on `axis`.

    One recorded node: the backward is g*y - y * sum(g*y) on `axis`.
    """
    logits = Tensor._lift(logits)
    e = np.exp(logits.data - logits.data.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        gy = g * y
        gy -= y * gy.sum(axis=axis, keepdims=True)
        logits._accumulate(gy)

    return Tensor._make(y, (logits,), backward)


def masked_attention_chain(q, key, val, offset: int) -> Tensor:
    """Unfused `self_masked_attention`: scale, dense diagonal mask, softmax and
    pool, each a recorded node of its own."""
    q, key = Tensor._lift(q), Tensor._lift(key)
    n_q, n_u = q.shape[-2], key.shape[-2]
    mask = np.diag(np.full(n_u, _MASK))[offset:offset + n_q]     # [Q, U]
    scores = (q @ key.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1])) + mask
    return softmax(scores, axis=-1) @ val


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

    `all_obs`/`all_acts` are per-agent vectors in global order, MUs first.
    Fewer than two agents is rejected, as in `critic_values_batch`.
    """
    if len(all_obs) < 2:
        raise ValueError(f"the critic needs at least two agents, got {len(all_obs)}")
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


# ----------------------------------------------------------------------
# link design, one (MU, UAV) link at a time
# ----------------------------------------------------------------------
def interference_covariance(world: WorldState, alloc: Allocation, radars: list,
                            cfg: ScenarioConfig, uav_index: int) -> np.ndarray:
    """Inter-MU plus radar-leakage plus noise covariance at one UAV's array."""
    n = cfg.rx_antennas
    cov = cfg.noise_power * np.eye(n, dtype=complex)
    cov = cov + radar_leakage(radars[uav_index], n)
    active = np.flatnonzero(alloc.association.sum(axis=1) > 0)
    for i in active:
        h = world.channels[i, uav_index]
        cov = cov + cfg.mu_power_max * (h @ h.conj().T)
    return 0.5 * (cov + cov.conj().T)


def _solve_hpd(mat: np.ndarray, rhs: np.ndarray, cfg: ScenarioConfig) -> tuple[np.ndarray, bool]:
    try:
        return np.linalg.solve(mat, rhs), False
    except np.linalg.LinAlgError:
        loaded = mat + cfg.noise_power * 1e-6 * np.eye(mat.shape[0])
        return np.linalg.solve(loaded, rhs), True


def mmse_beamformer(channel: np.ndarray, noise_cov: np.ndarray,
                    cfg: ScenarioConfig) -> tuple[np.ndarray, bool]:
    """Unit-norm combiner of one link: noise_cov^-1 H u1."""
    _, _, vh = np.linalg.svd(channel)
    principal = channel @ vh[0].conj()
    w, loaded = _solve_hpd(noise_cov, principal, cfg)
    norm = np.linalg.norm(w)
    if norm == 0:
        w = principal / np.linalg.norm(principal)
    else:
        w = w / norm
    return w, loaded


def comm_rate(channel: np.ndarray, beamformer: np.ndarray, noise_cov: np.ndarray,
              power: float, cfg: ScenarioConfig) -> float:
    """Uplink rate of one link in bits/s: B * sum_i log2(1 + s / lambda_i)."""
    s = power * float(np.real(np.vdot(channel.conj().T @ beamformer,
                                      channel.conj().T @ beamformer)))
    lam = np.linalg.eigvalsh(noise_cov)
    lam = np.maximum(lam, np.finfo(float).tiny)
    rate = cfg.bandwidth_hz * float(np.sum(np.log2(1.0 + s / lam)))
    return max(rate, 0.0)


def design_links(world: WorldState, alloc: Allocation, radars: list,
                 cfg: ScenarioConfig) -> tuple[dict, bool]:
    """Per-UAV, per-MU loop that `uav_iscc.env.design_links` must match bit for bit."""
    rates: dict[int, float] = {}
    loaded_any = False
    for m in range(world.num_uavs):
        served = alloc.served_by(m)
        if served.size == 0:
            continue
        total = interference_covariance(world, alloc, radars, cfg, m)
        for k in served:
            h = world.channels[k, m]
            own = cfg.mu_power_max * (h @ h.conj().T)
            n_cov = total - own
            n_cov = 0.5 * (n_cov + n_cov.conj().T)
            w, loaded = mmse_beamformer(h, n_cov, cfg)
            loaded_any = loaded_any or loaded
            rates[int(k)] = comm_rate(h, w, n_cov, cfg.mu_power_max, cfg)
    return rates, loaded_any


# ----------------------------------------------------------------------
# observations, one agent at a time
# ----------------------------------------------------------------------
def _unit(value: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    return float(np.clip((value - lo) / (hi - lo), 0.0, 1.0))


def scale_task(task: TaskSpec, cfg: ScenarioConfig) -> np.ndarray:
    return np.array([
        _unit(task.data_bits, cfg.data_bits_min, cfg.data_bits_max),
        _unit(task.compute_density, cfg.compute_density_min, cfg.compute_density_max),
        _unit(task.compress_density, cfg.compress_density_min, cfg.compress_density_max),
        _unit(task.compress_ratio, cfg.compress_ratio_min, cfg.compress_ratio_max),
        _unit(task.deadline, cfg.deadline_min, cfg.deadline_max),
    ])


def build_mu_observations(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    width = cfg.region_width
    uav_xy = (world.uav_positions() / width).ravel()
    out = []
    for k, mu in enumerate(world.mus):
        vec = np.concatenate([
            [k / max(cfg.num_mus, 1)],
            scale_task(mu.task, cfg),
            uav_xy,
            mu.position / width,
        ])
        out.append(vec)
    return np.array(out).reshape(world.num_mus, mu_obs_dim(cfg))


def roster_of(alloc: Allocation, m: int, cfg: ScenarioConfig) -> np.ndarray:
    """One UAV's served MU indices in ascending order, padded with -1 to the capacity."""
    served = alloc.served_by(m)[: cfg.k_cap]
    roster = np.full(cfg.k_cap, -1, dtype=int)
    roster[: served.size] = served
    return roster


def build_uav_observations(world: WorldState, alloc: Allocation,
                           cfg: ScenarioConfig) -> np.ndarray:
    width = cfg.region_width
    out = []
    for m in range(world.num_uavs):
        roster = roster_of(alloc, m, cfg)
        slots = []
        for k in roster:
            if k < 0:
                slots.append(np.zeros(9))
                continue
            mu = world.mus[k]
            slots.append(np.concatenate([
                mu.position / width,
                scale_task(mu.task, cfg),
                [alloc.offload_ratio[k], alloc.compress_ratio[k]],
            ]))
        others = [world.uavs[i].position / width
                  for i in range(world.num_uavs) if i != m]
        vec = np.concatenate([
            [m / max(cfg.num_uavs, 1)],
            *slots,
            world.uavs[m].position / width,
            *others,
        ])
        out.append(vec)
    return np.array(out).reshape(world.num_uavs, uav_obs_dim(cfg))
