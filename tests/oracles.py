"""Per-sample reference implementations that the batched code is tested against.

Each oracle evaluates one agent or one value at a time, so it shares no
batching logic with the path it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, gammaln

from uav_iscc.agents import mu_obs_dim, uav_obs_dim
from uav_iscc.env import (
    Allocation,
    ScenarioConfig,
    SlotReport,
    WorldState,
    mu_slot_outcome,
)
from uav_iscc.mappo import CriticParams
from uav_iscc.numerics import Tensor, concat, dense, mlp_forward
from uav_iscc.numerics.distributions import _trigamma
from uav_iscc.numerics.tensor import _unbroadcast

_MASK = -1e30


def in_float64(*params: Tensor) -> None:
    """Cast parameters (say, a network's `parameters()`) to float64 in place, so
    that a finite-difference or oracle comparison is not limited by float32
    rounding."""
    for p in params:
        p.data = p.data.astype(np.float64)


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


def tanh_node(x: Tensor) -> Tensor:
    """Elementwise tanh as one recorded node (the name keeps `dense_chain`'s
    `tanh` flag free); the backward is g * (1 - y*y)."""
    y = np.tanh(x.data)

    def backward(g):
        x._accumulate(g * (1.0 - y * y))

    return Tensor._make(y, (x,), backward)


def matmul(a, b) -> Tensor:
    """`a @ b` for any operands numpy's matmul takes, 1-D or batched on either
    side, as one recorded node; `dense` takes [..., n] @ [n, m] only."""
    a = Tensor._lift(a)
    b = Tensor._lift(b, a)
    x, y = a.data, b.data
    # promote 1-d operands so one backward rule covers every case
    x2 = x[None, :] if x.ndim == 1 else x
    y2 = y[:, None] if y.ndim == 1 else y

    def backward(g):
        if x.ndim == 1:
            g = np.expand_dims(g, -2)
        if y.ndim == 1:
            g = np.expand_dims(g, -1)
        if a._tracked:
            a._accumulate(_unbroadcast(g @ y2.swapaxes(-1, -2), x2.shape).reshape(x.shape))
        if b._tracked:
            b._accumulate(_unbroadcast(x2.swapaxes(-1, -2) @ g, y2.shape).reshape(y.shape))

    return Tensor._make(x @ y, (a, b), backward)


def dense_chain(x, w: Tensor, b: Tensor, tanh: bool) -> Tensor:
    """Unfused `dense`: the bias-less product, the bias add and the tanh, each a
    recorded node."""
    out = dense(x, w) + b
    return tanh_node(out) if tanh else out


def masked_attention_chain(q, key, val) -> Tensor:
    """Unfused `self_masked_attention`: scale, dense diagonal mask, softmax and
    pool, each a recorded node of its own."""
    q, key = Tensor._lift(q), Tensor._lift(key)
    mask = np.diag(np.full(key.shape[-2], _MASK))                 # [U, U]
    scores = matmul(q, key.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1])) + mask
    return matmul(softmax(scores, axis=-1), val)


def head_dim(critic: CriticParams) -> int:
    """Width Vh of one attention head."""
    return critic.w_que.shape[0] // critic.heads


def head_rows(critic: CriticParams, h: int) -> slice:
    """Rows of head `h` in the stacked query/key/value weights."""
    return slice(h * head_dim(critic), (h + 1) * head_dim(critic))


def attention_pool(critic: CriticParams, query_feature, other_features) -> Tensor:
    """Pool other agents' features into a context vector of length V with the
    critic's attention maps.

    Per head, weights over `other_features` come from a softmax of scaled
    key-query inner products (scale 1/sqrt(head_dim)); the head outputs
    sum(weight * W_val z) and are concatenated then linearly mixed back to
    length V. An empty `other_features` yields the zero vector.
    """
    query_feature = Tensor._lift(query_feature)
    if not other_features:
        return Tensor(np.zeros(critic.w_mix.shape[1]))
    others = concat([Tensor._lift(z).reshape(1, -1) for z in other_features], axis=0)  # [N, V]
    scale = 1.0 / np.sqrt(head_dim(critic))
    head_outputs = []
    for h in range(critic.heads):
        rows = head_rows(critic, h)
        q = matmul(critic.w_que[rows], query_feature)             # [head_dim]
        keys = matmul(others, critic.w_key[rows].swapaxes(0, 1))  # [N, head_dim]
        weights = softmax(matmul(keys, q) * scale, axis=0)        # [N]
        vals = matmul(others, critic.w_val[rows].swapaxes(0, 1))  # [N, head_dim]
        head_outputs.append(matmul(weights, vals))                # [head_dim]
    return matmul(concat(head_outputs, axis=0), critic.w_mix)


def attention_weights(critic: CriticParams, query_feature, other_features) -> np.ndarray:
    """Per-head weight vectors [heads, N] of the critic's attention."""
    q_np = np.asarray(Tensor._lift(query_feature).data)
    others = np.stack([np.asarray(Tensor._lift(z).data) for z in other_features])
    scale = 1.0 / np.sqrt(head_dim(critic))
    rows = []
    for h in range(critic.heads):
        hr = head_rows(critic, h)
        scores = (others @ critic.w_key.data[hr].T) @ (critic.w_que.data[hr] @ q_np) * scale
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
    context = attention_pool(params, feats[agent], others)
    return mlp_forward(params.value_head, concat([context, feats[agent]], axis=0))


def lgamma(t) -> Tensor:
    """lnGamma as a recorded node of its own; its backward is g * psi."""
    t = Tensor._lift(t)

    def backward(g):
        t._accumulate(g * digamma(t.data))

    return Tensor._make(gammaln(t.data), (t,), backward)


def psi(t) -> Tensor:
    """The digamma function as a recorded node of its own; its backward is g * psi'."""
    t = Tensor._lift(t)

    def backward(g):
        t._accumulate(g * _trigamma(t.data))

    return Tensor._make(digamma(t.data), (t,), backward)


def beta_log_prob_chain(zeta, eta, x) -> Tensor:
    """Per-op chain of ln f(x; zeta, eta), one recorded node per operation.

    `beta_log_prob_entropy` must equal its values bit for bit.
    """
    zeta, eta = Tensor._lift(zeta), Tensor._lift(eta)
    x = np.asarray(x, dtype=np.float64)
    log_norm = lgamma(zeta + eta) - lgamma(zeta) - lgamma(eta)
    return log_norm + (zeta - 1.0) * np.log(x) + (eta - 1.0) * np.log1p(-x)


def beta_entropy_chain(zeta, eta) -> Tensor:
    """Per-op chain of the Beta entropy in nats, one recorded node per operation."""
    zeta, eta = Tensor._lift(zeta), Tensor._lift(eta)
    total = zeta + eta
    log_b = lgamma(zeta) + lgamma(eta) - lgamma(total)
    return (log_b
            - (zeta - 1.0) * psi(zeta)
            - (eta - 1.0) * psi(eta)
            + (total - 2.0) * psi(total))


def beta_entropy_value(zeta: float, eta: float) -> float:
    """Plain-float Beta entropy in nats, independent of the autodiff path."""
    t = zeta + eta
    return float(gammaln(zeta) + gammaln(eta) - gammaln(t)
                 - (zeta - 1.0) * digamma(zeta)
                 - (eta - 1.0) * digamma(eta)
                 + (t - 2.0) * digamma(t))


# ----------------------------------------------------------------------
# association lookups, one MU or one UAV at a time
# ----------------------------------------------------------------------
def serving_uav(alloc: Allocation, k: int) -> int:
    """The UAV that MU `k` is associated with, -1 if none."""
    row = np.flatnonzero(alloc.association[k] > 0)
    return int(row[0]) if row.size else -1


def served_by(alloc: Allocation, m: int) -> np.ndarray:
    """Indices of the MUs associated with UAV `m`, ascending."""
    return np.flatnonzero(alloc.association[:, m] > 0)


# ----------------------------------------------------------------------
# episode start and task pipeline, one MU at a time
# ----------------------------------------------------------------------
def reset_mus(cfg: ScenarioConfig, rng: np.random.Generator):
    """Each MU's position, heading and task drawn by separate calls:
    (positions [K, 2], headings [K], tasks [K, 5])."""
    positions, headings, tasks = [], [], []
    for _ in range(cfg.num_mus):
        positions.append(rng.uniform(0.0, cfg.region_width, size=2))
        headings.append(rng.uniform(-np.pi, np.pi))
        tasks.append(draw_task(cfg, rng))
    return (np.array(positions).reshape(-1, 2), np.array(headings),
            np.array(tasks).reshape(-1, 5))


def draw_task(cfg: ScenarioConfig, rng: np.random.Generator) -> list:
    """One task, one uniform call per field in `TASK_FIELDS` order."""
    return [rng.uniform(cfg.data_bits_min, cfg.data_bits_max),
            rng.uniform(cfg.compute_density_min, cfg.compute_density_max),
            rng.uniform(cfg.compress_density_min, cfg.compress_density_max),
            rng.uniform(cfg.compress_ratio_min, cfg.compress_ratio_max),
            rng.uniform(cfg.deadline_min, cfg.deadline_max)]


def step_mobility(position: np.ndarray, speed: float, heading: float, cfg: ScenarioConfig,
                  rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    """One MU's Gauss-Markov step, drawing its speed then heading innovation:
    (position, speed, heading)."""
    mu1 = cfg.mobility_speed_memory
    mu2 = cfg.mobility_heading_memory
    speed_noise = rng.normal(0.0, cfg.mobility_speed_noise_std)
    heading_noise = rng.normal(0.0, cfg.mobility_heading_noise_std)

    new_speed = (mu1 * speed
                 + (1.0 - mu1) * cfg.mobility_mean_speed
                 + np.sqrt(max(0.0, 1.0 - mu1 * mu1)) * speed_noise)
    new_heading = (mu2 * heading
                   + (1.0 - mu2) * cfg.mobility_mean_heading
                   + np.sqrt(max(0.0, 1.0 - mu2 * mu2)) * heading_noise)
    new_speed = max(0.0, new_speed)

    step = speed * cfg.slot_seconds
    pos = position + step * np.array([np.cos(heading), np.sin(heading)])
    width = cfg.region_width
    if pos[0] < 0.0 or pos[0] > width:
        pos[0] = np.clip(pos[0], 0.0, width)
        new_heading = np.pi - new_heading
    if pos[1] < 0.0 or pos[1] > width:
        pos[1] = np.clip(pos[1], 0.0, width)
        new_heading = -new_heading
    new_heading = float(np.arctan2(np.sin(new_heading), np.cos(new_heading)))
    return pos, float(new_speed), new_heading


_PIPELINE_FIELDS = ("t_local", "t_compress", "t_offload", "t_decompress", "t_edge_compute",
                    "t_edge_total", "latency", "e_compress", "e_local", "e_offload", "e_mu")


def task_pipeline(world: WorldState, alloc: Allocation, rates: dict,
                  cfg: ScenarioConfig) -> dict:
    """The slot's per-MU report fields plus rate and deadline, and the per-UAV
    e_edge_compute and e_decompress sums, written entry by entry."""
    k_count, m_count = world.num_mus, world.num_uavs
    rep = {name: np.zeros(k_count) for name in _PIPELINE_FIELDS + ("rate", "deadline")}
    rep["e_edge_compute"] = np.zeros(m_count)
    rep["e_decompress"] = np.zeros(m_count)
    for k in range(k_count):
        task = world.tasks[k].tolist()
        serving = serving_uav(alloc, k)
        rho = float(alloc.offload_ratio[k]) if serving >= 0 else 0.0
        eta = float(alloc.compress_ratio[k]) if rho > 0.0 else 0.0
        f_edge = float(alloc.edge_cpu[k, serving]) if serving >= 0 else 0.0
        rate = rates.get(k, 0.0)
        j_dec = float(world.uav_decompress[serving]) if serving >= 0 else 0.0
        out = mu_slot_outcome(task, rho, eta, f_edge, rate, j_dec, cfg)
        for name in _PIPELINE_FIELDS:
            rep[name][k] = getattr(out, name)
        rep["rate"][k] = rate
        rep["deadline"][k] = task[4]
        if serving >= 0:
            rep["e_edge_compute"][serving] += out.e_edge_compute
            rep["e_decompress"][serving] += out.e_decompress
    return rep


def penalty_P(x: float, zeta: float, eta: float) -> float:
    """2 - exp(-[(x - zeta)/eta]+) with `math.exp`: 1 at or below the slack, capped under 2."""
    excess = max((x - zeta) / eta, 0.0)
    return 2.0 - math.exp(-min(excess, 30.0))


def mu_reward(k: int, report: SlotReport, alloc: Allocation,
              cfg: ScenarioConfig) -> tuple[float, float, float]:
    """One MU's (base, latency factor, reward), with `math.exp` in the factor."""
    serving = serving_uav(alloc, k)
    base = float(report.e_mu[k])
    if serving >= 0:
        base += cfg.weight_factor * float(report.e_uav[serving])
    latency, deadline = float(report.latency[k]), float(report.deadline[k])
    p_lat = penalty_P(latency if math.isfinite(latency) else 1e30, deadline, deadline)
    return base, p_lat, -base * p_lat


# ----------------------------------------------------------------------
# action decode with np.clip, one MU at a time
# ----------------------------------------------------------------------
def decode_mu_action(scores, rho, eta) -> tuple[int, float, float]:
    choice = int(np.argmax(scores)) - 1
    return choice, float(np.clip(rho, 0.0, 1.0)), float(np.clip(eta, 0.0, 1.0))


def build_allocation(raw, cfg: ScenarioConfig) -> Allocation:
    """Capacity-enforced association written into preallocated arrays, one
    row of the `MuAction` record at a time."""
    k = len(raw.offload_ratio)
    m = cfg.num_uavs
    serving = np.full(k, -1)
    rho = np.zeros(k)
    eta = np.zeros(k)
    counts = np.zeros(m, dtype=int)
    for i in range(k):
        choice, r, e = decode_mu_action(raw.scores[i], raw.offload_ratio[i], raw.compress_ratio[i])
        if choice >= 0 and counts[choice] < cfg.k_cap:
            serving[i] = choice
            counts[choice] += 1
            rho[i], eta[i] = r, e
    return Allocation(serving=serving, offload_ratio=rho, compress_ratio=eta,
                      edge_cpu=np.zeros((k, m)))


# ----------------------------------------------------------------------
# channel draw as one expression; received streams one MU at a time
# ----------------------------------------------------------------------
def _rician_weights(cfg: ScenarioConfig) -> tuple[float, float]:
    eps = cfg.rician_factor
    if math.isinf(eps):
        return 1.0, 0.0
    return math.sqrt(eps / (eps + 1.0)), math.sqrt(1.0 / (eps + 1.0))


def build_all_channels(world: WorldState, mus: np.ndarray, uavs: np.ndarray,
                       cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Full Rician channels [S, R, W_R, W_T] from the MUs `mus` [S] to the UAVs
    `uavs` [R] with the phasor powers per array, one interleaved (real,
    imaginary) draw per entry and out-of-place arithmetic: the full product
    that the received streams of `uav_iscc.env.build_all_channels` stand for.
    Path amplitude sqrt(g0) / d and elevation sine h / d share one 1 / d. Its
    [k, m] entry matches that function's own channel of MU k at UAV m bit for
    bit, drawn from the same numbers."""
    mu_pos = world.mu_positions[mus]
    uav_pos = world.uav_positions[uavs]
    diff = uav_pos[None, :, :] - mu_pos[:, None, :]
    inv_d = 1.0 / np.sqrt(np.sum(diff * diff, axis=-1) + cfg.altitude ** 2)
    z = np.exp(1j * np.pi * (cfg.altitude * inv_d))
    a_r = phasor_powers(z, cfg.rx_antennas)
    a_t = phasor_powers(z, cfg.tx_antennas)
    los = a_r[..., :, None] * a_t[..., None, :].conj()
    w_los, w_nlos = _rician_weights(cfg)
    normals = rng.standard_normal((*los.shape, 2))
    scatter = (normals[..., 0] + 1j * normals[..., 1]) / math.sqrt(2.0)
    scale = (math.sqrt(cfg.ref_gain) * inv_d)[..., None, None]
    return scale * (w_los * los + w_nlos * scatter)


def principal_direction(h: np.ndarray) -> np.ndarray:
    """Principal right-singular vector v1 [W_T] of one channel [W_R, W_T], by SVD."""
    return np.linalg.svd(h)[2][0].conj()


def received_streams(channels: np.ndarray, own: np.ndarray) -> np.ndarray:
    """y[s, r] = H[s, r] v_s [S, R, W_R] of the full channels [S, R, W_R, W_T],
    with v_s the SVD principal direction of MU s's own channel H[s, own[s]]."""
    streams = np.empty(channels.shape[:3], dtype=complex)
    for s in range(channels.shape[0]):
        v = principal_direction(channels[s, own[s]])
        for r in range(channels.shape[1]):
            streams[s, r] = channels[s, r] @ v
    return streams


def draw_streams(world: WorldState, mus: np.ndarray, serving: np.ndarray,
                 cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """MU-by-MU twin of `uav_iscc.env.build_all_channels`: [S, R, W_R] for
    the receivers R = the distinct `serving`, ascending.

    Each own channel is the full-product draw of that one (MU, UAV) pair, in
    MU order, and v is the last eigenvector of its H^H H, as in the stacked
    code (an SVD could pick another phase, which would move the cross
    vectors' line-of-sight terms). Then each cross vector takes W_R
    interleaved normals, in (MU, receiver) order, and adds the line-of-sight
    term a_r (a_t^H v) as a dot product."""
    uavs = np.unique(serving)
    n_r, n_t = cfg.rx_antennas, cfg.tx_antennas
    streams = np.empty((mus.size, uavs.size, n_r), dtype=complex)
    directions = []
    for i in range(mus.size):
        h = build_all_channels(world, mus[i:i + 1], serving[i:i + 1], cfg, rng)[0, 0]
        directions.append(np.linalg.eigh(h.conj().T @ h)[1][:, -1])
        streams[i, uavs.searchsorted(serving[i])] = h @ directions[-1]
    w_los, w_nlos = _rician_weights(cfg)
    for i, k in enumerate(mus):
        for j, m in enumerate(uavs):
            if m == serving[i]:
                continue
            z = rng.standard_normal((n_r, 2))
            diff = world.uav_positions[m] - world.mu_positions[k]
            horiz2 = float(diff @ diff)
            angle = math.atan2(cfg.altitude, math.sqrt(horiz2))
            los = steering_vector(angle, n_r) * np.vdot(steering_vector(angle, n_t), directions[i])
            scatter = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
            gain = math.sqrt(cfg.ref_gain / (horiz2 + cfg.altitude ** 2))
            streams[i, j] = gain * (w_los * los + w_nlos * scatter)
    return streams


# ----------------------------------------------------------------------
# link design, one (MU, UAV) link at a time
# ----------------------------------------------------------------------
def interference_covariance(streams: np.ndarray, alloc: Allocation, leakage: np.ndarray,
                            cfg: ScenarioConfig, uav_index: int) -> np.ndarray:
    """Inter-MU plus radar-leakage plus noise covariance at one UAV's array,
    from every MU's received stream [K, M, W_R] there: one rank-one
    P y y^H per associated MU."""
    n = cfg.rx_antennas
    cov = cfg.noise_power * np.eye(n, dtype=complex)
    cov = cov + leakage[uav_index]
    active = np.flatnonzero(alloc.association.sum(axis=1) > 0)
    for i in active:
        y = streams[i, uav_index]
        cov = cov + cfg.mu_power_max * np.outer(y, y.conj())
    return 0.5 * (cov + cov.conj().T)


def link_covariance(streams: np.ndarray, alloc: Allocation, leakage: np.ndarray,
                    cfg: ScenarioConfig, k: int) -> np.ndarray:
    """Noise covariance of MU k's link: its UAV's covariance, built MU by MU,
    minus k's own P u u^H."""
    m = serving_uav(alloc, k)
    u = streams[k, m]
    n_cov = interference_covariance(streams, alloc, leakage, cfg, m) \
        - cfg.mu_power_max * np.outer(u, u.conj())
    return 0.5 * (n_cov + n_cov.conj().T)


def design_links(channels: np.ndarray, alloc: Allocation, leakage: np.ndarray,
                 cfg: ScenarioConfig) -> dict:
    """Per-UAV, per-MU loop that `uav_iscc.env.design_links` is compared with:
    {MU: rate in bits/s} from the full channels [K, M, W_R, W_T], each rate
    the closed form B log2(1 + P u^H N^-1 u).

    Every associated MU i sends along the SVD principal direction v_i of its
    own channel, so UAV m hears it as the rank-one interferer y = H[i, m] v_i,
    and its own UAV as u. N is solved one link at a time. Each covariance adds
    the MUs one at a time onto noise plus leakage, so it rounds differently
    from the per-UAV Gram of the stacked code."""
    served = np.flatnonzero(alloc.serving >= 0)
    streams = np.full(channels.shape[:3], np.nan, dtype=complex)
    streams[served] = received_streams(channels[served], alloc.serving[served])
    rates: dict[int, float] = {}
    for m in range(alloc.edge_cpu.shape[1]):
        for k in served_by(alloc, m):
            u = streams[k, m]
            n_cov = link_covariance(streams, alloc, leakage, cfg, k)
            sinr = cfg.mu_power_max * float(np.real(np.vdot(u, np.linalg.solve(n_cov, u))))
            rates[int(k)] = cfg.bandwidth_hz * math.log2(1.0 + sinr)
    return rates


# ----------------------------------------------------------------------
# observations, one agent at a time
# ----------------------------------------------------------------------
def _unit(value: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    return float(np.clip((value - lo) / (hi - lo), 0.0, 1.0))


def scale_task(task, cfg: ScenarioConfig) -> np.ndarray:
    """One task's five values, in `TASK_FIELDS` order, scaled into [0, 1]."""
    d, c, j, beta, deadline = task
    return np.array([
        _unit(d, cfg.data_bits_min, cfg.data_bits_max),
        _unit(c, cfg.compute_density_min, cfg.compute_density_max),
        _unit(j, cfg.compress_density_min, cfg.compress_density_max),
        _unit(beta, cfg.compress_ratio_min, cfg.compress_ratio_max),
        _unit(deadline, cfg.deadline_min, cfg.deadline_max),
    ])


def build_mu_observations(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    width = cfg.region_width
    uav_xy = (world.uav_positions / width).ravel()
    out = []
    for k in range(world.num_mus):
        vec = np.concatenate([
            [k / max(cfg.num_mus, 1)],
            scale_task(world.tasks[k], cfg),
            uav_xy,
            world.mu_positions[k] / width,
        ])
        out.append(vec)
    return np.array(out).reshape(world.num_mus, mu_obs_dim(cfg))


def roster_of(alloc: Allocation, m: int, cfg: ScenarioConfig) -> np.ndarray:
    """One UAV's served MU indices in ascending order, padded with -1 to the capacity."""
    served = served_by(alloc, m)[: cfg.k_cap]
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
            slots.append(np.concatenate([
                world.mu_positions[k] / width,
                scale_task(world.tasks[k], cfg),
                [alloc.offload_ratio[k], alloc.compress_ratio[k]],
            ]))
        others = [world.uav_positions[i] / width
                  for i in range(world.num_uavs) if i != m]
        vec = np.concatenate([
            [m / max(cfg.num_uavs, 1)],
            *slots,
            world.uav_positions[m] / width,
            *others,
        ])
        out.append(vec)
    return np.array(out).reshape(world.num_uavs, uav_obs_dim(cfg))


# ----------------------------------------------------------------------
# UAV side, one UAV at a time
# ----------------------------------------------------------------------
def uav_clutter(positions: np.ndarray, phases: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Each UAV's summed coupling, accumulated pair by pair in ascending index order."""
    out = []
    for m in range(positions.shape[0]):
        clutter = 0.0 + 0.0j
        for i in range(positions.shape[0]):
            if i == m:
                continue
            d2 = float(np.sum((positions[m] - positions[i]) ** 2))
            d2 = max(d2, cfg.safety_distance ** 2)  # co-located spawn guard
            clutter += math.sqrt(cfg.ref_gain / d2) * np.exp(1j * phases[m, i])
        out.append(complex(clutter))
    return np.array(out, dtype=complex)


def advance_kinematics(position: np.ndarray, velocity: np.ndarray, a_cmd: np.ndarray,
                       cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """One UAV's (position, velocity, overshoot) after one command."""
    a = np.asarray(a_cmd, dtype=np.float64)
    norm_a = float(np.linalg.norm(a))
    if norm_a > cfg.uav_a_max:
        a = a * (cfg.uav_a_max / norm_a)
    dt = cfg.slot_seconds
    raw_pos = position + velocity * dt + 0.5 * a * dt * dt
    vel = velocity + a * dt
    speed = float(np.linalg.norm(vel))
    if speed > cfg.uav_v_max:
        vel = vel * (cfg.uav_v_max / speed)
    width = cfg.region_width
    pos = np.clip(raw_pos, 0.0, width)
    overshoot = float(np.linalg.norm(raw_pos - pos))
    for axis in range(2):
        if raw_pos[axis] < 0.0 and vel[axis] < 0.0:
            vel[axis] = 0.0
        if raw_pos[axis] > width and vel[axis] > 0.0:
            vel[axis] = 0.0
    return pos, vel, overshoot


def flight_power(speed: float, cfg: ScenarioConfig) -> float:
    """Rotary-wing propulsion power at one speed, on Python floats."""
    v2 = speed * speed
    blade = cfg.blade_power * (1.0 + 3.0 * v2 / (cfg.tip_speed ** 2))
    parasite = 0.5 * cfg.fuselage_drag * cfg.air_density * cfg.rotor_solidity \
        * cfg.rotor_area * speed ** 3
    v0_2 = cfg.rotor_velocity ** 2
    inner = math.sqrt(1.0 + v2 * v2 / (4.0 * v0_2 * v0_2)) - v2 / (2.0 * v0_2)
    induced = cfg.induced_power * math.sqrt(max(inner, 0.0))
    return blade + parasite + induced


def phasor_powers(z: np.ndarray, n: int) -> np.ndarray:
    """[..., n]: 1, z, z^2, ..., each power the product of the one before and
    z, taken on contiguous arrays the shape of z and stacked last."""
    powers = [np.ones_like(z), z][:n]
    while len(powers) < n:
        powers.append(powers[-1] * z)
    return np.stack(powers, axis=-1)


def closed_form_response(sin_angle: float, n: int) -> np.ndarray:
    """Uniform linear array response exp(j pi k sin(theta)), k < n, each entry
    its own exponential: the closed form that the phasor powers approximate."""
    return np.exp(1j * np.pi * sin_angle * np.arange(n))


def steering_vector(angle: float, n: int) -> np.ndarray:
    """Uniform linear array response at half-wavelength spacing: the powers of
    z = exp(j pi sin(angle)), one angle at a time."""
    return phasor_powers(np.exp(1j * np.pi * np.array([math.sin(angle)])), n)[0]


def _solve_hpd_one(mat: np.ndarray, rhs: np.ndarray, cfg: ScenarioConfig):
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.solve(mat + cfg.noise_power * 1e-6 * np.eye(mat.shape[0]), rhs)


def build_radar_state(world: WorldState, m: int, cfg: ScenarioConfig) -> dict:
    """One UAV's sensing, with `math.atan2`, the closed-form array response
    and `math.log2`, and the max-SINR filter solved from the clutter-plus-noise
    covariance: a dict of sinr, rate, leakage and that covariance."""
    n = cfg.rx_antennas
    horiz = float(np.linalg.norm(world.uav_positions[m] - world.uav_targets[m]))
    a = closed_form_response(math.sin(math.atan2(cfg.altitude, horiz)), n)
    w = math.sqrt(cfg.uav_power_max) * a / np.linalg.norm(a)
    response = complex(world.uav_doppler[m]) * np.outer(a, a.conj())
    clutter = complex(world.uav_clutter[m])
    cov = (abs(clutter) ** 2) * np.outer(w, w.conj()) + cfg.noise_power * np.eye(n)
    cov = 0.5 * (cov + cov.conj().T)
    filt = _solve_hpd_one(cov, response @ w, cfg)
    norm = np.linalg.norm(filt)
    filt = filt / norm if norm > 0 else np.ones(n, dtype=complex) / math.sqrt(n)
    signal = abs(np.vdot(filt, response @ w)) ** 2
    noise = float(np.real(np.vdot(filt, cov @ filt)))
    sinr = signal / noise if noise > 0 else 0.0
    gain = 2.0 * cfg.bandwidth_hz * cfg.radar_gain_product * sinr
    rate = cfg.radar_duty / (2.0 * cfg.radar_pulse_s) * math.log2(1.0 + gain)
    leaked = (response + clutter * np.eye(n)) @ w
    return {"sinr": float(sinr), "rate": rate, "leakage": np.outer(leaked, leaked.conj()),
            "covariance": cov}


def decode_uav_action(share_logits: np.ndarray, acceleration: np.ndarray, roster: np.ndarray,
                      cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """One UAV's CPU shares over its roster slots and its acceleration command."""
    occupied = roster >= 0
    shares = np.zeros(len(roster))
    if np.any(occupied):
        logits = share_logits[occupied]
        e = np.exp(logits - logits.max())
        shares[occupied] = cfg.uav_cpu_max * e / e.sum()
    accel = (2.0 * np.clip(acceleration, 0.0, 1.0) - 1.0) * cfg.uav_a_max
    norm = float(np.linalg.norm(accel))
    if norm > cfg.uav_a_max:
        accel = accel * (cfg.uav_a_max / norm)
    return shares, accel


def uav_reward(m: int, report: SlotReport, world: WorldState, alloc: Allocation,
               cfg: ScenarioConfig) -> dict:
    """One UAV's base, factors and reward, with `math.exp` in the factors and
    `np.mean` over its served MUs."""
    served = np.flatnonzero(alloc.serving == m)
    e_served = float(np.mean(report.e_mu[served])) if served.size else 0.0
    e_bar = e_served + cfg.weight_factor * float(report.e_uav[m])
    if served.size:
        centroid = np.mean(world.mu_positions[served], axis=0)
        dist = float(np.linalg.norm(world.uav_positions[m] - centroid))
    else:
        dist = 0.0
    p_centroid = penalty_P(dist, cfg.distance_threshold, cfg.region_width)
    if served.size:
        p_lat = float(np.mean([penalty_P(float(lat) if math.isfinite(lat) else 1e30,
                                         float(dl), float(dl))
                               for lat, dl in zip(report.latency[served],
                                                  report.deadline[served])]))
    else:
        p_lat = 1.0
    count = report.pair_distance.shape[0]
    p_col = 1.0
    if count > 1:
        d_min = cfg.safety_distance
        total = 0.0
        for i in range(count):
            if i != m:
                total += penalty_P(d_min - float(report.pair_distance[m, i]), 0.0, d_min)
        p_col = total / (count - 1)
    p_bound = penalty_P(float(report.boundary_overshoot[m]), 0.0, cfg.uav_v_max)
    deficit = max(cfg.radar_rate_min - float(report.radar_rate[m]), 0.0)
    p_rad = 1.0 + deficit / cfg.radar_rate_min
    base = cfg.reward_energy_weight * e_bar + cfg.reward_distance_weight * p_centroid
    reward = -base * (p_lat * p_col * p_bound * p_rad)
    return {"base": base, "p_latency": p_lat, "p_collision": p_col, "p_boundary": p_bound,
            "p_radar": p_rad, "reward": reward}
