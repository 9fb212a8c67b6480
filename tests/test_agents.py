"""Observation scaling, action decoding, and the penalty/reward family."""

import math

import numpy as np
import pytest

import oracles
from uav_iscc.agents import (
    MuAction,
    UavAction,
    apply_uav_actions,
    build_allocation,
    build_mu_observations,
    build_uav_observations,
    decode_mu_action,
    mu_obs_dim,
    mu_reward,
    penalty,
    uav_obs_dim,
    uav_reward,
    uav_rosters,
)
from uav_iscc.env import Allocation, ScenarioConfig, reset_world, world_step


def cfg_of(**kw):
    cfg = ScenarioConfig(num_mus=6, num_uavs=3)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


def actions_choosing(serving, cfg, rng):
    """The slot's MU actions, whose association scores peak at UAV serving[k]
    (-1: local), with ratios drawn on both sides of the unit interval."""
    vecs = np.zeros((len(serving), MuAction.dim(cfg)))
    for vec, choice in zip(vecs, serving):
        vec[:] = rng.uniform(0.01, 0.5, MuAction.dim(cfg))
        vec[choice + 1] = 0.9
        vec[-2:] = rng.uniform(-0.5, 1.5, 2)
    return MuAction.from_vector(vecs, cfg)


def decode_row(vec, cfg):
    """`decode_mu_action` of one MU's raw action, fed as `build_allocation`
    feeds it: its row of the one-MU record, as lists and floats."""
    raw = MuAction.from_vector(np.asarray(vec)[None], cfg)
    return decode_mu_action(raw.scores.tolist()[0], raw.offload_ratio.item(0),
                            raw.compress_ratio.item(0))


def observe(world, alloc, cfg):
    """MU and UAV observations of one slot, as `collect_episode` builds them."""
    mu_obs = build_mu_observations(world, cfg)
    return mu_obs, build_uav_observations(world, alloc, mu_obs, uav_rosters(alloc, cfg), cfg)


# ----------------------------------------------------------------------
# penalty family
# ----------------------------------------------------------------------
def test_penalty_one_at_or_below_slack():
    for x in (-5.0, 0.0, 0.7):
        assert penalty(x, 0.7, 0.7) == 1.0


def test_penalty_at_one_scale_over():
    assert penalty(1.4, 0.7, 0.7) == pytest.approx(2.0 - math.exp(-1.0), abs=1e-12)


def test_penalty_limits_below_two():
    assert penalty(1e12, 1.0, 1.0) < 2.0
    assert penalty(float("inf"), 1.0, 1.0) == penalty(1e12, 1.0, 1.0)
    rng = np.random.default_rng(0)
    x, slack, scale = rng.uniform(-10, 10, 500), rng.uniform(-1, 1, 500), rng.uniform(0.1, 3, 500)
    p = penalty(x, slack, scale)
    assert p.shape == (500,) and np.all((1.0 <= p) & (p < 2.0))
    for x_i, slack_i, scale_i, p_i in zip(x, slack, scale, p):
        # np.exp and math.exp may round the last bit differently
        assert abs(p_i - oracles.penalty_P(x_i, slack_i, scale_i)) <= np.spacing(p_i)


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def test_mu_decode_argmax_and_local_slot():
    cfg = cfg_of()
    vec = np.array([0.1, 0.2, 0.9, 0.3, 0.5, 0.6])
    choice, rho, eta = decode_row(vec, cfg)
    assert choice == 1  # slot 2 -> UAV index 1
    assert rho == pytest.approx(0.5) and eta == pytest.approx(0.6)
    vec[0] = 0.99
    choice, _, _ = decode_row(vec, cfg)
    assert choice == -1  # slot 0 wins -> stay local


def test_mu_decode_tie_breaks_to_lowest_index():
    cfg = cfg_of()
    vec = np.array([0.4, 0.8, 0.8, 0.8, 0.5, 0.5])
    choice, _, _ = decode_row(vec, cfg)
    assert choice == 0


def test_mu_decode_scale_invariant():
    cfg = cfg_of()
    rng = np.random.default_rng(1)
    for _ in range(100):
        vec = rng.uniform(0.01, 0.99, MuAction.dim(cfg))
        a = decode_row(vec, cfg)[0]
        scaled = vec.copy()
        scaled[: cfg.num_uavs + 1] *= 0.37
        b = decode_row(scaled, cfg)[0]
        assert a == b


def decode_uavs(vecs, rosters, cfg):
    """(edge CPU [K, M], accelerations [M, 2]) of raw UAV actions `vecs` [M, dim]
    over `rosters` [M, k_cap], for K = cfg.num_mus MUs."""
    alloc = Allocation(serving=np.full(cfg.num_mus, -1), offload_ratio=np.zeros(cfg.num_mus),
                       compress_ratio=np.zeros(cfg.num_mus),
                       edge_cpu=np.zeros((cfg.num_mus, cfg.num_uavs)))
    alloc, accels = apply_uav_actions(alloc, np.array(rosters),
                                      UavAction.from_vector(np.array(vecs), cfg), cfg)
    return alloc.edge_cpu, accels


def test_uav_decode_single_and_equal_shares():
    cfg = cfg_of()
    vecs = np.full((cfg.num_uavs, UavAction.dim(cfg)), 0.5)
    rosters = np.full((cfg.num_uavs, cfg.k_cap), -1)
    rosters[0, 0] = 3
    cpu, accel = decode_uavs(vecs, rosters, cfg)
    assert cpu[3, 0] == pytest.approx(cfg.uav_cpu_max)
    assert np.count_nonzero(cpu) == 1
    assert np.allclose(accel, 0.0)  # midpoint maps to zero acceleration
    rosters[0, 1] = 5
    cpu, _ = decode_uavs(vecs, rosters, cfg)
    assert cpu[3, 0] == pytest.approx(5e9) and cpu[5, 0] == pytest.approx(5e9)


def test_uav_decode_permutation_equivariant():
    cfg = cfg_of()
    rng = np.random.default_rng(2)
    vec = rng.uniform(0.01, 0.99, UavAction.dim(cfg))
    rosters = np.full((cfg.num_uavs, cfg.k_cap), -1)
    rosters[0, :3] = [0, 1, 2]
    base, _ = decode_uavs(np.tile(vec, (cfg.num_uavs, 1)), rosters, cfg)
    vec2 = vec.copy()
    vec2[[0, 1]] = vec2[[1, 0]]
    rosters[0, :2] = [1, 0]
    swapped, _ = decode_uavs(np.tile(vec2, (cfg.num_uavs, 1)), rosters, cfg)
    assert swapped[:, 0] == pytest.approx(base[:, 0])


# UAV 0 serves nobody, UAV 1 one MU, UAV 2 a full roster
UAV_DECODE_CASES = {
    "m1-empty": (1, 4, [[-1] * 4]),
    "m1-full": (1, 4, [[0, 1, 2, 3]]),
    "mixed": (3, 4, [[-1] * 4, [5, -1, -1, -1], [0, 1, 2, 3]]),
}


@pytest.mark.parametrize("case", list(UAV_DECODE_CASES) + ["full-rosters-of-12",
                                                           "random-400x20"])
def test_batched_uav_decode_matches_per_uav_decode(case):
    if case == "random-400x20":
        cfg = ScenarioConfig(num_mus=400, num_uavs=20).validate()
        rng = np.random.default_rng(4)
        alloc = build_allocation(actions_choosing(rng.integers(-1, 20, 400).tolist(), cfg, rng),
                                 cfg)
        rosters = uav_rosters(alloc, cfg)
    elif case == "full-rosters-of-12":
        cfg = ScenarioConfig(num_mus=24, num_uavs=2, roster_capacity=12).validate()
        rosters = np.arange(24).reshape(2, 12)
    else:
        num_uavs, cap, rosters = UAV_DECODE_CASES[case]
        cfg = ScenarioConfig(num_mus=6, num_uavs=num_uavs, roster_capacity=cap).validate()
        rosters = np.array(rosters)
    rng = np.random.default_rng(3)
    # acceleration entries on both sides of the unit interval, so the clip and
    # the disc projection both act
    vecs = np.concatenate([rng.uniform(0.01, 0.99, (cfg.num_uavs, cfg.k_cap)),
                           rng.uniform(-0.5, 1.5, (cfg.num_uavs, 2))], axis=1)
    cpu, accel = decode_uavs(vecs, rosters, cfg)
    assert cpu.shape == (cfg.num_mus, cfg.num_uavs) and accel.shape == (cfg.num_uavs, 2)
    for m in range(cfg.num_uavs):
        shares, want_accel = oracles.decode_uav_action(vecs[m, :cfg.k_cap], vecs[m, cfg.k_cap:],
                                                       rosters[m], cfg)
        assert accel[m].tobytes() == want_accel.tobytes()
        occupied = rosters[m] >= 0
        assert np.count_nonzero(cpu[:, m]) == occupied.sum()
        got = cpu[rosters[m][occupied], m]
        if occupied.sum() < 8:
            # both sum the softmax denominator one slot after another
            assert got.tobytes() == shares[occupied].tobytes()
        else:
            # np.sum adds 8 or more terms pairwise, the batched code in roster order
            assert np.all(np.abs(got - shares[occupied]) <= 4 * np.spacing(shares[occupied]))
        if occupied.any():
            assert got.sum() == pytest.approx(cfg.uav_cpu_max, rel=1e-12)


def test_roster_capacity_demotes_surplus():
    cfg = cfg_of(roster_capacity=2)
    # every MU asks for UAV 0
    vec = np.zeros(MuAction.dim(cfg))
    vec[1] = 0.9
    vec[-2:] = 0.5
    alloc = build_allocation(MuAction.from_vector(np.tile(vec, (6, 1)), cfg), cfg)
    assert alloc.association[:, 0].sum() == 2
    assert np.all(alloc.association[2:, :] == 0)
    assert np.all(alloc.offload_ratio[2:] == 0)


ALLOCATION_CASES = {
    "no-mus": ([], 2, 0),
    "empty-association": ([-1] * 6, 3, 0),
    "uav-serving-nobody": ([0, 1, 0, 1, -1, 0], 3, 0),
    "all-on-one-uav": ([2] * 6, 3, 6),
    "all-on-one-uav-over-capacity": ([1] * 6, 3, 4),
    "100x10": (np.random.default_rng(2).integers(-1, 10, 100).tolist(), 10, 0),
}


@pytest.mark.parametrize("case", list(ALLOCATION_CASES))
def test_allocation_matches_per_mu_decode(case):
    serving, num_uavs, capacity = ALLOCATION_CASES[case]
    cfg = ScenarioConfig(num_mus=len(serving), num_uavs=num_uavs,
                         roster_capacity=capacity).validate()
    actions = actions_choosing(serving, cfg, np.random.default_rng(13))
    alloc = build_allocation(actions, cfg)
    ref = oracles.build_allocation(actions, cfg)
    for name in ("association", "offload_ratio", "compress_ratio", "edge_cpu"):
        got, want = getattr(alloc, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert alloc.serving.dtype.kind == "i" and alloc.serving.shape == (cfg.num_mus,)
    assert alloc.serving.tolist() == [oracles.serving_uav(alloc, k)
                                      for k in range(cfg.num_mus)]
    for m in range(num_uavs):
        assert np.array_equal(np.flatnonzero(alloc.serving == m),
                              oracles.served_by(alloc, m))


# ----------------------------------------------------------------------
# observations
# ----------------------------------------------------------------------
def test_observation_lengths_and_unit_range():
    cfg = cfg_of()
    rng = np.random.default_rng(3)
    world = reset_world(cfg, rng)
    actions = MuAction.from_vector(rng.uniform(0.01, 0.99, (cfg.num_mus, MuAction.dim(cfg))), cfg)
    alloc = build_allocation(actions, cfg)
    mu_obs, uav_obs = observe(world, alloc, cfg)
    assert mu_obs.shape == (cfg.num_mus, mu_obs_dim(cfg))
    assert uav_obs.shape == (cfg.num_uavs, uav_obs_dim(cfg))
    for obs in (mu_obs, uav_obs):
        assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
    for m, roster in enumerate(uav_rosters(alloc, cfg)):
        assert np.sum(roster >= 0) == oracles.served_by(alloc, m)[: cfg.k_cap].size


def test_corner_mu_scales_to_zero():
    cfg = cfg_of()
    world = reset_world(cfg, np.random.default_rng(4))
    world.mu_positions[0] = 0.0
    world.tasks[0, 0] = cfg.data_bits_max
    alloc = build_allocation(
        MuAction.from_vector(np.full((cfg.num_mus, MuAction.dim(cfg)), 0.5), cfg), cfg)
    vec = build_mu_observations(world, cfg)[0]
    assert vec[1] == pytest.approx(1.0)          # task size at the top of its range
    assert np.allclose(vec[-2:], 0.0)            # own position at the corner


def test_uav_roster_padding():
    cfg = cfg_of(roster_capacity=8)
    rng = np.random.default_rng(5)
    world = reset_world(cfg, rng)
    # three MUs pick UAV 0
    vecs = np.zeros((cfg.num_mus, MuAction.dim(cfg)))
    vecs[:3, 1], vecs[:3, 0], vecs[3:, 0] = 0.9, 0.1, 0.9
    vecs[:, -2:] = 0.4
    alloc = build_allocation(MuAction.from_vector(vecs, cfg), cfg)
    roster = uav_rosters(alloc, cfg)[0]
    assert np.sum(roster >= 0) == 3
    assert np.all(roster[3:] == -1)
    # padded slots carry zero features
    vec = observe(world, alloc, cfg)[1][0]
    slot_feats = vec[1:1 + 9 * cfg.k_cap].reshape(cfg.k_cap, 9)
    assert np.all(slot_feats[3:] == 0.0)


OBSERVATION_CASES = {
    "no-mus": ([], 2, {}),
    "empty-association": ([-1] * 6, 3, {}),
    "uav-serving-nobody": ([0, 1, 0, 1, -1, 0], 3, {}),
    "all-on-one-uav-roster-truncated": ([2] * 6, 3, {}),
    "k1-m1": ([0], 1, {}),
    "task-range-min-eq-max": ([0, 1, 2, -1, 0, 2], 3,
                              {"deadline_min": 0.4, "deadline_max": 0.4}),
    "100x10": (np.random.default_rng(2).integers(-1, 10, 100).tolist(), 10, {}),
}


@pytest.mark.parametrize("case", list(OBSERVATION_CASES))
def test_array_observations_match_per_agent_builders(case):
    serving, num_uavs, overrides = OBSERVATION_CASES[case]
    cfg = ScenarioConfig(num_mus=len(serving), num_uavs=num_uavs, **overrides).validate()
    rng = np.random.default_rng(12)
    world = reset_world(cfg, rng)
    alloc = Allocation(serving=np.array(serving, dtype=int),
                       offload_ratio=rng.uniform(0.0, 1.0, cfg.num_mus),
                       compress_ratio=rng.uniform(0.0, 1.0, cfg.num_mus),
                       edge_cpu=np.zeros((cfg.num_mus, num_uavs)))
    mu_obs, uav_obs = observe(world, alloc, cfg)
    mu_ref = oracles.build_mu_observations(world, cfg)
    assert mu_obs.shape == mu_ref.shape == (cfg.num_mus, mu_obs_dim(cfg))
    assert mu_obs.tobytes() == mu_ref.tobytes()
    rosters = uav_rosters(alloc, cfg)
    assert rosters.shape == (num_uavs, cfg.k_cap)
    for m, roster in enumerate(rosters):
        assert np.array_equal(roster, oracles.roster_of(alloc, m, cfg))
    uav_ref = oracles.build_uav_observations(world, alloc, cfg)
    assert uav_obs.shape == uav_ref.shape == (num_uavs, uav_obs_dim(cfg))
    assert uav_obs.tobytes() == uav_ref.tobytes()
    if "deadline_min" in overrides:
        assert np.all(mu_obs[:, 5] == 0.0)


# ----------------------------------------------------------------------
# rewards
# ----------------------------------------------------------------------
def episode_slot(cfg, seed):
    rng = np.random.default_rng(seed)
    world = reset_world(cfg, rng)
    actions = MuAction.from_vector(rng.uniform(0.01, 0.99, (cfg.num_mus, MuAction.dim(cfg))), cfg)
    alloc = build_allocation(actions, cfg)
    uav_actions = UavAction.from_vector(
        rng.uniform(0.01, 0.99, (cfg.num_uavs, UavAction.dim(cfg))), cfg)
    alloc, accels = apply_uav_actions(alloc, uav_rosters(alloc, cfg), uav_actions, cfg)
    nxt, report = world_step(world, alloc, accels, cfg, rng)
    return world, alloc, nxt, report


def test_mu_reward_deadline_met_is_negative_base():
    cfg = cfg_of()
    _, alloc, _, report = episode_slot(cfg, 6)
    bd = mu_reward(report, alloc, cfg)
    met = report.deadline_met
    assert np.all(bd.p_latency[met] == 1.0)
    assert np.array_equal(bd.reward[met], -bd.base[met])
    assert np.all(bd.reward <= 0.0)
    assert np.all((1.0 <= bd.p_latency) & (bd.p_latency < 2.0))


def test_mu_reward_unassociated_has_no_uav_term():
    cfg = cfg_of()
    _, alloc, _, report = episode_slot(cfg, 7)
    alloc.serving[:] = -1  # force everyone local
    report.e_mu[0] = 1.0
    bd = mu_reward(report, alloc, cfg)
    assert bd.base[0] == 1.0
    assert bd.reward[0] == -bd.p_latency[0]
    assert np.array_equal(bd.base, report.e_mu)


@pytest.mark.parametrize("num_mus,seed", [(0, 1), (1, 2), (6, 3), (60, 4)])
def test_mu_reward_matches_per_mu_oracle(num_mus, seed):
    cfg = ScenarioConfig(num_mus=num_mus, num_uavs=3).validate()
    _, alloc, _, report = episode_slot(cfg, seed)
    # an infinite delay, a latency far past the cap and one exactly at the deadline
    edge_cases = np.array([np.inf, 1e6, report.deadline[2] if num_mus > 2 else 0.0])
    report.latency[:3] = edge_cases[:num_mus]
    bd = mu_reward(report, alloc, cfg)
    assert bd.base.shape == bd.p_latency.shape == bd.reward.shape == (num_mus,)
    assert np.array_equal(bd.reward, -bd.base * bd.p_latency)
    for k in range(num_mus):
        base, p_lat, reward = oracles.mu_reward(k, report, alloc, cfg)
        assert bd.base[k] == base
        # np.exp and math.exp may round the factor's last bit differently
        assert abs(bd.p_latency[k] - p_lat) <= np.spacing(p_lat)
        assert bd.reward[k] == pytest.approx(reward, rel=4 * np.finfo(float).eps)


def test_uav_reward_penalties_in_range_and_collision_factor():
    cfg = cfg_of()
    world, alloc, nxt, report = episode_slot(cfg, 8)
    bd = uav_reward(report, nxt, alloc, cfg)
    for f in (bd.base, bd.p_latency, bd.p_collision, bd.p_boundary, bd.p_radar, bd.reward):
        assert f.shape == (cfg.num_uavs,)
    for f in (bd.p_latency, bd.p_collision, bd.p_boundary, bd.p_radar):
        assert np.all((1.0 <= f) & (f < 2.0))
    assert np.all(bd.reward <= 0.0)
    # force two UAVs within half the safety distance
    report.pair_distance[:] = 500.0
    np.fill_diagonal(report.pair_distance, np.inf)
    report.pair_distance[0, 1] = report.pair_distance[1, 0] = cfg.safety_distance / 2
    bd = uav_reward(report, nxt, alloc, cfg)
    expected_pair = 2.0 - math.exp(-0.5)
    # mean over the two other UAVs, the second of which is far away
    assert bd.p_collision[0] == pytest.approx((expected_pair + 1.0) / 2.0)
    assert bd.p_collision[1] == pytest.approx((expected_pair + 1.0) / 2.0)
    assert bd.p_collision[2] == 1.0


def test_radar_penalty_full_deficit_is_two():
    cfg = cfg_of()
    from uav_iscc.agents import radar_penalty

    assert radar_penalty(0.0, cfg) == pytest.approx(2.0)
    assert radar_penalty(cfg.radar_rate_min, cfg) == 1.0
    assert radar_penalty(cfg.radar_rate_min / 2, cfg) == pytest.approx(1.5)


def test_uav_reward_hovering_at_centroid_all_satisfied():
    cfg = cfg_of(radar_rate_min=1e-6)
    world, alloc, nxt, report = episode_slot(cfg, 9)
    m = 0
    served = oracles.served_by(alloc, m)
    report.pair_distance[:] = 100.0
    report.boundary_overshoot[:] = 0.0
    report.latency[:] = 0.0
    report.radar_rate[:] = 1.0
    if served.size:
        nxt.uav_positions[m] = np.mean(nxt.mu_positions[served], axis=0)
    bd = uav_reward(report, nxt, alloc, cfg)
    assert bd.penalty_product[m] == pytest.approx(1.0)
    e_served = float(np.mean(report.e_mu[served])) if served.size else 0.0
    expected = cfg.reward_energy_weight * (e_served + cfg.weight_factor * report.e_uav[m]) \
        + cfg.reward_distance_weight * 1.0
    assert bd.reward[m] == pytest.approx(-expected)


# The factors use np.exp where the oracle uses math.exp, which may differ in
# the last bit; a served set of 8 or more MUs is summed in MU order where the
# oracle's np.mean adds pairwise. Over 30 seeds of these sizes the largest gap
# measured was 6 ulps (reward), 3 (base and latency factor), 0 for the rest.
UAV_REWARD_ULPS = 16

UAV_REWARD_CASES = {        # (UAVs, MUs)
    "m1": (1, 6),
    "m3": (3, 6),
    "100x10": (10, 100),
    "full-rosters-400x20": (20, 400),
}


def assert_close_ulps(got, want, ulps):
    assert np.all(np.abs(np.asarray(got) - want) <= ulps * np.spacing(np.abs(want))), \
        (got, want)


@pytest.mark.parametrize("case", list(UAV_REWARD_CASES) + ["nobody-served",
                                                           "edge-latencies-and-close-pairs"])
def test_uav_reward_matches_per_uav_oracle(case):
    num_uavs, num_mus = UAV_REWARD_CASES.get(case, (3, 6))
    cfg = ScenarioConfig(num_mus=num_mus, num_uavs=num_uavs).validate()
    _, alloc, nxt, report = episode_slot(cfg, 11)
    if case == "nobody-served":
        alloc.serving[:] = -1
    if case == "edge-latencies-and-close-pairs":
        # an infinite delay, a latency far past the cap, one exactly at the
        # deadline; UAVs 0 and 1 co-located, 1 and 2 just inside the safety distance
        report.latency[:3] = [np.inf, 1e6, report.deadline[2]]
        alloc.serving[:3] = 0
        report.pair_distance[0, 1] = report.pair_distance[1, 0] = 0.0
        report.pair_distance[1, 2] = report.pair_distance[2, 1] = 0.9 * cfg.safety_distance
        report.boundary_overshoot[:] = [0.0, 3.0, 1e9]
    bd = uav_reward(report, nxt, alloc, cfg)
    assert np.array_equal(bd.reward, -bd.base * bd.penalty_product)
    for m in range(num_uavs):
        want = oracles.uav_reward(m, report, nxt, alloc, cfg)
        for name, value in want.items():
            assert_close_ulps(getattr(bd, name)[m], value, UAV_REWARD_ULPS)
    if case == "nobody-served":
        assert np.all(bd.p_latency == 1.0)
        assert np.array_equal(bd.base, cfg.reward_energy_weight * (cfg.weight_factor * report.e_uav)
                              + cfg.reward_distance_weight * 1.0)
    if num_uavs == 1:
        assert bd.p_collision[0] == 1.0
