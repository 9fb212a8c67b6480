"""Observation scaling, action decoding, and the penalty/reward family."""

import math

import numpy as np
import pytest

import oracles
from uav_iscc.agents import (
    MuAction,
    MuObservation,
    UavAction,
    UavObservation,
    apply_uav_actions,
    build_allocation,
    build_mu_observations,
    build_observations,
    build_uav_observations,
    decode_mu_action,
    decode_uav_action,
    mu_reward,
    penalty_P,
    uav_reward,
)
from uav_iscc.env import Allocation, ScenarioConfig, reset_world, world_step


def cfg_of(**kw):
    cfg = ScenarioConfig(num_mus=6, num_uavs=3)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


# ----------------------------------------------------------------------
# penalty family
# ----------------------------------------------------------------------
def test_penalty_one_at_or_below_slack():
    for x in (-5.0, 0.0, 0.7):
        assert penalty_P(x, 0.7, 0.7) == 1.0


def test_penalty_at_one_scale_over():
    assert penalty_P(1.4, 0.7, 0.7) == pytest.approx(2.0 - math.exp(-1.0), abs=1e-12)


def test_penalty_limits_below_two():
    assert penalty_P(1e12, 1.0, 1.0) < 2.0
    assert penalty_P(float("inf"), 1.0, 1.0) < 2.0
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = penalty_P(rng.uniform(-10, 10), rng.uniform(-1, 1), rng.uniform(0.1, 3))
        assert 1.0 <= p < 2.0


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def test_mu_decode_argmax_and_local_slot():
    cfg = cfg_of()
    vec = np.array([0.1, 0.2, 0.9, 0.3, 0.5, 0.6])
    choice, rho, eta = decode_mu_action(MuAction.from_vector(vec, cfg), cfg)
    assert choice == 1  # slot 2 -> UAV index 1
    assert rho == pytest.approx(0.5) and eta == pytest.approx(0.6)
    vec[0] = 0.99
    choice, _, _ = decode_mu_action(MuAction.from_vector(vec, cfg), cfg)
    assert choice == -1  # slot 0 wins -> stay local


def test_mu_decode_tie_breaks_to_lowest_index():
    cfg = cfg_of()
    vec = np.array([0.4, 0.8, 0.8, 0.8, 0.5, 0.5])
    choice, _, _ = decode_mu_action(MuAction.from_vector(vec, cfg), cfg)
    assert choice == 0


def test_mu_decode_scale_invariant():
    cfg = cfg_of()
    rng = np.random.default_rng(1)
    for _ in range(100):
        vec = rng.uniform(0.01, 0.99, MuAction.dim(cfg))
        a = decode_mu_action(MuAction.from_vector(vec, cfg), cfg)[0]
        scaled = vec.copy()
        scaled[: cfg.num_uavs + 1] *= 0.37
        b = decode_mu_action(MuAction.from_vector(scaled, cfg), cfg)[0]
        assert a == b


def test_uav_decode_single_and_equal_shares():
    cfg = cfg_of()
    raw = UavAction.from_vector(np.full(UavAction.dim(cfg), 0.5), cfg)
    roster = np.full(cfg.k_cap, -1)
    roster[0] = 3
    shares, accel = decode_uav_action(raw, roster, cfg)
    assert shares[0] == pytest.approx(cfg.uav_cpu_max)
    assert np.allclose(accel, 0.0)  # midpoint maps to zero acceleration
    roster[1] = 5
    shares, _ = decode_uav_action(raw, roster, cfg)
    assert shares[0] == pytest.approx(5e9) and shares[1] == pytest.approx(5e9)


def test_uav_decode_permutation_equivariant():
    cfg = cfg_of()
    rng = np.random.default_rng(2)
    vec = rng.uniform(0.01, 0.99, UavAction.dim(cfg))
    roster = np.array([0, 1, 2, -1])[: cfg.k_cap]
    base, _ = decode_uav_action(UavAction.from_vector(vec, cfg), roster, cfg)
    perm = np.array([1, 0, 2, -1])[: cfg.k_cap]
    vec2 = vec.copy()
    vec2[[0, 1]] = vec2[[1, 0]]
    swapped, _ = decode_uav_action(UavAction.from_vector(vec2, cfg), perm, cfg)
    assert swapped[0] == pytest.approx(base[1])
    assert swapped[1] == pytest.approx(base[0])


def test_roster_capacity_demotes_surplus():
    cfg = cfg_of(roster_capacity=2)
    # every MU asks for UAV 0
    vec = np.zeros(MuAction.dim(cfg))
    vec[1] = 0.9
    vec[-2:] = 0.5
    alloc = build_allocation([MuAction.from_vector(vec, cfg) for _ in range(6)], cfg)
    assert alloc.association[:, 0].sum() == 2
    assert np.all(alloc.association[2:, :] == 0)
    assert np.all(alloc.offload_ratio[2:] == 0)


def test_ablation_switches_zero_the_ratios():
    cfg = cfg_of(compression_enabled=False)
    vec = np.full(MuAction.dim(cfg), 0.5)
    vec[1] = 0.9
    _, rho, eta = decode_mu_action(MuAction.from_vector(vec, cfg), cfg)
    assert eta == 0.0 and rho == 0.5
    cfg2 = cfg_of(computation_enabled=False)
    _, rho2, _ = decode_mu_action(MuAction.from_vector(vec, cfg2), cfg2)
    assert rho2 == 0.0


# ----------------------------------------------------------------------
# observations
# ----------------------------------------------------------------------
def test_observation_lengths_and_unit_range():
    cfg = cfg_of()
    rng = np.random.default_rng(3)
    world = reset_world(cfg, rng)
    actions = [MuAction.from_vector(rng.uniform(0.01, 0.99, MuAction.dim(cfg)), cfg)
               for _ in range(cfg.num_mus)]
    alloc = build_allocation(actions, cfg)
    mu_obs, uav_obs = build_observations(world, alloc, cfg)
    assert len(mu_obs) == cfg.num_mus and len(uav_obs) == cfg.num_uavs
    for o in mu_obs:
        assert o.vector.shape == (MuObservation.length(cfg),)
        assert np.all(o.vector >= 0.0) and np.all(o.vector <= 1.0)
    for o in uav_obs:
        assert o.vector.shape == (UavObservation.length(cfg),)
        assert np.all(o.vector >= 0.0) and np.all(o.vector <= 1.0)
        assert o.roster_mask.sum() == alloc.served_by(o.index)[: cfg.k_cap].size


def test_corner_mu_scales_to_zero():
    cfg = cfg_of()
    world = reset_world(cfg, np.random.default_rng(4))
    world.mus[0].position = np.zeros(2)
    world.mus[0].task.data_bits = cfg.data_bits_max
    alloc = build_allocation(
        [MuAction.from_vector(np.full(MuAction.dim(cfg), 0.5), cfg)] * cfg.num_mus, cfg)
    mu_obs, _ = build_observations(world, alloc, cfg)
    vec = mu_obs[0].vector
    assert vec[1] == pytest.approx(1.0)          # task size at the top of its range
    assert np.allclose(vec[-2:], 0.0)            # own position at the corner


def test_uav_roster_padding():
    cfg = cfg_of(roster_capacity=8)
    rng = np.random.default_rng(5)
    world = reset_world(cfg, rng)
    # three MUs pick UAV 0
    vecs = []
    for k in range(cfg.num_mus):
        v = np.zeros(MuAction.dim(cfg))
        v[1] = 0.9 if k < 3 else 0.0
        v[0] = 0.1 if k < 3 else 0.9
        v[-2:] = 0.4
        vecs.append(MuAction.from_vector(v, cfg))
    alloc = build_allocation(vecs, cfg)
    _, uav_obs = build_observations(world, alloc, cfg)
    mask = uav_obs[0].roster_mask
    assert mask.sum() == 3
    assert np.all(mask[3:] == 0)
    # padded slots carry zero features
    slot_feats = uav_obs[0].vector[1:1 + 9 * cfg.k_cap].reshape(cfg.k_cap, 9)
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
    association = np.zeros((cfg.num_mus, num_uavs))
    for k, m in enumerate(serving):
        if m >= 0:
            association[k, m] = 1.0
    alloc = Allocation(association=association,
                       offload_ratio=rng.uniform(0.0, 1.0, cfg.num_mus),
                       compress_ratio=rng.uniform(0.0, 1.0, cfg.num_mus),
                       edge_cpu=np.zeros((cfg.num_mus, num_uavs)))
    mu_obs = build_mu_observations(world, cfg)
    mu_ref = oracles.build_mu_observations(world, cfg)
    assert [o.index for o in mu_obs] == [o.index for o in mu_ref] == list(range(cfg.num_mus))
    for o, r in zip(mu_obs, mu_ref):
        assert o.vector.shape == r.vector.shape and o.vector.tobytes() == r.vector.tobytes()
    uav_obs = build_uav_observations(world, alloc, cfg)
    uav_ref = oracles.build_uav_observations(world, alloc, cfg)
    assert [o.index for o in uav_obs] == [o.index for o in uav_ref] == list(range(num_uavs))
    for o, r in zip(uav_obs, uav_ref):
        assert o.vector.shape == r.vector.shape and o.vector.tobytes() == r.vector.tobytes()
        assert np.array_equal(o.roster, r.roster)
        assert o.roster_mask.tobytes() == r.roster_mask.tobytes()
    if "deadline_min" in overrides:
        assert all(o.vector[5] == 0.0 for o in mu_obs)


# ----------------------------------------------------------------------
# rewards
# ----------------------------------------------------------------------
def episode_slot(cfg, seed):
    rng = np.random.default_rng(seed)
    world = reset_world(cfg, rng)
    actions = [MuAction.from_vector(rng.uniform(0.01, 0.99, MuAction.dim(cfg)), cfg)
               for _ in range(cfg.num_mus)]
    alloc = build_allocation(actions, cfg)
    uav_actions = [UavAction.from_vector(rng.uniform(0.01, 0.99, UavAction.dim(cfg)), cfg)
                   for _ in range(cfg.num_uavs)]
    alloc, accels = apply_uav_actions(alloc, uav_actions, cfg)
    nxt, report = world_step(world, alloc, accels, cfg, rng)
    return world, alloc, nxt, report


def test_mu_reward_deadline_met_is_negative_base():
    cfg = cfg_of()
    _, alloc, _, report = episode_slot(cfg, 6)
    for k in range(cfg.num_mus):
        bd = mu_reward(k, report, alloc, cfg)
        if report.deadline_met[k]:
            assert bd.p_latency == 1.0
            assert bd.reward == pytest.approx(-bd.base)
        assert bd.reward <= 0.0
        assert 1.0 <= bd.p_latency < 2.0


def test_mu_reward_unassociated_has_no_uav_term():
    cfg = cfg_of()
    _, alloc, _, report = episode_slot(cfg, 7)
    alloc.association[:] = 0  # force everyone local
    report.e_mu[0] = 1.0
    bd = mu_reward(0, report, alloc, cfg)
    assert bd.base == pytest.approx(1.0)
    assert bd.reward == pytest.approx(-1.0 * bd.p_latency)


def test_uav_reward_penalties_in_range_and_collision_factor():
    cfg = cfg_of()
    world, alloc, nxt, report = episode_slot(cfg, 8)
    for m in range(cfg.num_uavs):
        bd = uav_reward(m, report, nxt, alloc, cfg)
        for f in bd.factors().values():
            assert 1.0 <= f < 2.0
        assert bd.reward <= 0.0
    # force two UAVs within half the safety distance
    report.pair_distance[0, 1] = report.pair_distance[1, 0] = cfg.safety_distance / 2
    bd = uav_reward(0, report, nxt, alloc, cfg)
    expected_pair = 2.0 - math.exp(-0.5)
    # mean over the two other UAVs, the second of which is far away
    assert bd.p_collision == pytest.approx((expected_pair + 1.0) / 2.0)


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
    served = alloc.served_by(m)
    report.pair_distance[:] = 100.0
    report.boundary_overshoot[:] = 0.0
    report.latency[:] = 0.0
    report.radar_rate[:] = 1.0
    if served.size:
        centroid = np.mean([nxt.mus[k].position for k in served], axis=0)
        nxt.uavs[m].position = centroid
    bd = uav_reward(m, report, nxt, alloc, cfg)
    assert bd.penalty_product == pytest.approx(1.0)
    e_served = float(np.mean(report.e_mu[served])) if served.size else 0.0
    expected = cfg.reward_energy_weight * (e_served + cfg.weight_factor * report.e_uav[m]) \
        + cfg.reward_distance_weight * 1.0
    assert bd.reward == pytest.approx(-expected)


def test_reward_modes():
    cfg = cfg_of(reward_mode="energy_min")
    world, alloc, nxt, report = episode_slot(cfg, 10)
    bd = uav_reward(0, report, nxt, alloc, cfg)
    served = alloc.served_by(0)
    e_served = float(np.mean(report.e_mu[served])) if served.size else 0.0
    assert bd.base == pytest.approx(e_served + cfg.weight_factor * report.e_uav[0])
    cfg2 = cfg_of(reward_mode="accuracy_max")
    bd2 = uav_reward(0, report, nxt, alloc, cfg2)
    assert bd2.reward > 0.0
    assert bd2.reward == pytest.approx(bd2.base / bd2.penalty_product)
