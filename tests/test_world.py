"""Full slot transition: determinism, invariants, cross-module consistency."""

import numpy as np
import pytest

from uav_iscc.agents import (
    MuAction,
    UavAction,
    apply_uav_actions,
    build_allocation,
    mu_reward,
    uav_reward,
    uav_rosters,
)
from uav_iscc.env import Allocation, ConfigError, ScenarioConfig, reset_world, world_step


def tiny_cfg(**kw):
    cfg = ScenarioConfig(num_mus=4, num_uavs=2)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


@pytest.mark.parametrize("name", ["roster_capacity", "mobility_speed_noise_std",
                                  "mobility_heading_noise_std"])
def test_negative_capacity_or_noise_std_rejected(name):
    tiny_cfg(**{name: 0})
    with pytest.raises(ConfigError, match=name):
        tiny_cfg(**{name: -1})


def random_actions(cfg, rng):
    mu_actions = [MuAction.from_vector(rng.uniform(0.01, 0.99, MuAction.dim(cfg)), cfg)
                  for _ in range(cfg.num_mus)]
    uav_actions = [UavAction.from_vector(rng.uniform(0.01, 0.99, UavAction.dim(cfg)), cfg)
                   for _ in range(cfg.num_uavs)]
    return mu_actions, uav_actions


def run_slot(cfg, seed=0):
    rng = np.random.default_rng(seed)
    world = reset_world(cfg, rng)
    mu_actions, uav_actions = random_actions(cfg, rng)
    alloc = build_allocation(mu_actions, cfg)
    alloc, accels = apply_uav_actions(alloc, uav_rosters(alloc, cfg), uav_actions, cfg)
    nxt, report = world_step(world, alloc, accels, cfg, rng)
    return world, alloc, accels, nxt, report


def test_identical_seeds_give_identical_reports():
    cfg = tiny_cfg()
    _, _, _, _, r1 = run_slot(cfg, seed=11)
    _, _, _, _, r2 = run_slot(cfg, seed=11)
    for name in ("latency", "e_mu", "e_uav", "rate", "radar_rate", "p_flight",
                 "boundary_overshoot"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name))


def test_different_seed_differs():
    cfg = tiny_cfg()
    _, _, _, _, r1 = run_slot(cfg, seed=1)
    _, _, _, _, r2 = run_slot(cfg, seed=2)
    assert not np.array_equal(r1.e_mu, r2.e_mu)


def test_zero_mus_leaves_only_flight_energy():
    cfg = ScenarioConfig(num_mus=0, num_uavs=2).validate()
    rng = np.random.default_rng(3)
    world = reset_world(cfg, rng)
    alloc = Allocation(association=np.zeros((0, 2)), offload_ratio=np.zeros(0),
                       compress_ratio=np.zeros(0), edge_cpu=np.zeros((0, 2)))
    nxt, report = world_step(world, alloc, np.zeros((2, 2)), cfg, rng)
    assert report.e_mu.size == 0
    assert np.array_equal(report.e_uav, report.e_flight)
    assert nxt.slot == 1


def test_report_nonnegative_and_latency_identity():
    cfg = tiny_cfg()
    rng = np.random.default_rng(4)
    world = reset_world(cfg, rng)
    for _ in range(50):
        mu_actions, uav_actions = random_actions(cfg, rng)
        alloc = build_allocation(mu_actions, cfg)
        alloc, accels = apply_uav_actions(alloc, uav_rosters(alloc, cfg), uav_actions, cfg)
        world, report = world_step(world, alloc, accels, cfg, rng)
        for name in ("t_local", "t_compress", "t_offload", "t_decompress",
                     "t_edge_compute", "t_edge_total", "latency", "e_compress",
                     "e_local", "e_offload", "e_mu", "e_edge_compute",
                     "e_decompress", "e_flight", "e_uav", "rate", "radar_rate"):
            assert np.all(getattr(report, name) >= 0.0), name
        assert np.allclose(report.t_edge_total,
                           report.t_offload + report.t_decompress + report.t_edge_compute)
        for u in world.uavs:
            assert np.linalg.norm(u.velocity) <= cfg.uav_v_max + 1e-9
            assert np.linalg.norm(u.acceleration) <= cfg.uav_a_max + 1e-9


def test_edge_capacity_and_share_sums():
    cfg = tiny_cfg()
    rng = np.random.default_rng(5)
    for _ in range(30):
        mu_actions, uav_actions = random_actions(cfg, rng)
        alloc = build_allocation(mu_actions, cfg)
        alloc, _ = apply_uav_actions(alloc, uav_rosters(alloc, cfg), uav_actions, cfg)
        assert np.all(alloc.association.sum(axis=1) <= 1)
        per_uav = (alloc.association * alloc.edge_cpu).sum(axis=0)
        assert np.all(per_uav <= cfg.uav_cpu_max + 1e-9)
        # shares exhaust the budget whenever someone is served
        for m in range(cfg.num_uavs):
            if alloc.served_by(m).size:
                assert per_uav[m] == pytest.approx(cfg.uav_cpu_max)
        # shares only where associated
        assert np.all((alloc.edge_cpu > 0) <= (alloc.association > 0))


def test_objective_matches_reward_side_aggregate():
    # penalty-free bookkeeping: the report's weighted energy equals the sum
    # of reward bases with the UAV terms counted once
    cfg = tiny_cfg()
    world, alloc, accels, nxt, report = run_slot(cfg, seed=6)
    objective = report.objective(cfg.weight_factor)
    direct = cfg.weight_factor * report.e_uav.sum() + report.e_mu.sum()
    assert objective == pytest.approx(direct, abs=1e-12)
    mu_total = sum(mu_reward(k, report, alloc, cfg).base for k in range(cfg.num_mus))
    served_uavs = {alloc.serving_uav(k) for k in range(cfg.num_mus)} - {-1}
    unserved = cfg.weight_factor * sum(
        report.e_uav[m] for m in range(cfg.num_uavs) if m not in served_uavs)
    counted_multiple = sum(
        cfg.weight_factor * report.e_uav[alloc.serving_uav(k)]
        for k in range(cfg.num_mus) if alloc.serving_uav(k) >= 0)
    assert mu_total - counted_multiple + cfg.weight_factor * sum(
        report.e_uav[m] for m in served_uavs) + unserved == pytest.approx(objective, rel=1e-12)


def test_rewards_are_pure_functions():
    cfg = tiny_cfg()
    world, alloc, accels, nxt, report = run_slot(cfg, seed=7)
    a = mu_reward(0, report, alloc, cfg)
    b = mu_reward(0, report, alloc, cfg)
    assert a.reward == b.reward and a.base == b.base
    ua = uav_reward(0, report, nxt, alloc, cfg)
    ub = uav_reward(0, report, nxt, alloc, cfg)
    assert ua.reward == ub.reward
