"""Full slot transition: determinism, invariants, cross-module consistency."""

import copy
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
    mu_obs_dim,
    mu_reward,
    uav_obs_dim,
    uav_reward,
    uav_rosters,
)
from uav_iscc.env import (
    Allocation,
    ConfigError,
    ScenarioConfig,
    build_all_channels,
    build_radar_state,
    design_links,
    draw_task,
    reset_world,
    step_mobility,
    uav_clutter,
    world_step,
)


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


@pytest.mark.parametrize("name", ["noise_power_dbm", "ref_gain_db"])
def test_db_setting_that_underflows_to_zero_rejected(name):
    # 10^(-400) is 0.0 in float64: a zero noise power leaves the combiner's
    # covariance singular, a zero reference gain makes every channel zero
    tiny_cfg(**{name: -200.0})
    with pytest.raises(ConfigError, match=name):
        tiny_cfg(**{name: -4000.0})


@pytest.mark.parametrize("name", ["noise_power_dbm", "ref_gain_db"])
def test_db_setting_that_overflows_rejected(name):
    # 10^500 is past the float range: Python raises OverflowError for it
    tiny_cfg(**{name: 3000.0})
    with pytest.raises(ConfigError, match=name):
        tiny_cfg(**{name: 5000.0})


@pytest.mark.parametrize("name", ["altitude", "rician_factor", "mu_power_max",
                                  "noise_power_dbm", "num_mus", "mobility_speed_noise_std"])
def test_nan_setting_rejected(name):
    # nan <= 0 and nan < 0 are False, so a plain comparison lets NaN through
    with pytest.raises(ConfigError, match=name):
        tiny_cfg(**{name: math.nan})


def random_actions(cfg, rng):
    mu_actions = [MuAction.from_vector(rng.uniform(0.01, 0.99, MuAction.dim(cfg)), cfg)
                  for _ in range(cfg.num_mus)]
    uav_actions = UavAction.from_vector(
        rng.uniform(0.01, 0.99, (cfg.num_uavs, UavAction.dim(cfg))), cfg)
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
    alloc = Allocation(serving=np.zeros(0, dtype=int), offload_ratio=np.zeros(0),
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
        assert np.all(np.linalg.norm(world.uav_velocities, axis=1) <= cfg.uav_v_max + 1e-9)
        assert np.all(np.linalg.norm(accels, axis=1) <= cfg.uav_a_max + 1e-9)


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
            if np.any(alloc.serving == m):
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
    mu_total = mu_reward(report, alloc, cfg).base.sum()
    served_uavs = set(alloc.serving.tolist()) - {-1}
    unserved = cfg.weight_factor * sum(
        report.e_uav[m] for m in range(cfg.num_uavs) if m not in served_uavs)
    counted_multiple = sum(
        cfg.weight_factor * report.e_uav[m] for m in alloc.serving if m >= 0)
    assert mu_total - counted_multiple + cfg.weight_factor * sum(
        report.e_uav[m] for m in served_uavs) + unserved == pytest.approx(objective, rel=1e-12)


def test_rewards_are_pure_functions():
    cfg = tiny_cfg()
    world, alloc, accels, nxt, report = run_slot(cfg, seed=7)
    a = mu_reward(report, alloc, cfg)
    b = mu_reward(report, alloc, cfg)
    assert np.array_equal(a.reward, b.reward) and np.array_equal(a.base, b.base)
    ua = uav_reward(report, nxt, alloc, cfg)
    ub = uav_reward(report, nxt, alloc, cfg)
    assert np.array_equal(ua.reward, ub.reward)


@pytest.mark.parametrize("num_mus,num_uavs", [(0, 2), (1, 1), (6, 3), (100, 10)])
def test_reset_draws_match_per_mu_calls(num_mus, num_uavs):
    cfg = ScenarioConfig(num_mus=num_mus, num_uavs=num_uavs).validate()
    world = reset_world(cfg, np.random.default_rng(21))
    positions, headings, tasks = oracles.reset_mus(cfg, np.random.default_rng(21))
    assert world.mu_positions.tobytes() == positions.tobytes()
    assert world.mu_headings.tobytes() == headings.tobytes()
    assert world.tasks.tobytes() == tasks.tobytes()
    assert world.mu_positions.shape == (num_mus, 2) and world.tasks.shape == (num_mus, 5)
    assert np.all(world.mu_speeds == cfg.mobility_mean_speed)


@pytest.mark.parametrize("case", ["m1", "m3", "co-located", "m20"])
def test_clutter_matches_pairwise_loop(case):
    cfg = ScenarioConfig(num_uavs={"m1": 1, "co-located": 2, "m20": 20}.get(case, 3)).validate()
    rng = np.random.default_rng(31)
    positions = rng.uniform(0.0, cfg.region_width, (cfg.num_uavs, 2))
    phases = rng.uniform(0.0, 2.0 * np.pi, (cfg.num_uavs, cfg.num_uavs))
    if case == "co-located":
        positions[1] = positions[0]
    got = uav_clutter(positions, phases, cfg)
    want = oracles.uav_clutter(positions, phases, cfg)
    assert got.shape == (cfg.num_uavs,) and got.tobytes() == want.tobytes()
    if case == "m1":
        assert got[0] == 0.0
    if case == "co-located":
        # the pair's distance is floored at the safety distance
        assert np.allclose(abs(got), math.sqrt(cfg.ref_gain) / cfg.safety_distance, rtol=1e-12)


def test_reset_world_builds_clutter_from_its_draws():
    cfg = ScenarioConfig(num_mus=4, num_uavs=5).validate()
    world = reset_world(cfg, np.random.default_rng(32))
    rng = np.random.default_rng(32)
    rng.uniform(size=(4, 8))                                  # the MU draws
    positions = rng.uniform(0.0, cfg.region_width, size=(5, 2))
    rng.uniform(size=(5, 2))                                  # targets
    rng.uniform(size=5)                                       # Doppler phases
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(5, 5))
    assert world.uav_positions.tobytes() == positions.tobytes()
    assert world.uav_clutter.tobytes() == oracles.uav_clutter(positions, phases, cfg).tobytes()
    assert np.all(world.uav_velocities == 0.0)


@pytest.mark.parametrize("num_mus,num_uavs,seed", [(0, 2, 1), (1, 1, 2), (4, 2, 3), (40, 5, 4)])
def test_pipeline_matches_per_mu_loop(num_mus, num_uavs, seed):
    cfg = ScenarioConfig(num_mus=num_mus, num_uavs=num_uavs).validate()
    rng = np.random.default_rng(seed)
    world = reset_world(cfg, rng)
    for _ in range(3):
        mu_actions, uav_actions = random_actions(cfg, rng)
        alloc = build_allocation(mu_actions, cfg)
        alloc, accels = apply_uav_actions(alloc, uav_rosters(alloc, cfg), uav_actions, cfg)
        # the slot's channels are the first draw world_step takes from the stream
        slot_rng = copy.deepcopy(rng)
        nxt, report = world_step(world, alloc, accels, cfg, rng)
        served = np.flatnonzero(alloc.serving >= 0)
        receivers = np.unique(alloc.serving[served])
        channels = build_all_channels(world, served, receivers, cfg, slot_rng)
        leakage = build_radar_state(world, cfg)[2]
        links, link_rates = design_links(channels, alloc, leakage, cfg)
        rates = dict(zip(links.tolist(), link_rates.tolist()))
        want = oracles.task_pipeline(world, alloc, rates, cfg)
        for name, value in want.items():
            got = getattr(report, name)
            assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
        world = nxt


def test_slot_with_every_mu_local_draws_channels_once(monkeypatch):
    # the channel draw runs in every slot, so the benchmark's wrap of this name
    # sees one call per slot; with no MU served it draws the empty set
    cfg = ScenarioConfig(num_mus=5, num_uavs=2).validate()
    rng = np.random.default_rng(16)
    world = reset_world(cfg, rng)
    calls = []

    def spy(world, mus, uavs, cfg, rng):
        calls.append((mus, uavs))
        return build_all_channels(world, mus, uavs, cfg, rng)

    monkeypatch.setattr("uav_iscc.env.world.build_all_channels", spy)
    alloc = Allocation(serving=np.full(5, -1), offload_ratio=np.zeros(5),
                       compress_ratio=np.zeros(5), edge_cpu=np.zeros((5, 2)))
    report = world_step(world, alloc, np.zeros((2, 2)), cfg, rng)[1]
    assert len(calls) == 1 and calls[0][0].shape == calls[0][1].shape == (0,)
    assert np.all(report.rate == 0.0)


@pytest.mark.parametrize("num_mus", [0, 1])
def test_zero_and_one_mu_through_a_slot(num_mus):
    # pyproject turns RuntimeWarnings into errors, so an empty reduction or a
    # UAV that serves nobody (0/0) fails here
    cfg = ScenarioConfig(num_mus=num_mus, num_uavs=2).validate()
    rng = np.random.default_rng(15)
    world = reset_world(cfg, rng)
    assert world.num_mus == num_mus
    assert world.mu_positions.shape == (num_mus, 2) and world.tasks.shape == (num_mus, 5)
    assert world.mu_speeds.shape == world.mu_headings.shape == (num_mus,)
    mu_actions, uav_actions = random_actions(cfg, rng)
    alloc = build_allocation(mu_actions, cfg)
    assert alloc.association.shape == (num_mus, 2) and alloc.serving.shape == (num_mus,)
    rosters = uav_rosters(alloc, cfg)
    mu_obs = build_mu_observations(world, cfg)
    assert mu_obs.shape == (num_mus, mu_obs_dim(cfg))
    uav_obs = build_uav_observations(world, alloc, mu_obs, rosters, cfg)
    assert uav_obs.shape == (2, uav_obs_dim(cfg))
    alloc, accels = apply_uav_actions(alloc, rosters, uav_actions, cfg)
    nxt, report = world_step(world, alloc, accels, cfg, rng)
    assert nxt.mu_positions.shape == (num_mus, 2) and nxt.tasks.shape == (num_mus, 5)
    for name in ("latency", "e_mu", "rate", "deadline", "deadline_met"):
        assert getattr(report, name).shape == (num_mus,), name
    bd = mu_reward(report, alloc, cfg)
    assert bd.base.shape == bd.p_latency.shape == bd.reward.shape == (num_mus,)
    for name in ("p_flight", "e_uav", "radar_sinr", "radar_rate", "radar_met",
                 "boundary_overshoot", "safety_violated"):
        assert getattr(report, name).shape == (2,), name
    assert report.pair_distance.shape == (2, 2)
    assert nxt.uav_positions.shape == nxt.uav_velocities.shape == (2, 2)
    assert accels.shape == (2, 2)
    ubd = uav_reward(report, nxt, alloc, cfg)
    for name in ("base", "p_latency", "p_collision", "p_boundary", "p_radar", "reward"):
        value = getattr(ubd, name)
        assert value.shape == (2,) and np.all(np.isfinite(value)), name
    moved = step_mobility(world.mu_positions, world.mu_speeds, world.mu_headings, cfg, rng)
    assert [a.shape for a in moved] == [(num_mus, 2), (num_mus,), (num_mus,)]
    assert draw_task(cfg, rng, num_mus).shape == (num_mus, 5)
