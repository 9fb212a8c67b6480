"""Gauss-Markov mobility and UAV kinematics."""

import numpy as np
import pytest

import oracles
from uav_iscc.env import ScenarioConfig, UavState, advance_kinematics, draw_task, step_mobility


def make_cfg(**kw):
    cfg = ScenarioConfig()
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


def make_mu(pos=(500.0, 500.0), speed=1.0, heading=0.0):
    """One MU as the (positions, speeds, headings) arrays `step_mobility` takes."""
    return np.array([pos], dtype=float), np.array([speed]), np.array([heading])


def step_one(mu, cfg, rng):
    """Step one MU; returns its (position, speed, heading)."""
    pos, speed, heading = step_mobility(*mu, cfg, rng)
    return pos[0], float(speed[0]), float(heading[0])


def make_uav(pos=(500.0, 500.0), vel=(0.0, 0.0)):
    return UavState(position=np.array(pos, dtype=float),
                    velocity=np.array(vel, dtype=float),
                    acceleration=np.zeros(2),
                    target_position=np.array([100.0, 100.0]),
                    doppler_phase=1.0 + 0j, clutter_gain=0.0 + 0j,
                    decompress_density=200.0)


def test_full_memory_keeps_speed_and_heading():
    cfg = make_cfg(mobility_speed_memory=1.0, mobility_heading_memory=1.0)
    mu = make_mu(speed=4.0, heading=0.7)
    _, speed, heading = step_one(mu, cfg, np.random.default_rng(0))
    assert speed == pytest.approx(4.0)
    assert heading == pytest.approx(0.7)


def test_zero_memory_zero_noise_jumps_to_mean():
    cfg = make_cfg(mobility_speed_memory=0.0, mobility_speed_noise_std=1e-30,
                   mobility_mean_speed=2.0)
    mu = make_mu(speed=9.0)
    _, speed, _ = step_one(mu, cfg, np.random.default_rng(1))
    assert speed == pytest.approx(2.0, abs=1e-12)


def test_heading_mixes_mean_with_heading_memory():
    # the mean heading enters with weight 1 - heading memory, not 1 - speed memory
    cfg = make_cfg(mobility_speed_memory=0.9, mobility_heading_memory=0.0,
                   mobility_heading_noise_std=1e-30, mobility_mean_heading=1.0)
    _, _, heading = step_one(make_mu(heading=0.0), cfg, np.random.default_rng(4))
    assert heading == 1.0


def test_half_memory_mixes_speed():
    # 0.5*4 + 0.5*2 = 3 with no innovation
    cfg = make_cfg(mobility_speed_memory=0.5, mobility_speed_noise_std=1e-30,
                   mobility_mean_speed=2.0)
    _, speed, _ = step_one(make_mu(speed=4.0), cfg, np.random.default_rng(2))
    assert speed == pytest.approx(3.0, abs=1e-10)


def test_position_advances_along_previous_heading():
    cfg = make_cfg()
    mu = make_mu(pos=(100.0, 100.0), speed=2.0, heading=np.pi / 2)
    pos, _, _ = step_one(mu, cfg, np.random.default_rng(3))
    assert np.allclose(pos, [100.0, 102.0])


def test_walls_reflect_and_clamp():
    cfg = make_cfg(mobility_speed_memory=1.0, mobility_heading_memory=1.0)
    mu = make_mu(pos=(999.5, 500.0), speed=3.0, heading=0.0)
    pos, _, heading = step_one(mu, cfg, np.random.default_rng(4))
    assert pos[0] == pytest.approx(1000.0)
    assert abs(heading) == pytest.approx(np.pi)
    assert 0.0 <= pos[0] <= cfg.region_width


def test_positions_stay_in_region_long_run():
    cfg = make_cfg()
    rng = np.random.default_rng(5)
    mu = make_mu(pos=(10.0, 990.0), speed=5.0, heading=2.0)
    for _ in range(500):
        mu = step_mobility(*mu, cfg, rng)
        pos, speed, _ = mu
        assert 0.0 <= pos[0, 0] <= cfg.region_width
        assert 0.0 <= pos[0, 1] <= cfg.region_width
        assert speed[0] >= 0.0


@pytest.mark.parametrize("count", [0, 1, 300])
def test_batched_step_matches_per_mu_steps(count):
    # fast MUs spread over the region, so many cross a wall or a corner
    cfg = make_cfg()
    rng = np.random.default_rng(7)
    positions = rng.uniform(0.0, cfg.region_width, size=(count, 2))
    positions[: count // 3] = rng.choice([0.5, cfg.region_width - 0.5], size=(count // 3, 2))
    speeds = rng.uniform(0.0, 30.0, count)
    headings = rng.uniform(-np.pi, np.pi, count)
    got = step_mobility(positions, speeds, headings, cfg, np.random.default_rng(8))
    # normals only, so the per-MU calls read the same stream in the same order
    ref_rng = np.random.default_rng(8)
    want = [oracles.step_mobility(positions[k], speeds[k], headings[k], cfg, ref_rng)
            for k in range(count)]
    want_pos = np.array([w[0] for w in want]).reshape(count, 2)
    assert got[0].shape == (count, 2) and got[0].tobytes() == want_pos.tobytes()
    assert got[1].tobytes() == np.array([w[1] for w in want]).tobytes()
    assert got[2].tobytes() == np.array([w[2] for w in want]).tobytes()
    if count > 3:
        assert np.any(got[0] == 0.0) and np.any(got[0] == cfg.region_width)


@pytest.mark.parametrize("count", [0, 1, 300])
def test_batched_tasks_match_per_mu_draws(count):
    cfg = make_cfg()
    got = draw_task(cfg, np.random.default_rng(9), count)
    ref_rng = np.random.default_rng(9)
    want = np.array([oracles.draw_task(cfg, ref_rng) for _ in range(count)]).reshape(count, 5)
    assert got.shape == (count, 5) and got.tobytes() == want.tobytes()


def test_kinematics_pure_drift():
    cfg = make_cfg()
    uav, over = advance_kinematics(make_uav(pos=(100.0, 100.0), vel=(1.0, 0.0)),
                                   np.zeros(2), cfg)
    assert np.allclose(uav.position, [101.0, 100.0])
    assert over == 0.0


def test_kinematics_half_a_t_squared():
    cfg = make_cfg()
    uav, _ = advance_kinematics(make_uav(), np.array([2.0, 0.0]), cfg)
    assert np.allclose(uav.position, [501.0, 500.0])
    assert np.allclose(uav.velocity, [2.0, 0.0])


def test_speed_and_acceleration_limits_enforced():
    cfg = make_cfg()
    rng = np.random.default_rng(6)
    uav = make_uav(vel=(19.0, 0.0))
    for _ in range(200):
        cmd = rng.uniform(-15.0, 15.0, size=2)
        uav, _ = advance_kinematics(uav, cmd, cfg)
        assert np.linalg.norm(uav.velocity) <= cfg.uav_v_max + 1e-12
        assert np.linalg.norm(uav.acceleration) <= cfg.uav_a_max + 1e-12
        assert np.all(uav.position >= 0.0) and np.all(uav.position <= cfg.region_width)


def test_boundary_overshoot_reported():
    cfg = make_cfg()
    uav, over = advance_kinematics(make_uav(pos=(999.0, 500.0), vel=(10.0, 0.0)),
                                   np.zeros(2), cfg)
    assert uav.position[0] == pytest.approx(1000.0)
    assert over == pytest.approx(9.0)
    assert uav.velocity[0] == 0.0  # outward component zeroed at the wall
