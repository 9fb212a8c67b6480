"""Gauss-Markov mobility and UAV kinematics."""

import numpy as np
import pytest

import oracles
from uav_iscc.env import ScenarioConfig, advance_kinematics, draw_task, step_mobility


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


def fly_one(cmd, cfg, pos=(500.0, 500.0), vel=(0.0, 0.0)):
    """Advance one UAV by one command; returns its (position, velocity, overshoot)."""
    pos, vel, over = advance_kinematics(np.array([pos], dtype=float),
                                        np.array([vel], dtype=float),
                                        np.array([cmd], dtype=float), cfg)
    return pos[0], vel[0], float(over[0])


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
    pos, _, over = fly_one(np.zeros(2), cfg, pos=(100.0, 100.0), vel=(1.0, 0.0))
    assert np.allclose(pos, [101.0, 100.0])
    assert over == 0.0


def test_kinematics_half_a_t_squared():
    cfg = make_cfg()
    pos, vel, _ = fly_one(np.array([2.0, 0.0]), cfg)
    assert np.allclose(pos, [501.0, 500.0])
    assert np.allclose(vel, [2.0, 0.0])


def test_speed_and_acceleration_limits_enforced():
    cfg = make_cfg()
    rng = np.random.default_rng(6)
    pos, vel = np.array([500.0, 500.0]), np.array([19.0, 0.0])
    for _ in range(200):
        cmd = rng.uniform(-15.0, 15.0, size=2)
        new_pos, new_vel, _ = fly_one(cmd, cfg, pos=pos, vel=vel)
        # the applied acceleration is within a_max, and the speed clip never
        # lengthens the change, so away from the walls |dv| <= a_max * dt
        if np.all((new_pos > 0.0) & (new_pos < cfg.region_width)):
            assert np.linalg.norm(new_vel - vel) <= cfg.uav_a_max * cfg.slot_seconds + 1e-9
        pos, vel = new_pos, new_vel
        assert np.linalg.norm(vel) <= cfg.uav_v_max + 1e-12
        assert np.all(pos >= 0.0) and np.all(pos <= cfg.region_width)


def test_boundary_overshoot_reported():
    cfg = make_cfg()
    pos, vel, over = fly_one(np.zeros(2), cfg, pos=(999.0, 500.0), vel=(10.0, 0.0))
    assert pos[0] == pytest.approx(1000.0)
    assert over == pytest.approx(9.0)
    assert vel[0] == 0.0  # outward component zeroed at the wall


KINEMATICS_CASES = {
    "m1-hover": ([[500.0, 500.0]], [[0.0, 0.0]], [[0.0, 0.0]]),
    "co-located": ([[300.0, 300.0], [300.0, 300.0]], [[1.0, 2.0], [1.0, 2.0]],
                   [[1.0, -1.0], [-3.0, 0.5]]),
    # x below 0, x above the width, y below 0, y above the width, and a corner
    "wall-crossings": ([[1.0, 500.0], [999.0, 500.0], [500.0, 2.0], [500.0, 998.0],
                        [999.5, 0.5]],
                       [[-10.0, 3.0], [10.0, -3.0], [4.0, -10.0], [-4.0, 10.0],
                        [15.0, -12.0]],
                       [[-4.0, 0.0], [4.0, 0.0], [0.0, -4.0], [0.0, 4.0], [3.0, -3.0]]),
    # commands beyond a_max and velocities that integrate beyond v_max
    "clips": ([[200.0, 200.0], [400.0, 600.0], [700.0, 100.0]],
              [[19.0, 5.0], [-20.0, 0.0], [0.0, 0.0]],
              [[15.0, 15.0], [-30.0, 2.0], [3.0, 4.0]]),
}


@pytest.mark.parametrize("case", list(KINEMATICS_CASES) + ["random-400"])
def test_batched_kinematics_match_per_uav_loop(case):
    cfg = make_cfg()
    if case == "random-400":
        rng = np.random.default_rng(10)
        pos = rng.uniform(-5.0, cfg.region_width + 5.0, (400, 2)).clip(0.0, cfg.region_width)
        vel, cmd = rng.uniform(-25.0, 25.0, (400, 2)), rng.uniform(-10.0, 10.0, (400, 2))
    else:
        pos, vel, cmd = (np.array(x, dtype=float) for x in KINEMATICS_CASES[case])
    got = advance_kinematics(pos, vel, cmd, cfg)
    want = [oracles.advance_kinematics(p, v, c, cfg) for p, v, c in zip(pos, vel, cmd)]
    assert got[0].tobytes() == np.array([w[0] for w in want]).tobytes()
    assert got[1].tobytes() == np.array([w[1] for w in want]).tobytes()
    assert got[2].tobytes() == np.array([w[2] for w in want]).tobytes()
    if case == "wall-crossings":
        assert np.all(got[2] > 0.0)
        assert set(got[0][:, 0]) >= {0.0, cfg.region_width}
        assert set(got[0][:, 1]) >= {0.0, cfg.region_width}
    if case == "clips":
        assert np.all(row_norms(got[1]) <= cfg.uav_v_max)
        assert np.any(np.isclose(row_norms(got[1]), cfg.uav_v_max, rtol=1e-12))


def row_norms(x):
    return np.sqrt(np.sum(x * x, axis=1))
