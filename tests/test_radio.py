"""Channels, beamformers, uplink rates, and radar sensing."""

import math

import numpy as np
import pytest

import oracles
from oracles import interference_covariance
from uav_iscc.env import (
    Allocation,
    ScenarioConfig,
    UavState,
    build_all_channels,
    build_radar_state,
    comm_rate,
    design_links,
    mmse_beamformer,
    radar_rate,
    radar_rate_from_filter,
    reset_world,
    steering_vector,
)
from uav_iscc.env.radio import _solve_hpd


@pytest.fixture
def cfg():
    return ScenarioConfig().validate()


def test_steering_vector_zero_angle_all_ones():
    assert np.allclose(steering_vector(0.0, 4), np.ones(4))


def test_steering_vector_norm_sqrt_n():
    for angle in (0.3, -1.2, 2.9):
        for n in (1, 2, 8):
            assert np.linalg.norm(steering_vector(angle, n)) == pytest.approx(math.sqrt(n))


def test_steering_vector_broadside_pair():
    v = steering_vector(np.pi / 2, 2)
    assert np.allclose(v, [1.0, -1.0], atol=1e-12)


def colocated_world(mu_xy, uav_xy, num_mus, cfg):
    """`num_mus` MUs stacked at one point under a single UAV."""
    cfg.num_mus, cfg.num_uavs = num_mus, 1
    world = reset_world(cfg, np.random.default_rng(0))
    for mu in world.mus:
        mu.position = np.array(mu_xy, dtype=float)
    world.uavs[0].position = np.array(uav_xy, dtype=float)
    return world


def test_distance_under_uav_is_altitude(cfg):
    # with line of sight only, every entry has power ref_gain / d^2 exactly
    cfg.rician_factor = math.inf
    world = colocated_world([300.0, 400.0], [300.0, 400.0], 1, cfg)
    h = build_all_channels(world, cfg, np.random.default_rng(0))
    assert np.allclose(np.abs(h) ** 2, cfg.ref_gain / 4.0e4, rtol=1e-12, atol=0.0)


def test_los_only_channel_entry_power_exact(cfg):
    cfg.rician_factor = math.inf
    world = colocated_world([100.0, 100.0], [160.0, 180.0], 1, cfg)
    h = build_all_channels(world, cfg, np.random.default_rng(1))
    d2 = 60.0 ** 2 + 80.0 ** 2 + cfg.altitude ** 2
    assert np.allclose(np.abs(h) ** 2, cfg.ref_gain / d2, atol=1e-18)


def test_channel_monte_carlo_entry_power(cfg):
    # mean per-entry power approaches ref_gain / d^2 for the default Rician factor
    rng = np.random.default_rng(2)
    # directly overhead: d = altitude = 200; 100 MUs x 100 draws = 10k channels
    world = colocated_world([250.0, 250.0], [250.0, 250.0], 100, cfg)
    n_draws = 100
    total = sum(np.mean(np.abs(build_all_channels(world, cfg, rng)) ** 2)
                for _ in range(n_draws))
    expected = cfg.ref_gain / cfg.altitude ** 2
    assert abs(total / n_draws - expected) / expected < 0.05


def test_batched_channels_match_statistics(cfg):
    cfg.num_mus, cfg.num_uavs = 6, 3
    world = reset_world(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    mean_power = np.zeros((6, 3))
    n_draws = 2000
    for _ in range(n_draws):
        h = build_all_channels(world, cfg, rng)
        mean_power += np.mean(np.abs(h) ** 2, axis=(2, 3))
    mean_power /= n_draws
    mu_pos, uav_pos = world.mu_positions(), world.uav_positions()
    for k in range(6):
        for m in range(3):
            d2 = np.sum((uav_pos[m] - mu_pos[k]) ** 2) + cfg.altitude ** 2
            assert abs(mean_power[k, m] - cfg.ref_gain / d2) / (cfg.ref_gain / d2) < 0.1


def test_mmse_reduces_to_matched_filter_in_white_noise(cfg):
    rng = np.random.default_rng(5)
    h = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    noise = cfg.noise_power * np.eye(4, dtype=complex)
    w, loaded = mmse_beamformer(h, noise, cfg)
    assert not loaded
    u, _, _ = np.linalg.svd(h)
    principal = u[:, 0]
    # proportional up to a complex phase
    corr = abs(np.vdot(principal, w))
    assert corr == pytest.approx(1.0, abs=1e-9)


def test_scalar_rate_reduction(cfg):
    # 1x1 link, |h|^2 P / sigma^2 = 1 -> rate equals the bandwidth
    cfg_1 = ScenarioConfig(tx_antennas=1, rx_antennas=1).validate()
    sigma2 = cfg_1.noise_power
    h = np.array([[math.sqrt(sigma2 / cfg_1.mu_power_max) + 0j]])
    w = np.array([1.0 + 0j])
    noise = sigma2 * np.eye(1, dtype=complex)
    rate, s = comm_rate(h, w, noise, cfg_1.mu_power_max, cfg_1)
    assert s == pytest.approx(sigma2)
    assert rate == pytest.approx(cfg_1.bandwidth_hz, rel=1e-12)


def test_zero_power_zero_rate(cfg):
    h = np.zeros((4, 4), dtype=complex)
    noise = cfg.noise_power * np.eye(4, dtype=complex)
    rate, _ = comm_rate(h, np.ones(4, dtype=complex) / 2, noise, cfg.mu_power_max, cfg)
    assert rate == 0.0


def test_interference_never_increases_rate(cfg):
    rng = np.random.default_rng(6)
    h = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) * 1e-4
    noise = cfg.noise_power * np.eye(4, dtype=complex)
    w, _ = mmse_beamformer(h, noise, cfg)
    base, _ = comm_rate(h, w, noise, cfg.mu_power_max, cfg)
    for _ in range(20):
        g = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 1e-4
        bumped = noise + cfg.mu_power_max * np.outer(g, g.conj())
        worse, _ = comm_rate(h, w, bumped, cfg.mu_power_max, cfg)
        assert worse <= base + 1e-9


def test_radar_rate_spot_value(cfg):
    # duty 0.01, pulse 2e-5, and gamma with 2*B*mu*gamma = 1 -> 250 bps
    gamma = 1.0 / (2.0 * cfg.bandwidth_hz * cfg.radar_gain_product)
    assert radar_rate(gamma, cfg) == pytest.approx(250.0, rel=1e-12)
    assert radar_rate(0.0, cfg) == 0.0


def make_uav(cfg, pos, target, doppler=1.0 + 0j, clutter=0.0 + 0j):
    return UavState(position=np.asarray(pos, dtype=float), velocity=np.zeros(2),
                    acceleration=np.zeros(2), target_position=np.asarray(target, dtype=float),
                    doppler_phase=doppler, clutter_gain=clutter, decompress_density=200.0)


def test_radar_beam_power_and_filter_norm(cfg):
    uav = make_uav(cfg, [100.0, 100.0], [400.0, 300.0], clutter=0.01 + 0.02j)
    state, loaded = build_radar_state(uav, cfg)
    assert not loaded
    assert np.linalg.norm(state.beamformer) ** 2 == pytest.approx(cfg.uav_power_max)
    assert np.linalg.norm(state.receive_filter) == pytest.approx(1.0)
    assert state.sinr >= 0.0
    # covariance is Hermitian positive definite
    assert np.allclose(state.covariance, state.covariance.conj().T)
    assert np.all(np.linalg.eigvalsh(state.covariance) > 0)


def test_zero_beam_gives_zero_sensing(cfg):
    uav = make_uav(cfg, [0.0, 0.0], [10.0, 10.0])
    state, _ = build_radar_state(uav, cfg)
    sinr, rate = radar_rate_from_filter(state.receive_filter, state.target_response,
                                        np.zeros_like(state.beamformer),
                                        state.covariance, cfg)
    assert sinr == 0.0 and rate == 0.0


def test_max_sinr_filter_beats_random_filters(cfg):
    rng = np.random.default_rng(7)
    uav = make_uav(cfg, [200.0, 300.0], [500.0, 100.0],
                   doppler=np.exp(1j * 0.4), clutter=0.005 + 0.003j)
    state, _ = build_radar_state(uav, cfg)
    for _ in range(1000):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c /= np.linalg.norm(c)
        sinr, _ = radar_rate_from_filter(c, state.target_response, state.beamformer,
                                         state.covariance, cfg)
        assert sinr <= state.sinr * (1.0 + 1e-9)


def test_design_links_rates_positive_and_loading_flag(cfg):
    cfg.num_mus, cfg.num_uavs = 5, 2
    rng = np.random.default_rng(8)
    world = reset_world(cfg, rng)
    world.channels = build_all_channels(world, cfg, rng)
    association = np.zeros((5, 2))
    association[0, 0] = association[1, 0] = association[2, 1] = 1
    edge = np.zeros((5, 2))
    edge[0, 0] = edge[1, 0] = 5e9
    edge[2, 1] = 1e10
    alloc = Allocation(association=association,
                       offload_ratio=np.full(5, 0.5),
                       compress_ratio=np.full(5, 0.5),
                       edge_cpu=edge)
    radars = [build_radar_state(u, cfg)[0] for u in world.uavs]
    rates, loaded = design_links(world, alloc, radars, cfg)
    assert set(rates) == {0, 1, 2}
    assert not loaded
    for k, rate in rates.items():
        assert np.isfinite(rate) and rate > 0.0
        m = int(np.argmax(association[k]))
        h = world.channels[k, m]
        n_cov = interference_covariance(world, alloc, radars, cfg, m) \
            - cfg.mu_power_max * (h @ h.conj().T)
        assert np.all(np.linalg.eigvalsh(n_cov) > 0)
        w, _ = mmse_beamformer(h, n_cov, cfg)
        assert np.linalg.norm(w) == pytest.approx(1.0)


def served_world(serving, num_uavs, seed, **overrides):
    """World with fresh channels and radars, and MU k associated with UAV serving[k] (-1: none)."""
    cfg = ScenarioConfig(num_mus=len(serving), num_uavs=num_uavs, **overrides).validate()
    rng = np.random.default_rng(seed)
    world = reset_world(cfg, rng)
    world.channels = build_all_channels(world, cfg, rng)
    association = np.zeros((cfg.num_mus, num_uavs))
    for k, m in enumerate(serving):
        if m >= 0:
            association[k, m] = 1.0
    alloc = Allocation(association=association,
                       offload_ratio=rng.uniform(0.0, 1.0, cfg.num_mus),
                       compress_ratio=rng.uniform(0.0, 1.0, cfg.num_mus),
                       edge_cpu=np.zeros((cfg.num_mus, num_uavs)))
    radars = [build_radar_state(u, cfg)[0] for u in world.uavs]
    return cfg, world, alloc, radars


def random_serving(k_count, m_count, seed):
    return np.random.default_rng(seed).integers(-1, m_count, k_count).tolist()


LINK_CASES = {
    "empty-association": ([-1] * 6, 3, {}),
    "uav-serving-nobody": ([0, 1, 0, 1, -1, 0], 3, {}),
    "all-on-one-uav": ([1] * 6, 3, {}),
    "k1-m1": ([0], 1, {}),
    "rx1-tx1": ([0, 1, 2, -1, 0, 2], 3, {"rx_antennas": 1, "tx_antennas": 1}),
    "rx2-tx6": ([0, 1, 2, -1, 0, 2], 3, {"rx_antennas": 2, "tx_antennas": 6}),
    "rx6-tx2": ([0, 1, 2, -1, 0, 2], 3, {"rx_antennas": 6, "tx_antennas": 2}),
    "25x5": (random_serving(25, 5, 1), 5, {}),
    "100x10": (random_serving(100, 10, 2), 10, {}),
}


@pytest.mark.parametrize("case", list(LINK_CASES))
def test_stacked_link_design_matches_per_link_loop(case):
    serving, num_uavs, overrides = LINK_CASES[case]
    for seed in (0, 1):
        cfg, world, alloc, radars = served_world(serving, num_uavs, seed, **overrides)
        rates, loaded = design_links(world, alloc, radars, cfg)
        ref, ref_loaded = oracles.design_links(world, alloc, radars, cfg)
        assert rates.keys() == ref.keys() == {k for k, m in enumerate(serving) if m >= 0}
        assert {k: float.hex(v) for k, v in rates.items()} == \
            {k: float.hex(v) for k, v in ref.items()}
        assert loaded == ref_loaded


def test_stacked_combiner_and_rate_match_single_links(cfg):
    rng = np.random.default_rng(10)
    h = (rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))) * 1e-4
    g = (rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))) * 1e-5
    noise = cfg.noise_power * np.eye(4) + g @ g.conj().swapaxes(-1, -2)
    w, loaded = mmse_beamformer(h, noise, cfg)
    rate, s = comm_rate(h, w, noise, cfg.mu_power_max, cfg)
    assert w.shape == (5, 4) and rate.shape == s.shape == (5,) and not loaded
    for i in range(5):
        w_i, _ = oracles.mmse_beamformer(h[i], noise[i], cfg)
        assert w[i].tobytes() == w_i.tobytes()
        assert float.hex(float(rate[i])) == \
            float.hex(oracles.comm_rate(h[i], w_i, noise[i], cfg.mu_power_max, cfg))


def test_non_finite_channel_rejected(cfg):
    h = np.ones((3, 4, 4), dtype=complex)
    h[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        comm_rate(h, np.ones((3, 4), dtype=complex), np.eye(4), cfg.mu_power_max, cfg)


def test_stacked_solve_loads_only_the_singular_matrix(cfg):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    mats = a @ a.conj().swapaxes(-1, -2) + np.eye(3)
    mats[2, -1, :] = mats[2, :, -1] = 0.0          # exactly singular, still Hermitian
    rhs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(mats[2], rhs[2])
    sol, loaded = _solve_hpd(mats, rhs, cfg)
    assert loaded and sol.shape == (4, 3)
    for i in range(4):
        mat = mats[i] + cfg.noise_power * 1e-6 * np.eye(3) if i == 2 else mats[i]
        assert sol[i].tobytes() == np.linalg.solve(mat, rhs[i]).tobytes()
    clean, loaded = _solve_hpd(np.delete(mats, 2, axis=0), np.delete(rhs, 2, axis=0), cfg)
    assert not loaded
    assert clean.tobytes() == np.delete(sol, 2, axis=0).tobytes()


def test_zero_combiner_falls_back_to_principal_direction(cfg):
    rng = np.random.default_rng(12)
    h = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    h[1] *= 1e-100
    noise = np.stack([cfg.noise_power * np.eye(4), 1e300 * np.eye(4)]).astype(complex)
    w, loaded = mmse_beamformer(h, noise, cfg)
    assert not loaded
    principal = h[1] @ np.linalg.svd(h[1])[2][0].conj()
    assert np.all(np.linalg.solve(noise[1], principal) == 0)    # the solve underflows
    for i in range(2):
        w_i, _ = oracles.mmse_beamformer(h[i], noise[i], cfg)
        assert w[i].tobytes() == w_i.tobytes()
        assert np.linalg.norm(w[i]) == pytest.approx(1.0)
