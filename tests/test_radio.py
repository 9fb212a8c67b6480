"""Channels, beamformers, uplink rates, and radar sensing."""

import copy
import itertools
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import interference_covariance
from uav_iscc.env import (
    Allocation,
    ScenarioConfig,
    build_all_channels,
    build_radar_state,
    design_links,
    radar_rate,
    reset_world,
    steering,
)
from uav_iscc.env.radio import _link_covariances, _principal_direction


@pytest.fixture
def cfg():
    return ScenarioConfig().validate()


def test_steering_vector_zero_angle_all_ones():
    assert np.allclose(steering(np.sin(np.array(0.0)), 4), np.ones(4))


def test_steering_vector_norm_sqrt_n():
    angles = np.array([0.3, -1.2, 2.9])
    for n in (1, 2, 8):
        vecs = steering(np.sin(angles), n)
        assert vecs.shape == (3, n)
        assert np.allclose(np.linalg.norm(vecs, axis=1), math.sqrt(n), rtol=1e-12)


def test_steering_vector_broadside_pair():
    v = steering(np.sin(np.array(np.pi / 2)), 2)
    assert np.allclose(v, [1.0, -1.0], atol=1e-12)


PI = np.longdouble("3.141592653589793238462643383279502884")


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64])
def test_steering_is_the_closed_form_within_k_ulps(n):
    # entry k is z^k, z = exp(j pi sin(theta)), by running products: z carries
    # the rounding of pi sin(theta) and each product about an ulp, so entry k
    # stays within 4 k ulps of exp(j pi k sin(theta)) taken in extended
    # precision, and its modulus within as much of 1 (measured over 4e4 sines:
    # 1.8 k and 0.6 k ulps). Entry 0 is exactly 1
    sines = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(0).uniform(-1.0, 1.0, 2000)])
    k = np.arange(n)
    bound = 4.0 * k * np.finfo(float).eps
    for sin_angle in (sines, np.array(sines[3])):
        got = steering(sin_angle, n)
        assert got.shape == (*sin_angle.shape, n) and got.dtype == complex
        want = np.exp(1j * PI * (sin_angle[..., None].astype(np.longdouble) * k))
        assert np.all(np.abs(got - want) <= bound)
        assert np.all(np.abs(np.abs(got.astype(np.clongdouble)) - 1.0) <= bound)


def test_steering_matches_per_angle_vector():
    angles = np.random.default_rng(0).uniform(-np.pi, np.pi, 50)
    got = steering(np.sin(angles), 4)
    for angle, row in zip(angles, got):
        assert row.tobytes() == oracles.steering_vector(float(angle), 4).tobytes()


def colocated_world(mu_xy, uav_xy, num_mus, cfg):
    """`num_mus` MUs stacked at one point under a single UAV."""
    cfg.num_mus, cfg.num_uavs = num_mus, 1
    world = reset_world(cfg, np.random.default_rng(0))
    world.mu_positions[:] = mu_xy
    world.uav_positions[0] = uav_xy
    return world


def test_distance_under_uav_is_altitude(cfg):
    # with line of sight only, the stream H v1 = g a_r sqrt(W_T) has power
    # W_T ref_gain / d^2 on every receive antenna exactly
    cfg.rician_factor = math.inf
    world = colocated_world([300.0, 400.0], [300.0, 400.0], 1, cfg)
    y = build_all_channels(world, np.arange(1), np.zeros(1, int), cfg, np.random.default_rng(0))
    assert np.allclose(np.abs(y) ** 2, cfg.tx_antennas * cfg.ref_gain / 4.0e4, rtol=1e-12, atol=0.0)


def test_los_only_channel_entry_power_exact(cfg):
    cfg.rician_factor = math.inf
    world = colocated_world([100.0, 100.0], [160.0, 180.0], 1, cfg)
    h = oracles.build_all_channels(world, np.arange(1), np.arange(1), cfg,
                                   np.random.default_rng(1))
    y = build_all_channels(world, np.arange(1), np.zeros(1, int), cfg, np.random.default_rng(1))
    d2 = 60.0 ** 2 + 80.0 ** 2 + cfg.altitude ** 2
    assert np.allclose(np.abs(h) ** 2, cfg.ref_gain / d2, atol=1e-18)
    assert np.allclose(np.abs(y) ** 2, cfg.tx_antennas * cfg.ref_gain / d2, atol=1e-18)


def test_channel_monte_carlo_entry_power(cfg):
    # mean per-entry power approaches ref_gain / d^2 for the default Rician factor
    rng = np.random.default_rng(2)
    # directly overhead: d = altitude = 200; 100 MUs x 100 draws = 10k channels
    world = colocated_world([250.0, 250.0], [250.0, 250.0], 100, cfg)
    n_draws, mus, uavs = 100, np.arange(100), np.arange(1)
    total = sum(np.mean(np.abs(oracles.build_all_channels(world, mus, uavs, cfg, rng)) ** 2)
                for _ in range(n_draws))
    expected = cfg.ref_gain / cfg.altitude ** 2
    assert abs(total / n_draws - expected) / expected < 0.05


def test_batched_channels_match_statistics(cfg):
    # given MU k's direction v_k, each cross vector y = H_{k,m} v_k has mean
    # power ref_gain / d^2 (w_los^2 |a_t^H v_k|^2 + w_nlos^2) per receive
    # antenna. v_k comes from the MU's own channel, which takes the draw's
    # first numbers MU by MU, so the full-product oracle redraws it bit for bit
    cfg.num_mus, cfg.num_uavs = 6, 3
    world = reset_world(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    serving = np.array([0, 1, 2, 0, 1, 2])
    w_los2 = cfg.rician_factor / (cfg.rician_factor + 1.0)
    diff = world.uav_positions[None, :, :] - world.mu_positions[:, None, :]    # [6, 3, 2]
    horiz2 = np.sum(diff * diff, axis=-1)
    a_t = steering(np.sin(np.arctan2(cfg.altitude, np.sqrt(horiz2))), cfg.tx_antennas)
    gain2 = cfg.ref_gain / (horiz2 + cfg.altitude ** 2)
    mean_power, want = np.zeros((6, 3)), np.zeros((6, 3))
    n_draws = 500
    for _ in range(n_draws):
        own_rng = copy.deepcopy(rng)
        y = build_all_channels(world, np.arange(6), serving, cfg, rng)
        mean_power += np.mean(np.abs(y) ** 2, axis=2)
        h = np.stack([oracles.build_all_channels(world, np.array([k]), serving[k:k + 1], cfg,
                                                 own_rng)[0, 0] for k in range(6)])
        v = _principal_direction(h)                                           # [6, W_T]
        coupling = np.abs(np.sum(a_t.conj() * v[:, None, :], axis=-1)) ** 2   # |a_t^H v|^2
        want += gain2 * (w_los2 * coupling + 1.0 - w_los2)
    for k in range(6):
        for m in range(3):
            if m != serving[k]:
                assert abs(mean_power[k, m] - want[k, m]) / want[k, m] < 0.1


def stream_normals(num_mus, num_receivers, cfg):
    """The standard normals that a draw of S served MUs to R receivers takes."""
    n_r, n_t = cfg.rx_antennas, cfg.tx_antennas
    return 2 * num_mus * (n_r * n_t + (num_receivers - 1) * n_r) if num_mus else 0


@pytest.mark.parametrize("rx,tx,rician,num_mus", [
    (4, 4, 10.0, 30), (2, 5, 10.0, 30), (5, 2, 10.0, 30), (4, 4, math.inf, 30),
    (3, 1, 0.5, 1), (4, 4, 10.0, 0)])
def test_channels_match_out_of_place_expression(rx, tx, rician, num_mus):
    cfg = ScenarioConfig(num_mus=num_mus, num_uavs=3, rx_antennas=rx, tx_antennas=tx,
                         rician_factor=rician).validate()
    world = reset_world(cfg, np.random.default_rng(6))
    # every MU, a proper subset (every other MU) and none, served by all three
    # UAVs, by two of them and by one: S MUs and R receivers take
    # 2 S (W_R W_T + (R - 1) W_R) normals, own channels first
    for mus, assign in itertools.product(
            (np.arange(num_mus), np.arange(1, num_mus, 2), np.arange(0)),
            (lambda k: k % 3, lambda k: np.where(k % 2, 0, 2), lambda k: np.ones_like(k))):
        serving = assign(mus)
        rng, ref_rng, count_rng = (np.random.default_rng(7) for _ in range(3))
        got = build_all_channels(world, mus, serving, cfg, rng)
        want = oracles.draw_streams(world, mus, serving, cfg, ref_rng)
        assert got.shape == want.shape == (mus.size, np.unique(serving).size, rx)
        assert got.dtype == want.dtype == complex
        # the loop's dot products and scalings round apart from the stacked ones
        err = np.abs(got - want).max(axis=-1, initial=0.0)
        assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=-1))
        count_rng.standard_normal(stream_normals(mus.size, np.unique(serving).size, cfg))
        assert rng.bit_generator.state == ref_rng.bit_generator.state \
            == count_rng.bit_generator.state


@pytest.mark.parametrize("serving", [[3, 3, 3], [0, 4, 0, 4], [4, 1, 2, 0, 4, 0, 2, 4]])
def test_cross_vectors_fill_the_columns_around_the_own_one(serving):
    # MU s's R - 1 cross vectors fill the receiver columns before and after its
    # own one, in order. The edge cases of that placement: the own column is
    # the first receiving column, the last (also for the last MU, whose cross
    # vectors end the block), or the only one (R = 1, no cross vectors)
    cfg = ScenarioConfig(num_mus=len(serving), num_uavs=5).validate()
    world = reset_world(cfg, np.random.default_rng(26))
    serving = np.array(serving)
    mus = np.arange(serving.size)
    receivers, own = np.unique(serving, return_inverse=True)
    assert {0, receivers.size - 1} <= set(own.tolist())
    rng, ref_rng = np.random.default_rng(27), np.random.default_rng(27)
    got = build_all_channels(world, mus, serving, cfg, rng)
    want = oracles.draw_streams(world, mus, serving, cfg, ref_rng)
    assert got.shape == want.shape == (mus.size, receivers.size, cfg.rx_antennas)
    err = np.abs(got - want).max(axis=-1)
    assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=-1))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_channels_of_no_mu_draw_nothing(cfg):
    # a slot in which every MU computes locally takes no number from the stream
    world = reset_world(cfg, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    y = build_all_channels(world, np.arange(0), np.arange(0), cfg, rng)
    assert y.shape == (0, 0, cfg.rx_antennas)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("num_mus,num_uavs", [(1, 1), (25, 5), (120, 20)])
def test_draw_takes_own_channels_then_cross_normals(num_mus, num_uavs):
    # the draw takes 2 S (W_R W_T + (R - 1) W_R) normals, the own channels
    # first: each MU's own column is its full own channel, drawn MU by MU as
    # the full-product oracle draws it, times its principal direction
    cfg = ScenarioConfig(num_mus=num_mus, num_uavs=num_uavs).validate()
    rng = np.random.default_rng(18)
    world = reset_world(cfg, rng)
    serving = rng.integers(-1, num_uavs, num_mus)
    serving[0] = num_uavs - 1
    mus = np.flatnonzero(serving >= 0)
    receivers, own = np.unique(serving[mus], return_inverse=True)
    draw_rng, ref_rng, count_rng = (copy.deepcopy(rng) for _ in range(3))
    streams = build_all_channels(world, mus, serving[mus], cfg, draw_rng)
    assert streams.shape == (mus.size, receivers.size, cfg.rx_antennas)
    count_rng.standard_normal(stream_normals(mus.size, receivers.size, cfg))
    assert draw_rng.bit_generator.state == count_rng.bit_generator.state
    h = np.stack([oracles.build_all_channels(world, mus[i:i + 1], serving[mus[i:i + 1]],
                                             cfg, ref_rng)[0, 0] for i in range(mus.size)])
    u = (h @ _principal_direction(h)[..., None])[..., 0]
    assert streams[np.arange(mus.size), own].tobytes() == u.tobytes()


def test_los_only_cross_vectors_are_the_exact_los_product():
    # with line of sight only the scatter weight is 0, so every cross vector
    # is H_{s,r} v_s of the rank-one LOS channel: a_r (a_t^H v_s) scaled
    cfg = ScenarioConfig(num_mus=30, num_uavs=4, rician_factor=math.inf).validate()
    rng = np.random.default_rng(19)
    world = reset_world(cfg, rng)
    serving = np.arange(30) % 4
    mus = np.arange(30)
    streams = build_all_channels(world, mus, serving, cfg, copy.deepcopy(rng))
    h = oracles.build_all_channels(world, mus, np.arange(4), cfg, rng)   # LOS, [30, 4, W_R, W_T]
    v = _principal_direction(h[mus, serving])
    want = (h @ v[:, None, :, None])[..., 0]
    err = np.abs(streams - want).max(axis=-1)
    assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=-1))


def stream_second_moments(streams):
    """Per (group, other receiver) sample mean of y y^H over the cross vectors,
    and the standard error of each entry's real and imaginary part: streams
    [draws, groups, members, R, W_R], group g served by receiver g."""
    groups, n_r = streams.shape[1], streams.shape[-1]
    cross = streams.transpose(1, 3, 0, 2, 4).reshape(groups, groups, -1, n_r)
    cross = cross[~np.eye(groups, dtype=bool)]                      # [pairs, samples, W_R]
    outer = cross[..., :, None] * cross[..., None, :].conj()
    stderr = (outer.real.std(axis=1) + 1j * outer.imag.std(axis=1)) / math.sqrt(outer.shape[1])
    return outer.mean(axis=1), stderr


def test_cross_vectors_match_full_product_in_distribution():
    # three groups of 100 co-located MUs, group g served by UAV g; 100 draws
    # give 10^4 cross vectors per (group, other receiver). Their second
    # moment E[y y^H] matches that of the full product H_{s,r} v_s, v_s the
    # principal direction of the MU's full own channel, within 4 sigma per
    # entry (real and imaginary parts); E[y y^H] does not depend on v's phase
    cfg = ScenarioConfig(num_mus=300, num_uavs=3).validate()
    world = reset_world(cfg, np.random.default_rng(20))
    world.uav_positions[:] = [[200.0, 200.0], [700.0, 300.0], [400.0, 800.0]]
    groups = np.repeat(np.arange(3), 100)
    world.mu_positions[:] = np.array([[250.0, 150.0], [650.0, 350.0], [450.0, 700.0]])[groups]
    mus = np.arange(300)
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(22)
    got, want = [], []
    for _ in range(100):
        got.append(build_all_channels(world, mus, groups, cfg, rng))
        full = oracles.build_all_channels(world, mus, np.arange(3), cfg, ref_rng)
        v = np.linalg.svd(full[mus, groups])[2][:, 0].conj()                 # [300, W_T]
        want.append((full @ v[:, None, :, None])[..., 0])
    got_mean, got_err = stream_second_moments(np.reshape(got, (100, 3, 100, 3, -1)))
    want_mean, want_err = stream_second_moments(np.reshape(want, (100, 3, 100, 3, -1)))
    diff = got_mean - want_mean
    for part in (np.real, np.imag):
        sigma = np.hypot(part(got_err), part(want_err))
        # the diagonal's imaginary part is exactly 0 on both sides
        assert np.all(np.abs(part(diff)) <= 4.0 * sigma)


def single_link_rate(h, leakage, cfg):
    """`design_links`'s rate for one MU served alone by one UAV, sending along
    the principal direction of the channel h [W_R, W_T], against the noise
    covariance sigma^2 I + leakage."""
    alloc = Allocation(serving=np.array([0]), offload_ratio=np.zeros(1),
                       compress_ratio=np.zeros(1), edge_cpu=np.zeros((1, 1)))
    u = h @ _principal_direction(h)
    links, rates = design_links(u[None, None], alloc, leakage[None], cfg)
    assert links.tolist() == [0]
    return float(rates[0])


def combiner_rate(w, u, n_cov, cfg):
    """Rate in bits/s of the received stream u after the combiners w [..., W_R]:
    B log2(1 + P |w^H u|^2 / w^H N w)."""
    signal = np.abs(np.sum(w.conj() * u, axis=-1)) ** 2
    noise = np.real(np.einsum("...i,ij,...j->...", w.conj(), n_cov, w))
    return cfg.bandwidth_hz * np.log2(1.0 + cfg.mu_power_max * signal / noise)


def test_two_los_mus_at_one_uav_rate_is_the_rank_one_hand_formula(cfg):
    # line of sight only: H = g a_r a_t^H, so v = a_t / sqrt(W_T) up to a
    # phase and each MU's stream at the UAV is u = g sqrt(W_T) a_r. Each link's
    # rate is B log2(1 + P u^H (sigma^2 I + L + P y y^H)^-1 u), with y the
    # other MU's stream
    cfg.rician_factor = math.inf
    cfg.num_mus, cfg.num_uavs = 2, 1
    world = reset_world(cfg, np.random.default_rng(23))
    world.mu_positions[:] = [[100.0, 150.0], [420.0, 380.0]]
    world.uav_positions[0] = [250.0, 300.0]
    leakage = build_radar_state(world, cfg)[2]
    alloc = Allocation(serving=np.zeros(2, int), offload_ratio=np.full(2, 0.5),
                       compress_ratio=np.full(2, 0.5), edge_cpu=np.zeros((2, 1)))
    streams = build_all_channels(world, np.arange(2), np.zeros(2, int), cfg,
                                 np.random.default_rng(24))
    links, rates = design_links(streams, alloc, leakage, cfg)
    hand = []
    for k in range(2):
        horiz = np.linalg.norm(world.uav_positions[0] - world.mu_positions[k])
        g = math.sqrt(cfg.ref_gain / (horiz ** 2 + cfg.altitude ** 2))
        hand.append(g * math.sqrt(cfg.tx_antennas)
                    * oracles.steering_vector(math.atan2(cfg.altitude, horiz), cfg.rx_antennas))
    assert links.tolist() == [0, 1]
    for k in range(2):
        u, y = hand[k], hand[1 - k]
        n_cov = cfg.noise_power * np.eye(cfg.rx_antennas) + leakage[0] \
            + cfg.mu_power_max * np.outer(y, y.conj())
        sinr = cfg.mu_power_max * np.real(np.vdot(u, np.linalg.solve(n_cov, u)))
        assert rates[k] == pytest.approx(cfg.bandwidth_hz * math.log2(1.0 + sinr),
                                         rel=LINK_RATE_RTOL)


def test_two_rician_mus_interfere_as_their_streams_not_their_full_gram():
    # with scatter the channels have full rank: the other MU interferes as its
    # one stream y = H v, which leaves a higher rate than its full Gram P H H^H,
    # W_T times the stream's power spread over every direction
    cfg, channels, alloc, leakage = served_world([0, 0], 1, seed=25, full=True)
    links, rates = design_links(oracles.received_streams(channels, np.zeros(2, int)),
                                alloc, leakage, cfg)
    assert links.tolist() == [0, 1]
    for k in range(2):
        h, other = channels[k, 0], channels[1 - k, 0]
        u, y = h @ oracles.principal_direction(h), other @ oracles.principal_direction(other)
        base = cfg.noise_power * np.eye(cfg.rx_antennas) + leakage[0]
        rank_one, full_gram = (cfg.bandwidth_hz * math.log2(1.0 + cfg.mu_power_max * np.real(
            np.vdot(u, np.linalg.solve(base + cfg.mu_power_max * cov, u))))
            for cov in (np.outer(y, y.conj()), other @ other.conj().T))
        assert rates[k] == pytest.approx(rank_one, rel=LINK_RATE_RTOL)
        assert rates[k] > full_gram * (1.0 + 1e-3)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_one_mu_served_alone_keeps_its_full_channel_rate(seed):
    # no other MU is served, so nothing interferes: the draw's own channel is
    # the first 2 W_R W_T normals, as in the full-product draw before the
    # received streams, and the rate equals that draw's, recorded as a float
    # hex from the full-product design (the same for all three seeds, bit for bit)
    cfg = ScenarioConfig(num_mus=3, num_uavs=2).validate()
    rng = np.random.default_rng(seed)
    world = reset_world(cfg, rng)
    alloc = Allocation(serving=np.array([-1, 1, -1]), offload_ratio=np.full(3, 0.5),
                       compress_ratio=np.full(3, 0.5), edge_cpu=np.zeros((3, 2)))
    leakage = build_radar_state(world, cfg)[2]
    h = oracles.build_all_channels(world, np.array([1]), np.array([1]), cfg,
                                   copy.deepcopy(rng))[0, 0]
    streams = build_all_channels(world, np.array([1]), np.array([1]), cfg, rng)
    rate = float(design_links(streams, alloc, leakage, cfg)[1][0])
    assert rate.hex() == FULL_CHANNEL_RATES[seed]
    u = h @ oracles.principal_direction(h)
    n_cov = cfg.noise_power * np.eye(cfg.rx_antennas) + leakage[1]
    sinr = cfg.mu_power_max * np.real(np.vdot(u, np.linalg.solve(n_cov, u)))
    assert rate == pytest.approx(cfg.bandwidth_hz * math.log2(1.0 + sinr), rel=LINK_RATE_RTOL)


# `design_links` over the full-product draw [1, 1, W_R, W_T] of the MU alone
FULL_CHANNEL_RATES = {21: "0x1.12e1f92fb17dcp+26", 22: "0x1.674ef30b1af91p+25",
                      23: "0x1.2fac582036312p+26"}


def test_mmse_reduces_to_matched_filter_in_white_noise(cfg):
    # in white noise the MMSE combiner is the matched filter, the principal
    # left-singular vector u1, and the rate is B log2(1 + P s1^2 / sigma^2)
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e-4):
        h = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) * scale
        rate = single_link_rate(h, np.zeros((4, 4), dtype=complex), cfg)
        left, s, right = np.linalg.svd(h)
        want = cfg.bandwidth_hz * math.log2(1.0 + cfg.mu_power_max * s[0] ** 2 / cfg.noise_power)
        assert rate == pytest.approx(want, rel=1e-12)
        matched = combiner_rate(left[:, 0], h @ right[0].conj(),
                                cfg.noise_power * np.eye(4), cfg)
        assert matched == pytest.approx(want, rel=1e-12)


def test_scalar_rate_reduction(cfg):
    # 1x1 link, |h|^2 P / sigma^2 = 1 -> rate equals the bandwidth
    cfg_1 = ScenarioConfig(tx_antennas=1, rx_antennas=1).validate()
    h = np.array([[math.sqrt(cfg_1.noise_power / cfg_1.mu_power_max) + 0j]])
    rate = single_link_rate(h, np.zeros((1, 1), dtype=complex), cfg_1)
    assert rate == pytest.approx(cfg_1.bandwidth_hz, rel=1e-12)


def test_zero_power_zero_rate(cfg):
    # a zero channel delivers no signal power
    h = np.zeros((4, 4), dtype=complex)
    assert single_link_rate(h, np.zeros((4, 4), dtype=complex), cfg) == 0.0


def test_interference_never_increases_rate(cfg):
    rng = np.random.default_rng(6)
    h = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) * 1e-4
    base = single_link_rate(h, np.zeros((4, 4), dtype=complex), cfg)
    for _ in range(20):
        g = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 1e-4
        worse = single_link_rate(h, cfg.mu_power_max * np.outer(g, g.conj()), cfg)
        assert worse <= base + 1e-9


def test_radar_rate_spot_value(cfg):
    # duty 0.01, pulse 2e-5, and gamma with 2*B*mu*gamma = 1 -> 250 bps
    gamma = 1.0 / (2.0 * cfg.bandwidth_hz * cfg.radar_gain_product)
    assert radar_rate(gamma, cfg) == pytest.approx(250.0, rel=1e-12)
    assert radar_rate(0.0, cfg) == 0.0


def radar_world(cfg, positions, targets, doppler=None, clutter=None):
    """A world whose UAVs sit at `positions` [M, 2] and sense `targets` [M, 2]."""
    cfg.num_uavs = len(positions)
    world = reset_world(cfg, np.random.default_rng(0))
    world.uav_positions = np.array(positions, dtype=float)
    world.uav_targets = np.array(targets, dtype=float)
    world.uav_doppler = np.ones(cfg.num_uavs, dtype=complex) if doppler is None \
        else np.array(doppler, dtype=complex)
    world.uav_clutter = np.zeros(cfg.num_uavs, dtype=complex) if clutter is None \
        else np.array(clutter, dtype=complex)
    return world


def test_radar_beam_power_and_filter_norm(cfg):
    # without clutter the leaked waveform is a * sqrt(P n) and the max-SINR
    # filter is matched to a, so SINR = n^2 P / sigma^2
    n = cfg.rx_antennas
    world = radar_world(cfg, [[100.0, 100.0], [50.0, 900.0]], [[400.0, 300.0], [50.0, 900.0]])
    sinr, rate, leakage = build_radar_state(world, cfg)
    assert sinr.shape == rate.shape == (2,) and leakage.shape == (2, n, n)
    trace = np.real(np.trace(leakage, axis1=1, axis2=2))
    assert np.allclose(trace, n * n * cfg.uav_power_max, rtol=1e-12)
    assert np.allclose(sinr, n * n * cfg.uav_power_max / cfg.noise_power, rtol=1e-9)
    assert np.allclose(rate, radar_rate(sinr, cfg), rtol=0.0)
    world.uav_clutter = np.array([0.01 + 0.02j, 0.003 - 0.001j])
    sinr, _, leakage = build_radar_state(world, cfg)
    assert np.all(sinr >= 0.0)
    # the leakage is Hermitian, rank one, positive semidefinite
    assert np.allclose(leakage, leakage.conj().swapaxes(1, 2))
    eig = np.linalg.eigvalsh(leakage)
    assert np.all(eig[:, :-1] <= 1e-12 * eig[:, -1:]) and np.all(eig[:, -1] > 0)


def test_zero_beam_gives_zero_sensing(cfg):
    # a zero beam leaves a zero echo and leaks nothing: the SINR's numerator is 0
    cfg.uav_power_max = 0.0
    world = radar_world(cfg, [[0.0, 0.0]], [[10.0, 10.0]])
    sinr, rate, leakage = build_radar_state(world, cfg)
    assert sinr[0] == 0.0 and rate[0] == 0.0 and np.all(leakage == 0.0)


def test_max_sinr_filter_beats_random_filters(cfg):
    rng = np.random.default_rng(7)
    world = radar_world(cfg, [[200.0, 300.0]], [[500.0, 100.0]],
                        doppler=[np.exp(1j * 0.4)], clutter=[0.005 + 0.003j])
    sinr, _, _ = build_radar_state(world, cfg)
    ref = oracles.build_radar_state(world, 0, cfg)
    n = cfg.rx_antennas
    horiz = np.linalg.norm(world.uav_positions[0] - world.uav_targets[0])
    a = oracles.steering_vector(math.atan2(cfg.altitude, horiz), n)
    w = math.sqrt(cfg.uav_power_max) * a / np.linalg.norm(a)
    echo = world.uav_doppler[0] * a * np.vdot(a, w)
    for _ in range(1000):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c /= np.linalg.norm(c)
        other = abs(np.vdot(c, echo)) ** 2 / np.real(np.vdot(c, ref["covariance"] @ c))
        assert other <= sinr[0] * (1.0 + 1e-9)


def assert_radar_matches_oracle(world, cfg):
    """Every UAV's SINR, rate and leakage against the per-UAV oracle, which
    uses `math.atan2` and `math.log2` where the batched code calls numpy."""
    sinr, rate, leakage = build_radar_state(world, cfg)
    refs = [oracles.build_radar_state(world, m, cfg) for m in range(world.num_uavs)]
    assert sinr.shape == rate.shape == (world.num_uavs,)
    for m, ref in enumerate(refs):
        for got, want in ((sinr[m], ref["sinr"]), (rate[m], ref["rate"])):
            assert abs(got - want) <= RADAR_ULPS * np.spacing(want)
        scale = np.abs(ref["leakage"]).max()
        assert np.abs(leakage[m] - ref["leakage"]).max() <= RADAR_ULPS * np.spacing(scale)


# The batched radar rounds a few steps differently from the oracle: the
# elevation's sine (h / d for sin(math.atan2)), the array response (powers of
# one phasor for one exponential per entry), the complex magnitudes (numpy's
# vectorized absolute value for Python's hypot-based abs), their squares
# (numpy's square for Python's pow) and the rate's log2. Each moves its result
# by a few ulps at most, and the steering phases carry that on. The batched
# SINR is the closed form, the oracle's the covariance solve. Over 200 seeds at
# M = 1, 2, 5 and 20 (-65 dBm) the largest gaps measured were 10 ulps (SINR),
# 1 (rate) and 29 (leakage, in ulps of its largest entry). At -200 dBm the
# covariance is numerically rank one and the solve loses digits as |c|^2 P / sigma^2
# grows: the seeds below stay within 11 ulps, but at M = 20 other seeds raise
# LinAlgError in the oracle or miss the closed form by millions of ulps.
RADAR_ULPS = 64


@pytest.mark.parametrize("num_uavs", [1, 2, 20])
def test_batched_radar_matches_per_uav_oracle(num_uavs):
    # -200 dBm makes the radar clutter-limited: SINR -> n^2 / |c|^2
    for noise_power_dbm in (-65.0, -200.0):
        cfg = ScenarioConfig(num_mus=3, num_uavs=num_uavs,
                             noise_power_dbm=noise_power_dbm).validate()
        for seed in range(5):
            assert_radar_matches_oracle(reset_world(cfg, np.random.default_rng(seed)), cfg)


def test_radar_at_target_and_colocated_spawn_match_oracle(cfg):
    # UAV 0 hovers right above its target; UAVs 1 and 2 spawn at one point
    cfg.num_uavs = 3
    world = reset_world(cfg, np.random.default_rng(5))
    world.uav_targets[0] = world.uav_positions[0]
    world.uav_positions[2] = world.uav_positions[1]
    assert_radar_matches_oracle(world, cfg)


def test_design_links_rates_positive(cfg):
    cfg.num_mus, cfg.num_uavs = 5, 2
    rng = np.random.default_rng(8)
    world = reset_world(cfg, rng)
    serving = np.array([0, 0, 1, -1, -1])
    streams = build_all_channels(world, np.arange(3), serving[:3], cfg, rng)
    edge = np.zeros((5, 2))
    edge[0, 0] = edge[1, 0] = 5e9
    edge[2, 1] = 1e10
    alloc = Allocation(serving=serving, offload_ratio=np.full(5, 0.5),
                       compress_ratio=np.full(5, 0.5), edge_cpu=edge)
    leakage = build_radar_state(world, cfg)[2]
    links, link_rates = design_links(streams, alloc, leakage, cfg)
    rates = dict(zip(links.tolist(), link_rates.tolist()))
    assert set(rates) == {0, 1, 2}
    every_mu = rows_of_every_mu(streams, alloc)
    for k, rate in rates.items():
        assert np.isfinite(rate) and rate > 0.0
        m = alloc.serving[k]
        u = every_mu[k, m]
        n_cov = interference_covariance(every_mu, alloc, leakage, cfg, m) \
            - cfg.mu_power_max * np.outer(u, u.conj())
        assert np.all(np.linalg.eigvalsh(n_cov) > 0)


def rows_of_every_mu(channels, alloc):
    """A draw [S, R, ...] between the served MUs and the receiving UAVs (the
    received streams, or the full channels) placed in its rows and columns of
    a [K, M, ...] array, for the MU- and UAV-indexed oracles; every unserved
    row and every column of a UAV that receives nobody is NaN, so an oracle
    that reads one returns a NaN rate."""
    served = alloc.serving >= 0
    every_mu = np.full((alloc.serving.size, alloc.edge_cpu.shape[1], *channels.shape[2:]),
                       np.nan, dtype=complex)
    every_mu[np.ix_(served, np.unique(alloc.serving[served]))] = channels
    return every_mu


def link_covariances(channels, alloc, leakage, cfg):
    """`_link_covariances` of the served links, each link's UAV given as its
    column among the receiving UAVs, the columns of the draw."""
    receivers, columns = np.unique(alloc.serving[alloc.serving >= 0], return_inverse=True)
    return _link_covariances(channels, columns, leakage[receivers], cfg)


def served_world(serving, num_uavs, seed, full=False, **overrides):
    """The fresh received streams [S, R, W_R] between the served MUs and the
    receiving UAVs (with `full`, the full-product channels [S, R, W_R, W_T] of
    the oracle instead), and the radar leakage, with MU k associated with UAV
    serving[k] (-1: none): (cfg, channels, alloc, leakage)."""
    cfg = ScenarioConfig(num_mus=len(serving), num_uavs=num_uavs, **overrides).validate()
    rng = np.random.default_rng(seed)
    world = reset_world(cfg, rng)
    serving = np.array(serving, dtype=int)
    mus = np.flatnonzero(serving >= 0)
    if full:
        channels = oracles.build_all_channels(world, mus, np.unique(serving[mus]), cfg, rng)
    else:
        channels = build_all_channels(world, mus, serving[mus], cfg, rng)
    alloc = Allocation(serving=serving,
                       offload_ratio=rng.uniform(0.0, 1.0, cfg.num_mus),
                       compress_ratio=rng.uniform(0.0, 1.0, cfg.num_mus),
                       edge_cpu=np.zeros((cfg.num_mus, num_uavs)))
    return cfg, channels, alloc, build_radar_state(world, cfg)[2]


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


# The radar self-leakage (about n^2 P = 8 W against 3.2e-10 W of noise) leaves
# the link covariances with condition numbers near 1e8-1e10, so a rate moves
# by up to about 1e-6 relative when its covariance moves by an ulp of the
# leakage. Over 20 seeds of every case the largest gap to the MU-by-MU loop
# was 1.2e-6 (rx6-tx2), with full-Gram interferers; rank-one interferers
# stay within the same bound.
LINK_RATE_RTOL = 1e-5


@pytest.mark.parametrize("case", list(LINK_CASES))
def test_stacked_link_design_matches_per_link_loop(case):
    # both sides start from the same full channels H: the stacked code is fed
    # their streams y = H v, the loop forms them per link. The loop reads H by
    # MU and UAV index, with NaN in every unserved row and in the column of
    # every UAV that receives nobody: its rates stay finite, so neither side
    # reads a channel that was not drawn, and every drawn column belongs to a
    # UAV that serves a link, so none goes unread
    serving, num_uavs, overrides = LINK_CASES[case]
    receivers = sorted({m for m in serving if m >= 0})
    for seed in (0, 1):
        cfg, channels, alloc, leakage = served_world(serving, num_uavs, seed, full=True,
                                                     **overrides)
        assert channels.shape[:2] == (len(serving) - serving.count(-1), len(receivers))
        own = np.searchsorted(receivers, alloc.serving[alloc.serving >= 0])
        links, link_rates = design_links(oracles.received_streams(channels, own), alloc,
                                         leakage, cfg)
        rates = dict(zip(links.tolist(), link_rates.tolist()))
        every_mu = rows_of_every_mu(channels, alloc)
        assert np.all(np.isnan(every_mu[alloc.serving < 0]))
        assert np.all(np.isnan(np.delete(every_mu, receivers, axis=1)))
        ref = oracles.design_links(every_mu, alloc, leakage, cfg)
        assert rates.keys() == ref.keys() == {k for k, m in enumerate(serving) if m >= 0}
        assert all(math.isfinite(r) for r in ref.values())
        for k, rate in rates.items():
            assert rate == pytest.approx(ref[k], rel=LINK_RATE_RTOL, abs=0.0), k


SERVED_CASES = [c for c, (serving, _, _) in LINK_CASES.items() if max(serving) >= 0]


def assert_exactly_hermitian(mats):
    # bit for bit up to the sign of zero: a diagonal imaginary part of +0.0
    # conjugates to -0.0, so both sides add 0.0 first
    herm = mats.conj().swapaxes(-1, -2)
    assert (mats + 0.0).tobytes() == (herm + 0.0).tobytes()


@pytest.mark.parametrize("case", SERVED_CASES)
def test_leakage_and_link_covariances_exactly_hermitian(case):
    serving, num_uavs, overrides = LINK_CASES[case]
    for seed in (0, 1):
        cfg, channels, alloc, leakage = served_world(serving, num_uavs, seed, **overrides)
        assert_exactly_hermitian(leakage)
        assert_exactly_hermitian(link_covariances(channels, alloc, leakage, cfg)[1])


@pytest.mark.parametrize("case", SERVED_CASES)
def test_no_unit_combiner_beats_the_link_rate(case):
    # the rate is the MMSE receiver's: no combiner w does better for the stream
    # u = H v1, and w = N^-1 u reaches it. The covariance's condition number
    # (about 1e8-6e10, from the radar self-leakage) makes that combiner's
    # quadratic forms cancel: summed in double they miss the rate by up to
    # 1.5e-6 over 30 seeds of these cases. So they are summed in
    # np.clongdouble from the same double w, u and N (w's own rounding moves
    # the SINR only to second order, at its maximum), and the rate matches
    # them to 1e-6 (at most 8.6e-7 seen).
    serving, num_uavs, overrides = LINK_CASES[case]
    rng = np.random.default_rng(15)
    cfg, streams, alloc, leakage = served_world(serving, num_uavs, 0, **overrides)
    links, rates = design_links(streams, alloc, leakage, cfg)
    u, n_cov = link_covariances(streams, alloc, leakage, cfg)
    n_r = cfg.rx_antennas
    for i in range(links.size):
        w = rng.standard_normal((1000, n_r)) + 1j * rng.standard_normal((1000, n_r))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        assert np.all(combiner_rate(w, u[i], n_cov[i], cfg) <= rates[i] * (1.0 + 1e-12))
        mmse = np.linalg.solve(n_cov[i], u[i])
        wide = (x.astype(np.clongdouble) for x in (mmse / np.linalg.norm(mmse), u[i], n_cov[i]))
        assert float(combiner_rate(*wide, cfg)) == pytest.approx(rates[i], rel=1e-6)


def exact_link_covariance(streams, alloc, leakage, cfg, k):
    """MU k's noise covariance summed in np.clongdouble from the same double
    inputs: sigma^2 I + leakage + P y y^H of every other associated MU."""
    m = alloc.serving[k]
    cov = np.longdouble(cfg.noise_power) * np.eye(cfg.rx_antennas, dtype=np.clongdouble) \
        + leakage[m].astype(np.clongdouble)
    for i in np.flatnonzero(alloc.serving >= 0):
        if i != k:
            y = streams[i, m].astype(np.clongdouble)
            cov += np.longdouble(cfg.mu_power_max) * np.outer(y, y.conj())
    return cov


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="longdouble is double on this platform")
@pytest.mark.parametrize("case", SERVED_CASES)
def test_link_covariances_no_farther_from_exact_sum_than_loop(case):
    # the stacked covariance adds the leakage last and rounds once at its
    # scale; the loop rounds once per MU it adds
    serving, num_uavs, overrides = LINK_CASES[case]
    for seed in (0, 1):
        cfg, channels, alloc, leakage = served_world(serving, num_uavs, seed, **overrides)
        k = np.flatnonzero(alloc.serving >= 0)
        u, n_cov = link_covariances(channels, alloc, leakage, cfg)
        every_mu = rows_of_every_mu(channels, alloc)
        assert u.tobytes() == every_mu[k, alloc.serving[k]].tobytes()
        for i, mu in enumerate(k):
            exact = exact_link_covariance(every_mu, alloc, leakage, cfg, mu)
            loop = oracles.link_covariance(every_mu, alloc, leakage, cfg, mu)
            assert np.abs(n_cov[i] - exact).max() <= np.abs(loop - exact).max(), (seed, mu)


@pytest.mark.parametrize("rician", [10.0, math.inf], ids=["rician", "los-only"])
@pytest.mark.parametrize("rx,tx", [(4, 4), (2, 5), (6, 2), (3, 1)])
def test_principal_direction_is_svd_v1_up_to_phase(rx, tx, rician):
    # with line of sight only every channel has rank one
    cfg = ScenarioConfig(num_mus=10, num_uavs=3, rx_antennas=rx, tx_antennas=tx,
                         rician_factor=rician).validate()
    world = reset_world(cfg, np.random.default_rng(13))
    h = oracles.build_all_channels(world, np.arange(10), np.arange(3), cfg,
                                   np.random.default_rng(14))
    s = np.linalg.svd(h, compute_uv=False)
    assert math.isfinite(rician) or np.all(s[..., 1:] <= 1e-12 * s[..., :1])
    v = _principal_direction(h)
    v1 = np.linalg.svd(h)[2][..., 0, :].conj()
    assert v.shape == v1.shape == (10, 3, tx)
    assert np.allclose(np.abs(np.sum(v1.conj() * v, axis=-1)), 1.0, rtol=0.0, atol=1e-10)


def test_non_finite_channel_rejected(cfg):
    cfg.num_mus, cfg.num_uavs = 3, 1
    alloc = Allocation(serving=np.zeros(3, dtype=int), offload_ratio=np.zeros(3),
                       compress_ratio=np.zeros(3), edge_cpu=np.zeros((3, 1)))
    leakage = np.zeros((1, 4, 4), dtype=complex)
    streams = np.full((3, 1, 4), 1e-5, dtype=complex)
    streams[1, 0, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        design_links(streams, alloc, leakage, cfg)
    streams[1, 0, 2] = 1e-5
    for bad in (np.nan, np.inf):
        leakage[0, 1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            design_links(streams, alloc, leakage, cfg)


# MU 2 is served by UAV 0; MU 1 is served by UAV 1 and interferes at UAV 0
@pytest.mark.parametrize("entry", [(2, 0, 1), (1, 0, 1)], ids=["own-link", "interferer"])
def test_design_links_rejects_non_finite_channel(entry):
    cfg, streams, alloc, leakage = served_world([0, 1, 0, -1], 2, seed=3)
    # an infinite entry makes the Gram's products invalid; it must still reach the check
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 0.0)):
        streams[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            design_links(streams, alloc, leakage, cfg)


@pytest.mark.parametrize("serving", [[0, 1, 0, -1], [-1] * 4], ids=["some-local", "all-local"])
def test_design_links_rejects_a_draw_of_every_mu(serving):
    # rows of a [K, ...] draw are MUs, not links: read as the served draw,
    # link i would take MU i's stream whichever MU it serves
    cfg = ScenarioConfig(num_mus=4, num_uavs=2).validate()
    rng = np.random.default_rng(12)
    world = reset_world(cfg, rng)
    streams = build_all_channels(world, np.arange(4), np.array([0, 1, 0, 1]), cfg, rng)
    assert streams.shape == (4, 2, cfg.rx_antennas)
    alloc = Allocation(serving=np.array(serving), offload_ratio=np.full(4, 0.5),
                       compress_ratio=np.full(4, 0.5), edge_cpu=np.zeros((4, 2)))
    served = sum(m >= 0 for m in serving)
    with pytest.raises(ValueError, match=f"streams hold 4 MUs but {served} are served"):
        design_links(streams, alloc, build_radar_state(world, cfg)[2], cfg)


def test_design_links_rejects_a_draw_to_every_uav():
    # UAV 2 receives nobody, so a draw to all three UAVs (here one that has
    # MU 2 served by UAV 2) has a column too many: read as the receivers'
    # draw, UAV 1's links would take UAV 0's column
    cfg = ScenarioConfig(num_mus=4, num_uavs=3).validate()
    rng = np.random.default_rng(12)
    world = reset_world(cfg, rng)
    streams = build_all_channels(world, np.arange(3), np.array([1, 0, 2]), cfg, rng)
    assert streams.shape == (3, 3, cfg.rx_antennas)
    alloc = Allocation(serving=np.array([1, 0, 1, -1]), offload_ratio=np.full(4, 0.5),
                       compress_ratio=np.full(4, 0.5), edge_cpu=np.zeros((4, 3)))
    with pytest.raises(ValueError, match="streams hold 3 UAVs but 2 receive"):
        design_links(streams, alloc, build_radar_state(world, cfg)[2], cfg)


def test_singular_link_covariance_raises_with_link_and_condition(cfg):
    # UAV 0 receives nobody, so UAV 1 is the draw's column 0. UAV 1's leakage
    # cancels the noise on its second antenna, which no MU reaches, so the
    # covariance of its only link, MU 1's, is exactly singular; the error names
    # the global UAV index, not the column
    cfg.num_mus, cfg.num_uavs, cfg.rx_antennas = 3, 3, 2
    rng = np.random.default_rng(11)
    streams = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    streams *= 1e-5
    streams[:, 0, 1] = 0.0
    leakage = np.zeros((3, 2, 2), dtype=complex)
    leakage[1, 1, 1] = -cfg.noise_power
    alloc = Allocation(serving=np.array([2, 1, 2]), offload_ratio=np.zeros(3),
                       compress_ratio=np.zeros(3), edge_cpu=np.zeros((3, 3)))
    _, n_cov = link_covariances(streams, alloc, leakage, cfg)
    assert np.all(n_cov[1][1] == 0.0) and np.all(n_cov[1][:, 1] == 0.0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"MU 1 at UAV 1 is singular \(condition number ") as info:
        design_links(streams, alloc, leakage, cfg)
    # inf where the SVD finds the zero singular value exactly
    assert float(str(info.value).rsplit(" ", 1)[1].rstrip(")")) > 1e15


ENV_ONLY_DRAWS = """
import resource
import numpy as np
from uav_iscc.env import ScenarioConfig, build_all_channels, reset_world
cfg = ScenarioConfig(num_mus=400, num_uavs=20).validate()
rng = np.random.default_rng(0)
world = reset_world(cfg, rng)
mus = np.arange(380)
serving = mus % 20                      # 380 served MUs, 20 receiving UAVs
for _ in range(5):
    build_all_channels(world, mus, serving, cfg, rng)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    build_all_channels(world, mus, serving, cfg, rng)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's")
def test_env_only_process_reuses_the_heap_across_draws():
    # importing uav_iscc.env alone keeps freed heap pages: a 400x20 draw reuses
    # the previous draw's buffers (about 600 minor faults a draw without it)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", ENV_ONLY_DRAWS], env=env,
                         capture_output=True, text=True, check=True)
    assert float(run.stdout) < 60
