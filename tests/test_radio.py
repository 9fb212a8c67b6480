"""Channels, beamformers, uplink rates, and radar sensing."""

import itertools
import math

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
    # with line of sight only, every entry has power ref_gain / d^2 exactly
    cfg.rician_factor = math.inf
    world = colocated_world([300.0, 400.0], [300.0, 400.0], 1, cfg)
    h = build_all_channels(world, np.arange(1), np.arange(1), cfg, np.random.default_rng(0))
    assert np.allclose(np.abs(h) ** 2, cfg.ref_gain / 4.0e4, rtol=1e-12, atol=0.0)


def test_los_only_channel_entry_power_exact(cfg):
    cfg.rician_factor = math.inf
    world = colocated_world([100.0, 100.0], [160.0, 180.0], 1, cfg)
    h = build_all_channels(world, np.arange(1), np.arange(1), cfg, np.random.default_rng(1))
    d2 = 60.0 ** 2 + 80.0 ** 2 + cfg.altitude ** 2
    assert np.allclose(np.abs(h) ** 2, cfg.ref_gain / d2, atol=1e-18)


def test_channel_monte_carlo_entry_power(cfg):
    # mean per-entry power approaches ref_gain / d^2 for the default Rician factor
    rng = np.random.default_rng(2)
    # directly overhead: d = altitude = 200; 100 MUs x 100 draws = 10k channels
    world = colocated_world([250.0, 250.0], [250.0, 250.0], 100, cfg)
    n_draws, mus, uavs = 100, np.arange(100), np.arange(1)
    total = sum(np.mean(np.abs(build_all_channels(world, mus, uavs, cfg, rng)) ** 2)
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
        h = build_all_channels(world, np.arange(6), np.arange(3), cfg, rng)
        mean_power += np.mean(np.abs(h) ** 2, axis=(2, 3))
    mean_power /= n_draws
    mu_pos, uav_pos = world.mu_positions, world.uav_positions
    for k in range(6):
        for m in range(3):
            d2 = np.sum((uav_pos[m] - mu_pos[k]) ** 2) + cfg.altitude ** 2
            assert abs(mean_power[k, m] - cfg.ref_gain / d2) / (cfg.ref_gain / d2) < 0.1


@pytest.mark.parametrize("rx,tx,rician,num_mus", [
    (4, 4, 10.0, 30), (2, 5, 10.0, 30), (5, 2, 10.0, 30), (4, 4, math.inf, 30),
    (3, 1, 0.5, 1), (4, 4, 10.0, 0)])
def test_channels_match_out_of_place_expression(rx, tx, rician, num_mus):
    cfg = ScenarioConfig(num_mus=num_mus, num_uavs=3, rx_antennas=rx, tx_antennas=tx,
                         rician_factor=rician).validate()
    world = reset_world(cfg, np.random.default_rng(6))
    # every MU, a proper subset (every other MU) and none, to every UAV, a
    # proper subset and none: S MUs and R UAVs take 2 S R W_R W_T normals
    for mus, uavs in itertools.product(
            (np.arange(num_mus), np.arange(1, num_mus, 2), np.arange(0)),
            (np.arange(3), np.array([0, 2]), np.array([1]), np.arange(0))):
        rng, ref_rng, count_rng = (np.random.default_rng(7) for _ in range(3))
        got = build_all_channels(world, mus, uavs, cfg, rng)
        want = oracles.build_all_channels(world, mus, uavs, cfg, ref_rng)
        assert got.shape == want.shape == (mus.size, uavs.size, rx, tx)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        count_rng.standard_normal(2 * mus.size * uavs.size * rx * tx)
        assert rng.bit_generator.state == ref_rng.bit_generator.state \
            == count_rng.bit_generator.state


def test_channels_of_no_mu_draw_nothing(cfg):
    # a slot in which every MU computes locally takes no number from the stream
    world = reset_world(cfg, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    h = build_all_channels(world, np.arange(0), np.arange(0), cfg, rng)
    assert h.shape == (0, 0, cfg.rx_antennas, cfg.tx_antennas)
    assert rng.bit_generator.state == state


def single_link_rate(h, leakage, cfg):
    """`design_links`'s rate for one MU served alone by one UAV, over the
    channel h [W_R, W_T] against the noise covariance sigma^2 I + leakage."""
    alloc = Allocation(serving=np.array([0]), offload_ratio=np.zeros(1),
                       compress_ratio=np.zeros(1), edge_cpu=np.zeros((1, 1)))
    links, rates = design_links(h[None, None], alloc, leakage[None], cfg)
    assert links.tolist() == [0]
    return float(rates[0])


def combiner_rate(w, u, n_cov, cfg):
    """Rate in bits/s of the received stream u after the combiners w [..., W_R]:
    B log2(1 + P |w^H u|^2 / w^H N w)."""
    signal = np.abs(np.sum(w.conj() * u, axis=-1)) ** 2
    noise = np.real(np.einsum("...i,ij,...j->...", w.conj(), n_cov, w))
    return cfg.bandwidth_hz * np.log2(1.0 + cfg.mu_power_max * signal / noise)


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
# elevation angle (np.arctan2 for math.atan2), the complex magnitudes (numpy's
# vectorized absolute value for Python's hypot-based abs), their squares
# (numpy's square for Python's pow) and the rate's log2. Each moves its result
# by at most an ulp, and the steering phases carry that on. The batched SINR is
# the closed form, the oracle's the covariance solve. Over 200 seeds at
# M = 1, 2, 5 and 20 (-65 dBm) the largest gaps measured were 10 ulps (SINR),
# 1 (rate) and 18 (leakage, in ulps of its largest entry). At -200 dBm the
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
    channels = build_all_channels(world, np.arange(3), np.arange(2), cfg, rng)
    edge = np.zeros((5, 2))
    edge[0, 0] = edge[1, 0] = 5e9
    edge[2, 1] = 1e10
    alloc = Allocation(serving=np.array([0, 0, 1, -1, -1]), offload_ratio=np.full(5, 0.5),
                       compress_ratio=np.full(5, 0.5), edge_cpu=edge)
    leakage = build_radar_state(world, cfg)[2]
    links, link_rates = design_links(channels, alloc, leakage, cfg)
    rates = dict(zip(links.tolist(), link_rates.tolist()))
    assert set(rates) == {0, 1, 2}
    every_mu = rows_of_every_mu(channels, alloc)
    for k, rate in rates.items():
        assert np.isfinite(rate) and rate > 0.0
        m = alloc.serving[k]
        h = every_mu[k, m]
        n_cov = interference_covariance(every_mu, alloc, leakage, cfg, m) \
            - cfg.mu_power_max * (h @ h.conj().T)
        assert np.all(np.linalg.eigvalsh(n_cov) > 0)


def rows_of_every_mu(channels, alloc):
    """The draw [S, R, W_R, W_T] between the served MUs and the receiving UAVs
    placed in its rows and columns of a [K, M, W_R, W_T] array, for the
    MU- and UAV-indexed oracles; every unserved row and every column of a UAV
    that receives nobody is NaN, so an oracle that reads one returns a NaN rate."""
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


def served_world(serving, num_uavs, seed, **overrides):
    """The fresh channels [S, R, W_R, W_T] between the served MUs and the
    receiving UAVs, and the radar leakage, with MU k associated with UAV
    serving[k] (-1: none): (cfg, channels, alloc, leakage)."""
    cfg = ScenarioConfig(num_mus=len(serving), num_uavs=num_uavs, **overrides).validate()
    rng = np.random.default_rng(seed)
    world = reset_world(cfg, rng)
    serving = np.array(serving, dtype=int)
    mus = np.flatnonzero(serving >= 0)
    channels = build_all_channels(world, mus, np.unique(serving[mus]), cfg, rng)
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
# was 1.2e-6 (rx6-tx2).
LINK_RATE_RTOL = 1e-5


@pytest.mark.parametrize("case", list(LINK_CASES))
def test_stacked_link_design_matches_per_link_loop(case):
    # the loop reads the draw by MU and UAV index, with NaN in every unserved
    # row and in the column of every UAV that receives nobody: its rates stay
    # finite, so neither side reads a channel that was not drawn, and every
    # drawn column belongs to a UAV that serves a link, so none goes unread
    serving, num_uavs, overrides = LINK_CASES[case]
    receivers = sorted({m for m in serving if m >= 0})
    for seed in (0, 1):
        cfg, channels, alloc, leakage = served_world(serving, num_uavs, seed, **overrides)
        assert channels.shape[:2] == (len(serving) - serving.count(-1), len(receivers))
        links, link_rates = design_links(channels, alloc, leakage, cfg)
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
    # u = H v1, and w = N^-1 u reaches it. That combiner's own quadratic forms
    # round at the covariance's condition number (about 1e8-1e10, from the
    # radar self-leakage), so it matches to 1e-6 only.
    serving, num_uavs, overrides = LINK_CASES[case]
    rng = np.random.default_rng(15)
    cfg, channels, alloc, leakage = served_world(serving, num_uavs, 0, **overrides)
    links, rates = design_links(channels, alloc, leakage, cfg)
    h, n_cov = link_covariances(channels, alloc, leakage, cfg)
    u = (h @ _principal_direction(h)[..., None])[..., 0]
    n_r = cfg.rx_antennas
    for i in range(links.size):
        w = rng.standard_normal((1000, n_r)) + 1j * rng.standard_normal((1000, n_r))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        assert np.all(combiner_rate(w, u[i], n_cov[i], cfg) <= rates[i] * (1.0 + 1e-12))
        mmse = np.linalg.solve(n_cov[i], u[i])
        assert combiner_rate(mmse / np.linalg.norm(mmse), u[i], n_cov[i], cfg) \
            == pytest.approx(rates[i], rel=1e-6)


def exact_link_covariance(channels, alloc, leakage, cfg, k):
    """MU k's noise covariance summed in np.clongdouble from the same double
    inputs: sigma^2 I + leakage + P h h^H of every other associated MU."""
    m = alloc.serving[k]
    cov = np.longdouble(cfg.noise_power) * np.eye(cfg.rx_antennas, dtype=np.clongdouble) \
        + leakage[m].astype(np.clongdouble)
    for i in np.flatnonzero(alloc.serving >= 0):
        if i != k:
            h = channels[i, m].astype(np.clongdouble)
            cov += np.longdouble(cfg.mu_power_max) * (h @ h.conj().T)
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
        h, n_cov = link_covariances(channels, alloc, leakage, cfg)
        every_mu = rows_of_every_mu(channels, alloc)
        assert h.tobytes() == every_mu[k, alloc.serving[k]].tobytes()
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
    h = build_all_channels(world, np.arange(10), np.arange(3), cfg, np.random.default_rng(14))
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
    channels = np.full((3, 1, 4, 4), 1e-5, dtype=complex)
    channels[1, 0, 2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        design_links(channels, alloc, leakage, cfg)
    channels[1, 0, 2, 0] = 1e-5
    for bad in (np.nan, np.inf):
        leakage[0, 1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            design_links(channels, alloc, leakage, cfg)


# MU 2 is served by UAV 0; MU 1 is served by UAV 1 and interferes at UAV 0
@pytest.mark.parametrize("entry", [(2, 0, 1, 3), (1, 0, 1, 3)], ids=["own-link", "interferer"])
def test_design_links_rejects_non_finite_channel(entry):
    cfg, channels, alloc, leakage = served_world([0, 1, 0, -1], 2, seed=3)
    # an infinite entry makes the Gram's products invalid; it must still reach the check
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 0.0)):
        channels[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            design_links(channels, alloc, leakage, cfg)


@pytest.mark.parametrize("serving", [[0, 1, 0, -1], [-1] * 4], ids=["some-local", "all-local"])
def test_design_links_rejects_a_draw_of_every_mu(serving):
    # rows of a [K, ...] draw are MUs, not links: read as the served draw,
    # link i would take MU i's channel whichever MU it serves
    cfg = ScenarioConfig(num_mus=4, num_uavs=2).validate()
    rng = np.random.default_rng(12)
    world = reset_world(cfg, rng)
    channels = build_all_channels(world, np.arange(4), np.arange(2), cfg, rng)
    alloc = Allocation(serving=np.array(serving), offload_ratio=np.full(4, 0.5),
                       compress_ratio=np.full(4, 0.5), edge_cpu=np.zeros((4, 2)))
    served = sum(m >= 0 for m in serving)
    with pytest.raises(ValueError, match=f"channels hold 4 MUs but {served} are served"):
        design_links(channels, alloc, build_radar_state(world, cfg)[2], cfg)


def test_design_links_rejects_a_draw_to_every_uav():
    # UAV 2 receives nobody, so a draw to all three UAVs has a column too many:
    # read as the receivers' draw, UAV 1's links would take UAV 0's column
    cfg = ScenarioConfig(num_mus=4, num_uavs=3).validate()
    rng = np.random.default_rng(12)
    world = reset_world(cfg, rng)
    channels = build_all_channels(world, np.arange(3), np.arange(3), cfg, rng)
    alloc = Allocation(serving=np.array([1, 0, 1, -1]), offload_ratio=np.full(4, 0.5),
                       compress_ratio=np.full(4, 0.5), edge_cpu=np.zeros((4, 3)))
    with pytest.raises(ValueError, match="channels hold 3 UAVs but 2 receive"):
        design_links(channels, alloc, build_radar_state(world, cfg)[2], cfg)


def test_singular_link_covariance_raises_with_link_and_condition(cfg):
    # UAV 0 receives nobody, so UAV 1 is the draw's column 0. UAV 1's leakage
    # cancels the noise on its second antenna, which no MU reaches, so the
    # covariance of its only link, MU 1's, is exactly singular; the error names
    # the global UAV index, not the column
    cfg.num_mus, cfg.num_uavs, cfg.rx_antennas = 3, 3, 2
    rng = np.random.default_rng(11)
    channels = rng.standard_normal((3, 2, 2, 4)) + 1j * rng.standard_normal((3, 2, 2, 4))
    channels *= 1e-5
    channels[:, 0, 1, :] = 0.0
    leakage = np.zeros((3, 2, 2), dtype=complex)
    leakage[1, 1, 1] = -cfg.noise_power
    alloc = Allocation(serving=np.array([2, 1, 2]), offload_ratio=np.zeros(3),
                       compress_ratio=np.zeros(3), edge_cpu=np.zeros((3, 3)))
    _, n_cov = link_covariances(channels, alloc, leakage, cfg)
    assert np.all(n_cov[1][1] == 0.0) and np.all(n_cov[1][:, 1] == 0.0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"MU 1 at UAV 1 is singular \(condition number ") as info:
        design_links(channels, alloc, leakage, cfg)
    # inf where the SVD finds the zero singular value exactly
    assert float(str(info.value).rsplit(" ", 1)[1].rstrip(")")) > 1e15
