"""Rician MIMO channels, uplink rates, radar sensing.

All receivers sit on the UAVs. Only a served MU (one that offloads) has an
uplink, and only a UAV that serves at least one MU (a receiving UAV) hears
the uplinks. Each served MU sends one stream along its own channel's
principal direction v, so a receiver hears it as the vector y = H v, and each
slot draws only these: one [S, R, W_R] array for the S served MUs and the R
receiving UAVs, each axis in ascending index order, which link design reads
whole. The draw takes each MU's own channel in full, in MU order, then the
W_R scatter normals of each cross vector, in (MU, receiver) order
(`build_all_channels`). The arrays are uniform linear arrays: the response
to an elevation is the sequence of powers of one phasor (`steering`). Each
UAV receives its MUs with the MMSE combiner against the other MUs' streams
plus the leakage of the radar waveform; the link rate is that receiver's
closed form. Each UAV simultaneously steers a full-power sensing beam at its
ground target and filters the echo for maximum sensing SINR."""

from __future__ import annotations

import math
import numpy as np

from .config import ScenarioConfig
from .types import Allocation, WorldState


def steering(sin_angle: np.ndarray, n: int) -> np.ndarray:
    """Uniform linear array responses at half-wavelength spacing: [..., n] for
    the sines of the angles [...].

    The response to sin(theta) is 1, z, z^2, ... with z = exp(j pi sin(theta)):
    one complex exponential per angle, then one product with z per entry, each
    on a contiguous [...] plane; the result is a view [..., n] of those planes.
    Entry k is within about 2k ulps of exp(j pi k sin(theta)).
    """
    powers = np.empty((n, *sin_angle.shape), dtype=complex)
    powers[0] = 1.0
    if n > 1:
        z = np.exp(1j * np.pi * sin_angle, out=powers[1, ...])
        for k in range(2, n):
            np.multiply(powers[k - 1], z, out=powers[k, ...])
    return powers.transpose((*range(1, powers.ndim), 0))


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of a real or complex [..., n] array.

    Summed like `np.linalg.norm` of one vector, as BLAS dot products of the
    real (and imaginary) parts, so a stacked norm equals the per-vector one bit
    for bit (`einsum` or `np.sum(abs(x)**2)` would not).
    """
    sq = _dot(x.real, x.real) + _dot(x.imag, x.imag) if np.iscomplexobj(x) else _dot(x, x)
    return np.sqrt(sq)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum(x * y) over the last axis as one BLAS dot product per row, the way
    `np.dot` and `np.vdot` sum a single pair of vectors."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _principal_direction(channel: np.ndarray) -> np.ndarray:
    """Unit principal right-singular direction [..., W_T] of `channel` [..., W_R, W_T],
    as the last eigenvector of H^H H, up to a unit phase."""
    return np.linalg.eigh(channel.conj().swapaxes(-1, -2) @ channel)[1][..., -1]


def build_all_channels(world: WorldState, mus: np.ndarray, serving: np.ndarray,
                       cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Received streams of the served MUs `mus` [S] (ascending indices), MU
    `mus[i]` served by UAV `serving[i]`: complex [S, R, W_R] for the R
    receiving UAVs, the distinct `serving` in ascending order.

    MU s sends one stream along v_s, the principal right-singular direction of
    its own channel H_s [W_R, W_T] to its UAV (`_principal_direction`), and
    entry [s, r] is what receiver r hears of it, y = H_{s,r} v_s. The own
    channel is drawn in full and its column holds H_s v_s. The scatter part of
    any other H_{s,r} is independent of v_s, so its product with the unit v_s
    is exactly CN(0, I_{W_R}): W_R normals, added to the exact line-of-sight
    term a_r (a_t^H v_s).

    Each (MU, receiver) pair's 1 / d gives both the path amplitude
    sqrt(g0) / d and the elevation's sine h / d, whose phasor powers are a_r
    and a_t (`steering`). The cross vectors are drawn as one [S, R - 1, W_R]
    block and placed around each own column by one gather.

    Draw order: each entry's scatter takes two consecutive standard normals
    (real, then imaginary). First every own channel, in MU order, row-major;
    then the cross vectors, in (MU, receiver) order, skipping the own column.
    So a call takes 2 S (W_R W_T + (R - 1) W_R) numbers from `rng`, and none
    when `mus` is empty, whatever arithmetic forms the responses.
    """
    n_r, n_t = cfg.rx_antennas, cfg.tx_antennas
    uavs = np.flatnonzero(np.bincount(serving))
    if mus.size == 0:
        return np.zeros((0, uavs.size, n_r), dtype=complex)
    # coordinate-major, so that each difference runs along the R receivers
    mu_xy = world.mu_positions[mus].T.copy()     # [2, S]
    uav_xy = world.uav_positions[uavs].T         # [2, R]
    diff = uav_xy[:, None, :] - mu_xy[:, :, None]
    diff *= diff
    inv_d = 1.0 / np.sqrt(diff[0] + diff[1] + cfg.altitude ** 2)     # [S, R], d >= h > 0
    gain = math.sqrt(cfg.ref_gain) * inv_d
    # one response for the larger array; each array takes a prefix
    steer = steering(cfg.altitude * inv_d, max(n_r, n_t))
    a_r, a_t = steer[..., :n_r], steer[..., :n_t]
    eps = cfg.rician_factor
    if math.isinf(eps):
        w_los, w_nlos = 1.0, 0.0
    else:
        w_los = math.sqrt(eps / (eps + 1.0))
        w_nlos = math.sqrt(1.0 / (eps + 1.0))
    rows, own = np.arange(mus.size), uavs.searchsorted(serving)
    own_steer = steer[rows, own]
    channel = own_steer[:, :n_r, None] * own_steer[:, None, :n_t].conj()     # LOS, [S, W_R, W_T]
    scatter = np.empty(channel.shape, dtype=complex)
    rng.standard_normal(out=scatter.view(np.float64))
    scatter /= math.sqrt(2.0)
    channel *= w_los
    scatter *= w_nlos
    channel += scatter
    channel *= gain[rows, own][:, None, None]
    v = _principal_direction(channel)                        # [S, W_T]
    # LOS, [S, R, W_R], in C order whatever the layout of the responses
    streams = np.multiply(a_r, w_los * (a_t.conj() @ v[:, :, None]),
                          out=np.empty((mus.size, uavs.size, n_r), dtype=complex))
    if uavs.size > 1:
        cross = np.empty((mus.size, uavs.size - 1, n_r), dtype=complex)
        rng.standard_normal(out=cross.view(np.float64))
        cross *= w_nlos / math.sqrt(2.0)
        # receiver column c reads cross column c - (c >= own); the own column
        # reads the row before it (the last row for MU 0 at column 0) and is
        # overwritten below
        cols = np.arange(uavs.size)
        source = (uavs.size - 1) * rows[:, None] + (cols - (cols >= own[:, None]))
        streams += np.take(cross.reshape(-1, n_r), source, axis=0)
    streams *= gain[..., None]
    streams[rows, own] = (channel @ v[:, :, None])[..., 0]
    return streams


def build_radar_state(world: WorldState, cfg: ScenarioConfig
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every UAV's sensing in one slot: (SINR [M], estimation rate [M] in bps,
    uplink leakage [M, W_R, W_R]).

    Each UAV steers a full-power beam w = sqrt(P/n) a down at its target, with
    `a` the array response toward the target. The echo d a a^H w, the clutter
    covariance |c|^2 w w^H and the beam all lie along `a`, so the max-SINR
    filter R^-1 s is `a` itself and its output SINR is the closed form
    n^2 P / (|c|^2 P + sigma^2): it depends on the clutter magnitude alone.
    The waveform leaks into the UAV's own uplink receiver as (G w)(G w)^H,
    with G the target response plus the clutter gain. That outer product is
    averaged with its conjugate transpose, which moves each entry by at most
    an ulp and makes the leakage, and every link covariance it enters,
    exactly Hermitian.
    """
    n = cfg.rx_antennas
    power = cfg.uav_power_max
    diff = world.uav_positions - world.uav_targets
    a = steering(cfg.altitude / np.sqrt(_dot(diff, diff) + cfg.altitude ** 2), n)     # [M, n]
    w = math.sqrt(power) * a / row_norm(a)[:, None]
    sinr = n * n * power / (np.abs(world.uav_clutter) ** 2 * power + cfg.noise_power)
    response = world.uav_doppler[:, None, None] * (a[:, :, None] * a.conj()[:, None, :])
    g = response + world.uav_clutter[:, None, None] * np.eye(n)
    leaked = (g @ w[..., None])[..., 0]
    outer = leaked[:, :, None] * leaked.conj()[:, None, :]
    return sinr, radar_rate(sinr, cfg), 0.5 * (outer + outer.conj().swapaxes(-1, -2))


def radar_rate(sinr: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Estimation information rate: duty/(2*pulse) * log2(1 + 2*B*mu*gamma)."""
    gain = 2.0 * cfg.bandwidth_hz * cfg.radar_gain_product * sinr
    return cfg.radar_duty / (2.0 * cfg.radar_pulse_s) * np.log2(1.0 + gain)


def _link_covariances(streams: np.ndarray, columns: np.ndarray, leakage: np.ndarray,
                      cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each served link's received stream and noise covariance: ([S, W_R], [S, W_R, W_R]).

    `streams` is the draw [S, R, W_R] between the served MUs and the receiving
    UAVs, `columns` [S] each link's UAV as its column there, and `leakage`
    [R, W_R, W_R] the receiving UAVs' radar leakage. Every receiving UAV hears
    all S streams: its interference P sum_s y_s y_s^H is one Gram of
    [R, W_R, S], the UAV's streams side by side. A link drops its own MU's
    P u u^H from that Gram, adds sigma^2 I and is symmetrised; the radar
    leakage, by far the largest term, is added last, so each covariance rounds
    once at the leakage's scale.
    """
    n_r = streams.shape[2]
    wide = streams.transpose(1, 2, 0)                                    # [R, W_R, S]
    interference = cfg.mu_power_max * (wide @ wide.conj().swapaxes(-1, -2))   # [R, W_R, W_R]
    u = streams[np.arange(columns.size), columns]                      # [S, W_R]
    own = cfg.mu_power_max * (u[:, :, None] @ u[:, None, :].conj())
    rest = cfg.noise_power * np.eye(n_r) + (interference[columns] - own)
    return u, leakage[columns] + 0.5 * (rest + rest.conj().swapaxes(-1, -2))


def design_links(streams: np.ndarray, alloc: Allocation, leakage: np.ndarray,
                 cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Uplink rate of every associated MU: (served MUs [S] in ascending order,
    their rates [S] in bits/s).

    `streams` is the draw [S, R, W_R] from `build_all_channels`: what each of
    the R receiving UAVs (those that serve at least one MU) hears of each
    served MU's one stream, y = H v with v the principal right-singular
    direction of the MU's own channel, each axis in ascending index order.
    `leakage` is the [M, W_R, W_R] radar leakage of every UAV from
    `build_radar_state`. Each receiving UAV's covariance holds noise, its radar
    leakage and every associated MU's rank-one P y y^H, formed as one Gram per
    UAV; a link's noise covariance N drops its own MU's term
    (`_link_covariances`). The UAV receives its own MU's stream as u, and the
    MMSE combiner N^-1 u maximises the output SINR for it; the rate is the
    closed form B log2(1 + P u^H N^-1 u) (Tse & Viswanath, "Fundamentals of
    Wireless Communication", ch. 8), so one stacked solve gives every link's
    SINR and no combiner is formed. A `streams` whose first axis is not S or
    whose second is not R, or a non-finite stream or leakage, raises
    ValueError; a covariance that the solve finds singular raises LinAlgError
    naming the link's MU and UAV (global indices) and its condition number.
    """
    k = np.flatnonzero(alloc.serving >= 0)
    if streams.shape[0] != k.size:
        raise ValueError(f"streams hold {streams.shape[0]} MUs but {k.size} are served")
    serving = alloc.serving[k]
    receivers = np.flatnonzero(np.bincount(serving))     # the UAVs that serve a link
    if streams.shape[1] != receivers.size:
        raise ValueError(f"streams hold {streams.shape[1]} UAVs but {receivers.size} receive")
    if k.size == 0:
        return k, np.zeros(0)
    # a non-finite stream reaches its own covariance's diagonal through the Gram;
    # an infinite one makes the Gram's products invalid, which this check reports
    with np.errstate(invalid="ignore", over="ignore"):
        u, n_cov = _link_covariances(streams, receivers.searchsorted(serving),
                                     leakage[receivers], cfg)
    if not np.all(np.isfinite(n_cov)):
        raise ValueError("noise covariance contains non-finite entries")
    try:
        x = np.linalg.solve(n_cov, u[..., None])[..., 0]
    except np.linalg.LinAlgError as err:
        cond = np.linalg.cond(n_cov)
        i = int(np.argmax(cond))
        raise np.linalg.LinAlgError(
            f"uplink noise covariance of MU {k[i]} at UAV {serving[i]} is singular "
            f"(condition number {cond[i]:.3g})") from err
    sinr = cfg.mu_power_max * np.real(_dot(u.conj(), x))
    return k, cfg.bandwidth_hz * np.log2(1.0 + sinr)
