"""Rician MIMO channels, uplink rates, radar sensing.

All receivers sit on the UAVs. Only a served MU (one that offloads) has an
uplink, and only a UAV that serves at least one MU (a receiving UAV) hears
the uplinks, so each slot draws channels between these two sets alone: one
[S, R, W_R, W_T] array for the S served MUs and the R receiving UAVs, each
axis in ascending index order, which link design reads whole. Each served
MU sends one stream along its channel's principal direction, and its UAV
receives it with the MMSE combiner against inter-MU interference plus the
leakage of the radar waveform; the link rate is that receiver's closed form.
Each UAV simultaneously steers a full-power sensing beam at its ground
target and filters the echo for maximum sensing SINR.
"""

from __future__ import annotations

import math
import numpy as np

from .config import ScenarioConfig
from .types import Allocation, WorldState


def steering(sin_angle: np.ndarray, n: int) -> np.ndarray:
    """Uniform linear array responses at half-wavelength spacing: [..., n] for
    the sines of the angles [...]."""
    return np.exp(1j * np.pi * sin_angle[..., None] * np.arange(n))


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


def build_all_channels(world: WorldState, mus: np.ndarray, uavs: np.ndarray,
                       cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Channels from the MUs `mus` to the UAVs `uavs` (both ascending
    indices): complex [S, R, W_R, W_T] for S = len(mus) and R = len(uavs).

    Only these entries draw: each entry's scatter takes two consecutive
    standard normals (real, then imaginary), written straight into the output.
    So a call takes 2 S R W_R W_T numbers from `rng`, and none when `mus` or
    `uavs` is empty.
    """
    mu_pos = world.mu_positions[mus]         # [S, 2]
    uav_pos = world.uav_positions[uavs]      # [R, 2]
    diff = uav_pos[None, :, :] - mu_pos[:, None, :]
    horiz2 = np.sum(diff * diff, axis=-1)                    # [S, R]
    d2 = horiz2 + cfg.altitude ** 2
    angle = np.arctan2(cfg.altitude, np.sqrt(horiz2))        # [S, R]
    sin_a = np.sin(angle)
    # one steering exponential for the larger array; each array takes a prefix
    n_r, n_t = cfg.rx_antennas, cfg.tx_antennas
    steer = steering(sin_a, max(n_r, n_t))
    channel = steer[..., :n_r, None] * steer[..., None, :n_t].conj()   # LOS, [S, R, W_R, W_T]
    eps = cfg.rician_factor
    if math.isinf(eps):
        w_los, w_nlos = 1.0, 0.0
    else:
        w_los = math.sqrt(eps / (eps + 1.0))
        w_nlos = math.sqrt(1.0 / (eps + 1.0))
    scatter = np.empty(channel.shape, dtype=complex)
    rng.standard_normal(out=scatter.view(np.float64))
    scatter /= math.sqrt(2.0)
    channel *= w_los
    scatter *= w_nlos
    channel += scatter
    channel *= np.sqrt(cfg.ref_gain / d2)[..., None, None]
    return channel


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
    horiz = row_norm(world.uav_positions - world.uav_targets)
    a = steering(np.sin(np.arctan2(cfg.altitude, horiz)), n)     # [M, n]
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


def _principal_direction(channel: np.ndarray) -> np.ndarray:
    """Unit principal right-singular direction [..., W_T] of `channel` [..., W_R, W_T],
    as the last eigenvector of H^H H, up to a unit phase."""
    return np.linalg.eigh(channel.conj().swapaxes(-1, -2) @ channel)[1][..., -1]


def _link_covariances(channels: np.ndarray, columns: np.ndarray, leakage: np.ndarray,
                      cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each served link's channel and noise covariance: ([S, W_R, W_T], [S, W_R, W_R]).

    `channels` is the draw [S, R, W_R, W_T] between the served MUs and the
    receiving UAVs, `columns` [S] each link's UAV as its column there, and
    `leakage` [R, W_R, W_R] the receiving UAVs' radar leakage. Every receiving
    UAV hears all S MUs: its interference P H_r H_r^H is one Gram of `wide`
    [R, W_R, S*W_T], the UAV's channels side by side. A link drops its own
    MU's P h h^H from that Gram, adds sigma^2 I and is symmetrised; the radar
    leakage, by far the largest term, is added last, so each covariance rounds
    once at the leakage's scale.
    """
    num_uavs, n_r = channels.shape[1], channels.shape[2]
    wide = channels.transpose(1, 2, 0, 3).reshape(num_uavs, n_r, -1)
    interference = cfg.mu_power_max * (wide @ wide.conj().swapaxes(-1, -2))   # [R, W_R, W_R]
    h = channels[np.arange(columns.size), columns]                      # [S, W_R, W_T]
    own = cfg.mu_power_max * (h @ h.conj().swapaxes(-1, -2))
    rest = cfg.noise_power * np.eye(n_r) + (interference[columns] - own)
    return h, leakage[columns] + 0.5 * (rest + rest.conj().swapaxes(-1, -2))


def design_links(channels: np.ndarray, alloc: Allocation, leakage: np.ndarray,
                 cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Uplink rate of every associated MU: (served MUs [S] in ascending order,
    their rates [S] in bits/s).

    `channels` is the draw [S, R, W_R, W_T] from `build_all_channels` between
    the served MUs and the R receiving UAVs (those that serve at least one
    MU), each axis in ascending index order, and `leakage` the [M, W_R, W_R]
    radar leakage of every UAV from `build_radar_state`. Each receiving UAV's
    covariance holds noise, its radar leakage and every associated MU's
    P h h^H, formed as one Gram per UAV; a link's noise covariance N drops its
    own MU's term (`_link_covariances`).
    The MU sends one stream along its channel's principal right-singular
    direction v1 (`_principal_direction`), so the UAV receives u = H v1. The
    MMSE combiner N^-1 u maximises the output SINR for that stream, and its
    rate is the closed form B log2(1 + P u^H N^-1 u) (Tse & Viswanath,
    "Fundamentals of Wireless Communication", ch. 8), so one stacked solve
    gives every link's SINR and no combiner is formed. A `channels` whose first
    axis is not S or whose second is not R, or a non-finite channel or
    leakage, raises ValueError; a covariance that the solve finds singular
    raises LinAlgError naming the link's MU and UAV (global indices) and its
    condition number.
    """
    k = np.flatnonzero(alloc.serving >= 0)
    if channels.shape[0] != k.size:
        raise ValueError(f"channels hold {channels.shape[0]} MUs but {k.size} are served")
    serving = alloc.serving[k]
    receivers = np.flatnonzero(np.bincount(serving))     # the UAVs that serve a link
    if channels.shape[1] != receivers.size:
        raise ValueError(f"channels hold {channels.shape[1]} UAVs but {receivers.size} receive")
    if k.size == 0:
        return k, np.zeros(0)
    # a non-finite channel reaches its own covariance's diagonal through the Gram;
    # an infinite one makes the Gram's products invalid, which this check reports
    with np.errstate(invalid="ignore", over="ignore"):
        h, n_cov = _link_covariances(channels, receivers.searchsorted(serving),
                                     leakage[receivers], cfg)
    if not np.all(np.isfinite(n_cov)):
        raise ValueError("noise covariance contains non-finite entries")
    u = (h @ _principal_direction(h)[..., None])[..., 0]
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
