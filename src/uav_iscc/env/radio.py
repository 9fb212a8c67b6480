"""Rician MIMO channels, heuristic beamforming, uplink rates, radar sensing.

All receivers sit on the UAVs. The uplink from each served MU is decoded with
an MMSE combiner against inter-MU interference plus the leakage of the radar
waveform; each UAV simultaneously steers a full-power sensing beam at its
ground target and filters the echo for maximum sensing SINR.
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


def build_all_channels(world: WorldState, cfg: ScenarioConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Vectorized channel draw for every MU-UAV pair: complex [K, M, W_R, W_T]."""
    mu_pos = world.mu_positions              # [K, 2]
    uav_pos = world.uav_positions            # [M, 2]
    diff = uav_pos[None, :, :] - mu_pos[:, None, :]
    horiz2 = np.sum(diff * diff, axis=-1)                    # [K, M]
    d2 = horiz2 + cfg.altitude ** 2
    angle = np.arctan2(cfg.altitude, np.sqrt(horiz2))        # [K, M]
    sin_a = np.sin(angle)
    # one steering exponential for the larger array; each array takes a prefix
    n_r, n_t = cfg.rx_antennas, cfg.tx_antennas
    steer = steering(sin_a, max(n_r, n_t))
    channel = steer[..., :n_r, None] * steer[..., None, :n_t].conj()   # LOS, [K, M, W_R, W_T]
    eps = cfg.rician_factor
    if math.isinf(eps):
        w_los, w_nlos = 1.0, 0.0
    else:
        w_los = math.sqrt(eps / (eps + 1.0))
        w_nlos = math.sqrt(1.0 / (eps + 1.0))
    shape = channel.shape
    draws = rng.standard_normal((2, *shape))        # all real parts, then all imaginary
    scatter = np.empty(shape, dtype=complex)
    scatter.real, scatter.imag = draws
    scatter /= math.sqrt(2.0)
    channel *= w_los
    scatter *= w_nlos
    channel += scatter
    channel *= np.sqrt(cfg.ref_gain / d2)[..., None, None]
    return channel


def _solve_hpd(mat: np.ndarray, rhs: np.ndarray, cfg: ScenarioConfig) -> tuple[np.ndarray, bool]:
    """Solve against the uplink's Hermitian positive definite noise covariances
    with a loading fallback.

    `mat` is [..., n, n] and `rhs` [..., n] with the same leading axes; the
    solution is [..., n]. When a stacked solve fails, the stack is solved
    again matrix by matrix, so diagonal loading reaches only the singular ones.
    """
    try:
        return np.linalg.solve(mat, rhs[..., None])[..., 0], False
    except np.linalg.LinAlgError:
        n = mat.shape[-1]
        if mat.ndim > 2:
            parts = [_solve_hpd(a, b, cfg)[0]
                     for a, b in zip(mat.reshape(-1, n, n), rhs.reshape(-1, n))]
            return np.stack(parts).reshape(rhs.shape), True
        loaded = mat + cfg.noise_power * 1e-6 * np.eye(n)
        return np.linalg.solve(loaded, rhs[..., None])[..., 0], True


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
    with G the target response plus the clutter gain.
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
    return sinr, radar_rate(sinr, cfg), leaked[:, :, None] * leaked.conj()[:, None, :]


def radar_rate(sinr: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Estimation information rate: duty/(2*pulse) * log2(1 + 2*B*mu*gamma)."""
    gain = 2.0 * cfg.bandwidth_hz * cfg.radar_gain_product * sinr
    return cfg.radar_duty / (2.0 * cfg.radar_pulse_s) * np.log2(1.0 + gain)


def _principal_direction(channel: np.ndarray) -> np.ndarray:
    """Unit principal right-singular direction [..., W_T] of `channel` [..., W_R, W_T],
    as the last eigenvector of H^H H, up to a unit phase."""
    return np.linalg.eigh(channel.conj().swapaxes(-1, -2) @ channel)[1][..., -1]


def mmse_beamformer(channel: np.ndarray, noise_cov: np.ndarray,
                    cfg: ScenarioConfig) -> tuple[np.ndarray, bool]:
    """Unit-norm combiner: noise_cov^-1 H v1 along the channel's principal direction.

    `channel` is [..., W_R, W_T] and `noise_cov` [..., W_R, W_R]; the
    combiners are [..., W_R]. The principal right-singular direction v1 is the
    last eigenvector of `eigh(H^H H)` (`_principal_direction`); its unit phase
    is arbitrary, and the rate P ||H^H w||^2 does not depend on it. A combiner
    whose solve comes out zero falls back to the normalized principal
    direction. A non-finite channel or noise covariance (a non-finite
    interfering channel) raises ValueError before the eigensolver.
    """
    if not np.all(np.isfinite(channel)):
        raise ValueError("channel contains non-finite entries")
    if not np.all(np.isfinite(noise_cov)):
        raise ValueError("noise covariance contains non-finite entries")
    principal = (channel @ _principal_direction(channel)[..., None])[..., 0]
    w, loaded = _solve_hpd(noise_cov, principal, cfg)
    norm = row_norm(w)
    zero = norm == 0
    if zero.any():
        w = np.where(zero[..., None], principal, w)
        norm = np.where(zero, row_norm(principal), norm)
    return w / norm[..., None], loaded


def comm_rate(channel: np.ndarray, beamformer: np.ndarray, noise_cov: np.ndarray,
              power: float, cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Achievable uplink rate in bits/s and received signal power.

    The scalar received signal power P ||H^H w||^2 rides on the inverse of the
    interference-plus-noise covariance: rate = B * sum_i log2(1 + s / lambda_i)
    over the covariance eigenvalues, which is log2 det(I + s N^-1).
    `channel` is [..., W_R, W_T], `beamformer` [..., W_R] and `noise_cov`
    [..., W_R, W_R]; rate and power have the leading shape [...].
    """
    g = (channel.conj().swapaxes(-1, -2) @ beamformer[..., None])[..., 0]
    s = power * np.real(g.conj()[..., None, :] @ g[..., :, None])[..., 0, 0]
    lam = np.linalg.eigvalsh(noise_cov)
    lam = np.maximum(lam, np.finfo(float).tiny)
    rate = cfg.bandwidth_hz * np.sum(np.log2(1.0 + s[..., None] / lam), axis=-1)
    return np.maximum(rate, 0.0), s


def _link_covariances(channels: np.ndarray, served: np.ndarray, serving: np.ndarray,
                      leakage: np.ndarray, cfg: ScenarioConfig
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Each served link's channel and noise covariance: ([S, W_R, W_T], [S, W_R, W_R]).

    `served` holds the S served MUs and `serving` their UAVs. Every UAV hears
    all S of them: its interference P H_m H_m^H is one Gram of `wide`
    [M, W_R, S*W_T], the UAV's served channels side by side. A link drops its
    own MU's P h h^H from that Gram, adds sigma^2 I and is symmetrised; the
    radar leakage, by far the largest term, is added last, so each covariance
    rounds once at the leakage's scale.
    """
    num_uavs, n_r = channels.shape[1], channels.shape[2]
    wide = channels[served].transpose(1, 2, 0, 3).reshape(num_uavs, n_r, -1)
    interference = cfg.mu_power_max * (wide @ wide.conj().swapaxes(-1, -2))   # [M, W_R, W_R]
    h = channels[served, serving]                                        # [S, W_R, W_T]
    own = cfg.mu_power_max * (h @ h.conj().swapaxes(-1, -2))
    rest = cfg.noise_power * np.eye(n_r) + (interference[serving] - own)
    return h, leakage[serving] + 0.5 * (rest + rest.conj().swapaxes(-1, -2))


def design_links(channels: np.ndarray, alloc: Allocation, leakage: np.ndarray,
                 cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, bool]:
    """MMSE combiner rate for every associated MU: (served MUs [S] in ascending
    order, their rates [S] in bits/s, loading used).

    `channels` is the slot's [K, M, W_R, W_T] draw and `leakage` the [M, W_R, W_R]
    radar leakage from `build_radar_state`. Each UAV's covariance holds noise,
    its radar leakage and every associated MU's P h h^H, formed as one Gram per
    UAV; a link's noise covariance drops its own MU's term (`_link_covariances`).
    All served links are designed in one stacked pass. An empty association
    returns before the channels are read.
    """
    k = np.flatnonzero(alloc.serving >= 0)
    if k.size == 0:
        return k, np.zeros(0), False
    h, n_cov = _link_covariances(channels, k, alloc.serving[k], leakage, cfg)
    w, loaded = mmse_beamformer(h, n_cov, cfg)
    rates, _ = comm_rate(h, w, n_cov, cfg.mu_power_max, cfg)
    return k, rates, loaded
