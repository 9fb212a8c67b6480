"""Rician MIMO channels, heuristic beamforming, uplink rates, radar sensing.

All receivers sit on the UAVs. The uplink from each served MU is decoded with
an MMSE combiner against inter-MU interference plus the leakage of the radar
waveform; each UAV simultaneously steers a full-power sensing beam at its
ground target and filters the echo for maximum sensing SINR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .types import Allocation, UavState, WorldState


def steering_vector(angle: float, n: int) -> np.ndarray:
    """Uniform linear array response at half-wavelength spacing."""
    if n < 1:
        raise ValueError("antenna count must be >= 1")
    idx = np.arange(n)
    return np.exp(1j * np.pi * math.sin(angle) * idx)


def elevation_angle(horizontal_dist: float, altitude: float) -> float:
    return math.atan2(altitude, horizontal_dist)


def build_all_channels(world: WorldState, cfg: ScenarioConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Vectorized channel draw for every MU-UAV pair: complex [K, M, W_R, W_T]."""
    mu_pos = world.mu_positions()            # [K, 2]
    uav_pos = world.uav_positions()          # [M, 2]
    diff = uav_pos[None, :, :] - mu_pos[:, None, :]
    horiz2 = np.sum(diff * diff, axis=-1)                    # [K, M]
    d2 = horiz2 + cfg.altitude ** 2
    angle = np.arctan2(cfg.altitude, np.sqrt(horiz2))        # [K, M]
    sin_a = np.sin(angle)
    a_r = np.exp(1j * np.pi * sin_a[..., None] * np.arange(cfg.rx_antennas))
    a_t = np.exp(1j * np.pi * sin_a[..., None] * np.arange(cfg.tx_antennas))
    los = a_r[..., :, None] * a_t[..., None, :].conj()       # [K, M, W_R, W_T]
    eps = cfg.rician_factor
    if math.isinf(eps):
        w_los, w_nlos = 1.0, 0.0
    else:
        w_los = math.sqrt(eps / (eps + 1.0))
        w_nlos = math.sqrt(1.0 / (eps + 1.0))
    shape = los.shape
    scatter = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    scale = np.sqrt(cfg.ref_gain / d2)[..., None, None]
    return scale * (w_los * los + w_nlos * scatter)


@dataclass
class RadarState:
    """Sensing-side quantities of one UAV for one slot."""

    beamformer: np.ndarray        # W_m, transmit beam with ||W||^2 = P
    receive_filter: np.ndarray    # c_m, unit norm
    target_response: np.ndarray   # doppler_phase * a(angle) a(angle)^H
    clutter_gain: complex         # summed coupling from other UAVs
    covariance: np.ndarray        # clutter-plus-noise R_m
    sinr: float
    rate: float                   # estimation information rate, bps


def _solve_hpd(mat: np.ndarray, rhs: np.ndarray, cfg: ScenarioConfig) -> tuple[np.ndarray, bool]:
    """Solve against Hermitian positive definite matrices with a loading fallback.

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


def radar_geometry(uav: UavState, cfg: ScenarioConfig) -> float:
    """Elevation angle from the UAV down to its sensing target."""
    horiz = float(np.linalg.norm(uav.position - uav.target_position))
    return elevation_angle(horiz, cfg.altitude)


def build_radar_state(uav: UavState, cfg: ScenarioConfig) -> tuple[RadarState, bool]:
    """Steer the sensing beam, derive the max-SINR filter, and score the echo."""
    n = cfg.rx_antennas
    angle = radar_geometry(uav, cfg)
    a = steering_vector(angle, n)
    w = math.sqrt(cfg.uav_power_max) * a / np.linalg.norm(a)
    response = uav.doppler_phase * np.outer(a, a.conj())
    clutter = uav.clutter_gain
    cov = (abs(clutter) ** 2) * np.outer(w, w.conj()) + cfg.noise_power * np.eye(n)
    cov = 0.5 * (cov + cov.conj().T)
    steer = response @ w
    filt, loaded = _solve_hpd(cov, steer, cfg)
    norm = np.linalg.norm(filt)
    filt = filt / norm if norm > 0 else np.ones(n, dtype=complex) / math.sqrt(n)
    sinr, rate = radar_rate_from_filter(filt, response, w, cov, cfg)
    state = RadarState(beamformer=w, receive_filter=filt, target_response=response,
                       clutter_gain=clutter, covariance=cov, sinr=sinr, rate=rate)
    return state, loaded


def radar_rate_from_filter(filt: np.ndarray, response: np.ndarray, beam: np.ndarray,
                           cov: np.ndarray, cfg: ScenarioConfig) -> tuple[float, float]:
    signal = abs(np.vdot(filt, response @ beam)) ** 2
    noise = float(np.real(np.vdot(filt, cov @ filt)))
    sinr = signal / noise if noise > 0 else 0.0
    return sinr, radar_rate(sinr, cfg)


def radar_rate(sinr: float, cfg: ScenarioConfig) -> float:
    """Estimation information rate: duty/(2*pulse) * log2(1 + 2*B*mu*gamma)."""
    gain = 2.0 * cfg.bandwidth_hz * cfg.radar_gain_product * sinr
    return cfg.radar_duty / (2.0 * cfg.radar_pulse_s) * math.log2(1.0 + gain)


def radar_leakage(radar: RadarState, n: int) -> np.ndarray:
    """Covariance of the sensing waveform as seen by the uplink receiver."""
    g = radar.target_response + radar.clutter_gain * np.eye(n)
    leaked = g @ radar.beamformer
    return np.outer(leaked, leaked.conj())


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of a complex [..., n] array.

    Summed like `np.linalg.norm` of one vector, as BLAS dot products of the
    real and imaginary parts, so a stacked norm equals the per-vector one bit
    for bit (`einsum` or `np.sum(abs(x)**2)` would not).
    """
    re, im = x.real, x.imag
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(sq[..., 0, 0])


def mmse_beamformer(channel: np.ndarray, noise_cov: np.ndarray,
                    cfg: ScenarioConfig) -> tuple[np.ndarray, bool]:
    """Unit-norm combiner: noise_cov^-1 H u1 along the channel's principal direction.

    `channel` is [..., W_R, W_T] and `noise_cov` [..., W_R, W_R]; the
    combiners are [..., W_R]. A combiner whose solve comes out zero falls back
    to the normalized principal direction.
    """
    _, _, vh = np.linalg.svd(channel)
    principal = (channel @ vh[..., 0, :, None].conj())[..., 0]
    w, loaded = _solve_hpd(noise_cov, principal, cfg)
    norm = _norm(w)
    zero = norm == 0
    if zero.any():
        w = np.where(zero[..., None], principal, w)
        norm = np.where(zero, _norm(principal), norm)
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
    if not np.all(np.isfinite(channel)):
        raise ValueError("channel contains non-finite entries")
    g = (channel.conj().swapaxes(-1, -2) @ beamformer[..., None])[..., 0]
    s = power * np.real(g.conj()[..., None, :] @ g[..., :, None])[..., 0, 0]
    lam = np.linalg.eigvalsh(noise_cov)
    lam = np.maximum(lam, np.finfo(float).tiny)
    rate = cfg.bandwidth_hz * np.sum(np.log2(1.0 + s[..., None] / lam), axis=-1)
    return np.maximum(rate, 0.0), s


def design_links(world: WorldState, alloc: Allocation, radars: list,
                 cfg: ScenarioConfig) -> tuple[dict, bool]:
    """MMSE combiner rate for every associated MU: ({mu: bits/s}, loading used).

    Each UAV's covariance holds noise, its radar leakage and every associated
    MU's P h h^H; a link's noise covariance drops its own MU's term. All
    served links are designed in one stacked pass.
    """
    k, m = np.nonzero(alloc.association > 0)
    if k.size == 0:
        return {}, False
    n = cfg.rx_antennas
    chans = world.channels[k]                                        # [S, M, W_R, W_T]
    grams = cfg.mu_power_max * (chans @ chans.conj().swapaxes(-1, -2))  # [S, M, W_R, W_R]
    total = cfg.noise_power * np.eye(n, dtype=complex) + np.stack(
        [radar_leakage(r, n) for r in radars])                      # [M, W_R, W_R]
    for gram in grams:  # one add per MU in ascending order: a fixed rounding order
        total = total + gram
    total = 0.5 * (total + total.conj().swapaxes(-1, -2))
    own = np.arange(k.size), m                  # each link's entry of the [S, M] stacks
    n_cov = total[m] - grams[own]                                   # [S, W_R, W_R]
    n_cov = 0.5 * (n_cov + n_cov.conj().swapaxes(-1, -2))
    h = chans[own]
    w, loaded = mmse_beamformer(h, n_cov, cfg)
    rates, _ = comm_rate(h, w, n_cov, cfg.mu_power_max, cfg)
    return dict(zip(k.tolist(), rates.tolist())), loaded
