"""Ground-user mobility and UAV kinematics."""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .types import UavState


def step_mobility(positions: np.ndarray, speeds: np.ndarray, headings: np.ndarray,
                  cfg: ScenarioConfig, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance MUs by the Gauss-Markov recursion: positions [K, 2], speeds and
    headings [K] in; new arrays of the same shapes out.

    Speed and heading mix the previous value, a long-run mean, and a Gaussian
    innovation scaled by sqrt(1 - memory^2); the innovations are one [K, 2]
    draw, speed then heading in each row. The position advances along the
    previous heading at the previous speed and reflects off the region walls.
    """
    mu1 = cfg.mobility_speed_memory
    mu2 = cfg.mobility_heading_memory
    noise = rng.normal([cfg.mobility_speed_noise_mean, cfg.mobility_heading_noise_mean],
                       [cfg.mobility_speed_noise_std, cfg.mobility_heading_noise_std],
                       size=(speeds.shape[0], 2))

    new_speed = (mu1 * speeds
                 + (1.0 - mu1) * cfg.mobility_mean_speed
                 + np.sqrt(max(0.0, 1.0 - mu1 * mu1)) * noise[:, 0])
    new_heading = (mu2 * headings
                   + (1.0 - mu2) * cfg.mobility_mean_heading
                   + np.sqrt(max(0.0, 1.0 - mu2 * mu2)) * noise[:, 1])
    new_speed = np.maximum(0.0, new_speed)

    step = speeds * cfg.slot_seconds
    pos = positions + step[:, None] * np.stack([np.cos(headings), np.sin(headings)], axis=1)

    # reflect at the walls: clamp position, mirror the heading component
    width = cfg.region_width
    outside = (pos < 0.0) | (pos > width)
    pos = np.clip(pos, 0.0, width)
    new_heading = np.where(outside[:, 0], np.pi - new_heading, new_heading)
    new_heading = np.where(outside[:, 1], -new_heading, new_heading)
    new_heading = np.arctan2(np.sin(new_heading), np.cos(new_heading))
    return pos, new_speed, new_heading


def advance_kinematics(uav: UavState, a_cmd: np.ndarray, cfg: ScenarioConfig) -> tuple[UavState, float]:
    """Apply one acceleration command; returns (new state, boundary overshoot).

    Acceleration is norm-projected to the limit, the position integrates
    q + v*dt + a*dt^2/2, the velocity integrates then norm-clips to v_max.
    Leaving the region clamps the position and zeroes the outward velocity
    component; the clipped-away distance is reported, not forbidden.
    """
    a = np.asarray(a_cmd, dtype=np.float64)
    norm_a = float(np.linalg.norm(a))
    if norm_a > cfg.uav_a_max:
        a = a * (cfg.uav_a_max / norm_a)

    dt = cfg.slot_seconds
    raw_pos = uav.position + uav.velocity * dt + 0.5 * a * dt * dt
    vel = uav.velocity + a * dt
    speed = float(np.linalg.norm(vel))
    if speed > cfg.uav_v_max:
        vel = vel * (cfg.uav_v_max / speed)

    width = cfg.region_width
    pos = np.clip(raw_pos, 0.0, width)
    overshoot = float(np.linalg.norm(raw_pos - pos))
    for axis in range(2):
        if raw_pos[axis] < 0.0 and vel[axis] < 0.0:
            vel[axis] = 0.0
        if raw_pos[axis] > width and vel[axis] > 0.0:
            vel[axis] = 0.0

    new = UavState(position=pos, velocity=vel, acceleration=a,
                   target_position=uav.target_position,
                   doppler_phase=uav.doppler_phase,
                   clutter_gain=uav.clutter_gain,
                   decompress_density=uav.decompress_density)
    return new, overshoot
