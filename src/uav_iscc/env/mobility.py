"""Ground-user mobility and UAV kinematics."""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .radio import row_norm


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
    noise = rng.normal(0.0, [cfg.mobility_speed_noise_std, cfg.mobility_heading_noise_std],
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


def clip_norm(x: np.ndarray, limit: float) -> np.ndarray:
    """Rows of `x` [..., 2] longer than `limit` scaled back onto that length;
    shorter rows are returned unchanged."""
    return x * (limit / np.maximum(row_norm(x), limit))[..., None]


def advance_kinematics(positions: np.ndarray, velocities: np.ndarray, a_cmd: np.ndarray,
                       cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply every UAV's acceleration command: positions, velocities and
    commands [M, 2] in; (new positions, new velocities, boundary overshoot [M]) out.

    Acceleration is norm-projected to the limit, the position integrates
    q + v*dt + a*dt^2/2, the velocity integrates then norm-clips to v_max.
    Leaving the region clamps the position and zeroes the outward velocity
    component; the clipped-away distance is reported, not forbidden.
    """
    a = clip_norm(np.asarray(a_cmd, dtype=np.float64), cfg.uav_a_max)
    dt = cfg.slot_seconds
    raw_pos = positions + velocities * dt + 0.5 * a * dt * dt
    vel = clip_norm(velocities + a * dt, cfg.uav_v_max)
    width = cfg.region_width
    pos = np.clip(raw_pos, 0.0, width)
    outward = ((raw_pos < 0.0) & (vel < 0.0)) | ((raw_pos > width) & (vel > 0.0))
    return pos, np.where(outward, 0.0, vel), row_norm(raw_pos - pos)
