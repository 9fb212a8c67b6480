"""Multi-agent MDP layer: observations, action decoding, shaped rewards."""

from .actions import (
    MuAction,
    UavAction,
    apply_uav_actions,
    build_allocation,
    decode_mu_action,
)
from .observations import (
    build_mu_observations,
    build_uav_observations,
    mu_obs_dim,
    uav_obs_dim,
    uav_rosters,
)
from .rewards import (
    RewardBreakdown,
    boundary_penalty,
    collision_penalty,
    mu_reward,
    penalty,
    radar_penalty,
    uav_reward,
)

__all__ = [
    "MuAction",
    "RewardBreakdown",
    "UavAction",
    "apply_uav_actions",
    "boundary_penalty",
    "build_allocation",
    "build_mu_observations",
    "build_uav_observations",
    "collision_penalty",
    "decode_mu_action",
    "mu_obs_dim",
    "mu_reward",
    "penalty",
    "radar_penalty",
    "uav_obs_dim",
    "uav_reward",
    "uav_rosters",
]
