"""Multi-agent MDP layer: observations, action decoding, shaped rewards."""

from .actions import (
    MuAction,
    UavAction,
    apply_uav_actions,
    build_allocation,
    decode_mu_action,
    decode_uav_action,
)
from .observations import (
    MuObservation,
    UavObservation,
    build_mu_observations,
    build_observations,
    build_uav_observations,
    roster_of,
)
from .rewards import (
    RewardBreakdown,
    boundary_penalty,
    collision_penalty,
    latency_penalty,
    mu_reward,
    penalty_P,
    radar_penalty,
    uav_reward,
)

__all__ = [
    "MuAction",
    "MuObservation",
    "RewardBreakdown",
    "UavAction",
    "UavObservation",
    "apply_uav_actions",
    "boundary_penalty",
    "build_allocation",
    "build_mu_observations",
    "build_observations",
    "build_uav_observations",
    "collision_penalty",
    "decode_mu_action",
    "decode_uav_action",
    "latency_penalty",
    "mu_reward",
    "penalty_P",
    "radar_penalty",
    "roster_of",
    "uav_reward",
]
