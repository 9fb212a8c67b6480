"""Deterministic, seedable physics of the integrated
sensing-communication-computation world."""

from .compute import (
    INFINITE_DELAY,
    MuSlotOutcome,
    flight_power,
    mu_slot_outcome,
    transmitted_fraction,
)
from .config import ConfigError, ScenarioConfig
from .mobility import advance_kinematics, step_mobility
from .radio import (
    RadarState,
    build_all_channels,
    build_radar_state,
    comm_rate,
    design_links,
    mmse_beamformer,
    radar_leakage,
    radar_rate,
    radar_rate_from_filter,
    steering_vector,
)
from .types import Allocation, SlotReport, UavState, WorldState
from .world import draw_task, dvfs_frequency, reset_world, world_step

__all__ = [
    "Allocation",
    "ConfigError",
    "INFINITE_DELAY",
    "MuSlotOutcome",
    "RadarState",
    "ScenarioConfig",
    "SlotReport",
    "UavState",
    "WorldState",
    "advance_kinematics",
    "build_all_channels",
    "build_radar_state",
    "comm_rate",
    "design_links",
    "draw_task",
    "dvfs_frequency",
    "flight_power",
    "mmse_beamformer",
    "mu_slot_outcome",
    "radar_leakage",
    "radar_rate",
    "radar_rate_from_filter",
    "reset_world",
    "step_mobility",
    "steering_vector",
    "transmitted_fraction",
    "world_step",
]
