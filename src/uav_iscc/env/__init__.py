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
    build_all_channels,
    build_radar_state,
    comm_rate,
    design_links,
    mmse_beamformer,
    radar_rate,
    steering,
)
from .types import Allocation, SlotReport, WorldState
from .world import draw_task, dvfs_frequency, reset_world, uav_clutter, world_step

__all__ = [
    "Allocation",
    "ConfigError",
    "INFINITE_DELAY",
    "MuSlotOutcome",
    "ScenarioConfig",
    "SlotReport",
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
    "radar_rate",
    "reset_world",
    "step_mobility",
    "steering",
    "transmitted_fraction",
    "uav_clutter",
    "world_step",
]
