"""Shaped rewards with multiplicative penalty factors.

Every penalty factor lives in [1, 2): the family 2 - exp(-[(x - slack)/scale]+)
equals one while the quantity stays within its slack and saturates toward two
as the violation grows. Rewards are the negated base cost times the product
of applicable factors. The MU rewards of a slot are computed together as [K]
arrays; each UAV's reward is computed on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..env.config import ScenarioConfig
from ..env.types import Allocation, SlotReport, WorldState

# keeps 2 - exp(-x) strictly below 2.0 in float64
_EXP_CAP = 30.0


def penalty_P(x: float, zeta: float, eta: float) -> float:
    """2 - exp(-[(x - zeta)/eta]+): 1 at or below the slack, capped under 2."""
    if eta <= 0:
        raise ValueError("penalty scale must be positive")
    excess = max((x - zeta) / eta, 0.0)
    return 2.0 - math.exp(-min(excess, _EXP_CAP))


@dataclass
class RewardBreakdown:
    """One agent's reward and its factors, or every MU's as [K] arrays."""

    base: float | np.ndarray
    p_latency: float | np.ndarray = 1.0
    p_collision: float = 1.0
    p_boundary: float = 1.0
    p_radar: float = 1.0
    reward: float | np.ndarray = 0.0

    @property
    def penalty_product(self) -> float:
        return self.p_latency * self.p_collision * self.p_boundary * self.p_radar


def latency_penalty(latency: np.ndarray, deadline: np.ndarray) -> np.ndarray:
    """Elementwise penalty_P(latency, deadline, deadline); an infinite latency
    counts as 1e30 s."""
    excess = (np.where(np.isfinite(latency), latency, 1e30) - deadline) / deadline
    return 2.0 - np.exp(-np.minimum(np.maximum(excess, 0.0), _EXP_CAP))


def mu_reward(report: SlotReport, alloc: Allocation, cfg: ScenarioConfig) -> RewardBreakdown:
    """Every MU's -(own energy + weighted serving-UAV energy) times its latency
    factor, as [K] arrays."""
    served = alloc.serving >= 0
    base = report.e_mu.copy()
    base[served] += cfg.weight_factor * report.e_uav[alloc.serving[served]]
    p_lat = latency_penalty(report.latency, report.deadline)
    return RewardBreakdown(base=base, p_latency=p_lat, reward=-base * p_lat)


def collision_penalty(m: int, report: SlotReport, cfg: ScenarioConfig) -> float:
    """Mean pairwise factor over the other UAVs.

    Each pair is penalized by how far it closed below the safety distance,
    scaled by that distance.
    """
    count = report.pair_distance.shape[0]
    if count <= 1:
        return 1.0
    d_min = cfg.safety_distance
    total = 0.0
    for i in range(count):
        if i == m:
            continue
        total += penalty_P(d_min - float(report.pair_distance[m, i]), 0.0, d_min)
    return total / (count - 1)


def boundary_penalty(overshoot: float, cfg: ScenarioConfig) -> float:
    """Factor for clipped-away flight distance, scaled by the speed limit;
    stays inside [1, 2) for any overshoot."""
    return penalty_P(overshoot, 0.0, cfg.uav_v_max)


def radar_penalty(radar_rate: float, cfg: ScenarioConfig) -> float:
    """1 + deficit/threshold where the deficit is how far sensing fell short."""
    deficit = max(cfg.radar_rate_min - radar_rate, 0.0)
    return 1.0 + deficit / cfg.radar_rate_min


def uav_reward(m: int, report: SlotReport, world: WorldState, alloc: Allocation,
               cfg: ScenarioConfig) -> RewardBreakdown:
    """Energy-plus-spread base times latency, collision, boundary, radar factors.

    The base mixes the served MUs' average energy (weighted with the UAV's own)
    and a distance factor pushing the UAV toward the centroid of its served
    MUs; geometric terms use the post-move world the action produced.
    """
    served = np.flatnonzero(alloc.serving == m)
    e_served = float(np.mean(report.e_mu[served])) if served.size else 0.0
    e_bar = e_served + cfg.weight_factor * float(report.e_uav[m])

    own = world.uavs[m].position
    if served.size:
        centroid = np.mean(world.mu_positions[served], axis=0)
        dist = float(np.linalg.norm(own - centroid))
    else:
        dist = 0.0
    p_centroid = penalty_P(dist, cfg.distance_threshold, cfg.region_width)

    if served.size:
        p_lat = float(np.mean(latency_penalty(report.latency[served], report.deadline[served])))
    else:
        p_lat = 1.0
    p_col = collision_penalty(m, report, cfg)
    p_bound = boundary_penalty(float(report.boundary_overshoot[m]), cfg)
    p_rad = radar_penalty(float(report.radar_rate[m]), cfg)

    base = cfg.reward_energy_weight * e_bar + cfg.reward_distance_weight * p_centroid
    breakdown = RewardBreakdown(base=base, p_latency=p_lat, p_collision=p_col,
                                p_boundary=p_bound, p_radar=p_rad)
    breakdown.reward = -base * breakdown.penalty_product
    return breakdown
