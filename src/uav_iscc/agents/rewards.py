"""Shaped rewards with multiplicative penalty factors.

Every penalty factor lives in [1, 2): the family 2 - exp(-[(x - slack)/scale]+)
equals one while the quantity stays within its slack and saturates toward two
as the violation grows. Rewards are the negated base cost times the product
of applicable factors. Each agent type's rewards of a slot are computed
together, as [K] arrays for the MUs and [M] arrays for the UAVs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..env.config import ScenarioConfig
from ..env.radio import row_norm
from ..env.types import Allocation, SlotReport, WorldState

# keeps 2 - exp(-x) strictly below 2.0 in float64
_EXP_CAP = 30.0


def penalty(x, slack, scale):
    """2 - exp(-[(x - slack)/scale]+) elementwise: 1 at or below the slack,
    capped under 2; an infinite x gets the cap."""
    excess = np.minimum(np.maximum((x - slack) / scale, 0.0), _EXP_CAP)
    return 2.0 - np.exp(-excess)


@dataclass
class RewardBreakdown:
    """Every agent's reward and its factors for one slot, as arrays with one
    entry per agent of the type; a factor that does not apply stays 1.0."""

    base: np.ndarray
    p_latency: np.ndarray | float = 1.0
    p_collision: np.ndarray | float = 1.0
    p_boundary: np.ndarray | float = 1.0
    p_radar: np.ndarray | float = 1.0
    reward: np.ndarray | float = 0.0

    @property
    def penalty_product(self) -> np.ndarray:
        return self.p_latency * self.p_collision * self.p_boundary * self.p_radar


def mu_reward(report: SlotReport, alloc: Allocation, cfg: ScenarioConfig) -> RewardBreakdown:
    """Every MU's -(own energy + weighted serving-UAV energy) times its latency
    factor, as [K] arrays."""
    served = alloc.serving >= 0
    base = report.e_mu.copy()
    base[served] += cfg.weight_factor * report.e_uav[alloc.serving[served]]
    p_lat = penalty(report.latency, report.deadline, report.deadline)
    return RewardBreakdown(base=base, p_latency=p_lat, reward=-base * p_lat)


def collision_penalty(pair_distance: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Each UAV's mean pairwise factor over the other UAVs, from the [M, M]
    distances; 1 for a lone UAV.

    Each pair is penalized by how far it closed below the safety distance,
    scaled by that distance. A UAV's factors are summed in ascending index
    order.
    """
    count = pair_distance.shape[0]
    if count <= 1:
        return np.ones(count)
    d_min = cfg.safety_distance
    factors = np.where(np.eye(count, dtype=bool), 0.0,
                       penalty(d_min - pair_distance, 0.0, d_min))
    # the distances are symmetric, so column m holds UAV m's factors; a sum
    # down the rows adds them one row after another
    return factors.sum(axis=0) / (count - 1)


def boundary_penalty(overshoot, cfg: ScenarioConfig):
    """Factor for clipped-away flight distance, scaled by the speed limit;
    stays inside [1, 2) for any overshoot."""
    return penalty(overshoot, 0.0, cfg.uav_v_max)


def radar_penalty(radar_rate, cfg: ScenarioConfig):
    """1 + deficit/threshold where the deficit is how far sensing fell short."""
    deficit = np.maximum(cfg.radar_rate_min - radar_rate, 0.0)
    return 1.0 + deficit / cfg.radar_rate_min


def uav_reward(report: SlotReport, world: WorldState, alloc: Allocation,
               cfg: ScenarioConfig) -> RewardBreakdown:
    """Every UAV's energy-plus-spread base times latency, collision, boundary
    and radar factors, as [M] arrays.

    The base mixes the served MUs' average energy (weighted with the UAV's own)
    and a distance factor pushing the UAV toward the centroid of its served
    MUs; geometric terms use the post-move world the action produced. A UAV
    serving nobody has no MU energy, distance or latency term. The per-UAV
    sums over served MUs accumulate in MU order.
    """
    m_count = world.num_uavs
    served = alloc.serving >= 0
    owner = alloc.serving[served]
    count = np.bincount(owner, minlength=m_count)
    p_mu = penalty(report.latency, report.deadline, report.deadline)
    # columns: MU energy, MU x, MU y, MU latency factor
    sums = np.zeros((m_count, 4))
    np.add.at(sums, owner, np.column_stack([report.e_mu, world.mu_positions, p_mu])[served])
    means = sums / np.maximum(count, 1)[:, None]

    e_bar = means[:, 0] + cfg.weight_factor * report.e_uav
    dist = np.where(count > 0, row_norm(world.uav_positions - means[:, 1:3]), 0.0)
    p_centroid = penalty(dist, cfg.distance_threshold, cfg.region_width)
    p_lat = np.where(count > 0, means[:, 3], 1.0)

    base = cfg.reward_energy_weight * e_bar + cfg.reward_distance_weight * p_centroid
    breakdown = RewardBreakdown(base=base, p_latency=p_lat,
                                p_collision=collision_penalty(report.pair_distance, cfg),
                                p_boundary=boundary_penalty(report.boundary_overshoot, cfg),
                                p_radar=radar_penalty(report.radar_rate, cfg))
    breakdown.reward = -base * breakdown.penalty_product
    return breakdown
