"""Per-agent observation vectors, min-max scaled into the unit interval.

MU agents see their own index, task, position, and every UAV position. UAV
agents see their index, a fixed-capacity roster of currently associated MUs
(position, task, offload and compression choices), their own position, and
the other UAVs' positions. Roster slots beyond the served count are zero
padded. Each builder returns one array with a row per agent: [K, mu_obs_dim]
for the MUs and [M, uav_obs_dim] for the UAVs. The UAV builder reads the
scaled tasks from the MU observations and takes the rosters as an argument, so
a slot computes each once.
"""

from __future__ import annotations

import numpy as np

from ..env.config import ScenarioConfig
from ..env.types import Allocation, WorldState
from ..env.world import task_bounds

_MU_TASK_COLUMNS = slice(1, 6)     # an MU observation's scaled task


def _scaled_tasks(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """Every MU's task min-max scaled into [0, 1]: [K, 5].

    `validate` keeps min <= max, so a field whose range has max <= min has
    equal ends; every task holds that value, and it scales to 0.
    """
    lo, hi = task_bounds(cfg)
    return np.clip((world.tasks - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0, 1.0)


def mu_obs_dim(cfg: ScenarioConfig) -> int:
    """Length of an MU observation vector."""
    return 1 + 5 + 2 * cfg.num_uavs + 2


def uav_obs_dim(cfg: ScenarioConfig) -> int:
    """Length of a UAV observation vector."""
    return 1 + 9 * cfg.k_cap + 2 + 2 * (cfg.num_uavs - 1)


def build_mu_observations(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    k_count = world.num_mus
    width = cfg.region_width
    uav_xy = (world.uav_positions / width).ravel()
    return np.concatenate([
        (np.arange(k_count) / max(cfg.num_mus, 1))[:, None],
        _scaled_tasks(world, cfg),
        np.broadcast_to(uav_xy, (k_count, uav_xy.size)),
        world.mu_positions / width,
    ], axis=1)                                                    # [K, L]


def uav_rosters(alloc: Allocation, cfg: ScenarioConfig) -> np.ndarray:
    """Each UAV's first k_cap served MU indices in ascending order, padded with
    -1 to the capacity: [M, k_cap]."""
    served = alloc.serving == np.arange(alloc.edge_cpu.shape[1])[:, None]   # [M, K]
    first = np.argsort(~served, axis=1, kind="stable")[:, : cfg.k_cap]
    rosters = np.where(np.arange(first.shape[1]) < served.sum(axis=1, keepdims=True),
                       first, -1)
    return np.pad(rosters, ((0, 0), (0, cfg.k_cap - first.shape[1])), constant_values=-1)


def build_uav_observations(world: WorldState, alloc: Allocation, mu_obs: np.ndarray,
                           rosters: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """`mu_obs` is `build_mu_observations(world, cfg)` and `rosters` is
    `uav_rosters(alloc, cfg)`."""
    width = cfg.region_width
    m_count = world.num_uavs
    # roster slot features per MU: position, task, offload and compression
    # choices; the appended zero row is the slot that roster index -1 picks
    slot_table = np.pad(np.concatenate([
        world.mu_positions / width,
        mu_obs[:, _MU_TASK_COLUMNS],
        alloc.offload_ratio[:, None],
        alloc.compress_ratio[:, None],
    ], axis=1), ((0, 1), (0, 0)))                                 # [K+1, 9]
    uav_xy = world.uav_positions / width                          # [M, 2]
    # row block m: every other UAV's position, in index order
    others = np.broadcast_to(uav_xy, (m_count, m_count, 2))[~np.eye(m_count, dtype=bool)]
    return np.concatenate([
        (np.arange(m_count) / max(cfg.num_uavs, 1))[:, None],
        slot_table[rosters].reshape(m_count, -1),
        uav_xy,
        others.reshape(m_count, -1),
    ], axis=1)                                                    # [M, L]
