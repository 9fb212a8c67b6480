"""Per-agent observation vectors, min-max scaled into the unit interval.

MU agents see their own index, task, position, and every UAV position. UAV
agents see their index, a fixed-capacity roster of currently associated MUs
(position, task, offload and compression choices), their own position, and
the other UAVs' positions. Roster slots beyond the served count are zero
padded and flagged in the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..env.config import ScenarioConfig
from ..env.types import Allocation, WorldState


_TASK_FIELDS = ("data_bits", "compute_density", "compress_density", "compress_ratio", "deadline")
_task_values = attrgetter(*_TASK_FIELDS)


def _scaled_tasks(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """Every MU's task min-max scaled into [0, 1]: [K, 5].

    A field whose range has max <= min scales to 0.
    """
    tasks = np.array([_task_values(mu.task) for mu in world.mus]).reshape(-1, 5)
    lo = np.array([getattr(cfg, f"{name}_min") for name in _TASK_FIELDS])
    hi = np.array([getattr(cfg, f"{name}_max") for name in _TASK_FIELDS])
    ranged = hi > lo
    unit = np.clip((tasks - lo) / np.where(ranged, hi - lo, 1.0), 0.0, 1.0)
    return np.where(ranged, unit, 0.0)


@dataclass
class MuObservation:
    index: int
    vector: np.ndarray

    @staticmethod
    def length(cfg: ScenarioConfig) -> int:
        return 1 + 5 + 2 * cfg.num_uavs + 2


@dataclass
class UavObservation:
    index: int
    vector: np.ndarray
    roster: np.ndarray       # MU indices filling the roster slots, -1 when empty
    roster_mask: np.ndarray  # 1.0 where the slot is occupied

    @staticmethod
    def length(cfg: ScenarioConfig) -> int:
        return 1 + 9 * cfg.k_cap + 2 + 2 * (cfg.num_uavs - 1)


def build_mu_observations(world: WorldState, cfg: ScenarioConfig) -> list[MuObservation]:
    k_count = world.num_mus
    width = cfg.region_width
    uav_xy = (world.uav_positions() / width).ravel()
    vectors = np.concatenate([
        (np.arange(k_count) / max(cfg.num_mus, 1))[:, None],
        _scaled_tasks(world, cfg),
        np.broadcast_to(uav_xy, (k_count, uav_xy.size)),
        world.mu_positions() / width,
    ], axis=1)                                                    # [K, L]
    return [MuObservation(index=k, vector=vec) for k, vec in enumerate(vectors)]


def roster_of(alloc: Allocation, m: int, cfg: ScenarioConfig) -> np.ndarray:
    """Served MU indices in ascending order, padded with -1 to the capacity."""
    served = alloc.served_by(m)[: cfg.k_cap]
    roster = np.full(cfg.k_cap, -1, dtype=int)
    roster[: served.size] = served
    return roster


def build_uav_observations(world: WorldState, alloc: Allocation,
                           cfg: ScenarioConfig) -> list[UavObservation]:
    width = cfg.region_width
    m_count = world.num_uavs
    # roster slot features per MU: position, task, offload and compression
    # choices; the appended zero row is the slot that roster index -1 picks
    slot_table = np.pad(np.concatenate([
        world.mu_positions() / width,
        _scaled_tasks(world, cfg),
        alloc.offload_ratio[:, None],
        alloc.compress_ratio[:, None],
    ], axis=1), ((0, 1), (0, 0)))                                 # [K+1, 9]
    rosters = np.stack([roster_of(alloc, m, cfg) for m in range(m_count)])   # [M, cap]
    masks = (rosters >= 0).astype(np.float64)
    uav_xy = world.uav_positions() / width                                    # [M, 2]
    # row block m: every other UAV's position, in index order
    others = np.broadcast_to(uav_xy, (m_count, m_count, 2))[~np.eye(m_count, dtype=bool)]
    vectors = np.concatenate([
        (np.arange(m_count) / max(cfg.num_uavs, 1))[:, None],
        slot_table[rosters].reshape(m_count, -1),
        uav_xy,
        others.reshape(m_count, -1),
    ], axis=1)                                                    # [M, L]
    return [UavObservation(index=m, vector=vectors[m], roster=rosters[m], roster_mask=masks[m])
            for m in range(m_count)]


def build_observations(world: WorldState, alloc: Allocation,
                       cfg: ScenarioConfig) -> tuple[list[MuObservation], list[UavObservation]]:
    """Both agent families; UAV rosters reflect the slot's fresh associations."""
    return build_mu_observations(world, cfg), build_uav_observations(world, alloc, cfg)
