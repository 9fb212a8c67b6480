"""Decoding raw policy outputs into environment decisions.

All raw action entries live in the open unit interval (the policies' native
support). MU agents emit M+1 association scores (slot 0 means stay local)
plus offload and compression ratios; UAV agents emit one CPU-share logit per
roster slot plus a planar acceleration command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..env.config import ScenarioConfig
from ..env.types import Allocation


@dataclass
class MuAction:
    scores: np.ndarray        # M+1 association scores in (0, 1)
    offload_ratio: float
    compress_ratio: float

    @staticmethod
    def dim(cfg: ScenarioConfig) -> int:
        return cfg.num_uavs + 1 + 2

    @classmethod
    def from_vector(cls, vec: np.ndarray, cfg: ScenarioConfig) -> "MuAction":
        m = cfg.num_uavs
        return cls(scores=np.asarray(vec[: m + 1], dtype=np.float64),
                   offload_ratio=float(vec[m + 1]), compress_ratio=float(vec[m + 2]))


@dataclass
class UavAction:
    share_logits: np.ndarray  # k_cap values in (0, 1)
    acceleration: np.ndarray  # 2 values in (0, 1) before the affine map

    @staticmethod
    def dim(cfg: ScenarioConfig) -> int:
        return cfg.k_cap + 2

    @classmethod
    def from_vector(cls, vec: np.ndarray, cfg: ScenarioConfig) -> "UavAction":
        cap = cfg.k_cap
        return cls(share_logits=np.asarray(vec[:cap], dtype=np.float64),
                   acceleration=np.asarray(vec[cap:cap + 2], dtype=np.float64))


def decode_mu_action(raw: MuAction, cfg: ScenarioConfig) -> tuple[int, float, float]:
    """Pick the association (argmax, lowest index on ties; -1 = stay local)
    and pass the ratios through, clamped to [0, 1], honoring the ablation
    switches."""
    choice = int(raw.scores.argmax()) - 1
    rho = min(max(raw.offload_ratio, 0.0), 1.0) if cfg.computation_enabled else 0.0
    eta = min(max(raw.compress_ratio, 0.0), 1.0) if cfg.compression_enabled else 0.0
    return choice, rho, eta


def build_allocation(mu_actions: list[MuAction], cfg: ScenarioConfig) -> Allocation:
    """Joint association from all MU decisions with roster capacity enforced.

    A UAV accepts at most k_cap MUs (lowest indices win); the surplus is
    demoted to local execution so every accepted MU can receive a CPU share.
    """
    k = len(mu_actions)
    m = cfg.num_uavs
    cap = cfg.k_cap
    counts = [0] * m
    serving, rho, eta = [-1] * k, [0.0] * k, [0.0] * k
    for i, raw in enumerate(mu_actions):
        choice, r, e = decode_mu_action(raw, cfg)
        if choice >= 0 and counts[choice] < cap:
            counts[choice] += 1
            serving[i], rho[i], eta[i] = choice, r, e
    serving = np.array(serving, dtype=int)
    association = np.zeros((k, m))
    rows = np.flatnonzero(serving >= 0)
    association[rows, serving[rows]] = 1.0
    return Allocation(association=association, serving=serving, offload_ratio=np.array(rho),
                      compress_ratio=np.array(eta), edge_cpu=np.zeros((k, m)))


def decode_uav_action(raw: UavAction, roster: np.ndarray,
                      cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """CPU shares over the occupied roster slots and the acceleration command.

    Shares are the softmax of the occupied slots' logits times the UAV's CPU
    budget, so the capacity constraint holds with equality whenever the
    roster is non-empty. The acceleration maps (0,1)^2 affinely onto the
    +-a_max square, then norm-projects onto the a_max disc.
    """
    occupied = roster >= 0
    shares = np.zeros(len(roster))
    if np.any(occupied):
        logits = raw.share_logits[occupied]
        e = np.exp(logits - logits.max())
        shares[occupied] = cfg.uav_cpu_max * e / e.sum()
    accel = (2.0 * np.clip(raw.acceleration, 0.0, 1.0) - 1.0) * cfg.uav_a_max
    norm = float(np.linalg.norm(accel))
    if norm > cfg.uav_a_max:
        accel = accel * (cfg.uav_a_max / norm)
    return shares, accel


def apply_uav_actions(alloc: Allocation, rosters: np.ndarray, uav_actions: list[UavAction],
                      cfg: ScenarioConfig) -> tuple[Allocation, np.ndarray]:
    """Fill the allocation's edge CPU matrix and collect acceleration commands.

    `rosters` is `uav_rosters(alloc, cfg)`."""
    accels = np.zeros((cfg.num_uavs, 2))
    for m, (raw, roster) in enumerate(zip(uav_actions, rosters)):
        shares, accel = decode_uav_action(raw, roster, cfg)
        accels[m] = accel
        for slot, k in enumerate(roster):
            if k >= 0:
                alloc.edge_cpu[k, m] = shares[slot]
    return alloc, accels
