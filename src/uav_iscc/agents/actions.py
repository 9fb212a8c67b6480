"""Decoding raw policy outputs into environment decisions.

All raw action entries live in the open unit interval (the policies' native
support); only this module maps them onto physical ranges. MU agents emit M+1
association scores (slot 0 means stay local) plus offload and compression
ratios; UAV agents emit one CPU-share logit per roster slot plus a planar
acceleration command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..env.config import ScenarioConfig
from ..env.mobility import clip_norm
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
        """`vec` is one float64 row of unit actions; `scores` is a view of it."""
        m = cfg.num_uavs
        return cls(vec[: m + 1], vec.item(m + 1), vec.item(m + 2))   # in field order


@dataclass
class UavAction:
    """Every UAV's raw action, one row per UAV."""

    share_logits: np.ndarray  # [M, k_cap] values in (0, 1)
    acceleration: np.ndarray  # [M, 2] values in (0, 1) before the affine map

    @staticmethod
    def dim(cfg: ScenarioConfig) -> int:
        return cfg.k_cap + 2

    @classmethod
    def from_vector(cls, vecs: np.ndarray, cfg: ScenarioConfig) -> "UavAction":
        """Split the [M, dim] raw actions into the two fields."""
        cap = cfg.k_cap
        vecs = np.asarray(vecs, dtype=np.float64)
        return cls(share_logits=vecs[:, :cap], acceleration=vecs[:, cap:cap + 2])


def decode_mu_action(raw: MuAction, cfg: ScenarioConfig) -> tuple[int, float, float]:
    """Pick the association (argmax, lowest index on ties; -1 = stay local)
    and pass the offload and compression ratios through, clamped to [0, 1]."""
    choice = int(raw.scores.argmax()) - 1
    rho = min(max(raw.offload_ratio, 0.0), 1.0)
    eta = min(max(raw.compress_ratio, 0.0), 1.0)
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
    return Allocation(serving=np.array(serving, dtype=int), offload_ratio=np.array(rho),
                      compress_ratio=np.array(eta), edge_cpu=np.zeros((k, m)))


def apply_uav_actions(alloc: Allocation, rosters: np.ndarray, raw: UavAction,
                      cfg: ScenarioConfig) -> tuple[Allocation, np.ndarray]:
    """Fill the allocation's edge CPU matrix and return the [M, 2] acceleration
    commands. `rosters` is `uav_rosters(alloc, cfg)`.

    Each UAV's CPU shares are the softmax of its occupied roster slots' logits
    times its CPU budget, so the capacity constraint holds with equality
    whenever the roster is non-empty; its denominator sums the occupied slots
    in roster order. The acceleration maps (0,1)^2 affinely onto the +-a_max
    square, then norm-projects onto the a_max disc.
    """
    occupied = rosters >= 0                                       # [M, k_cap]
    count = occupied.sum(axis=1)
    logits = np.where(occupied, raw.share_logits, -np.inf)
    peak = np.where(count > 0, logits.max(axis=1), 0.0)
    e = np.exp(logits - peak[:, None])                            # 0 where unoccupied
    # the occupied slots are a prefix of each roster
    total = np.cumsum(e, axis=1)[np.arange(len(count)), np.maximum(count - 1, 0)]
    shares = cfg.uav_cpu_max * e / np.where(count > 0, total, 1.0)[:, None]
    uav, slot = np.nonzero(occupied)
    alloc.edge_cpu[rosters[uav, slot], uav] = shares[uav, slot]
    accel = (2.0 * np.clip(raw.acceleration, 0.0, 1.0) - 1.0) * cfg.uav_a_max
    return alloc, clip_norm(accel, cfg.uav_a_max)
