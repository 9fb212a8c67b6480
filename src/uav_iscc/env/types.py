"""Value types describing one slot of the simulated network."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TaskSpec:
    """One computational task: size, densities, pre-compression ratio, deadline."""

    data_bits: float          # D, task size
    compute_density: float    # C, cycles per bit to execute
    compress_density: float   # J, cycles per bit to compress
    compress_ratio: float     # beta in (0, 1], size multiplier after compression
    deadline: float           # s, completion bound within the slot


@dataclass
class MuState:
    position: np.ndarray      # m, 2-vector in the service square
    speed: float              # m/s
    heading: float            # rad
    task: TaskSpec | None = None


@dataclass
class UavState:
    position: np.ndarray      # m, 2-vector (flight height is global)
    velocity: np.ndarray      # m/s, 2-vector
    acceleration: np.ndarray  # m/s^2, last applied command
    target_position: np.ndarray        # m, sensed ground target
    doppler_phase: complex             # unit-modulus residual Doppler gain
    clutter_gain: complex              # summed coupling from other UAVs
    decompress_density: float          # cycles/bit to decompress at the server


@dataclass
class Allocation:
    """Joint per-slot decision variables after decoding all agent actions."""

    association: np.ndarray   # {0,1}, [K, M], at most one 1 per row
    offload_ratio: np.ndarray     # rho in [0,1], [K]
    compress_ratio: np.ndarray    # eta in [0,1], [K]
    edge_cpu: np.ndarray          # f^e in Hz, [K, M], nonzero only where associated

    def served_by(self, m: int) -> np.ndarray:
        return np.flatnonzero(self.association[:, m] > 0)

    def serving_uav(self, k: int) -> int:
        row = np.flatnonzero(self.association[k] > 0)
        return int(row[0]) if row.size else -1


@dataclass
class SlotReport:
    """Every latency and energy component of one slot, plus violation flags."""

    # per-MU latencies (s)
    t_local: np.ndarray
    t_compress: np.ndarray
    t_offload: np.ndarray
    t_decompress: np.ndarray
    t_edge_compute: np.ndarray
    t_edge_total: np.ndarray      # offload + decompress + edge compute
    latency: np.ndarray           # compress + max(local, edge total)
    # per-MU energies (J)
    e_compress: np.ndarray
    e_local: np.ndarray
    e_offload: np.ndarray
    e_mu: np.ndarray
    # per-UAV energies (J) and power (W)
    e_edge_compute: np.ndarray
    e_decompress: np.ndarray
    e_flight: np.ndarray
    e_uav: np.ndarray
    p_flight: np.ndarray
    # radio outcomes
    rate: np.ndarray              # bits/s per MU toward its serving UAV (0 if local)
    radar_sinr: np.ndarray        # per UAV
    radar_rate: np.ndarray        # bps per UAV
    # flags / geometry for rewards
    deadline: np.ndarray          # s per MU, the bound that governed this slot
    deadline_met: np.ndarray      # bool per MU
    radar_met: np.ndarray         # bool per UAV
    boundary_overshoot: np.ndarray    # m per UAV, distance clipped away this slot
    pair_distance: np.ndarray         # m, [M, M] post-move UAV separations
    safety_violated: np.ndarray       # bool per UAV
    loading_applied: bool = False     # diagonal loading used in a matrix solve

    def objective(self, weight_factor: float) -> float:
        """Weighted network energy of this slot."""
        return float(weight_factor * self.e_uav.sum() + self.e_mu.sum())


@dataclass
class WorldState:
    """Everything that defines the network at the start of one slot."""

    slot: int
    mus: list                      # list[MuState]
    uavs: list                     # list[UavState]
    channels: np.ndarray | None = None   # complex [K, M, W_R, W_T], built per slot

    @property
    def num_mus(self) -> int:
        return len(self.mus)

    @property
    def num_uavs(self) -> int:
        return len(self.uavs)

    def mu_positions(self) -> np.ndarray:
        """[K, 2], also for K = 0."""
        return np.array([mu.position for mu in self.mus]).reshape(-1, 2)

    def uav_positions(self) -> np.ndarray:
        return np.stack([u.position for u in self.uavs])
