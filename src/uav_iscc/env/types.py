"""Value types describing one slot of the simulated network."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Columns of `WorldState.tasks`, one computational task per MU:
# D, task size (bits); C, cycles per bit to execute; J, cycles per bit to
# compress; beta in (0, 1], size multiplier after compression; deadline (s),
# the completion bound within the slot.
TASK_FIELDS = ("data_bits", "compute_density", "compress_density", "compress_ratio",
               "deadline")


@dataclass
class Allocation:
    """Joint per-slot decision variables after decoding all agent actions."""

    serving: np.ndarray           # int [K], the associated UAV, -1 for a local MU
    offload_ratio: np.ndarray     # rho in [0,1], [K]
    compress_ratio: np.ndarray    # eta in [0,1], [K]
    edge_cpu: np.ndarray          # f^e in Hz, [K, M], nonzero only where associated

    @property
    def association(self) -> np.ndarray:
        """{0,1} [K, M]: row k is one-hot at `serving[k]`, all zero for a local MU."""
        return (self.serving[:, None] == np.arange(self.edge_cpu.shape[1])).astype(float)


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
    loading_applied: bool = False     # diagonal loading used in the uplink combiner solve

    def objective(self, weight_factor: float) -> float:
        """Weighted network energy of this slot."""
        return float(weight_factor * self.e_uav.sum() + self.e_mu.sum())


@dataclass
class WorldState:
    """Everything that defines the network at the start of one slot.

    The MUs and the UAVs are stored as arrays with one row per agent."""

    slot: int
    mu_positions: np.ndarray       # m, [K, 2] in the service square
    mu_speeds: np.ndarray          # m/s, [K]
    mu_headings: np.ndarray        # rad, [K]
    tasks: np.ndarray              # [K, 5], columns in TASK_FIELDS order
    uav_positions: np.ndarray      # m, [M, 2] (flight height is global)
    uav_velocities: np.ndarray     # m/s, [M, 2]
    uav_targets: np.ndarray        # m, [M, 2], each UAV's sensed ground target
    uav_doppler: np.ndarray        # complex [M], unit-modulus residual Doppler gain
    uav_clutter: np.ndarray        # complex [M], summed coupling from the other UAVs
    uav_decompress: np.ndarray     # cycles/bit [M] to decompress at the server

    @property
    def num_mus(self) -> int:
        return self.mu_positions.shape[0]

    @property
    def num_uavs(self) -> int:
        return self.uav_positions.shape[0]
