"""Task latency pipeline and energy accounting for one slot.

A task of D bits splits at ratio rho between local execution and offloading;
an eta share of the offloaded part is compressed at ratio beta first, so the
transmitted volume is tau*D with tau = rho*(eta*beta + 1 - eta). Offloaded
work is decompressed and executed on the serving UAV.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .config import ScenarioConfig

INFINITE_DELAY = math.inf


class MuSlotOutcome(NamedTuple):
    """Latency and energy components of one MU's task in one slot.

    A tuple, so that a list of outcomes converts to a [K, 13] array at once."""

    t_local: float
    t_compress: float
    t_offload: float
    t_decompress: float
    t_edge_compute: float
    t_edge_total: float
    latency: float
    e_compress: float
    e_local: float
    e_offload: float
    e_mu: float
    # edge-side costs caused by this MU, booked to the serving UAV
    e_edge_compute: float
    e_decompress: float


def transmitted_fraction(rho: float, eta: float, beta: float) -> float:
    """tau = rho * (eta*beta + 1 - eta)."""
    return rho * (eta * beta + 1.0 - eta)


def _safe_div(num: float, den: float) -> float:
    if num <= 0.0:
        return 0.0
    if den <= 0.0:
        return INFINITE_DELAY
    return num / den


def mu_slot_outcome(task: Sequence[float], rho: float, eta: float, f_edge: float,
                    rate: float, decompress_density: float,
                    cfg: ScenarioConfig) -> MuSlotOutcome:
    """Delays and energies of one MU's split pipeline.

    `task` holds one task's five values in `TASK_FIELDS` order. The MU's CPU
    runs at f_mu = min(f_max, D*C/T), the least frequency for the whole task by
    its deadline T, raised one float at a time below f_max until the rounded
    D*C/f_mu meets T; it minimises the energy only at rho = 0. The uplink
    transmits at `mu_power_max`. A zero rate or zero edge share with pending
    work yields the infinite-delay sentinel. An infinite offload delay bills
    transmit energy for the slot only; the latency sentinel already triggers
    the deadline penalty.
    """
    d, c, j, beta, deadline = task
    f_mu = min(cfg.mu_cpu_max, d * c / deadline)
    while 0.0 < f_mu < cfg.mu_cpu_max and d * c / f_mu > deadline:
        f_mu = math.nextafter(f_mu, math.inf)
    t_local = _safe_div((1.0 - rho) * d * c, f_mu)
    t_compress = _safe_div(rho * eta * d * j, f_mu)
    t_offload = _safe_div(transmitted_fraction(rho, eta, beta) * d, rate)
    t_decompress = _safe_div(rho * eta * d * decompress_density, f_edge)
    t_edge_compute = _safe_div(rho * d * c, f_edge)
    t_edge_total = t_offload + t_decompress + t_edge_compute
    f2 = f_mu * f_mu
    e_compress = cfg.kappa_mu * rho * eta * d * j * f2
    e_local = cfg.kappa_mu * (1.0 - rho) * d * c * f2
    tx_time = t_offload if math.isfinite(t_offload) else cfg.slot_seconds
    e_offload = tx_time * cfg.mu_power_max
    fe2 = f_edge * f_edge
    # positional, in field order: cheaper per call than keywords
    return MuSlotOutcome(
        t_local, t_compress, t_offload, t_decompress, t_edge_compute, t_edge_total,
        t_compress + max(t_local, t_edge_total),                       # latency
        e_compress, e_local, e_offload,
        e_compress + e_local + e_offload,                              # e_mu
        cfg.kappa_uav * fe2 * rho * d * c,                             # e_edge_compute
        cfg.kappa_uav * fe2 * rho * eta * d * decompress_density,      # e_decompress
    )


def flight_power(speed: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Rotary-wing propulsion power at each speed: blade profile + parasite +
    induced terms (Zeng, Xu & Zhang, IEEE TWC 2019).

    The induced term is P_i * sqrt(sqrt(1 + v^4 / (4 v0^4)) - v^2 / (2 v0^2)),
    which falls from P_i at hover toward P_i * v0 / v for v >> v0, so the total
    has its minimum at a cruising speed, not at hover.
    """
    v2 = speed * speed
    blade = cfg.blade_power * (1.0 + 3.0 * v2 / (cfg.tip_speed ** 2))
    parasite = 0.5 * cfg.fuselage_drag * cfg.air_density * cfg.rotor_solidity \
        * cfg.rotor_area * speed ** 3
    v0_2 = cfg.rotor_velocity ** 2
    inner = np.sqrt(1.0 + v2 * v2 / (4.0 * v0_2 * v0_2)) - v2 / (2.0 * v0_2)
    induced = cfg.induced_power * np.sqrt(np.maximum(inner, 0.0))
    return blade + parasite + induced
