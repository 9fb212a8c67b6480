"""Episode construction and the one-slot world transition."""

from __future__ import annotations

from dataclasses import replace
from itertools import chain

import numpy as np

from .compute import MuSlotOutcome, flight_power, mu_slot_outcome
from .config import ScenarioConfig
from .mobility import advance_kinematics, step_mobility
from .radio import build_all_channels, build_radar_state, design_links, row_norm
from .types import TASK_FIELDS, Allocation, SlotReport, WorldState


def task_bounds(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of the task fields' uniform ranges, in TASK_FIELDS order."""
    return (np.array([getattr(cfg, f"{name}_min") for name in TASK_FIELDS]),
            np.array([getattr(cfg, f"{name}_max") for name in TASK_FIELDS]))


def draw_task(cfg: ScenarioConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Fresh tasks for `count` MUs: [count, 5] in TASK_FIELDS order, drawn row by row."""
    lo, hi = task_bounds(cfg)
    return rng.uniform(lo, hi, size=(count, len(TASK_FIELDS)))


def reset_world(cfg: ScenarioConfig, rng: np.random.Generator) -> WorldState:
    """Fresh episode: random placements, targets, couplings, and first tasks.

    Each MU draws its position, heading and task as one row of uniforms.
    """
    width = cfg.region_width
    k_count = cfg.num_mus
    task_lo, task_hi = task_bounds(cfg)
    mu_draws = rng.uniform(np.concatenate([[0.0, 0.0, -np.pi], task_lo]),
                           np.concatenate([[width, width, np.pi], task_hi]),
                           size=(k_count, 3 + len(TASK_FIELDS)))
    m_count = cfg.num_uavs
    uav_positions = rng.uniform(0.0, width, size=(m_count, 2))
    targets = rng.uniform(0.0, width, size=(m_count, 2))
    doppler = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m_count))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(m_count, m_count))
    decomp = rng.uniform(cfg.decompress_density_min, cfg.decompress_density_max,
                         size=m_count)
    return WorldState(slot=0, mu_positions=mu_draws[:, :2].copy(),
                      mu_speeds=np.full(k_count, cfg.mobility_mean_speed),
                      mu_headings=mu_draws[:, 2].copy(), tasks=mu_draws[:, 3:].copy(),
                      uav_positions=uav_positions, uav_velocities=np.zeros((m_count, 2)),
                      uav_targets=targets, uav_doppler=doppler,
                      uav_clutter=uav_clutter(uav_positions, phases, cfg),
                      uav_decompress=decomp)


def uav_clutter(positions: np.ndarray, phases: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Summed coupling at each UAV from all the others: complex [M].

    UAV i adds sqrt(ref_gain / d^2) e^(j phases[m, i]) at UAV m, with the
    distance d floored at the safety distance (the co-located spawn guard).
    Each UAV's terms are summed in ascending index order.
    """
    diff = positions[:, None, :] - positions[None, :, :]
    d2 = np.maximum(np.sum(diff * diff, axis=-1), cfg.safety_distance ** 2)
    terms = np.sqrt(cfg.ref_gain / d2) * np.exp(1j * phases)
    np.fill_diagonal(terms, 0.0)
    return np.cumsum(terms, axis=1)[:, -1]


def world_step(world: WorldState, alloc: Allocation, accel_cmds: np.ndarray,
               cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[WorldState, SlotReport]:
    """Run one slot and return (next world, full report).

    Physics (channels, rates, sensing, task pipeline) uses the slot-start
    geometry the agents observed; kinematics and mobility then advance the
    world, and the report's geometric fields describe the post-move layout.
    """
    k_count, m_count = world.num_mus, world.num_uavs
    serving = alloc.serving
    served = serving >= 0
    # channels only between the served MUs and the UAVs that receive them
    mus = np.flatnonzero(served)
    receivers = np.flatnonzero(np.bincount(serving[mus], minlength=m_count))
    channels = build_all_channels(world, mus, receivers, cfg, rng)
    radar_sinr, radar_rates, leakage = build_radar_state(world, cfg)
    links, link_rates = design_links(channels, alloc, leakage, cfg)

    # task pipeline: one call per MU on Python floats, then one array per field
    rho = np.where(served, alloc.offload_ratio, 0.0)
    eta = np.where(rho > 0.0, alloc.compress_ratio, 0.0)
    f_edge = np.where(served, alloc.edge_cpu[np.arange(k_count), serving], 0.0)
    rate = np.zeros(k_count)
    rate[links] = link_rates
    j_dec = np.where(served, world.uav_decompress[serving], 0.0)
    outs = [mu_slot_outcome(task, rho_k, eta_k, f_edge_k, rate_k, j_dec_k, cfg)
            for task, rho_k, eta_k, f_edge_k, rate_k, j_dec_k in zip(
                world.tasks.tolist(), rho.tolist(), eta.tolist(), f_edge.tolist(),
                rate.tolist(), j_dec.tolist())]
    n_fields = len(MuSlotOutcome._fields)
    per_mu = dict(zip(MuSlotOutcome._fields, np.fromiter(
        chain.from_iterable(outs), float, k_count * n_fields).reshape(k_count, n_fields).T.copy()))
    # the edge-side costs are booked to the serving UAV, in MU order
    e_edge_compute = np.zeros(m_count)
    e_decompress = np.zeros(m_count)
    np.add.at(e_edge_compute, serving[served], per_mu.pop("e_edge_compute")[served])
    np.add.at(e_decompress, serving[served], per_mu.pop("e_decompress")[served])
    deadlines = world.tasks[:, 4].copy()

    # flight energy at the speed flown during this slot, then move
    p_fly = flight_power(row_norm(world.uav_velocities), cfg)
    e_flight = p_fly * cfg.slot_seconds
    uav_positions, uav_velocities, overshoot = advance_kinematics(
        world.uav_positions, world.uav_velocities, accel_cmds, cfg)

    # every MU's mobility innovations, then every MU's next task
    positions, speeds, headings = step_mobility(world.mu_positions, world.mu_speeds,
                                                world.mu_headings, cfg, rng)
    tasks = draw_task(cfg, rng, k_count)

    diff = uav_positions[:, None, :] - uav_positions[None, :, :]
    pair = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(pair, np.inf)
    report = SlotReport(
        **per_mu,
        e_edge_compute=e_edge_compute, e_decompress=e_decompress,
        e_flight=e_flight, e_uav=e_flight + e_edge_compute + e_decompress,
        p_flight=p_fly,
        rate=rate,
        radar_sinr=radar_sinr,
        radar_rate=radar_rates,
        deadline=deadlines,
        deadline_met=per_mu["latency"] <= deadlines,
        radar_met=radar_rates >= cfg.radar_rate_min,
        boundary_overshoot=overshoot,
        pair_distance=pair,
        safety_violated=pair.min(axis=1) < cfg.safety_distance,
    )
    # the fields not named here hold for the whole episode
    next_world = replace(world, slot=world.slot + 1, mu_positions=positions, mu_speeds=speeds,
                         mu_headings=headings, tasks=tasks, uav_positions=uav_positions,
                         uav_velocities=uav_velocities)
    return next_world, report
