"""Episode construction and the one-slot world transition."""

from __future__ import annotations

import math

import numpy as np

from .compute import MuSlotOutcome, flight_power, mu_slot_outcome
from .config import ScenarioConfig
from .mobility import advance_kinematics, step_mobility
from .radio import build_all_channels, build_radar_state, design_links
from .types import TASK_FIELDS, Allocation, SlotReport, UavState, WorldState


def dvfs_frequency(tasks: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """CPU frequency each MU runs at: the least meeting the deadline, capped.

    min(f_max, D*C / T_max) keeps computation energy minimal under dynamic
    voltage-frequency scaling. `tasks` is [K, 5] in TASK_FIELDS order.
    """
    demand = tasks[:, 0] * tasks[:, 1] / tasks[:, 4]
    return np.minimum(cfg.mu_cpu_max, demand)


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
    uav_positions = rng.uniform(0.0, width, size=(cfg.num_uavs, 2))
    targets = rng.uniform(0.0, width, size=(cfg.num_uavs, 2))
    doppler = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=cfg.num_uavs))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.num_uavs, cfg.num_uavs))
    decomp = rng.uniform(cfg.decompress_density_min, cfg.decompress_density_max,
                         size=cfg.num_uavs)
    uavs = []
    for m in range(cfg.num_uavs):
        clutter = 0.0 + 0.0j
        for i in range(cfg.num_uavs):
            if i == m:
                continue
            d2 = float(np.sum((uav_positions[m] - uav_positions[i]) ** 2))
            d2 = max(d2, cfg.safety_distance ** 2)  # co-located spawn guard
            clutter += math.sqrt(cfg.ref_gain / d2) * np.exp(1j * phases[m, i])
        uavs.append(UavState(
            position=uav_positions[m].copy(),
            velocity=np.zeros(2),
            acceleration=np.zeros(2),
            target_position=targets[m],
            doppler_phase=complex(doppler[m]),
            clutter_gain=complex(clutter),
            decompress_density=float(decomp[m]),
        ))
    return WorldState(slot=0, mu_positions=mu_draws[:, :2].copy(),
                      mu_speeds=np.full(k_count, cfg.mobility_mean_speed),
                      mu_headings=mu_draws[:, 2].copy(), tasks=mu_draws[:, 3:].copy(),
                      uavs=uavs)


def world_step(world: WorldState, alloc: Allocation, accel_cmds: np.ndarray,
               cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[WorldState, SlotReport]:
    """Run one slot and return (next world, full report).

    Physics (channels, rates, sensing, task pipeline) uses the slot-start
    geometry the agents observed; kinematics and mobility then advance the
    world, and the report's geometric fields describe the post-move layout.
    """
    k_count, m_count = world.num_mus, world.num_uavs
    world.channels = build_all_channels(world, cfg, rng) if k_count else None

    radars = []
    loading = False
    for uav in world.uavs:
        state, loaded = build_radar_state(uav, cfg)
        radars.append(state)
        loading = loading or loaded
    rates, loaded = (design_links(world, alloc, radars, cfg) if k_count else ({}, False))
    loading = loading or loaded

    # task pipeline: one call per MU on Python floats, then one array per field
    serving = alloc.serving
    served = serving >= 0
    rho = np.where(served, alloc.offload_ratio, 0.0)
    eta = np.where(rho > 0.0, alloc.compress_ratio, 0.0)
    f_edge = np.where(served, alloc.edge_cpu[np.arange(k_count), serving], 0.0)
    rate = np.zeros(k_count)
    rate[list(rates)] = list(rates.values())
    decomp = np.array([u.decompress_density for u in world.uavs])
    j_dec = np.where(served, decomp[serving], 0.0)
    rows = np.column_stack([world.tasks, rho, eta, dvfs_frequency(world.tasks, cfg),
                            f_edge, rate, j_dec]).tolist()
    outs = [mu_slot_outcome(task, rho_k, eta_k, f_mu, f_edge_k, rate_k, cfg.mu_power_max,
                            j_dec_k, cfg)
            for *task, rho_k, eta_k, f_mu, f_edge_k, rate_k, j_dec_k in rows]
    rep = dict(zip(MuSlotOutcome._fields,
                   np.array(outs).reshape(k_count, len(MuSlotOutcome._fields)).T.copy()))
    # per-UAV sums accumulate in MU order
    e_edge_compute = np.zeros(m_count)
    e_decompress = np.zeros(m_count)
    np.add.at(e_edge_compute, serving[served], rep["e_edge_compute"][served])
    np.add.at(e_decompress, serving[served], rep["e_decompress"][served])
    deadlines = world.tasks[:, 4].copy()

    # flight energy at the speed flown during this slot, then move
    p_fly = np.array([flight_power(float(np.linalg.norm(u.velocity)), cfg)
                      for u in world.uavs])
    e_flight = p_fly * cfg.slot_seconds

    new_uavs = []
    overshoot = np.zeros(m_count)
    accel_cmds = np.asarray(accel_cmds, dtype=np.float64).reshape(m_count, 2)
    for m, uav in enumerate(world.uavs):
        moved, over = advance_kinematics(uav, accel_cmds[m], cfg)
        new_uavs.append(moved)
        overshoot[m] = over

    # every MU's mobility innovations, then every MU's next task
    positions, speeds, headings = step_mobility(world.mu_positions, world.mu_speeds,
                                                world.mu_headings, cfg, rng)
    tasks = draw_task(cfg, rng, k_count)

    pos = np.stack([u.position for u in new_uavs]) if m_count else np.zeros((0, 2))
    diff = pos[:, None, :] - pos[None, :, :]
    pair = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(pair, np.inf)
    safety = pair.min(axis=1) < cfg.safety_distance if m_count else np.zeros(0, bool)

    radar_rates = np.array([r.rate for r in radars])
    report = SlotReport(
        t_local=rep["t_local"], t_compress=rep["t_compress"],
        t_offload=rep["t_offload"], t_decompress=rep["t_decompress"],
        t_edge_compute=rep["t_edge_compute"], t_edge_total=rep["t_edge_total"],
        latency=rep["latency"],
        e_compress=rep["e_compress"], e_local=rep["e_local"],
        e_offload=rep["e_offload"], e_mu=rep["e_mu"],
        e_edge_compute=e_edge_compute, e_decompress=e_decompress,
        e_flight=e_flight, e_uav=e_flight + e_edge_compute + e_decompress,
        p_flight=p_fly,
        rate=rate,
        radar_sinr=np.array([r.sinr for r in radars]),
        radar_rate=radar_rates,
        deadline=deadlines,
        deadline_met=rep["latency"] <= deadlines,
        radar_met=radar_rates >= cfg.radar_rate_min,
        boundary_overshoot=overshoot,
        pair_distance=pair,
        safety_violated=safety,
        loading_applied=loading,
    )
    next_world = WorldState(slot=world.slot + 1, mu_positions=positions, mu_speeds=speeds,
                            mu_headings=headings, tasks=tasks, uavs=new_uavs,
                            channels=world.channels)
    return next_world, report
