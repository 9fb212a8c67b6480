"""Episode construction and the one-slot world transition."""

from __future__ import annotations

import math

import numpy as np

from .compute import flight_power, mu_slot_outcome
from .config import ScenarioConfig
from .mobility import advance_kinematics, step_mobility
from .radio import build_all_channels, build_radar_state, design_links
from .types import Allocation, MuState, SlotReport, TaskSpec, UavState, WorldState


def dvfs_frequency(task: TaskSpec, cfg: ScenarioConfig) -> float:
    """CPU frequency the MU runs at: the least meeting the deadline, capped.

    min(f_max, D*C / T_max) keeps computation energy minimal under dynamic
    voltage-frequency scaling.
    """
    demand = task.data_bits * task.compute_density / task.deadline
    return min(cfg.mu_cpu_max, demand)


def draw_task(cfg: ScenarioConfig, rng: np.random.Generator) -> TaskSpec:
    return TaskSpec(
        data_bits=rng.uniform(cfg.data_bits_min, cfg.data_bits_max),
        compute_density=rng.uniform(cfg.compute_density_min, cfg.compute_density_max),
        compress_density=rng.uniform(cfg.compress_density_min, cfg.compress_density_max),
        compress_ratio=rng.uniform(cfg.compress_ratio_min, cfg.compress_ratio_max),
        deadline=rng.uniform(cfg.deadline_min, cfg.deadline_max),
    )


def reset_world(cfg: ScenarioConfig, rng: np.random.Generator,
                uav_positions: np.ndarray | None = None) -> WorldState:
    """Fresh episode: random placements, targets, couplings, and first tasks."""
    width = cfg.region_width
    mus = []
    for _ in range(cfg.num_mus):
        mus.append(MuState(
            position=rng.uniform(0.0, width, size=2),
            speed=cfg.mobility_mean_speed,
            heading=rng.uniform(-np.pi, np.pi),
            task=draw_task(cfg, rng),
        ))
    if uav_positions is None:
        uav_positions = rng.uniform(0.0, width, size=(cfg.num_uavs, 2))
    else:
        uav_positions = np.asarray(uav_positions, dtype=np.float64)
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
    return WorldState(slot=0, mus=mus, uavs=uavs)


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

    # task pipeline per MU
    zeros = np.zeros(k_count)
    rep = {name: zeros.copy() for name in (
        "t_local", "t_compress", "t_offload", "t_decompress", "t_edge_compute",
        "t_edge_total", "latency", "e_compress", "e_local", "e_offload", "e_mu",
        "rate")}
    deadlines = zeros.copy()
    e_edge_compute = np.zeros(m_count)
    e_decompress = np.zeros(m_count)
    for k in range(k_count):
        task = world.mus[k].task
        deadlines[k] = task.deadline
        serving = alloc.serving_uav(k)
        rho = float(alloc.offload_ratio[k]) if serving >= 0 else 0.0
        eta = float(alloc.compress_ratio[k]) if rho > 0.0 else 0.0
        f_edge = float(alloc.edge_cpu[k, serving]) if serving >= 0 else 0.0
        rate = rates.get(k, 0.0)
        j_dec = world.uavs[serving].decompress_density if serving >= 0 else 0.0
        out = mu_slot_outcome(task, rho, eta, dvfs_frequency(task, cfg), f_edge,
                              rate, cfg.mu_power_max, j_dec, cfg)
        for name in ("t_local", "t_compress", "t_offload", "t_decompress",
                     "t_edge_compute", "t_edge_total", "latency", "e_compress",
                     "e_local", "e_offload", "e_mu"):
            rep[name][k] = getattr(out, name)
        rep["rate"][k] = rate
        if serving >= 0:
            e_edge_compute[serving] += out.e_edge_compute
            e_decompress[serving] += out.e_decompress

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

    new_mus = []
    for mu in world.mus:
        stepped = step_mobility(mu, cfg, rng)
        stepped.task = draw_task(cfg, rng)
        new_mus.append(stepped)

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
        rate=rep["rate"],
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
    next_world = WorldState(slot=world.slot + 1, mus=new_mus, uavs=new_uavs,
                            channels=world.channels)
    return next_world, report
