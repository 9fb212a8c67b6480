"""Output checks of one episode: slot invariants and a bit-exact fingerprint."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from uav_iscc.env import INFINITE_DELAY

# latency fields that may hold the documented infinite-delay sentinel
_DELAY_FIELDS = ("t_local", "t_compress", "t_offload", "t_decompress",
                 "t_edge_compute", "t_edge_total", "latency")
_ENERGY_FIELDS = ("e_compress", "e_local", "e_offload", "e_mu", "e_edge_compute",
                  "e_decompress", "e_flight", "e_uav")
_FINITE_FIELDS = _ENERGY_FIELDS + ("p_flight", "rate", "radar_sinr", "radar_rate",
                                   "deadline", "boundary_overshoot")
# softmax CPU shares times the budget may exceed it by float rounding
_CPU_RTOL = 1e-12


def slot_violations(alloc, report, cfg) -> list[str]:
    """Invariants every slot must meet; returns what failed, empty if none."""
    bad = []
    for name in _DELAY_FIELDS:
        value = getattr(report, name)
        if not np.all(np.isfinite(value) | (value == INFINITE_DELAY)):
            bad.append(f"{name} not finite and not the infinite-delay sentinel")
    for name in _FINITE_FIELDS:
        if not np.all(np.isfinite(getattr(report, name))):
            bad.append(f"{name} not finite")
    pair = report.pair_distance
    if not np.all(np.isfinite(pair[~np.eye(pair.shape[0], dtype=bool)])):
        bad.append("pair_distance not finite off the diagonal")
    for name in _ENERGY_FIELDS:
        if np.any(getattr(report, name) < 0.0):
            bad.append(f"{name} negative")
    assoc = alloc.association
    if not np.all((assoc == 0.0) | (assoc == 1.0)) or np.any(assoc.sum(axis=1) > 1.0):
        bad.append("an MU has more than one association")
    cpu = alloc.edge_cpu
    if not np.all(np.isfinite(cpu)) or np.any(cpu < 0.0) or np.any(cpu[assoc == 0.0] != 0.0):
        bad.append("edge_cpu negative, not finite, or set where not associated")
    if np.any(cpu.sum(axis=0) > cfg.uav_cpu_max * (1.0 + _CPU_RTOL)):
        bad.append("a UAV's edge_cpu sums above uav_cpu_max")
    return bad


def fingerprint(values: dict) -> str:
    """Hash of the exact bits of every float in `values` (nested one level)."""
    flat = {}
    for key, value in values.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    exact = {k: float(v).hex() for k, v in sorted(flat.items())}
    return hashlib.sha256(json.dumps(exact).encode()).hexdigest()[:16]
