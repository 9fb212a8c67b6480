"""Fixed-seed golden traces of two scenarios.

`golden_trace.json` runs 6 MUs and 3 UAVs (roster capacity 4, 2 PPO epochs);
`golden_trace_40x4.json` runs 40 MUs and 4 UAVs (roster capacity 20, 1 PPO
epoch), so rounding that acts only on rosters of 8 or more slots shows too.
Both use T=5 and seed 3. Every float is compared through `float.hex`, so any
change in the order of floating-point operations shows. Each trace has three
parts:

- "rollout": per-slot SlotReport field sums and the full allocation of the
  first training episode of a fresh trainer;
- "evaluate": the greedy `Trainer.evaluate` summary of that fresh trainer;
- "update": the `ppo_update` statistics of that episode and the objective of
  the episode collected after the update.

Regenerate with `PYTHONPATH=src python tests/test_golden.py --write` only for a
deliberate numeric change, and record the reason in CHANGES.md. Before it
writes each trace, `--write` prints every value of it that moved as
`key: old -> new` in hex, with the decimal values after it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import uav_iscc.mappo.trainer as trainer_module
from uav_iscc.env import ScenarioConfig
from uav_iscc.mappo import Trainer, TrainerConfig, ppo_update

GOLDEN = Path(__file__).with_name("golden_trace.json")
GOLDEN_AT_SCALE = Path(__file__).with_name("golden_trace_40x4.json")
# (MUs, UAVs, PPO epochs) of each trace
SCENARIOS = {GOLDEN: (6, 3, 2), GOLDEN_AT_SCALE: (40, 4, 1)}


def _hex(value) -> str:
    return float(value).hex()


def _hex_array(values) -> list:
    return [_hex(v) for v in np.asarray(values, dtype=np.float64).ravel()]


def golden_trace(path: Path = GOLDEN) -> dict:
    num_mus, num_uavs, ppo_epochs = SCENARIOS[path]
    scenario = ScenarioConfig(num_mus=num_mus, num_uavs=num_uavs).validate()
    config = TrainerConfig(episodes=2, episode_length=5, ppo_epochs=ppo_epochs, seed=3)
    trainer = Trainer(config, scenario)

    ev = trainer.evaluate(episodes=1, seed=11)
    evaluate = {
        "episode_objectives": _hex_array(ev.episode_objectives),
        "objective": _hex(ev.objective),
        "mu_energy": _hex(ev.mu_energy),
        "uav_energy": _hex(ev.uav_energy),
        "flight_energy": _hex(ev.flight_energy),
        "mean_mu_reward": _hex(ev.mean_mu_reward),
        "mean_uav_reward": _hex(ev.mean_uav_reward),
        "violation_rate": _hex(ev.violation_rate),
        "penalty_rates": {k: _hex(v) for k, v in sorted(ev.penalty_rates.items())},
    }

    rollout = []
    world_step = trainer_module.world_step

    def recording_step(world, alloc, *args, **kwargs):
        out = world_step(world, alloc, *args, **kwargs)
        report = out[1]
        rollout.append({
            "allocation": {name: _hex_array(getattr(alloc, name)) for name in (
                "association", "offload_ratio", "compress_ratio", "edge_cpu")},
            "report": {f.name: _hex(np.sum(getattr(report, f.name))) for f in fields(report)},
        })
        return out

    trainer_module.world_step = recording_step
    try:
        batch = trainer.collect_episode()
    finally:
        trainer_module.world_step = world_step

    stats = ppo_update(trainer, trainer.prepare_batch(batch))
    next_batch = trainer.collect_episode()
    objective = sum(r.objective(scenario.weight_factor) for r in next_batch.reports)
    update = {
        "ppo_stats": {k: _hex(v) for k, v in sorted(stats.items())},
        "episode1_objective": _hex(objective),
    }
    return {"rollout": rollout, "evaluate": evaluate, "update": update}


@pytest.fixture(scope="module")
def traces():
    return golden_trace(GOLDEN), json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def traces_at_scale():
    return golden_trace(GOLDEN_AT_SCALE), json.loads(GOLDEN_AT_SCALE.read_text())


@pytest.mark.parametrize("part", ["rollout", "evaluate", "update"])
def test_matches_golden(traces, part):
    got, want = traces
    assert got[part] == want[part]


@pytest.mark.parametrize("part", ["rollout", "evaluate", "update"])
def test_matches_golden_at_scale(traces_at_scale, part):
    got, want = traces_at_scale
    assert got[part] == want[part]


def test_scale_trace_fills_rosters_of_eight_or_more(traces_at_scale):
    got, _ = traces_at_scale
    num_mus, num_uavs, _ = SCENARIOS[GOLDEN_AT_SCALE]
    occupied = [np.array([float.fromhex(v) for v in slot["allocation"]["association"]])
                .reshape(num_mus, num_uavs).sum(axis=0).max() for slot in got["rollout"]]
    assert max(occupied) >= 8


def test_moved_values_names_each_changed_leaf():
    old = {"a": {"x": "0x1.0000000000000p+0", "y": ["0x1.0000000000000p+1",
                                                    "0x1.8000000000000p+1"]}}
    new = {"a": {"x": "0x1.0000000000000p+0", "y": ["0x1.0000000000000p+1",
                                                    "0x1.0000000000000p+2"]}}
    assert moved_values(old, new) == \
        ["a.y.1: 0x1.8000000000000p+1 -> 0x1.0000000000000p+2  (3.0 4.0)"]
    assert moved_values(old, old) == []


def flatten(trace, prefix: str = "") -> dict:
    """{dotted key: hex string} of every leaf of a trace; list items are keyed by index."""
    if isinstance(trace, dict):
        items = trace.items()
    elif isinstance(trace, list):
        items = enumerate(trace)
    else:
        return {prefix: trace}
    flat = {}
    for key, value in items:
        flat.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return flat


def moved_values(old: dict, new: dict) -> list[str]:
    """One line per leaf that differs between two traces, in key order."""
    before, after = flatten(old), flatten(new)
    lines = []
    for key in sorted(before.keys() | after.keys()):
        was, now = before.get(key), after.get(key)
        if was != now:
            decimal = " ".join("-" if v is None else repr(float.fromhex(v)) for v in (was, now))
            lines.append(f"{key}: {was} -> {now}  ({decimal})")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for path in SCENARIOS:
        trace = golden_trace(path)
        old = json.loads(path.read_text()) if path.exists() else {}
        moved = moved_values(old, trace)
        print(f"{path.name}:")
        for line in moved:
            print(line)
        print(f"{len(moved)} of {len(flatten(trace))} values moved")
        path.write_text(json.dumps(trace, indent=1, sort_keys=True) + "\n")
