"""Workloads and the measurement loop of the benchmark.

One process runs one workload. It measures set-up in fresh interpreters, runs
a reference episode on a fresh trainer (this also warms caches and lazy
set-up), then runs measured episodes on a second fresh trainer of the same
seed until the time budget is spent. Episode 0 of the measured trainer must
reproduce the reference fingerprint bit for bit, and every slot of every
episode must meet the invariants in `checks`. A traced run alternates
untraced and traced episodes, so the tracing overhead is measured in the
same process.

Times are process CPU time at a reference machine speed. The machine this
was built on is shared. Its hypervisor takes the CPU away in bursts (steal
reached 12% of a core), which wall time counts and CPU time does not; and
the CPU runs up to 1.5x slower in phases lasting from a second to a minute,
which moves CPU time too. A run is one thread (BLAS on one thread) and does
no I/O while it measures, so its CPU time is its work. To take out the
phases, a fixed calibration loop of interpreter and small-array work, which
touches no uav_iscc code, is timed alongside (`calibration`): a full unit
just before and after each timed set-up, and a 1/100 unit at the start of
every rollout slot and before every Adam step, outside the intervals
measured. Each time is scaled by CAL_REF_S over the calibration time around
it. Unscaled times are printed on the lines before the JSON result.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import numpy as np

from calibration import CAL_ITERATIONS, CAL_REF_S, SHORT_ITERATIONS, unit
from checks import fingerprint, slot_violations
from spans import EVAL, LAYER_WRAPS, TRAIN, Tracer, patch
from uav_iscc.env import ScenarioConfig
from uav_iscc.mappo import Trainer, TrainerConfig, ppo_update

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Seed kept out of tuning; a perf change re-checks its claim on it.
HELD_OUT_SEED = 9001

SLOT_CAL_REACH_S = 0.1        # short calibrations this close to a piece's middle rate it


@dataclass(frozen=True)
class Workload:
    """Scenario and trainer settings of one workload (others at defaults:
    Beta policy, attention critic)."""

    mode: str                 # TRAIN: collect + prepare_batch + ppo_update; EVAL: evaluate
    num_mus: int
    num_uavs: int
    episode_length: int
    ppo_epochs: int = 10
    minibatches: int = 4
    policy_seed: int | None = None  # fixed parameter init; None: the run seed

    def scenario(self) -> dict:
        return {"num_mus": self.num_mus, "num_uavs": self.num_uavs}

    def trainer(self, seed: int) -> dict:
        return {"episode_length": self.episode_length, "ppo_epochs": self.ppo_epochs,
                "minibatches": self.minibatches,
                "seed": seed if self.policy_seed is None else self.policy_seed}


WORKLOADS = {
    # the paper's default training episode; the PPO update dominates
    "train-25x5": Workload(TRAIN, 25, 5, 200),
    # greedy evaluation at width: env and observations only, no graph or backward;
    # one fixed policy, since the untrained policy's association pattern sets
    # how much link design a slot needs; the run seed draws the environments
    "eval-100x10": Workload(EVAL, 100, 10, 200, policy_seed=0),
    # short training episode at the largest width; attention over 420 agents
    "train-400x20": Workload(TRAIN, 400, 20, 20, ppo_epochs=2),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "episode_s": "s",
    "rollout_slot_ms": "ms",
    "peak_rss_mb": "MB",
}

# uav_iscc's third-party imports load untimed: the set-up measured is the
# repository's own import and construction, rated by calibrations in the
# same process just before and after it.
_SETUP_CODE = """
import json, sys
sys.path[:0] = [sys.argv[2], sys.argv[3]]
import numpy, scipy.special
from time import process_time
from calibration import calibrate
before = calibrate()
start = process_time()
from uav_iscc.env import ScenarioConfig
from uav_iscc.mappo import Trainer, TrainerConfig
scenario, trainer = json.loads(sys.argv[1])
Trainer(TrainerConfig(**trainer), ScenarioConfig(**scenario))
took = process_time() - start
print(took, before, calibrate())
"""


def measure_setup(w: Workload, seed: int, samples: int) -> tuple[float, float]:
    """CPU seconds to import uav_iscc and construct the workload's Trainer in
    fresh interpreters: (median at the reference speed, raw median)."""
    arg = json.dumps([w.scenario(), w.trainer(seed)])
    raw, scaled = [], []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, arg, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=120, check=True)
        took, before, after = map(float, done.stdout.split())
        raw.append(took)
        scaled.append(took * CAL_REF_S / (0.5 * (before + after)))
    return median(scaled), median(raw)


def make_trainer(w: Workload, seed: int) -> Trainer:
    return Trainer(TrainerConfig(**w.trainer(seed)), ScenarioConfig(**w.scenario()))


class EpisodeProbe:
    """What one episode records besides its own timing: a short calibration
    at the start of every rollout slot and before every Adam step, and each
    slot's (allocation, report).

    Installed inside any tracer, so its calibrations land in no layer's span
    but in the benchmark's own `mappo.trainer` and `mappo.ppo` spans; they are
    taken out of those and of every interval reported."""

    def __init__(self):
        self.cal: list[tuple[float, float]] = []   # (start, end) of each calibration
        self.slot_cal: list[int] = []              # the calibration opening each slot
        self.slots: list = []

    def _calibrate(self) -> None:
        before = process_time()
        unit(SHORT_ITERATIONS)
        self.cal.append((before, process_time()))

    @contextmanager
    def installed(self):
        def stamp(fn):
            def stamped(*args, **kwargs):
                self.slot_cal.append(len(self.cal))
                self._calibrate()
                return fn(*args, **kwargs)
            return stamped

        def capture(fn):
            def captured(world, alloc, *args, **kwargs):
                out = fn(world, alloc, *args, **kwargs)
                self.slots.append((alloc, out[1]))
                return out
            return captured

        def rate(fn):
            def rated(*args, **kwargs):
                self._calibrate()
                return fn(*args, **kwargs)
            return rated

        trainer = "uav_iscc.mappo.trainer"
        restore = [patch(trainer, "build_mu_observations", stamp),
                   patch(trainer, "world_step", capture),
                   patch("uav_iscc.mappo.ppo", "adam_step", rate)]
        try:
            yield self
        finally:
            for undo in reversed(restore):
                undo()

    def calibration_seconds(self, start: float, end: float) -> float:
        return sum(b - a for a, b in self.cal if start <= a and b <= end)

    def at_reference(self, start: float, end: float) -> float:
        """CPU seconds from `start` to `end` at the reference speed. The
        calibrations inside split the interval into pieces and are left out;
        each piece is rated by the median of the calibrations that bracket it
        and any others taken within SLOT_CAL_REACH_S of its middle, since the
        machine's speed changes within a second."""
        begins = np.array([a for a, _ in self.cal])
        ends = np.array([b for _, b in self.cal])
        took = ends - begins
        inside = (begins >= start) & (ends <= end)
        total = 0.0
        for lo, hi in zip([start, *ends[inside]], [*begins[inside], end]):
            near = np.abs(begins - 0.5 * (lo + hi)) <= SLOT_CAL_REACH_S
            before, after = np.flatnonzero(ends <= lo), np.flatnonzero(begins >= hi)
            near[before[-1:]] = near[after[:1]] = True
            total += (hi - lo) * CAL_REF_S * SHORT_ITERATIONS / CAL_ITERATIONS \
                / float(np.median(took[near]))
        return total

    def slot_ms(self) -> list[float]:
        """Slot times in ms at the reference speed. A slot runs from its
        calibration to the next slot's, so the last slot is left out."""
        return [1e3 * self.at_reference(self.cal[i][1], self.cal[j][0])
                for i, j in zip(self.slot_cal, self.slot_cal[1:])]


@dataclass
class Episode:
    seconds: float                 # wall time, checks included: paces the run
    rollout_ref: float             # at the reference speed, calibrations left out
    update_ref: float              # prepare_batch + ppo_update, likewise
    scale: float                   # reference over raw CPU time, calibrations left out
    slot_ms: list                  # at the reference speed
    fingerprint: str
    traced: bool
    problems: list = field(default_factory=list)

    @property
    def seconds_ref(self) -> float:
        return self.rollout_ref + self.update_ref


def run_episode(trainer: Trainer, w: Workload, seed: int, index: int,
                tracer: Tracer | None = None) -> Episode:
    span = tracer.span if tracer is not None else nullcontext
    probe = EpisodeProbe()
    wall = perf_counter()
    with probe.installed():
        start = process_time()
        with span("mappo.trainer"):
            if w.mode == EVAL:
                result = trainer.evaluate(episodes=1, seed=seed * 1000 + index)
                rolled = updated = process_time()
                values = {name: getattr(result, name) for name in (
                    "objective", "mu_energy", "uav_energy", "flight_energy",
                    "mean_mu_reward", "mean_uav_reward", "violation_rate",
                    "penalty_rates")}
            else:
                batch = trainer.collect_episode()
                rolled = process_time()
                trainer.prepare_batch(batch)
                with span("mappo.ppo"):
                    stats = ppo_update(trainer, batch)
                updated = process_time()
                values = {**trainer.episode_metrics(index, batch), **stats}
    rollout_cal = probe.calibration_seconds(start, rolled)
    update_cal = probe.calibration_seconds(rolled, updated)
    if tracer is not None:
        tracer.self_s["mappo.trainer"] -= rollout_cal
        tracer.self_s["mappo.ppo"] -= update_cal
    rollout_ref, update_ref = probe.at_reference(start, rolled), probe.at_reference(rolled, updated)
    problems = sorted({bad for alloc, report in probe.slots
                       for bad in slot_violations(alloc, report, trainer.scenario)})
    return Episode(
        seconds=perf_counter() - wall, rollout_ref=rollout_ref, update_ref=update_ref,
        scale=(rollout_ref + update_ref) / (updated - start - rollout_cal - update_cal),
        slot_ms=probe.slot_ms(), fingerprint=fingerprint(values),
        traced=tracer is not None, problems=problems)


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int
    failed: int
    metrics: dict                  # name -> (value, unit)
    notes: list                    # human-readable lines: sample counts, checks
    guard: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.guard


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workload: Workload | None = None, setup_samples: int = 5,
                 wraps=LAYER_WRAPS) -> Result:
    """Measure one workload; `workload` overrides the named one's settings."""
    w = workload or WORKLOADS[name]
    setup_s, setup_raw = measure_setup(w, seed, setup_samples)
    tracer = Tracer(wraps) if trace else None
    attempted = failed = 0
    notes = []
    episodes: list[Episode] = []

    def attempt(trainer, index, traced):
        nonlocal attempted, failed
        attempted += 1
        try:
            with tracer.installed() if traced else nullcontext():
                ep = run_episode(trainer, w, seed, index, tracer if traced else None)
        except Exception:
            traceback.print_exc()
            failed += 1
            return None
        if ep.problems:
            failed += 1
            notes.append(f"episode {index}: invariant violated: {'; '.join(ep.problems)}")
        return ep

    reference = attempt(make_trainer(w, seed), 0, False)
    trainer = make_trainer(w, seed)
    start = perf_counter()
    index = 0
    while True:
        ep = attempt(trainer, index, trace and index % 2 == 1)
        if index == 0:
            same = ep is not None and reference is not None \
                and ep.fingerprint == reference.fingerprint
            notes.append(f"fingerprint episode 0: {ep.fingerprint if ep else None} "
                         f"{'reproduced' if same else 'NOT reproduced'}")
            if ep is not None and not same:
                failed += 1
        if ep is not None:
            episodes.append(ep)
        index += 1
        typical = median(e.seconds for e in episodes) if episodes else 0.0
        if index >= (2 if trace else 1) and perf_counter() - start + typical > seconds:
            break

    plain = [e for e in episodes if not e.traced]
    traced = [e for e in episodes if e.traced]
    if not plain or (trace and not traced):
        raise RuntimeError(f"no episode of {name} completed; see the tracebacks above")
    slot_ms = [s for e in plain for s in e.slot_ms]
    notes.append(f"samples: {setup_samples} set-ups, {len(plain)} untraced and "
                 f"{len(traced)} traced episodes, {len(slot_ms)} untraced slots")
    notes.append(f"fail_share {failed / attempted:.4f} ({failed} of {attempted} episodes)")
    notes.append(f"update_s {median(e.update_ref for e in plain):.6f} s"
                 + ("" if w.mode == TRAIN else " (evaluation runs no update)"))
    notes.append(f"rollout_slot_ms_p95 {np.percentile(slot_ms, 95):.6f} ms "
                 f"(of {len(slot_ms)} slots)")
    notes.append(f"unscaled: setup_s {setup_raw:.6f} s CPU, episode "
                 f"{median(e.seconds for e in plain):.6f} s wall; speed scale "
                 f"{min(e.scale for e in episodes):.4f}..{max(e.scale for e in episodes):.4f}")
    if trace:
        scale = median(e.scale for e in traced)
        for (parent, layer), (calls, total) in sorted(tracer.edges.items(),
                                                      key=lambda kv: -kv[1][1]):
            notes.append(f"span {parent or '-'} > {layer}: {calls} calls, "
                         f"{total * scale / len(traced):.6f} s per episode")
        metrics = layer_metrics(tracer, plain, traced, scale)
        guard = tracer.guard(w.mode)
    else:
        metrics = {
            "setup_s": setup_s,
            "episode_s": median(e.seconds_ref for e in plain),
            "rollout_slot_ms": float(np.median(slot_ms)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        guard = []
    return Result(workload=name, seed=seed, attempted=attempted, failed=failed,
                  metrics=metrics, notes=notes, guard=guard)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, plain: list, traced: list, scale: float) -> dict:
    """Per-layer metrics of the traced episodes: env and agents layers in ms per
    rollout slot, training layers in s per episode, boundary ratios as shares.
    Span times are scaled to the reference speed by the run's `scale`."""
    slots = tracer.counts["slots"]
    n = len(traced)

    def per_slot_ms(layer):
        return (_share(tracer.self_s[layer] * scale, slots) * 1e3, "ms/slot")

    def per_episode_s(layer):
        return (tracer.self_s[layer] * scale / n, "s/episode")

    c = tracer.counts
    plain_slot = median(s for e in plain for s in e.slot_ms)
    traced_slot = median(s for e in traced for s in e.slot_ms)
    return {
        "env.radio.links_ms": per_slot_ms("env.radio.links"),
        "env.radio.links_per_slot": (_share(c["links"], slots), "count/slot"),
        "env.radio.channels_ms": per_slot_ms("env.radio.channels"),
        "env.radio.radar_ms": per_slot_ms("env.radio.radar"),
        "env.compute.pipeline_ms": per_slot_ms("env.compute.pipeline"),
        "env.mobility.move_ms": per_slot_ms("env.mobility.move"),
        "env.world.self_ms": per_slot_ms("env.world"),
        "agents.observations.build_ms": per_slot_ms("agents.observations"),
        "agents.actions.decode_ms": per_slot_ms("agents.actions"),
        "agents.rewards.reward_ms": per_slot_ms("agents.rewards"),
        "mappo.policies.act_ms": per_slot_ms("mappo.policies.act"),
        "mappo.critics.prep_s": per_episode_s("mappo.critics.prep"),
        "mappo.critics.update_fwd_s": per_episode_s("mappo.critics.update_fwd"),
        "mappo.policies.logp_s": per_episode_s("mappo.policies.logp"),
        "mappo.gae.s": per_episode_s("mappo.gae"),
        "mappo.ppo.self_s": per_episode_s("mappo.ppo"),
        "mappo.trainer.self_s": per_episode_s("mappo.trainer"),
        "mappo.update_s": (median(e.update_ref for e in plain), "s/episode"),
        "numerics.tensor.backward_s": per_episode_s("numerics.tensor.backward"),
        "numerics.tensor.backward_calls": (
            tracer.layer_calls["numerics.tensor.backward"] / n, "count/episode"),
        "numerics.optim.adam_s": per_episode_s("numerics.optim.adam"),
        "numerics.optim.clip_s": per_episode_s("numerics.optim.clip"),
        "env.radio.loading_share": (_share(c["loading_slots"], slots), "ratio"),
        "env.compute.inf_delay_share": (_share(c["inf_delay"], c["mu_outcomes"]), "ratio"),
        "agents.actions.served_share": (_share(c["served"], c["alloc_mus"]), "ratio"),
        "agents.actions.demoted_share": (_share(c["demoted"], c["alloc_mus"]), "ratio"),
        "numerics.optim.clip_share": (_share(c["clipped"], c["clip_calls"]), "ratio"),
        "trace.overhead": (median(e.seconds_ref for e in traced)
                           / median(e.seconds_ref for e in plain), "ratio"),
        "trace.rollout_overhead": (traced_slot / plain_slot, "ratio"),
    }
