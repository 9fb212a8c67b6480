"""Training loop: decentralized per-type actors, one centralized critic.

Each episode rolls the environment for the configured length with both agent
families acting in sequence (MUs choose associations and ratios first, UAVs
then split CPU and steer), values every agent with one pass of the shared
attention critic, and runs the PPO epochs on both types at once. Everything is
driven by named random streams spawned from one seed, so a (seed, config) pair
reproduces the run bit for bit at a fixed BLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..agents import (
    MuAction,
    UavAction,
    apply_uav_actions,
    build_allocation,
    build_mu_observations,
    build_uav_observations,
    mu_obs_dim,
    mu_reward,
    uav_obs_dim,
    uav_reward,
    uav_rosters,
)
from ..env import ScenarioConfig, reset_world, world_step
from ..env.config import ConfigError, check_fields
from ..numerics import AdamState, MlpParams, no_grad
from .buffer import RolloutBatch, TypeRollout
from .critics import CriticParams, critic_values_batch
from .gae import compute_gae
from .policies import greedy_action, sample_action
from .ppo import ppo_update


class TrainerFault(RuntimeError):
    """Environment failure during training; state was checkpointed if possible."""


# numeric faults of the simulated world; ValueError covers DomainError
_ENV_FAULTS = (np.linalg.LinAlgError, FloatingPointError, ValueError)

# 4: one critic (3: a critic per agent type; 2: float64; 1: per-head attention maps)
CHECKPOINT_VERSION = 4


@dataclass
class TrainerConfig:
    episodes: int = 300            # training episodes (Mte)
    episode_length: int = 200      # slots per episode (Epl)
    ppo_epochs: int = 10           # update passes per episode (Pec)
    minibatches: int = 4
    discount: float = 0.98
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    entropy_coef: float = 0.01
    lr: float = 5e-4               # Adam step size of every network
    grad_clip: float = 10.0
    hidden_sizes: tuple = (64, 128)
    feature_dim: int = 64
    attention_heads: int = 4
    seed: int = 0

    NON_NEGATIVE = ("episodes", "ppo_epochs", "gae_lambda", "entropy_coef", "seed")  # may be 0

    def validate(self) -> "TrainerConfig":
        check_fields(self, self.NON_NEGATIVE)
        for name in ("discount", "clip_ratio"):
            if getattr(self, name) >= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1)")
        if self.gae_lambda > 1.0:
            raise ConfigError("gae_lambda must lie in [0, 1]")
        sizes = self.hidden_sizes
        if not (isinstance(sizes, (tuple, list)) and sizes and all(
                type(width) is int and width >= 1 for width in sizes)):
            raise ConfigError(f"hidden_sizes must be a non-empty sequence of ints >= 1: {sizes!r}")
        if self.feature_dim % self.attention_heads:
            raise ConfigError("attention_heads must divide feature_dim")
        return self


@dataclass
class EvalResult:
    """Greedy-rollout summary. `episode_objectives` lists each episode's
    objective; every other entry but `first_episode` is the mean over the
    episodes of the `Trainer.episode_metrics` entry of the same name, taken
    per family for `penalty_rates`."""

    episode_objectives: list
    objective: float
    mu_energy: float
    uav_energy: float
    flight_energy: float
    mean_mu_reward: float
    mean_uav_reward: float
    violation_rate: float
    penalty_rates: dict
    first_episode: RolloutBatch    # reports, breakdowns and trajectory of episode 0


class Trainer:
    """Owns parameters, optimizer state, and the named random streams."""

    def __init__(self, config: TrainerConfig, scenario: ScenarioConfig):
        config.validate()
        scenario.validate()
        if scenario.num_mus < 1:
            raise ConfigError(f"num_mus must be >= 1 for training, got {scenario.num_mus}")
        self.config = config
        self.scenario = scenario
        seeds = np.random.SeedSequence(config.seed).spawn(4)
        self.init_rng = np.random.default_rng(seeds[0])
        self.env_rng = np.random.default_rng(seeds[1])
        self.action_rng = np.random.default_rng(seeds[2])
        self.update_rng = np.random.default_rng(seeds[3])

        cfg = scenario
        self.mu_obs_dim = mu_obs_dim(cfg)
        self.uav_obs_dim = uav_obs_dim(cfg)
        self.mu_act_dim = MuAction.dim(cfg)
        self.uav_act_dim = UavAction.dim(cfg)
        # an actor is its trunk: two raw outputs (the Beta shapes) per action dimension
        self.actors = {
            "mu": MlpParams.create([self.mu_obs_dim, *config.hidden_sizes, 2 * self.mu_act_dim],
                                   self.init_rng),
            "uav": MlpParams.create([self.uav_obs_dim, *config.hidden_sizes, 2 * self.uav_act_dim],
                                    self.init_rng),
        }
        # drawn after the actors, so the actors' parameters do not depend on the critic
        self.critic = CriticParams.create(
            self.mu_obs_dim + self.mu_act_dim, self.uav_obs_dim + self.uav_act_dim,
            config.feature_dim, config.attention_heads, config.hidden_sizes, self.init_rng)
        # one optimizer: each minibatch takes one Adam step over all three networks
        self.optimizer = AdamState(self.named_parameters().values(), lr=config.lr)

    # ------------------------------------------------------------------
    # rollouts
    # ------------------------------------------------------------------
    def collect_episode(self, greedy: bool = False,
                        env_rng: np.random.Generator | None = None) -> RolloutBatch:
        """Roll one episode. Each slot's world, allocation and acceleration
        commands go into `trajectory` as they are; none of them is changed
        after the UAVs have acted."""
        cfg = self.scenario
        t_len = self.config.episode_length
        env_rng = env_rng if env_rng is not None else self.env_rng
        world = reset_world(cfg, env_rng)
        mu = TypeRollout.empty(t_len, cfg.num_mus, self.mu_obs_dim, self.mu_act_dim)
        uav = TypeRollout.empty(t_len, cfg.num_uavs, self.uav_obs_dim, self.uav_act_dim)
        batch = RolloutBatch(mu=mu, uav=uav)

        for t in range(t_len):
            mu_obs = build_mu_observations(world, cfg)
            mu_unit, mu_logp = self._act("mu", mu_obs, greedy)
            alloc = build_allocation(MuAction.from_vector(mu_unit, cfg), cfg)
            rosters = uav_rosters(alloc, cfg)

            uav_obs = build_uav_observations(world, alloc, mu_obs, rosters, cfg)
            uav_unit, uav_logp = self._act("uav", uav_obs, greedy)
            alloc, accels = apply_uav_actions(alloc, rosters,
                                              UavAction.from_vector(uav_unit, cfg), cfg)

            next_world, report = world_step(world, alloc, accels, cfg, env_rng)
            mu_bd = mu_reward(report, alloc, cfg)
            uav_bd = uav_reward(report, next_world, alloc, cfg)

            mu.obs[t], mu.actions[t], mu.log_probs[t] = mu_obs, mu_unit, mu_logp
            uav.obs[t], uav.actions[t], uav.log_probs[t] = uav_obs, uav_unit, uav_logp
            mu.rewards[t] = mu_bd.reward
            uav.rewards[t] = uav_bd.reward
            batch.reports.append(report)
            batch.mu_breakdowns.append(mu_bd)
            batch.uav_breakdowns.append(uav_bd)
            batch.trajectory.append((world, alloc, accels))
            world = next_world
        return batch

    def _act(self, kind: str, obs: np.ndarray, greedy: bool) -> tuple[np.ndarray, np.ndarray]:
        """(unit actions, log-probs) of one agent type; greedy actions log 0."""
        if greedy:
            return greedy_action(self.actors[kind], obs), np.zeros(len(obs))
        return sample_action(self.actors[kind], obs, self.action_rng)

    # ------------------------------------------------------------------
    # value targets
    # ------------------------------------------------------------------
    def prepare_batch(self, batch: RolloutBatch) -> RolloutBatch:
        """Set the batch's float64 [T, K + M] values, targets and advantages,
        MUs first as the critic orders them, from one critic pass. The targets
        are one-step bootstraps r + γ·V(s'), with V = 0 after the last slot T;
        the advantages are GAE over the TD errors δ = target − V."""
        cfg = self.config
        with no_grad():
            values = critic_values_batch(self.critic, batch.mu.obs, batch.mu.actions,
                                         batch.uav.obs, batch.uav.actions)
        batch.values = values.data.astype(np.float64)
        rewards = np.hstack([batch.mu.rewards, batch.uav.rewards])
        next_values = np.vstack([batch.values[1:], np.zeros_like(batch.values[:1])])
        batch.targets = rewards + cfg.discount * next_values
        batch.advantages = compute_gae(batch.targets - batch.values, cfg.discount * cfg.gae_lambda)
        return batch

    # ------------------------------------------------------------------
    # training / evaluation
    # ------------------------------------------------------------------
    def train(self, fault_checkpoint=None) -> list[dict]:
        """Full loop; returns one metric record per episode.

        A numeric or linear-algebra fault of the rollout checkpoints the
        current parameters (when a path is given) and aborts with
        TrainerFault; any other exception is a programming error and
        propagates unchanged."""
        history = []
        for episode in range(self.config.episodes):
            try:
                batch = self.prepare_batch(self.collect_episode())
            except _ENV_FAULTS as exc:
                if fault_checkpoint is not None:
                    self.save_checkpoint(fault_checkpoint)
                raise TrainerFault(f"environment fault in episode {episode}: {exc}") from exc
            stats = ppo_update(self, batch)
            record = self.episode_metrics(episode, batch)
            record.update(stats)
            history.append(record)
        return history

    def episode_metrics(self, episode: int, batch: RolloutBatch) -> dict:
        """The episode's record: one JSON-serialisable dict, the JSONL line a
        run log writes per episode. `evaluate` reports the mean of these
        records and `train` adds the PPO stats to each.

        `objective` and the three energies (J) are summed over the slots; the
        mean rewards are over agent-slots of each type. `violation_rate` is the
        share of checks that failed, one deadline check per MU-slot and a
        radar, a safety and a boundary check per UAV-slot. `penalty_rates` maps
        each penalty family to the share of its agent-slots where it was active.
        """
        cfg = self.scenario
        reports = batch.reports
        failed = [flags for r in reports for flags in (
            ~r.deadline_met, ~r.radar_met, r.safety_violated, r.boundary_overshoot > 0)]
        return {
            "episode": episode,
            "objective": float(sum(r.objective(cfg.weight_factor) for r in reports)),
            "mu_energy": float(sum(r.e_mu.sum() for r in reports)),
            "uav_energy": float(sum(r.e_uav.sum() for r in reports)),
            "flight_energy": float(sum(r.e_flight.sum() for r in reports)),
            "mean_mu_reward": float(batch.mu.rewards.mean()),
            "mean_uav_reward": float(batch.uav.rewards.mean()),
            "violation_rate": float(np.mean(np.concatenate(failed))),
            "penalty_rates": penalty_rates(batch),
        }

    def evaluate(self, episodes: int = 1, seed: int | None = None) -> EvalResult:
        """Greedy rollouts on a dedicated environment stream, seeded by `seed`
        (default: the trainer seed + 10000), summarised by the mean of the
        episodes' `episode_metrics` records (see `EvalResult`)."""
        if episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {episodes}")
        env_rng = np.random.default_rng(
            self.config.seed + 10_000 if seed is None else seed)
        records = []
        for ep in range(episodes):
            batch = self.collect_episode(greedy=True, env_rng=env_rng)
            if ep == 0:
                first_episode = batch
            records.append(self.episode_metrics(ep, batch))

        def mean(values):
            return float(np.mean(list(values)))

        means = {name: mean(rec[name] for rec in records)
                 for name in records[0] if name not in ("episode", "penalty_rates")}
        return EvalResult(
            episode_objectives=[rec["objective"] for rec in records],
            penalty_rates={family: mean(rec["penalty_rates"][family] for rec in records)
                           for family in records[0]["penalty_rates"]},
            first_episode=first_episode, **means)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def networks(self) -> dict:
        """The trained networks by name: the two actors and the critic."""
        return {"mu_actor": self.actors["mu"], "uav_actor": self.actors["uav"],
                "critic": self.critic}

    def named_parameters(self) -> dict:
        return {f"{name}/{i}": p for name, net in self.networks().items()
                for i, p in enumerate(net.parameters())}

    def config_hash(self) -> str:
        payload = {"trainer": asdict(self.config), "scenario": asdict(self.scenario)}
        for config, values in zip((self.config, self.scenario), payload.values()):
            # a float field hashes as float(v), so region_width=1000 and 1000.0 hash alike
            values.update({f.name: float(values[f.name]) for f in fields(config) if f.type == "float"})
        text = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def save_checkpoint(self, path) -> None:
        arrays = {name: p.data for name, p in self.named_parameters().items()}
        # written beside `path`, then renamed onto it, so a failed write leaves the old file
        # whole; through a handle, since np.savez would append ".npz" to a path without it
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, __version__=np.array(CHECKPOINT_VERSION),
                         __config_hash__=np.array(self.config_hash()), **arrays)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load_checkpoint(self, path) -> None:
        params = self.named_parameters()
        with np.load(path, allow_pickle=False) as blob:
            for key in ("__version__", "__config_hash__"):
                if key not in blob.files:
                    raise ValueError(f"checkpoint lacks {key}")
            version = int(blob["__version__"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"checkpoint version {version} is not supported, "
                                 f"expected version {CHECKPOINT_VERSION}")
            stored = str(blob["__config_hash__"])
            if stored != self.config_hash():
                raise ValueError(
                    f"checkpoint config hash {stored} does not match trainer "
                    f"{self.config_hash()}")
            missing = [name for name in params if name not in blob.files]
            if missing:
                raise ValueError(f"checkpoint lacks tensors {missing}")
            loaded = {name: blob[name] for name in params}
        for name, p in params.items():
            if loaded[name].shape != p.data.shape:
                raise ValueError(f"checkpoint tensor {name} has shape {loaded[name].shape}, "
                                 f"expected {p.data.shape}")
            if loaded[name].dtype != p.data.dtype:
                raise ValueError(f"checkpoint tensor {name} has dtype {loaded[name].dtype}, "
                                 f"expected {p.data.dtype}")
        # every tensor was checked, so a failed load leaves the trainer as it was
        for name, p in params.items():
            p.data = loaded[name]


def penalty_rates(batch: RolloutBatch) -> dict:
    """Share of agent-slots where each penalty family was active (factor > 1);
    the latency family pools the MU and UAV agent-slots."""
    def share(factors):
        return float(np.mean(np.concatenate(factors) > 1.0))

    mu, uav = batch.mu_breakdowns, batch.uav_breakdowns
    return {
        "latency": share([bd.p_latency for bd in mu + uav]),
        "collision": share([bd.p_collision for bd in uav]),
        "boundary": share([bd.p_boundary for bd in uav]),
        "radar": share([bd.p_radar for bd in uav]),
    }
