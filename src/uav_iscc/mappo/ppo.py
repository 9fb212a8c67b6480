"""Clipped-surrogate PPO updates for both agent types."""

from __future__ import annotations

import numpy as np

from ..numerics import Tensor, adam_step, clip_grad_norm
from .buffer import RolloutBatch
from .critics import critic_values_batch
from .policies import log_prob_entropy


class UpdateAborted(RuntimeError):
    """A non-finite loss interrupted the update; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    std = adv.std()
    return (adv - adv.mean()) / (std + 1e-8)


def actor_loss(actor, obs_mb, act_mb, logp_old, adv_norm, clip_ratio: float,
               entropy_coef: float) -> tuple[Tensor, dict]:
    """-(mean(min(ratio*A, clip(ratio)*A)) + entropy bonus)."""
    logp_new, entropy = log_prob_entropy(actor, Tensor(obs_mb), act_mb)
    ratio = (logp_new - logp_old).exp()
    surr = (ratio * adv_norm).minimum(ratio.clip(1.0 - clip_ratio, 1.0 + clip_ratio) * adv_norm)
    loss = -(surr.mean() + entropy_coef * entropy.mean())
    stats = {
        "entropy": float(entropy.data.mean()),
        "clip_fraction": float(np.mean(np.abs(ratio.data - 1.0) > clip_ratio)),
        "approx_kl": float(np.mean(logp_old - logp_new.data)),
    }
    return loss, stats


def critic_loss(critic, batch: RolloutBatch, idx: np.ndarray) -> tuple[Tensor, Tensor]:
    """(MU, UAV) mean squared value errors of one critic forward over the steps `idx`."""
    values = critic_values_batch(critic, batch.mu.obs[idx], batch.mu.actions[idx],
                                 batch.uav.obs[idx], batch.uav.actions[idx])
    diff = values - np.concatenate([batch.mu.targets[idx], batch.uav.targets[idx]], axis=1)
    squared, k = diff * diff, batch.mu.obs.shape[1]
    return squared[:, :k].mean(), squared[:, k:].mean()


def ppo_update(trainer, batch: RolloutBatch) -> dict:
    """Run the configured epochs of minibatch updates; returns mean statistics.

    Minibatches are drawn over time steps so the attention critic always sees
    the complete agent set of each included step. Advantages are normalized
    per minibatch. Each minibatch computes the MU and UAV actor losses and the
    critic loss, the sum of the two types' value errors from one critic
    forward, on the same parameters. It runs one backward on their sum, clips
    each of the three networks' gradient on its own and takes one Adam step.
    A non-finite loss aborts with diagnostics before any gradient is taken, so
    an aborted minibatch moves no parameter and leaves no gradient behind.
    Besides the losses, the statistics hold each network's mean pre-clip
    gradient norm and `clip_share`, the share of (network, minibatch) pairs
    whose norm exceeded `grad_clip`.
    """
    cfg = trainer.config
    t_len = batch.length
    stats: dict[str, list] = {}
    for _ in range(cfg.ppo_epochs):
        perm = trainer.update_rng.permutation(t_len)
        for idx in np.array_split(perm, min(cfg.minibatches, t_len)):
            for name, value in _minibatch_step(trainer, batch, idx).items():
                stats.setdefault(name, []).append(value)
    return {name: float(np.mean(vals)) for name, vals in stats.items()}


def _minibatch_step(trainer, batch: RolloutBatch, idx: np.ndarray) -> dict:
    """One update of all three networks on the time steps `idx`; returns its statistics."""
    cfg = trainer.config
    losses, stats = [], {}
    for kind in ("mu", "uav"):
        roll = batch.of(kind)
        a_loss, a_stats = actor_loss(
            trainer.actors[kind], roll.obs[idx], roll.actions[idx], roll.log_probs[idx],
            normalize_advantages(roll.advantages[idx]), cfg.clip_ratio, cfg.entropy_coef)
        if not np.isfinite(a_loss.data):
            raise UpdateAborted(f"non-finite {kind} actor loss", {
                "kind": kind, "loss": float(a_loss.data),
                "logp_old": roll.log_probs[idx].tolist()})
        losses.append(a_loss)
        a_stats["actor_loss"] = float(a_loss.data)
        stats.update({f"{kind}_{name}": value for name, value in a_stats.items()})
    for kind, c_loss in zip(("mu", "uav"), critic_loss(trainer.critic, batch, idx)):
        if not np.isfinite(c_loss.data):
            raise UpdateAborted(f"non-finite {kind} critic loss", {
                "kind": kind, "loss": float(c_loss.data)})
        losses.append(c_loss)
        stats[f"{kind}_critic_loss"] = float(c_loss.data)
    sum(losses[1:], losses[0]).backward()
    norms = {name: clip_grad_norm(net.parameters(), cfg.grad_clip)
             for name, net in trainer.networks().items()}
    adam_step(trainer.optimizer)
    stats.update({f"{name}_grad_norm": norm for name, norm in norms.items()})
    stats["clip_share"] = float(np.mean([norm > cfg.grad_clip for norm in norms.values()]))
    return stats
