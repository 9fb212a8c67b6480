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


def critic_loss(critic, batch: RolloutBatch, kind: str, idx: np.ndarray,
                targets: np.ndarray) -> Tensor:
    values = critic_values_batch(critic, batch.mu.obs[idx], batch.mu.actions[idx],
                                 batch.uav.obs[idx], batch.uav.actions[idx], kind)
    diff = values - targets
    return (diff * diff).mean()


def ppo_update(trainer, batch: RolloutBatch) -> dict:
    """Run the configured epochs of minibatch updates; returns mean statistics.

    Minibatches are drawn over time steps so the attention critics always see
    the complete agent set of each included step. Advantages are normalized
    per minibatch. Each minibatch computes the four losses (MU and UAV actor
    and critic) on the same parameters, runs one backward on their sum, clips
    each network's gradient on its own and takes one Adam step; the networks
    share no parameter, so this equals four separate updates. A non-finite
    loss aborts with diagnostics before any gradient is taken, so an aborted
    minibatch moves no parameter and leaves no gradient behind.
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
    """One update of all four networks on the time steps `idx`; returns its statistics."""
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
        c_loss = critic_loss(trainer.critics[kind], batch, kind, idx, roll.targets[idx])
        if not np.isfinite(c_loss.data):
            raise UpdateAborted(f"non-finite {kind} critic loss", {
                "kind": kind, "loss": float(c_loss.data)})
        losses += [a_loss, c_loss]
        a_stats.update(actor_loss=float(a_loss.data), critic_loss=float(c_loss.data))
        stats.update({f"{kind}_{name}": value for name, value in a_stats.items()})
    sum(losses[1:], losses[0]).backward()
    for kind in ("mu", "uav"):
        clip_grad_norm(trainer.actors[kind].parameters(), cfg.grad_clip)
        clip_grad_norm(trainer.critics[kind].parameters(), cfg.grad_clip)
    adam_step(trainer.optimizer)
    return stats
