"""Heterogeneous multi-agent PPO: Beta-policy actors, one attention critic,
GAE, clipped-surrogate updates, and the training loop."""

from .buffer import RolloutBatch, TypeRollout
from .critics import CriticParams, critic_values_batch
from .gae import compute_gae
from .policies import (
    actor_forward,
    greedy_action,
    log_prob_entropy,
    sample_action,
)
from .ppo import UpdateAborted, actor_loss, critic_loss, normalize_advantages, ppo_update
from .trainer import (
    EvalResult,
    Trainer,
    TrainerConfig,
    TrainerFault,
    penalty_rates,
)

__all__ = [
    "CriticParams",
    "EvalResult",
    "RolloutBatch",
    "Trainer",
    "TrainerConfig",
    "TrainerFault",
    "TypeRollout",
    "UpdateAborted",
    "actor_forward",
    "actor_loss",
    "compute_gae",
    "critic_loss",
    "critic_values_batch",
    "greedy_action",
    "log_prob_entropy",
    "normalize_advantages",
    "penalty_rates",
    "ppo_update",
    "sample_action",
]
