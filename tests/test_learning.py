"""Toy learning problems with a known answer: each checks that an update moves a
policy the way its advantages say, which no fixed-number golden trace can."""

import numpy as np
import pytest

from uav_iscc.env import ScenarioConfig
from uav_iscc.mappo import Trainer, TrainerConfig, log_prob_entropy, ppo_update
from uav_iscc.numerics import no_grad


def stored_log_prob(trainer, batch, kind, t, j) -> float:
    """Current log-density of agent `j`'s stored action at slot `t`."""
    roll = batch.of(kind)
    with no_grad():
        logp, _ = log_prob_entropy(trainer.actors[kind], roll.obs[t, j], roll.actions[t, j])
    return float(logp.data)


@pytest.mark.parametrize("kind", ["mu", "uav"])
def test_ppo_step_raises_the_one_positive_advantage_action(kind):
    # one minibatch, one epoch, no entropy bonus: a single Adam step whose only
    # positive (normalised) advantage is one stored action must make it likelier
    k, m = 6, 3
    for t, j in ((1, 2), (3, 0), (5, 1)):
        tcfg = TrainerConfig(episodes=1, episode_length=6, ppo_epochs=1, minibatches=1,
                             entropy_coef=0.0, hidden_sizes=(8, 12), feature_dim=8,
                             attention_heads=2, seed=0)
        trainer = Trainer(tcfg, ScenarioConfig(num_mus=k, num_uavs=m))
        batch = trainer.prepare_batch(trainer.collect_episode())
        batch.advantages = np.zeros_like(batch.advantages)
        batch.advantages[t, j if kind == "mu" else k + j] = 1.0
        before = stored_log_prob(trainer, batch, kind, t, j)
        ppo_update(trainer, batch)
        assert stored_log_prob(trainer, batch, kind, t, j) > before, (t, j)
