"""PPO update mechanics on synthetic batches."""

import numpy as np
import pytest

from uav_iscc.env import ScenarioConfig
from uav_iscc.mappo import (
    Trainer,
    TrainerConfig,
    actor_loss,
    critic_loss,
    critic_values_batch,
    log_prob_entropy,
    normalize_advantages,
    ppo_update,
)
from uav_iscc.numerics import AdamState, Tensor, adam_step, clip_grad_norm, no_grad


def tiny_trainer(seed=0, num_mus=3, num_uavs=2, episode_length=8, hidden_sizes=(8, 12)):
    cfg = TrainerConfig(episodes=1, episode_length=episode_length, ppo_epochs=2,
                        minibatches=2, hidden_sizes=hidden_sizes, feature_dim=8,
                        attention_heads=2, seed=seed)
    scenario = ScenarioConfig(num_mus=num_mus, num_uavs=num_uavs).validate()
    return Trainer(cfg, scenario)


@pytest.mark.parametrize("num_mus, num_uavs, episode_length, hidden_sizes", [
    (3, 2, 8, (8, 12)),
    # wide and short at the default widths: an update forward that folded the
    # slots into one [T*K, n] GEMM rounds some rows differently from the
    # rollout's [K, n] GEMM here, so this case fails on that design
    (128, 8, 4, (64, 128)),
], ids=["3x2", "128x8"])
def test_ratio_identity_after_collection(num_mus, num_uavs, episode_length, hidden_sizes):
    # sampling and the update evaluate one density, so before any step the
    # stored and recomputed log-probs agree bit for bit and every ratio is 1
    trainer = tiny_trainer(num_mus=num_mus, num_uavs=num_uavs,
                           episode_length=episode_length, hidden_sizes=hidden_sizes)
    batch = trainer.prepare_batch(trainer.collect_episode())
    for kind, cols in (("mu", slice(0, num_mus)), ("uav", slice(num_mus, None))):
        roll = batch.of(kind)
        logp_new, _ = log_prob_entropy(trainer.actors[kind], Tensor(roll.obs), roll.actions)
        assert np.array_equal(logp_new.data, roll.log_probs)
        _, stats = actor_loss(trainer.actors[kind], roll.obs, roll.actions,
                              roll.log_probs, normalize_advantages(batch.advantages[:, cols]),
                              0.2, 0.0)
        assert stats["approx_kl"] == 0.0 and stats["clip_fraction"] == 0.0


def test_clip_saturation_blocks_policy_gradient():
    trainer = tiny_trainer(seed=1)
    actor = trainer.actors["mu"]
    rng = np.random.default_rng(2)
    obs = rng.uniform(0, 1, size=(6, trainer.mu_obs_dim))
    act = rng.uniform(0.2, 0.8, size=(6, trainer.mu_act_dim))
    logp_now, _ = log_prob_entropy(actor, Tensor(obs), act)
    # pretend the stored policy scored these actions much lower: ratio >> 1+clip
    logp_old = logp_now.data - 1.0
    adv = np.ones(6)
    loss, stats = actor_loss(actor, obs, act, logp_old, adv, clip_ratio=0.2,
                             entropy_coef=0.0)
    loss.backward()
    # every sample saturates: min picks the constant clipped branch
    assert stats["clip_fraction"] == 1.0
    for p in actor.parameters():
        assert p.grad is None or np.allclose(p.grad, 0.0, atol=1e-12)


def test_single_step_critic_descent():
    trainer = tiny_trainer(seed=3)
    batch = trainer.prepare_batch(trainer.collect_episode())
    idx = np.arange(batch.length)
    critic = trainer.critic

    def loss():
        mu_part, uav_part = critic_loss(critic, batch, idx)
        return mu_part + uav_part

    before = loss().item()
    loss().backward()
    adam_step(AdamState(critic.parameters(), lr=1e-3))
    assert loss().item() < before


def test_critic_loss_parts_are_each_types_mean_squared_error():
    trainer = tiny_trainer(seed=3)
    batch = trainer.prepare_batch(trainer.collect_episode())
    idx = np.array([5, 1, 6])
    mu_part, uav_part = critic_loss(trainer.critic, batch, idx)
    with no_grad():
        values = critic_values_batch(trainer.critic, batch.mu.obs[idx], batch.mu.actions[idx],
                                     batch.uav.obs[idx], batch.uav.actions[idx]).data
    k = trainer.scenario.num_mus
    for part, cols in ((mu_part, slice(0, k)), (uav_part, slice(k, None))):
        err = values[:, cols].astype(np.float64) - batch.targets[idx, cols]
        assert part.item() == pytest.approx(np.mean(err * err), rel=1e-6)


def test_pure_entropy_update_increases_entropy():
    trainer = tiny_trainer(seed=4)
    actor = trainer.actors["mu"]
    rng = np.random.default_rng(5)
    obs = rng.uniform(0, 1, size=(12, trainer.mu_obs_dim))
    act = rng.uniform(0.2, 0.8, size=(12, trainer.mu_act_dim))

    def mean_entropy():
        return log_prob_entropy(actor, Tensor(obs), act)[1].mean()

    before = mean_entropy().item()
    opt = AdamState(actor.parameters(), lr=1e-3)
    for _ in range(5):
        (-mean_entropy()).backward()
        adam_step(opt)
    assert mean_entropy().item() > before


def test_advantage_normalization():
    rng = np.random.default_rng(6)
    adv = rng.normal(3.0, 5.0, size=64)
    norm = normalize_advantages(adv)
    assert abs(norm.mean()) < 1e-9
    assert norm.std() == pytest.approx(1.0, abs=1e-6)
    # order (and thus the argmax sample) is preserved
    assert np.array_equal(np.argsort(adv), np.argsort(norm))


def test_ppo_update_returns_statistics():
    trainer = tiny_trainer(seed=7)
    batch = trainer.prepare_batch(trainer.collect_episode())
    stats = ppo_update(trainer, batch)
    for key in ("mu_actor_loss", "uav_actor_loss", "mu_critic_loss",
                "uav_critic_loss", "mu_entropy", "uav_entropy",
                "mu_clip_fraction", "mu_approx_kl", "critic_grad_norm", "clip_share"):
        assert key in stats
        assert np.isfinite(stats[key])


def test_update_abort_on_nonfinite():
    from uav_iscc.mappo import UpdateAborted

    trainer = tiny_trainer(seed=8)
    batch = trainer.prepare_batch(trainer.collect_episode())
    batch.mu.log_probs[:] = np.nan
    with pytest.raises(UpdateAborted):
        ppo_update(trainer, batch)


def test_aborted_update_moves_no_parameter():
    # the UAV actor loss is the second of a minibatch's four: all four are
    # checked before the one backward, so the MU actor has not moved either
    from uav_iscc.mappo import UpdateAborted

    trainer = tiny_trainer(seed=8)
    batch = trainer.prepare_batch(trainer.collect_episode())
    batch.uav.log_probs[:] = np.nan
    before = {name: p.data.copy() for name, p in trainer.named_parameters().items()}
    with pytest.raises(UpdateAborted, match="non-finite uav actor loss"):
        ppo_update(trainer, batch)
    for name, p in trainer.named_parameters().items():
        assert np.array_equal(p.data, before[name]), name
        assert p.grad is None, name


def test_joint_update_equals_three_separate_updates():
    # the networks share no parameter and Adam is elementwise, so one backward
    # of the summed losses and one Adam step over all three networks equal a
    # backward, clip and Adam step per network, bit for bit; the critic's step
    # is on the sum of its two value errors
    joint, apart = tiny_trainer(seed=10), tiny_trainer(seed=10)
    batch = joint.prepare_batch(joint.collect_episode())
    ppo_update(joint, batch)

    cfg, k = apart.config, apart.scenario.num_mus
    opts = {kind: AdamState(apart.actors[kind].parameters(), lr=cfg.lr) for kind in ("mu", "uav")}
    critic_opt = AdamState(apart.critic.parameters(), lr=cfg.lr)
    for _ in range(cfg.ppo_epochs):
        perm = apart.update_rng.permutation(batch.length)
        for idx in np.array_split(perm, cfg.minibatches):
            for kind, cols in (("mu", slice(0, k)), ("uav", slice(k, None))):
                roll = batch.of(kind)
                loss, _ = actor_loss(apart.actors[kind], roll.obs[idx], roll.actions[idx],
                                     roll.log_probs[idx],
                                     normalize_advantages(batch.advantages[idx, cols]),
                                     cfg.clip_ratio, cfg.entropy_coef)
                loss.backward()
                clip_grad_norm(apart.actors[kind].parameters(), cfg.grad_clip)
                adam_step(opts[kind])
            mu_part, uav_part = critic_loss(apart.critic, batch, idx)
            (mu_part + uav_part).backward()
            clip_grad_norm(apart.critic.parameters(), cfg.grad_clip)
            adam_step(critic_opt)
    for name, p in joint.named_parameters().items():
        assert p.data.tobytes() == apart.named_parameters()[name].data.tobytes(), name


def test_critic_runs_once_per_batch_and_once_per_minibatch(monkeypatch):
    # one critic values both agent types, so each forward serves the MUs and UAVs
    import uav_iscc.mappo.ppo as ppo_module
    import uav_iscc.mappo.trainer as trainer_module

    calls = []
    for module, site in ((trainer_module, "prepare_batch"), (ppo_module, "minibatch")):
        def spy(*args, _forward=module.critic_values_batch, _site=site):
            calls.append(_site)
            return _forward(*args)

        monkeypatch.setattr(module, "critic_values_batch", spy)
    trainer = tiny_trainer(seed=11)
    batch = trainer.prepare_batch(trainer.collect_episode())
    assert calls == ["prepare_batch"]
    ppo_update(trainer, batch)
    cfg = trainer.config
    assert calls == ["prepare_batch"] + ["minibatch"] * (cfg.ppo_epochs * cfg.minibatches)


@pytest.mark.parametrize("grad_clip, share", [(1e-9, 1.0), (1e9, 0.0)])
def test_clip_share_counts_the_clipped_networks(grad_clip, share):
    trainer = tiny_trainer(seed=12)
    trainer.config.grad_clip = grad_clip
    stats = ppo_update(trainer, trainer.prepare_batch(trainer.collect_episode()))
    assert stats["clip_share"] == share
    for name in ("mu_actor", "uav_actor", "critic"):
        assert 0.0 < stats[f"{name}_grad_norm"] < np.inf, name


def test_critic_target_is_one_step_bootstrap():
    trainer = tiny_trainer(seed=9)
    batch = trainer.prepare_batch(trainer.collect_episode())
    assert batch.values.shape == batch.targets.shape == batch.advantages.shape == (8, 3 + 2)
    rewards = np.concatenate([batch.mu.rewards, batch.uav.rewards], axis=1)
    next_values = np.vstack([batch.values[1:], np.zeros((1, 3 + 2))])
    assert np.array_equal(batch.targets, rewards + trainer.config.discount * next_values)


def per_type_gae(rewards, values, gamma, lam):
    """GAE on one type's [T, N] rewards and values, with V = 0 after the last
    slot and each TD error formed inside the reverse loop."""
    adv, running, next_value = np.zeros_like(rewards), 0.0, 0.0
    for t in reversed(range(rewards.shape[0])):
        running = rewards[t] + gamma * next_value - values[t] + gamma * lam * running
        adv[t], next_value = running, values[t]
    return adv


@pytest.mark.parametrize("seed", [9, 13])
def test_one_value_pass_equals_each_types_own_computation(seed):
    # the targets and advantages are columnwise, so the one pass over all
    # K + M agents equals a computation on each type's rewards and values alone
    trainer = tiny_trainer(seed=seed)
    batch = trainer.prepare_batch(trainer.collect_episode())
    cfg, k = trainer.config, trainer.scenario.num_mus
    for kind, cols in (("mu", slice(0, k)), ("uav", slice(k, None))):
        rewards, values = batch.of(kind).rewards, batch.values[:, cols].copy()
        targets = rewards + cfg.discount * np.vstack([values[1:], np.zeros_like(values[:1])])
        adv = per_type_gae(rewards, values, cfg.discount, cfg.gae_lambda)
        assert batch.targets[:, cols].tobytes() == targets.tobytes(), kind
        assert batch.advantages[:, cols].tobytes() == adv.tobytes(), kind
