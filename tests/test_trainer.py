"""End-to-end trainer behavior at smoke scale."""

import numpy as np
import pytest

from oracles import head_rows
from uav_iscc.env import ScenarioConfig
from uav_iscc.mappo import Trainer, TrainerConfig, train


def smoke_configs(seed=0, episodes=2):
    tcfg = TrainerConfig(episodes=episodes, episode_length=6, ppo_epochs=2,
                         minibatches=2, hidden_sizes=(8, 12), feature_dim=8,
                         attention_heads=2, seed=seed)
    scfg = ScenarioConfig(num_mus=3, num_uavs=2).validate()
    return tcfg, scfg


@pytest.mark.parametrize("field, value", [
    ("hidden_sizes", ()), ("hidden_sizes", (0, 4)), ("feature_dim", 0),
    ("grad_clip", 0.0), ("grad_clip", -1.0), ("actor_lr", -1.0), ("critic_lr", 0.0),
    ("attention_heads", 0), ("attention_heads", 3)])
def test_validate_rejects_unusable_fields(field, value):
    tcfg, _ = smoke_configs()
    setattr(tcfg, field, value)
    with pytest.raises(ValueError, match=field):
        tcfg.validate()


def test_zero_episodes_returns_initial_parameters():
    tcfg, scfg = smoke_configs(episodes=0)
    trainer, history = train(tcfg, scfg)
    assert history == []
    fresh = Trainer(tcfg, scfg)
    for (n1, p1), (n2, p2) in zip(sorted(trainer.named_parameters().items()),
                                  sorted(fresh.named_parameters().items())):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


def test_evaluate_rejects_fewer_than_one_episode():
    trainer = Trainer(*smoke_configs())
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        trainer.evaluate(episodes=0)


def test_fixed_seed_reproduces_history():
    tcfg, scfg = smoke_configs(seed=5)
    _, h1 = train(tcfg, scfg)
    tcfg2, scfg2 = smoke_configs(seed=5)
    _, h2 = train(tcfg2, scfg2)
    assert h1 == h2  # bit-identical floats throughout


def test_history_record_fields():
    tcfg, scfg = smoke_configs(seed=6)
    _, history = train(tcfg, scfg)
    assert len(history) == 2
    for i, rec in enumerate(history):
        assert rec["episode"] == i
        for key in ("mean_reward_mu", "mean_reward_uav", "objective",
                    "mu_energy", "uav_energy", "flight_energy",
                    "penalty_rate_latency", "penalty_rate_radar"):
            assert key in rec
        assert rec["mean_reward_mu"] <= 0.0
        assert rec["mean_reward_uav"] <= 0.0
        assert rec["objective"] >= 0.0


def test_evaluate_deterministic_and_consistent():
    tcfg, scfg = smoke_configs(seed=7)
    trainer = Trainer(tcfg, scfg)
    r1 = trainer.evaluate(episodes=2, seed=123)
    r2 = trainer.evaluate(episodes=2, seed=123)
    assert r1.episode_objectives == r2.episode_objectives
    assert r1.objective == r2.objective
    # reported objective equals the weighted recomputation from the reports
    direct = sum(scfg.weight_factor * rep.e_uav.sum() + rep.e_mu.sum()
                 for rep in r1.first_episode.reports)
    assert direct == pytest.approx(r1.episode_objectives[0], rel=1e-9)
    trajectory = r1.first_episode.trajectory
    assert len(trajectory) == tcfg.episode_length
    for world, _, _ in trajectory:
        for positions in (world.mu_positions, world.uav_positions):
            assert np.all((0.0 <= positions) & (positions <= scfg.region_width))


def test_untrained_policy_produces_bounded_penalties():
    tcfg, scfg = smoke_configs(seed=8)
    trainer = Trainer(tcfg, scfg)
    batch = trainer.collect_episode()
    for bd in batch.mu_breakdowns:
        assert np.all((1.0 <= bd.p_latency) & (bd.p_latency < 2.0))
        assert np.all(np.isfinite(bd.reward))
    for bd in batch.uav_breakdowns:
        for f in (bd.p_latency, bd.p_collision, bd.p_boundary, bd.p_radar):
            assert f.shape == (scfg.num_uavs,) and np.all((1.0 <= f) & (f < 2.0))


def test_checkpoint_roundtrip(tmp_path):
    tcfg, scfg = smoke_configs(seed=9)
    trainer, _ = train(tcfg, scfg)
    path = tmp_path / "ckpt.npz"
    trainer.save_checkpoint(path)
    clone = Trainer(*smoke_configs(seed=9))
    # perturb then restore
    for p in clone.actors["mu"].parameters():
        p.data = p.data + 1.0
    clone.load_checkpoint(path)
    for (_, p1), (_, p2) in zip(sorted(trainer.named_parameters().items()),
                                sorted(clone.named_parameters().items())):
        assert np.array_equal(p1.data, p2.data)
    ev1 = trainer.evaluate(episodes=1, seed=3)
    ev2 = clone.evaluate(episodes=1, seed=3)
    assert ev1.objective == ev2.objective


def test_checkpoint_config_mismatch_rejected(tmp_path):
    tcfg, scfg = smoke_configs(seed=10)
    trainer = Trainer(tcfg, scfg)
    path = tmp_path / "ckpt.npz"
    trainer.save_checkpoint(path)
    other = Trainer(*smoke_configs(seed=11))
    with pytest.raises(ValueError, match="hash"):
        other.load_checkpoint(path)


def test_version_1_checkpoint_with_per_head_attention_rejected(tmp_path):
    trainer = Trainer(*smoke_configs(seed=13))
    arrays = {}
    for kind in ("mu", "uav"):
        for i, p in enumerate(trainer.actors[kind].parameters()):
            arrays[f"actor_{kind}/{i}"] = p.data
        critic = trainer.critics[kind]
        blk = critic.attention
        # version 1 kept one [head_dim, V] tensor per head
        per_head = [w.data[head_rows(blk, h)] for w in (blk.w_que, blk.w_key, blk.w_val)
                    for h in range(blk.heads)]
        tensors = [p.data for p in critic.encoder_mu.parameters() + critic.encoder_uav.parameters()]
        tensors += per_head + [blk.w_mix.data] + [p.data for p in critic.value_head.parameters()]
        for i, data in enumerate(tensors):
            arrays[f"critic_{kind}/{i}"] = data
    path = tmp_path / "v1.npz"
    np.savez(path, __version__=np.array(1),
             __config_hash__=np.array(trainer.config_hash()), **arrays)
    clone = Trainer(*smoke_configs(seed=13))
    before = {name: p.data for name, p in clone.named_parameters().items()}
    with pytest.raises(ValueError, match="checkpoint version 1 is not supported, expected version 2"):
        clone.load_checkpoint(path)
    assert all(p.data is before[name] for name, p in clone.named_parameters().items())


@pytest.mark.parametrize("defect, message", [
    ("wrong-shape", "has shape"), ("missing", "lacks tensors")])
def test_defective_checkpoint_leaves_every_parameter_unchanged(tmp_path, defect, message):
    trainer = Trainer(*smoke_configs(seed=16))
    arrays = {name: p.data for name, p in trainer.named_parameters().items()}
    last = list(arrays)[-1]  # the tensor a one-by-one load would reach last
    if defect == "missing":
        del arrays[last]
    else:
        arrays[last] = np.zeros(arrays[last].shape + (1,))
    path = tmp_path / f"{defect}.npz"
    np.savez(path, __version__=np.array(2),
             __config_hash__=np.array(trainer.config_hash()), **arrays)
    clone = Trainer(*smoke_configs(seed=16))
    before = {name: p.data for name, p in clone.named_parameters().items()}
    with pytest.raises(ValueError, match=message) as info:
        clone.load_checkpoint(path)
    assert last in str(info.value)
    assert all(p.data is before[name] for name, p in clone.named_parameters().items())


def test_actor_outputs_stay_above_one_through_training():
    tcfg, scfg = smoke_configs(seed=12, episodes=3)
    trainer, _ = train(tcfg, scfg)
    from uav_iscc.mappo import actor_forward
    from uav_iscc.numerics import Tensor

    rng = np.random.default_rng(13)
    obs = rng.uniform(0, 1, size=(20, trainer.mu_obs_dim))
    z, e = actor_forward(trainer.actors["mu"], Tensor(obs))
    assert np.all(z.data > 1.0) and np.all(e.data > 1.0)


@pytest.mark.parametrize("error, wrapped", [
    (np.linalg.LinAlgError, True), (FloatingPointError, True), (ValueError, True),
    (TypeError, False), (AttributeError, False), (KeyError, False), (IndexError, False),
])
def test_only_numeric_faults_become_trainer_faults(monkeypatch, tmp_path, error, wrapped):
    # a numeric fault checkpoints and is wrapped; a programming error
    # propagates as itself and writes nothing
    import uav_iscc.mappo.trainer as trainer_module

    def failing_step(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(trainer_module, "world_step", failing_step)
    trainer = Trainer(*smoke_configs(seed=15))
    path = tmp_path / "fault.npz"
    with pytest.raises(trainer_module.TrainerFault if wrapped else error) as info:
        trainer.train(fault_checkpoint=path)
    if wrapped:
        assert isinstance(info.value.__cause__, error)
    assert path.exists() == wrapped
