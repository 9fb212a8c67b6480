"""End-to-end trainer behavior at smoke scale."""

import json
from dataclasses import fields

import numpy as np
import pytest

from oracles import head_rows, in_float64
from uav_iscc.env import ConfigError, ScenarioConfig
from uav_iscc.mappo import Trainer, TrainerConfig
from uav_iscc.mappo.trainer import CHECKPOINT_VERSION, EvalResult


def smoke_configs(seed=0, episodes=2):
    tcfg = TrainerConfig(episodes=episodes, episode_length=6, ppo_epochs=2,
                         minibatches=2, hidden_sizes=(8, 12), feature_dim=8,
                         attention_heads=2, seed=seed)
    scfg = ScenarioConfig(num_mus=3, num_uavs=2).validate()
    return tcfg, scfg


@pytest.mark.parametrize("field, value", [
    ("hidden_sizes", ()), ("hidden_sizes", (0, 4)), ("feature_dim", 0),
    ("grad_clip", 0.0), ("grad_clip", -1.0), ("lr", -1.0), ("lr", 0.0),
    ("attention_heads", 0), ("attention_heads", 3)])
def test_validate_rejects_unusable_fields(field, value):
    tcfg, _ = smoke_configs()
    setattr(tcfg, field, value)
    with pytest.raises(ValueError, match=field):
        tcfg.validate()


def test_zero_episodes_returns_initial_parameters():
    tcfg, scfg = smoke_configs(episodes=0)
    trainer = Trainer(tcfg, scfg)
    history = trainer.train()
    assert history == []
    fresh = Trainer(tcfg, scfg)
    for (n1, p1), (n2, p2) in zip(sorted(trainer.named_parameters().items()),
                                  sorted(fresh.named_parameters().items())):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


def test_training_without_an_mu_rejected_with_the_field_name():
    tcfg, _ = smoke_configs()
    with pytest.raises(ConfigError, match="num_mus must be >= 1 for training, got 0"):
        Trainer(tcfg, ScenarioConfig(num_mus=0, num_uavs=2).validate())


def test_evaluate_rejects_fewer_than_one_episode():
    trainer = Trainer(*smoke_configs())
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        trainer.evaluate(episodes=0)


def test_fixed_seed_reproduces_history():
    tcfg, scfg = smoke_configs(seed=5)
    h1 = Trainer(tcfg, scfg).train()
    tcfg2, scfg2 = smoke_configs(seed=5)
    h2 = Trainer(tcfg2, scfg2).train()
    assert h1 == h2  # bit-identical floats throughout


def test_history_record_fields():
    tcfg, scfg = smoke_configs(seed=6)
    history = Trainer(tcfg, scfg).train()
    assert len(history) == 2
    for i, rec in enumerate(history):
        assert rec["episode"] == i
        for key in ("mean_mu_reward", "mean_uav_reward", "objective",
                    "mu_energy", "uav_energy", "flight_energy",
                    "penalty_rates"):
            assert key in rec
        assert rec["mean_mu_reward"] <= 0.0
        assert rec["mean_uav_reward"] <= 0.0
        assert rec["objective"] >= 0.0


RECORD_KEYS = {"episode", "objective", "mu_energy", "uav_energy", "flight_energy",
               "mean_mu_reward", "mean_uav_reward", "violation_rate", "penalty_rates"}
PPO_STAT_KEYS = {f"{kind}_{name}" for kind in ("mu", "uav") for name in (
    "actor_loss", "critic_loss", "entropy", "clip_fraction", "approx_kl")} | {
    "mu_actor_grad_norm", "uav_actor_grad_norm", "critic_grad_norm", "clip_share"}


def test_history_records_are_the_episode_record_plus_ppo_stats():
    tcfg, scfg = smoke_configs(seed=12)
    history = Trainer(tcfg, scfg).train()
    for rec in history:
        assert set(rec) == RECORD_KEYS | PPO_STAT_KEYS
        assert set(rec["penalty_rates"]) == {"latency", "collision", "boundary", "radar"}
        assert json.loads(json.dumps(rec)) == rec
        # plain Python numbers, so the record reads back with the same types
        scalars = [v for v in rec.values() if not isinstance(v, dict)]
        assert {type(v) for v in [*scalars, *rec["penalty_rates"].values()]} == {int, float}


def test_evaluate_is_the_mean_of_the_episode_records():
    tcfg, scfg = smoke_configs(seed=10)
    trainer = Trainer(tcfg, scfg)
    result = trainer.evaluate(episodes=3, seed=42)
    env_rng = np.random.default_rng(42)
    batches = [trainer.collect_episode(greedy=True, env_rng=env_rng) for _ in range(3)]
    records = [trainer.episode_metrics(ep, batch) for ep, batch in enumerate(batches)]
    assert len({rec["objective"] for rec in records}) == 3

    assert {f.name for f in fields(EvalResult)} == (
        RECORD_KEYS - {"episode"} | {"episode_objectives", "first_episode"})
    assert result.episode_objectives == [rec["objective"] for rec in records]
    for name in RECORD_KEYS - {"episode", "penalty_rates"}:
        assert getattr(result, name) == np.mean([rec[name] for rec in records]), name
    assert set(result.penalty_rates) == set(records[0]["penalty_rates"])
    for family, rate in result.penalty_rates.items():
        assert rate == np.mean([rec["penalty_rates"][family] for rec in records]), family

    # every episode has the same K, M and T, so the mean of the episodes'
    # violation rates is the pooled rate up to rounding
    reports = [r for batch in batches for r in batch.reports]
    failed = sum(np.sum(~r.deadline_met) + np.sum(~r.radar_met) + np.sum(r.safety_violated)
                 + np.sum(r.boundary_overshoot > 0) for r in reports)
    pooled = failed / (len(reports) * (scfg.num_mus + 3 * scfg.num_uavs))
    assert result.violation_rate == pytest.approx(pooled, rel=1e-15, abs=0.0)


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
    trainer = Trainer(tcfg, scfg)
    trainer.train()
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


def test_checkpoint_roundtrip_keeps_float32_bits(tmp_path):
    trainer = Trainer(*smoke_configs(seed=20))
    trainer.train()
    path = tmp_path / "ckpt.npz"
    trainer.save_checkpoint(path)
    clone = Trainer(*smoke_configs(seed=20))
    clone.load_checkpoint(path)
    for name, p in trainer.named_parameters().items():
        loaded = clone.named_parameters()[name].data
        assert p.data.dtype == loaded.dtype == np.float32, name
        assert loaded.tobytes() == p.data.tobytes(), name


def test_version_2_float64_checkpoint_rejected(tmp_path):
    trainer = Trainer(*smoke_configs(seed=21))
    arrays = {name: p.data.astype(np.float64) for name, p in trainer.named_parameters().items()}
    path = tmp_path / "v2.npz"
    np.savez(path, __version__=np.array(2),
             __config_hash__=np.array(trainer.config_hash()), **arrays)
    with pytest.raises(ValueError, match="checkpoint version 2 is not supported, expected version 4"):
        trainer.load_checkpoint(path)


def test_float64_tensor_in_current_checkpoint_rejected_by_name(tmp_path):
    trainer = Trainer(*smoke_configs(seed=22))
    arrays = {name: p.data for name, p in trainer.named_parameters().items()}
    name = "critic/3"
    arrays[name] = arrays[name].astype(np.float64)
    path = tmp_path / "mixed.npz"
    np.savez(path, __version__=np.array(CHECKPOINT_VERSION),
             __config_hash__=np.array(trainer.config_hash()), **arrays)
    clone = Trainer(*smoke_configs(seed=22))
    before = {n: p.data for n, p in clone.named_parameters().items()}
    with pytest.raises(ValueError, match=f"{name} has dtype float64, expected float32"):
        clone.load_checkpoint(path)
    assert all(p.data is before[n] for n, p in clone.named_parameters().items())


def test_checkpoint_roundtrip_through_path_without_suffix(tmp_path):
    trainer = Trainer(*smoke_configs(seed=17))
    path = tmp_path / "ckpt"
    trainer.save_checkpoint(path)
    assert path.exists() and not (tmp_path / "ckpt.npz").exists()
    clone = Trainer(*smoke_configs(seed=17))
    for p in clone.named_parameters().values():
        p.data = p.data + 1.0
    clone.load_checkpoint(path)
    for name, p in trainer.named_parameters().items():
        assert np.array_equal(clone.named_parameters()[name].data, p.data), name


def test_failed_save_leaves_the_previous_checkpoint_whole(monkeypatch, tmp_path):
    trainer = Trainer(*smoke_configs(seed=18))
    path = tmp_path / "ckpt"
    trainer.save_checkpoint(path)
    saved = {name: p.data.copy() for name, p in trainer.named_parameters().items()}

    def partial_write(file, *args, **kwargs):
        file.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr("uav_iscc.mappo.trainer.np.savez", partial_write)
    for p in trainer.named_parameters().values():
        p.data = p.data + 1.0
    with pytest.raises(OSError, match="disk full"):
        trainer.save_checkpoint(path)
    monkeypatch.undo()
    assert [f.name for f in tmp_path.iterdir()] == ["ckpt"]
    clone = Trainer(*smoke_configs(seed=18))
    clone.load_checkpoint(path)
    for name, p in clone.named_parameters().items():
        assert p.data.tobytes() == saved[name].tobytes(), name


@pytest.mark.parametrize("key", ["__version__", "__config_hash__"])
def test_checkpoint_without_metadata_names_the_key(tmp_path, key):
    trainer = Trainer(*smoke_configs(seed=18))
    arrays = {name: p.data for name, p in trainer.named_parameters().items()}
    arrays.update(__version__=np.array(CHECKPOINT_VERSION),
                  __config_hash__=np.array(trainer.config_hash()))
    del arrays[key]
    path = tmp_path / "bare.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=key):
        trainer.load_checkpoint(path)


def test_checkpoint_config_mismatch_rejected(tmp_path):
    tcfg, scfg = smoke_configs(seed=10)
    trainer = Trainer(tcfg, scfg)
    path = tmp_path / "ckpt.npz"
    trainer.save_checkpoint(path)
    other = Trainer(*smoke_configs(seed=11))
    with pytest.raises(ValueError, match="hash"):
        other.load_checkpoint(path)


def test_config_hash_reads_a_float_field_given_as_an_int_as_its_float():
    tcfg, scfg = smoke_configs()
    hashes = []
    for width, clip in ((1000, 10), (1000.0, 10.0)):
        scfg.region_width, tcfg.grad_clip = width, clip
        hashes.append(Trainer(tcfg, scfg).config_hash())
    assert hashes[0] == hashes[1]
    scfg.region_width = 999.0
    assert Trainer(tcfg, scfg).config_hash() != hashes[0]


def test_version_3_checkpoint_with_a_critic_per_agent_type_rejected(tmp_path):
    # version 3 held two critics of today's shape, `critic_mu/*` and `critic_uav/*`
    trainer = Trainer(*smoke_configs(seed=24))
    arrays = {}
    for kind in ("mu", "uav"):
        for i, p in enumerate(trainer.actors[kind].parameters()):
            arrays[f"actor_{kind}/{i}"] = p.data
        for i, p in enumerate(trainer.critic.parameters()):
            arrays[f"critic_{kind}/{i}"] = p.data + 1.0
    path = tmp_path / "v3.npz"
    np.savez(path, __version__=np.array(3),
             __config_hash__=np.array(trainer.config_hash()), **arrays)
    before = {name: p.data for name, p in trainer.named_parameters().items()}
    with pytest.raises(ValueError, match="checkpoint version 3 is not supported, expected version 4"):
        trainer.load_checkpoint(path)
    assert all(p.data is before[name] for name, p in trainer.named_parameters().items())


def test_version_1_checkpoint_with_per_head_attention_rejected(tmp_path):
    trainer = Trainer(*smoke_configs(seed=13))
    arrays = {}
    for kind in ("mu", "uav"):
        for i, p in enumerate(trainer.actors[kind].parameters()):
            arrays[f"actor_{kind}/{i}"] = p.data
        critic = trainer.critic
        # version 1 kept one [head_dim, V] tensor per head
        per_head = [w.data[head_rows(critic, h)] for w in (critic.w_que, critic.w_key, critic.w_val)
                    for h in range(critic.heads)]
        tensors = [p.data for p in critic.encoder_mu.parameters() + critic.encoder_uav.parameters()]
        tensors += per_head + [critic.w_mix.data] + [p.data for p in critic.value_head.parameters()]
        for i, data in enumerate(tensors):
            arrays[f"critic_{kind}/{i}"] = data
    path = tmp_path / "v1.npz"
    np.savez(path, __version__=np.array(1),
             __config_hash__=np.array(trainer.config_hash()), **arrays)
    clone = Trainer(*smoke_configs(seed=13))
    before = {name: p.data for name, p in clone.named_parameters().items()}
    with pytest.raises(ValueError, match="checkpoint version 1 is not supported, expected version 4"):
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
        arrays[last] = np.zeros(arrays[last].shape + (1,), dtype=arrays[last].dtype)
    path = tmp_path / f"{defect}.npz"
    np.savez(path, __version__=np.array(CHECKPOINT_VERSION),
             __config_hash__=np.array(trainer.config_hash()), **arrays)
    clone = Trainer(*smoke_configs(seed=16))
    before = {name: p.data for name, p in clone.named_parameters().items()}
    with pytest.raises(ValueError, match=message) as info:
        clone.load_checkpoint(path)
    assert last in str(info.value)
    assert all(p.data is before[name] for name, p in clone.named_parameters().items())


def test_actor_outputs_stay_above_one_through_training():
    tcfg, scfg = smoke_configs(seed=12, episodes=3)
    trainer = Trainer(tcfg, scfg)
    trainer.train()
    from uav_iscc.mappo import actor_forward
    from uav_iscc.numerics import Tensor

    rng = np.random.default_rng(13)
    obs = rng.uniform(0, 1, size=(20, trainer.mu_obs_dim))
    z, e = actor_forward(trainer.actors["mu"], Tensor(obs))
    assert np.all(z.data > 1.0) and np.all(e.data > 1.0)


def test_uav_log_probs_are_unit_cube_beta_densities():
    # the stored log-prob is the Beta density of the stored unit action, with
    # no Jacobian of the map to the physical acceleration range
    from scipy.special import gammaln

    from uav_iscc.mappo import actor_forward
    from uav_iscc.numerics import Tensor

    trainer = Trainer(*smoke_configs(seed=19))
    in_float64(*trainer.actors["uav"].parameters())
    uav = trainer.collect_episode().uav
    z, e = (t.data for t in actor_forward(trainer.actors["uav"], Tensor(uav.obs)))
    x = uav.actions
    direct = (gammaln(z + e) - gammaln(z) - gammaln(e)
              + (z - 1) * np.log(x) + (e - 1) * np.log(1 - x)).sum(axis=-1)
    assert np.allclose(uav.log_probs, direct, rtol=0.0, atol=1e-9)


def test_networks_are_float32_and_the_environment_float64():
    # the dtype contract: rounding to float32 happens only inside the networks;
    # numpy's scalar promotion rules differ between versions, so this runs on each
    from dataclasses import fields

    from uav_iscc.mappo import actor_forward, critic_values_batch, ppo_update

    tcfg, _ = smoke_configs(seed=23)
    trainer = Trainer(tcfg, ScenarioConfig(num_mus=6, num_uavs=3).validate())
    batch = trainer.prepare_batch(trainer.collect_episode())
    ppo_update(trainer, batch)
    for name, p in trainer.named_parameters().items():
        assert p.data.dtype == np.float32, name
    opt = trainer.optimizer
    assert all(m.dtype == v.dtype == np.float32 for m, v in zip(opt.m, opt.v))
    values = critic_values_batch(trainer.critic, batch.mu.obs, batch.mu.actions,
                                 batch.uav.obs, batch.uav.actions)
    assert values.data.dtype == np.float32
    for kind in ("mu", "uav"):
        roll = batch.of(kind)
        for t in actor_forward(trainer.actors[kind], roll.obs):
            assert t.data.dtype == np.float32
        for name in ("obs", "actions", "log_probs", "rewards"):
            assert getattr(roll, name).dtype == np.float64, (kind, name)
    for name in ("values", "advantages", "targets"):
        assert getattr(batch, name).dtype == np.float64, name
    for report in batch.reports:
        for f in fields(report):
            value = getattr(report, f.name)
            if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                assert value.dtype == np.float64, f.name


def test_float32_log_probs_stay_near_a_float64_copy_of_the_actor():
    # over rollouts at 6x3 to 100x10 (default widths, seeds 0-2, T=20) the
    # largest |logp32 - logp64| measured was 1.8e-6; the bound is twice that
    import copy

    from uav_iscc.mappo import log_prob_entropy

    trainer = Trainer(TrainerConfig(episode_length=20, seed=0),
                      ScenarioConfig(num_mus=6, num_uavs=3).validate())
    batch = trainer.collect_episode()
    for kind in ("mu", "uav"):
        twin = copy.deepcopy(trainer.actors[kind])
        in_float64(*twin.parameters())
        roll = batch.of(kind)
        logp64, _ = log_prob_entropy(twin, roll.obs, roll.actions)
        error = np.max(np.abs(logp64.data - roll.log_probs))
        assert 0.0 < error < 3.6e-6, (kind, error)


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
    path = tmp_path / "fault"  # no suffix: the file lands at exactly this path
    with pytest.raises(trainer_module.TrainerFault if wrapped else error) as info:
        trainer.train(fault_checkpoint=path)
    if wrapped:
        assert isinstance(info.value.__cause__, error)
    assert path.exists() == wrapped

