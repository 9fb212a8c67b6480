"""Attention critic: permutation invariance, reference-vs-batched agreement."""

import numpy as np
import pytest

from oracles import attention_weights, critic_forward, in_float64, masked_attention_chain
from uav_iscc.mappo import CriticParams, critic_values_batch
from uav_iscc.mappo import critics as critics_module
from uav_iscc.numerics import Tensor, mlp_forward, no_grad
from uav_iscc.numerics import tensor as tensor_module


def make_critic(mu_in=8, uav_in=10, seed=0):
    return CriticParams.create(mu_in, uav_in, feature_dim=16, heads=4, hidden=(8, 12),
                               rng=np.random.default_rng(seed))


def random_instance(critic, k=2, m=2, t=3, seed=1):
    rng = np.random.default_rng(seed)
    mu_obs = rng.uniform(0, 1, size=(t, k, critic.encoder_mu.layers[0][0].shape[0] - 4))
    mu_act = rng.uniform(0, 1, size=(t, k, 4))
    uav_obs = rng.uniform(0, 1, size=(t, m, critic.encoder_uav.layers[0][0].shape[0] - 5))
    uav_act = rng.uniform(0, 1, size=(t, m, 5))
    return mu_obs, mu_act, uav_obs, uav_act


def test_batched_matches_reference_forward():
    critic = make_critic()
    in_float64(*critic.parameters())
    for k, m in [(2, 2), (3, 2), (1, 3), (4, 1)]:
        mu_obs, mu_act, uav_obs, uav_act = random_instance(critic, k=k, m=m, seed=k + 10 * m)
        for want, agents in (("mu", range(k)), ("uav", range(k, k + m))):
            values = critic_values_batch(critic, mu_obs, mu_act, uav_obs, uav_act, want).data
            assert values.shape == (mu_obs.shape[0], len(agents))
            for t in range(mu_obs.shape[0]):
                all_obs = [*mu_obs[t], *uav_obs[t]]
                all_act = [*mu_act[t], *uav_act[t]]
                for col, u in enumerate(agents):
                    ref = critic_forward(critic, all_obs, all_act, num_mus=k, agent=u).item()
                    assert values[t, col] == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("want", ["mu", "uav"])
@pytest.mark.parametrize("k, m, chunk", [(3, 2, None), (30, 6, 2 * 30 * 36)])
def test_values_and_gradients_equal_unfused_attention(want, k, m, chunk, monkeypatch):
    if chunk is not None:                              # several chunks of the [T*H] stack
        monkeypatch.setattr(tensor_module, "_CHUNK_ELEMENTS", chunk)
    targets = np.random.default_rng(18).normal(size=(4, k if want == "mu" else m))
    runs = []
    for attention in (None, masked_attention_chain):
        if attention is not None:
            monkeypatch.setattr(critics_module, "self_masked_attention", attention)
        critic = make_critic(seed=17)
        values = critic_values_batch(critic, *random_instance(critic, k=k, m=m, t=4, seed=19),
                                     want)
        diff = values - Tensor(targets)
        (diff * diff).mean().backward()
        runs.append([values.data] + [p.grad for p in critic.parameters()])
    for fused, chain in zip(*runs):
        assert fused.tobytes() == chain.tobytes()


def test_unknown_agent_type_rejected():
    critic = make_critic()
    with pytest.raises(ValueError, match="'uavs'"):
        critic_values_batch(critic, *random_instance(critic), "uavs")


def test_uav_critic_loss_gradient_matches_finite_differences():
    critic = make_critic(seed=14)
    in_float64(*critic.parameters())
    inputs = random_instance(critic, k=3, m=2, t=2, seed=15)
    targets = np.random.default_rng(16).normal(size=(2, 2))

    def loss():
        diff = critic_values_batch(critic, *inputs, "uav") - Tensor(targets)
        return (diff * diff).mean()

    loss().backward()
    h = 1e-6
    for p in (critic.attention.w_que, critic.attention.w_key):
        flat = p.data.ravel()
        for i in range(flat.size):
            old = flat[i]
            with no_grad():
                flat[i] = old + h
                up = loss().item()
                flat[i] = old - h
                down = loss().item()
            flat[i] = old
            assert p.grad.ravel()[i] == pytest.approx((up - down) / (2 * h), rel=1e-4, abs=1e-8)


def test_values_without_recording_equal_recorded_values():
    critic = make_critic(seed=12)
    inputs = random_instance(critic, k=3, m=2, t=4, seed=13)
    recorded = critic_values_batch(critic, *inputs, "uav")
    with no_grad():
        plain = critic_values_batch(critic, *inputs, "uav")
    assert recorded._parents and not plain._parents
    assert np.array_equal(plain.data, recorded.data)


def test_permutation_of_other_agents_leaves_value_unchanged():
    critic = make_critic(seed=2)
    rng = np.random.default_rng(3)
    k, m = 3, 2
    obs = [rng.uniform(0, 1, 4) for _ in range(k)] + [rng.uniform(0, 1, 5) for _ in range(m)]
    act = [rng.uniform(0, 1, 4) for _ in range(k)] + [rng.uniform(0, 1, 5) for _ in range(m)]
    critic2 = make_critic(mu_in=8, uav_in=10, seed=2)
    in_float64(*critic2.parameters())
    base = critic_forward(critic2, obs, act, num_mus=k, agent=0).item()
    # swap two other MU agents (same-type swap keeps encoder assignment)
    obs_p = [obs[0], obs[2], obs[1], obs[3], obs[4]]
    act_p = [act[0], act[2], act[1], act[3], act[4]]
    perm = critic_forward(critic2, obs_p, act_p, num_mus=k, agent=0).item()
    assert perm == pytest.approx(base, abs=1e-9)


def test_identical_other_agents_share_attention_weight():
    critic = make_critic(seed=4)
    rng = np.random.default_rng(5)
    obs = rng.uniform(0, 1, 4)
    act = rng.uniform(0, 1, 4)
    query = mlp_forward(critic.encoder_mu, Tensor(np.concatenate([obs, act])))
    twin = mlp_forward(critic.encoder_mu, Tensor(np.concatenate([obs * 0.5, act])))
    w = attention_weights(critic.attention, query, [twin, twin])
    assert np.allclose(w, 0.5, atol=1e-12)


@pytest.mark.parametrize("k, m", [(1, 0), (0, 1)])
def test_fewer_than_two_agents_rejected(k, m):
    critic = make_critic(seed=6)
    mu_obs, mu_act, uav_obs, uav_act = random_instance(critic, k=k, m=m, t=2, seed=7)
    want = "mu" if k else "uav"
    with pytest.raises(ValueError, match="at least two agents"):
        critic_values_batch(critic, mu_obs, mu_act, uav_obs, uav_act, want)
    with pytest.raises(ValueError, match="at least two agents"):
        critic_forward(critic, [*mu_obs[0], *uav_obs[0]], [*mu_act[0], *uav_act[0]],
                       num_mus=k, agent=0)


def test_critic_gradients_flow_to_all_components():
    critic = make_critic(seed=10)
    mu_obs, mu_act, uav_obs, uav_act = random_instance(critic, seed=11)
    values = critic_values_batch(critic, mu_obs, mu_act, uav_obs, uav_act, "uav")
    loss = (values * values).mean()
    loss.backward()
    for p in critic.parameters():
        assert p.grad is not None
        assert np.all(np.isfinite(p.grad))
