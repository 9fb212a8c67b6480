"""Actors: shape-parameter guarantees, sampling, unit-cube log-densities."""

import math
import warnings

import numpy as np
import pytest

from oracles import in_float64
from uav_iscc.mappo import actor_forward, greedy_action, log_prob_entropy, sample_action
from uav_iscc.numerics import MlpParams, Tensor, mlp_forward


def make_actor(obs_dim=6, dims=3, seed=0):
    return MlpParams.create([obs_dim, 16, 16, 2 * dims], np.random.default_rng(seed))


def test_zero_weight_network_gives_uniform_shapes():
    actor = make_actor()
    for w, b in actor.layers:
        w.data[:] = 0.0
        b.data[:] = 0.0
    z, e = actor_forward(actor, Tensor(np.random.default_rng(1).normal(size=(4, 6))))
    expected = 1.0 + math.log(2.0)  # 1 + softplus(0)
    assert np.allclose(z.data, expected)
    assert np.allclose(e.data, expected)


def test_shapes_always_above_one():
    actor = make_actor(seed=2)
    rng = np.random.default_rng(3)
    obs = Tensor(rng.normal(size=(50, 6)) * 10)
    z, e = actor_forward(actor, obs)
    assert np.all(z.data > 1.0) and np.all(e.data > 1.0)
    # raw trunk outputs several units either side of zero map above one too
    actor.layers[-1][0].data *= 20.0
    raw = mlp_forward(actor, obs).data
    assert raw.min() < -5.0 and raw.max() > 5.0
    z, e = actor_forward(actor, obs)
    assert np.all(z.data > 1.0) and np.all(e.data > 1.0)


def test_saturated_trunk_outputs_give_finite_gradients():
    # raw outputs of -100 put e^-x past float32's range, where the softplus
    # gradient is exactly 0; no overflow may be raised on the way
    actor = make_actor(dims=2, seed=3)
    w, b = actor.layers[-1]
    w.data[:] = 0.0
    b.data[:] = [100.0, -100.0, -100.0, 100.0]
    obs = np.random.default_rng(4).normal(size=(5, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logp, ent = log_prob_entropy(actor, Tensor(obs), np.full((5, 2), 0.5))
        (logp.sum() + ent.sum()).backward()
    for p in actor.parameters():
        assert np.all(np.isfinite(p.grad))
    assert np.any(b.grad != 0.0)


def test_shape_gradient_matches_finite_differences():
    actor = make_actor(seed=4)
    in_float64(*actor.parameters())
    rng = np.random.default_rng(5)
    obs = rng.normal(size=(3, 6))
    z, _ = actor_forward(actor, Tensor(obs))
    z.mean().backward()
    w0 = actor.layers[0][0]
    h = 1e-6
    for idx in [(0, 0), (2, 5), (5, 10)]:
        old = w0.data[idx]
        w0.data[idx] = old + h
        up = actor_forward(actor, Tensor(obs))[0].data.mean()
        w0.data[idx] = old - h
        down = actor_forward(actor, Tensor(obs))[0].data.mean()
        w0.data[idx] = old
        fd = (up - down) / (2 * h)
        assert w0.grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_symmetric_heads_sample_symmetric_about_midpoint():
    actor = make_actor(dims=1, seed=6)
    for w, b in actor.layers:
        w.data[:] = 0.0
        b.data[:] = 0.0  # zeta = eta -> symmetric about the unit midpoint
    rng = np.random.default_rng(7)
    obs = np.zeros((20_000, 6))
    unit, _ = sample_action(actor, obs, rng)
    assert abs(unit.mean() - 0.5) < 0.05 / 8.0


def test_unit_interval_logp_equals_raw_beta_density():
    actor = make_actor(dims=2, seed=8)
    in_float64(*actor.parameters())
    rng = np.random.default_rng(9)
    obs = rng.normal(size=(5, 6))
    unit, logp = sample_action(actor, obs, rng)
    z, e = actor_forward(actor, Tensor(obs))
    from scipy.special import gammaln

    direct = (gammaln(z.data + e.data) - gammaln(z.data) - gammaln(e.data)
              + (z.data - 1) * np.log(unit) + (e.data - 1) * np.log1p(-unit)).sum(-1)
    assert np.allclose(logp, direct, atol=1e-12)


def test_sampling_evaluates_no_digamma(monkeypatch):
    # the rollout needs the density alone: three lnGamma and no psi
    import uav_iscc.numerics.distributions as distributions

    calls = []
    real = distributions._digamma
    monkeypatch.setattr(distributions, "_digamma", lambda a: calls.append(a) or real(a))
    actor = make_actor(dims=3, seed=10)
    obs = np.random.default_rng(11).normal(size=(7, 6))
    sample_action(actor, obs, np.random.default_rng(11))
    assert calls == []
    log_prob_entropy(actor, Tensor(obs), np.full((7, 3), 0.5))
    assert len(calls) == 3


def test_log_prob_entropy_consistent_with_sampling():
    actor = make_actor(dims=3, seed=12)
    rng = np.random.default_rng(13)
    obs = rng.normal(size=(7, 6))
    unit, logp = sample_action(actor, obs, rng)
    logp_t, ent = log_prob_entropy(actor, Tensor(obs), unit)
    assert np.allclose(logp_t.data, logp, atol=1e-10)
    assert np.all(np.isfinite(ent.data))


def test_greedy_is_beta_mean():
    actor = make_actor(dims=2, seed=14)
    obs = np.random.default_rng(15).normal(size=(3, 6))
    unit = greedy_action(actor, obs)
    z, e = actor_forward(actor, Tensor(obs))
    assert np.allclose(unit, z.data / (z.data + e.data))


def test_sampling_deterministic_per_seed():
    actor = make_actor(seed=18)
    obs = np.random.default_rng(19).normal(size=(5, 6))
    a = sample_action(actor, obs, np.random.default_rng(42))
    b = sample_action(actor, obs, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
