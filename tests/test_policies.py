"""Actor heads: shape-parameter guarantees, sampling, log-density mapping."""

import math

import numpy as np
import pytest

from uav_iscc.mappo import ActorParams, actor_forward, greedy_action, log_prob_entropy, sample_action
from uav_iscc.numerics import Tensor


def make_actor(obs_dim=6, dims=3, lo=None, hi=None, seed=0):
    lo = np.zeros(dims) if lo is None else np.asarray(lo, dtype=float)
    hi = np.ones(dims) if hi is None else np.asarray(hi, dtype=float)
    return ActorParams.create(obs_dim, lo, hi, (16, 16), np.random.default_rng(seed))


def test_zero_weight_network_gives_uniform_shapes():
    actor = make_actor()
    for w, b in actor.trunk.layers:
        w.data[:] = 0.0
        b.data[:] = 0.0
    z, e = actor_forward(actor, Tensor(np.random.default_rng(1).normal(size=(4, 6))))
    expected = 1.0 + math.log(2.0)  # 1 + softplus(0)
    assert np.allclose(z.data, expected)
    assert np.allclose(e.data, expected)


def test_shapes_always_above_one():
    actor = make_actor(seed=2)
    rng = np.random.default_rng(3)
    z, e = actor_forward(actor, Tensor(rng.normal(size=(50, 6)) * 10))
    assert np.all(z.data > 1.0) and np.all(e.data > 1.0)


def test_shape_gradient_matches_finite_differences():
    actor = make_actor(seed=4)
    rng = np.random.default_rng(5)
    obs = rng.normal(size=(3, 6))
    z, _ = actor_forward(actor, Tensor(obs))
    z.mean().backward()
    w0 = actor.trunk.layers[0][0]
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
    actor = make_actor(dims=1, lo=[-2.0], hi=[6.0], seed=6)
    for w, b in actor.trunk.layers:
        w.data[:] = 0.0
        b.data[:] = 0.0  # zeta = eta -> symmetric about the interval midpoint
    rng = np.random.default_rng(7)
    obs = np.zeros((20_000, 6))
    unit, _ = sample_action(actor, obs, rng)
    assert abs(unit.mean() - 0.5) < 0.05 / 8.0


def test_unit_interval_logp_equals_raw_beta_density():
    actor = make_actor(dims=2, seed=8)
    rng = np.random.default_rng(9)
    obs = rng.normal(size=(5, 6))
    unit, logp = sample_action(actor, obs, rng)
    z, e = actor_forward(actor, Tensor(obs))
    from scipy.special import gammaln

    direct = (gammaln(z.data + e.data) - gammaln(z.data) - gammaln(e.data)
              + (z.data - 1) * np.log(unit) + (e.data - 1) * np.log1p(-unit)).sum(-1)
    assert np.allclose(logp, direct, atol=1e-12)


def test_wide_interval_subtracts_log_width():
    narrow = make_actor(dims=1, lo=[0.0], hi=[1.0], seed=10)
    wide = make_actor(dims=1, lo=[-5.0], hi=[5.0], seed=10)
    rng1, rng2 = np.random.default_rng(11), np.random.default_rng(11)
    obs = np.zeros((4, 6))
    _, lp_narrow = sample_action(narrow, obs, rng1)
    _, lp_wide = sample_action(wide, obs, rng2)
    assert np.allclose(lp_wide, lp_narrow - math.log(10.0), atol=1e-12)


def test_log_prob_entropy_consistent_with_sampling():
    actor = make_actor(dims=3, lo=[0, 0, -5], hi=[1, 1, 5], seed=12)
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
