"""Attention pooling properties of the critic's query, key, value and mix maps."""

import numpy as np
import pytest

from oracles import attention_pool, attention_weights, head_dim, head_rows, in_float64
from uav_iscc.mappo import CriticParams
from uav_iscc.numerics import Tensor, parameter


@pytest.fixture
def critic():
    return CriticParams.create(4, 5, feature_dim=16, heads=4, hidden=(8,),
                               rng=np.random.default_rng(0))


def test_single_other_agent_gets_full_weight(critic):
    rng = np.random.default_rng(1)
    w = attention_weights(critic, rng.normal(size=16), [rng.normal(size=16)])
    assert np.allclose(w, 1.0, atol=1e-12)


def test_identical_features_get_uniform_weights(critic):
    rng = np.random.default_rng(2)
    z = rng.normal(size=16)
    w = attention_weights(critic, rng.normal(size=16), [z.copy() for _ in range(5)])
    assert np.allclose(w, 0.2, atol=1e-12)


def test_weights_match_hand_rolled_softmax(critic):
    # brute-force re-implementation with plain loops, no shared helpers
    rng = np.random.default_rng(3)
    query = rng.normal(size=16)
    others = [rng.normal(size=16) for _ in range(3)]
    got = attention_weights(critic, query, others)
    for h in range(critic.heads):
        hr = head_rows(critic, h)
        w_key, w_que = critic.w_key.data[hr], critic.w_que.data[hr]
        scores = []
        for z in others:
            s = 0.0
            for i in range(head_dim(critic)):
                ki = sum(w_key[i, j] * z[j] for j in range(16))
                qi = sum(w_que[i, j] * query[j] for j in range(16))
                s += ki * qi
            scores.append(s / np.sqrt(head_dim(critic)))
        ex = [np.exp(s) for s in scores]
        expected = np.array(ex) / sum(ex)
        assert np.max(np.abs(got[h] - expected)) < 1e-10


def test_weights_nonnegative_sum_to_one(critic):
    rng = np.random.default_rng(4)
    for n in (2, 3, 7):
        w = attention_weights(critic, rng.normal(size=16), [rng.normal(size=16) for _ in range(n)])
        assert np.all(w >= 0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)


def test_empty_other_features_yields_zero_vector(critic):
    out = attention_pool(critic, Tensor(np.random.default_rng(5).normal(size=16)), [])
    assert np.array_equal(out.data, np.zeros(16))


def test_pool_output_matches_manual_composition(critic):
    rng = np.random.default_rng(6)
    query = rng.normal(size=16)
    others = [rng.normal(size=16) for _ in range(4)]
    out = attention_pool(critic, Tensor(query), [Tensor(z) for z in others]).data
    w = attention_weights(critic, query, others)
    heads = []
    for h in range(critic.heads):
        vals = np.stack([critic.w_val.data[head_rows(critic, h)] @ z for z in others])
        heads.append(w[h] @ vals)
    expected = np.concatenate(heads) @ critic.w_mix.data
    assert np.max(np.abs(out - expected)) < 1e-10


def test_pool_gradient_matches_finite_differences(critic):
    in_float64(*critic.parameters())
    rng = np.random.default_rng(7)
    query = parameter(rng.normal(size=16))
    others = [parameter(rng.normal(size=16)) for _ in range(3)]
    attention_pool(critic, query, others).sum().backward()
    h = 1e-6
    for p in [query, *others, critic.w_que, critic.w_val, critic.w_mix]:
        flat = p.data.ravel()
        idxs = [0, flat.size // 2, flat.size - 1]
        for i in idxs:
            old = flat[i]
            flat[i] = old + h
            up = attention_pool(critic, Tensor(query.data), [Tensor(o.data) for o in others]).data.sum()
            flat[i] = old - h
            down = attention_pool(critic, Tensor(query.data), [Tensor(o.data) for o in others]).data.sum()
            flat[i] = old
            fd = (up - down) / (2 * h)
            assert p.grad.ravel()[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)
