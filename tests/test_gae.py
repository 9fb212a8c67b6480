"""Advantage estimation against a brute-force double-sum oracle.

Each case builds its own one-step TD errors δ_t = r_t + γ·V_{t+1} − V_t, with
the bootstrap value standing in for V_T in the last one.
"""

import numpy as np
import pytest

from uav_iscc.mappo import compute_gae


def brute_force_gae(rewards, values, bootstrap, gamma, lam):
    t_len = len(rewards)
    ext = np.concatenate([values, [bootstrap]])
    deltas = np.array([rewards[t] + gamma * ext[t + 1] - ext[t] for t in range(t_len)])
    adv = np.zeros(t_len)
    for t in range(t_len):
        adv[t] = sum((gamma * lam) ** l * deltas[t + l] for l in range(t_len - t))
    return adv


def test_two_step_example():
    # r = 1 in both slots, V = 0 and no bootstrap: both TD errors are 1
    adv = compute_gae(np.array([1.0, 1.0]), 0.98 * 0.95)
    assert adv[1] == pytest.approx(1.0)
    assert adv[0] == pytest.approx(1.0 + 0.98 * 0.95 * 1.0)


def test_lambda_zero_is_one_step_delta():
    rng = np.random.default_rng(0)
    r = rng.normal(size=10)
    v = rng.normal(size=10)
    deltas = r + 0.9 * np.append(v[1:], 0.5) - v
    adv = compute_gae(deltas, 0.9 * 0.0)
    assert np.allclose(adv, brute_force_gae(r, v, 0.5, 0.9, 0.0), atol=1e-12)
    assert np.allclose(adv, deltas, atol=1e-12)


def test_constant_reward_fixed_point():
    gamma = 0.9
    r = np.full(20, 2.0)
    v = np.full(20, 2.0 / (1 - gamma))
    deltas = r + gamma * np.append(v[1:], 2.0 / (1 - gamma)) - v
    adv = compute_gae(deltas, gamma * 0.7)
    assert np.allclose(adv, 0.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_matches_brute_force_on_random_sequences(seed):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=10)
    v = rng.normal(size=10)
    boot = float(rng.normal())
    gamma = rng.uniform(0.8, 0.999)
    lam = rng.uniform(0.0, 1.0)
    adv = compute_gae(r + gamma * np.append(v[1:], boot) - v, gamma * lam)
    want = brute_force_gae(r, v, boot, gamma, lam)
    assert np.max(np.abs(adv - want)) < 1e-10


@pytest.mark.parametrize("n", [1, 5])
def test_columns_match_per_column_calls(n):
    rng = np.random.default_rng(20 + n)
    r = rng.normal(size=(12, n))
    v = rng.normal(size=(12, n))
    deltas = r + 0.97 * np.vstack([v[1:], np.full((1, n), 1.7)]) - v
    adv = compute_gae(deltas, 0.97 * 0.9)
    assert adv.shape == (12, n)
    cols = np.stack([compute_gae(deltas[:, u], 0.97 * 0.9) for u in range(n)], axis=1)
    assert adv.tobytes() == cols.tobytes()
    want = np.stack([brute_force_gae(r[:, u], v[:, u], 1.7, 0.97, 0.9) for u in range(n)], axis=1)
    assert np.max(np.abs(adv - want)) < 1e-10
