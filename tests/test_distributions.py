"""Beta policy kernels: density values, normalization, sampling, entropy."""

import math

import numpy as np
import pytest

from oracles import beta_entropy_value
from uav_iscc.numerics import (
    DomainError,
    beta_entropy,
    beta_log_prob,
    beta_sample,
    parameter,
)


def test_uniform_beta_has_zero_log_density():
    for x in (0.1, 0.5, 0.9):
        assert abs(beta_log_prob(1.0, 1.0, x).item()) < 1e-12


def test_beta_2_2_at_half():
    # Gamma(4)/(Gamma(2)Gamma(2)) * 0.25 = 6 * 0.25 = 1.5
    assert beta_log_prob(2.0, 2.0, 0.5).item() == pytest.approx(math.log(1.5), abs=1e-12)


def test_beta_log_prob_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z, e = rng.uniform(0.5, 6.0, size=2)
        x = rng.uniform(0.01, 0.99)
        a = beta_log_prob(z, e, x).item()
        b = beta_log_prob(e, z, 1.0 - x).item()
        assert a == pytest.approx(b, abs=1e-10)


def test_beta_log_prob_domain_error():
    with pytest.raises(DomainError):
        beta_log_prob(2.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        beta_log_prob(2.0, 2.0, 1.0)


@pytest.mark.parametrize("zeta", [1.5, 2.0, 5.0])
@pytest.mark.parametrize("eta", [1.5, 2.0, 5.0])
def test_beta_density_integrates_to_one(zeta, eta):
    xs = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    dens = np.exp(beta_log_prob(zeta, eta, xs).data)
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-3)


def test_beta_sample_means():
    rng = np.random.default_rng(42)
    sym = beta_sample(np.full(100_000, 2.0), np.full(100_000, 2.0), rng)
    assert abs(sym.mean() - 0.5) < 0.005
    skew = beta_sample(np.full(100_000, 5.0), np.full(100_000, 2.0), rng)
    assert abs(skew.mean() - 5.0 / 7.0) < 0.01
    assert np.all(sym > 0) and np.all(sym < 1)


def test_beta_sample_deterministic_per_seed():
    a = beta_sample(2.3, 4.5, np.random.default_rng(7))
    b = beta_sample(2.3, 4.5, np.random.default_rng(7))
    assert a == b


def test_beta_entropy_values():
    assert beta_entropy(1.0, 1.0).item() == pytest.approx(0.0, abs=1e-12)
    assert beta_entropy(2.0, 2.0).item() == pytest.approx(-0.1251, abs=1e-4)
    assert beta_entropy(3.7, 1.2).item() == pytest.approx(beta_entropy(1.2, 3.7).item(), abs=1e-12)
    assert beta_entropy_value(2.0, 2.0) == pytest.approx(beta_entropy(2.0, 2.0).item(), abs=1e-12)


def test_beta_entropy_matches_monte_carlo():
    rng = np.random.default_rng(1)
    z, e = 2.5, 4.0
    draws = np.clip(rng.beta(z, e, size=200_000), 1e-9, 1 - 1e-9)
    mc = -beta_log_prob(z, e, draws).data.mean()
    assert beta_entropy(z, e).item() == pytest.approx(mc, abs=5e-3)


def test_beta_log_prob_gradient_finite_difference():
    rng = np.random.default_rng(2)
    z = parameter(rng.uniform(1.2, 4.0, size=6))
    e = parameter(rng.uniform(1.2, 4.0, size=6))
    x = rng.uniform(0.05, 0.95, size=6)
    beta_log_prob(z, e, x).sum().backward()
    h = 1e-5
    for p in (z, e):
        for i in range(6):
            old = p.data[i]
            p.data[i] = old + h
            up = beta_log_prob(z.data, e.data, x).data.sum()
            p.data[i] = old - h
            down = beta_log_prob(z.data, e.data, x).data.sum()
            p.data[i] = old
            fd = (up - down) / (2 * h)
            assert p.grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_beta_entropy_gradient_finite_difference():
    z = parameter(np.array([1.8]))
    e = parameter(np.array([3.3]))
    beta_entropy(z, e).sum().backward()
    h = 1e-6
    fd_z = (beta_entropy_value(z.data[0] + h, e.data[0]) - beta_entropy_value(z.data[0] - h, e.data[0])) / (2 * h)
    fd_e = (beta_entropy_value(z.data[0], e.data[0] + h) - beta_entropy_value(z.data[0], e.data[0] - h)) / (2 * h)
    assert z.grad[0] == pytest.approx(fd_z, rel=1e-5)
    assert e.grad[0] == pytest.approx(fd_e, rel=1e-5)
