"""Beta policy kernels: density values, normalization, sampling, entropy."""

import math

import numpy as np
import pytest
from scipy.special import digamma

import uav_iscc.numerics.distributions as distributions
from oracles import beta_entropy_chain, beta_entropy_value, beta_log_prob_chain
from uav_iscc.numerics import (
    DomainError,
    Tensor,
    beta_log_prob_entropy,
    beta_sample,
    no_grad,
    parameter,
)


def beta_log_prob(zeta, eta, x) -> Tensor:
    return beta_log_prob_entropy(zeta, eta, x)[0]


def beta_entropy(zeta, eta) -> Tensor:
    return beta_log_prob_entropy(zeta, eta, 0.5)[1]


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
    with pytest.raises(DomainError):
        beta_log_prob(0.0, 2.0, 0.5)


@pytest.mark.parametrize("where", ["x", "zeta", "eta"])
def test_beta_log_prob_rejects_nan(where):
    # a NaN compares false both ways, so a check written as "any out of range" lets it through
    args = {"zeta": [2.0, 2.0], "eta": [2.0, 2.0], "x": [0.5, 0.5]}
    args[where][1] = np.nan
    with pytest.raises(DomainError):
        beta_log_prob_entropy(*(np.array(args[name]) for name in ("zeta", "eta", "x")))


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


def _finite_difference(f, p, h):
    """Central differences of the scalar f() in each entry of p.data."""
    fd = np.zeros_like(p.data)
    for i in np.ndindex(p.shape):
        old = p.data[i]
        p.data[i] = old + h
        up = f()
        p.data[i] = old - h
        down = f()
        p.data[i] = old
        fd[i] = (up - down) / (2 * h)
    return fd


def _float64_shapes(rng):
    """Trainable float64 shape pairs [3, 6]: rows near 1, moderate, and above 50."""
    low, mid, high = 1.0 + rng.uniform(1e-4, 1e-2, 6), rng.uniform(1.2, 4.0, 6), rng.uniform(50.0, 80.0, 6)
    return parameter(np.stack([low, mid, high])), parameter(np.stack([high, low, mid]))


def test_beta_log_prob_gradient_finite_difference():
    # float64 shapes near 1 and far above it, under a non-uniform upstream gradient
    rng = np.random.default_rng(2)
    z, e = _float64_shapes(rng)
    x = rng.uniform(0.05, 0.95, size=(3, 6))
    weight = rng.normal(size=(3, 6))
    (beta_log_prob(z, e, x) * weight).sum().backward()
    for p in (z, e):
        fd = _finite_difference(lambda: float((beta_log_prob(z.data, e.data, x).data * weight).sum()),
                                p, 1e-6)
        assert p.grad == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_recorded_density_only_path_has_the_closed_form_gradient():
    # with_entropy=False on tracked shapes records the log-density alone; its
    # gradients are psi(z+e) - psi(z) + ln x and psi(z+e) - psi(e) + ln(1-x)
    rng = np.random.default_rng(8)
    z, e = _float64_shapes(rng)
    x = rng.uniform(0.05, 0.95, size=(3, 6))
    logp, ent = beta_log_prob_entropy(z, e, x, with_entropy=False)
    assert ent is None and logp._parents == (z, e)
    assert np.array_equal(logp.data, beta_log_prob(z.data, e.data, x).data)
    logp.sum().backward()
    psi_total = digamma(z.data + e.data)
    assert np.array_equal(z.grad, psi_total - digamma(z.data) + np.log(x))
    assert np.array_equal(e.grad, psi_total - digamma(e.data) + np.log1p(-x))


def test_beta_entropy_gradient_finite_difference():
    z = parameter(np.array([1.8]))
    e = parameter(np.array([3.3]))
    beta_entropy(z, e).sum().backward()
    h = 1e-6
    fd_z = (beta_entropy_value(z.data[0] + h, e.data[0]) - beta_entropy_value(z.data[0] - h, e.data[0])) / (2 * h)
    fd_e = (beta_entropy_value(z.data[0], e.data[0] + h) - beta_entropy_value(z.data[0], e.data[0] - h)) / (2 * h)
    assert z.grad[0] == pytest.approx(fd_z, rel=1e-5)
    assert e.grad[0] == pytest.approx(fd_e, rel=1e-5)


def test_beta_entropy_gradient_finite_difference_on_arrays():
    rng = np.random.default_rng(3)
    z, e = _float64_shapes(rng)
    weight = rng.normal(size=(3, 6))
    (beta_entropy(z, e) * weight).sum().backward()
    for p in (z, e):
        fd = _finite_difference(lambda: float((beta_entropy(z.data, e.data).data * weight).sum()),
                                p, 1e-6)
        assert p.grad == pytest.approx(fd, rel=1e-5, abs=1e-7)


def _float32_shapes(shape, seed):
    """Shapes as `actor_forward` makes them, 1 + softplus(raw) in float32, from
    raw outputs that put some shapes within 1e-6 of 1 and some above 50."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(0.0, 2.0, size=(2, *shape))
    raw.reshape(2, -1)[:, :4] = [[-14.0, -20.0, 55.0, 80.0], [60.0, -16.0, 51.0, -30.0]]
    zeta, eta = 1.0 + np.logaddexp(0.0, raw.astype(np.float32))
    x = np.clip(rng.beta(2.0, 2.0, size=shape), 1e-6, 1 - 1e-6)
    return zeta, eta, x


@pytest.mark.parametrize("shape", [(9, 3), (4, 5, 2)], ids=["B-A", "T-K-A"])
def test_node_equals_the_per_op_chains_bit_for_bit(shape):
    zeta, eta, x = _float32_shapes(shape, seed=4)
    assert zeta.min() - 1.0 < 1e-6 and zeta.max() > 50.0
    logp, ent = beta_log_prob_entropy(zeta, eta, x)
    want_logp, want_ent = beta_log_prob_chain(zeta, eta, x), beta_entropy_chain(zeta, eta)
    assert logp.data.dtype == ent.data.dtype == np.float32
    assert logp.data.tobytes() == want_logp.data.tobytes()
    assert ent.data.tobytes() == want_ent.data.tobytes()
    density_only, none = beta_log_prob_entropy(zeta, eta, x, with_entropy=False)
    assert none is None and density_only.data.tobytes() == want_logp.data.tobytes()


@pytest.mark.parametrize("shape", [(9, 3), (4, 5, 2)], ids=["B-A", "T-K-A"])
def test_float32_gradients_stay_near_the_per_op_chains(shape):
    # the closed forms round differently from the chain's sum of per-op
    # gradients. Gaps are taken relative to the largest entry: an entry near a
    # zero crossing holds only float32 cancellation noise, in both. The largest
    # measured here was 1.7e-7.
    zeta, eta, x = _float32_shapes(shape, seed=5)
    g_logp, g_ent = np.random.default_rng(6).normal(size=(2, *shape))
    grads = []
    for node in (lambda z, e: beta_log_prob_entropy(z, e, x),
                 lambda z, e: (beta_log_prob_chain(z, e, x), beta_entropy_chain(z, e))):
        z, e = parameter(zeta.copy()), parameter(eta.copy())
        logp, ent = node(z, e)
        (logp * g_logp + ent * g_ent).sum().backward()
        grads.append((z.grad, e.grad))
    for got, want in zip(*grads):
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) < 1e-5 * np.max(np.abs(want))


def test_node_without_recording_keeps_no_closure():
    z, e = parameter(np.array([1.5, 3.0])), parameter(np.array([2.0, 70.0]))
    with no_grad():
        outs = beta_log_prob_entropy(z, e, np.array([0.2, 0.7]))
    for out in outs:
        assert out._backward is None and out._parents == ()
    recorded = beta_log_prob_entropy(z, e, np.array([0.2, 0.7]))
    assert all(out._parents == (z, e) for out in recorded)


def test_density_and_entropy_take_three_of_each_special_function(monkeypatch):
    # per call: lnGamma and psi of zeta, eta and zeta+eta once each, psi' once
    # each in the entropy's backward; the density alone takes no psi
    calls = {}
    for name in ("_gammaln", "_digamma", "_trigamma"):
        real = getattr(distributions, name)

        def counted(a, real=real, name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(a)

        monkeypatch.setattr(distributions, name, counted)
    z, e = parameter(np.array([1.5, 3.0])), parameter(np.array([2.0, 70.0]))
    logp, ent = beta_log_prob_entropy(z, e, np.array([0.2, 0.7]))
    (logp + ent).sum().backward()
    assert calls == {"_gammaln": 3, "_digamma": 3, "_trigamma": 3}
    calls.clear()
    beta_log_prob_entropy(z.data, e.data, np.array([0.2, 0.7]), with_entropy=False)
    assert calls == {"_gammaln": 3}
