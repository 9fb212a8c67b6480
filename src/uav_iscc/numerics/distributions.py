"""Beta density, sampler and entropy used by the stochastic policies.

The log-density and the entropy come from one recorded node whose backward is
the closed-form gradient; sampling goes through an explicit numpy Generator and
never enters the recorded graph.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma as _digamma
from scipy.special import gammaln as _gammaln

from .tensor import Tensor

# keeps samples strictly inside (0, 1) so log terms stay finite
_UNIT_EPS = 1e-6


class DomainError(ValueError):
    """Density evaluated outside its support."""


def _trigamma(x: np.ndarray) -> np.ndarray:
    """psi'(x), x > 0: ten steps of psi'(x) = 1/x^2 + psi'(x+1), then the series through B12."""
    acc = np.zeros_like(x)
    for _ in range(10):
        acc += 1.0 / (x * x)
        x = x + 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = -691 / 2730
    for b in (5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6):
        series = series * inv2 + b
    return acc + inv + inv2 * (0.5 + inv * series)


def beta_log_prob_entropy(zeta, eta, x, with_entropy: bool = True) -> tuple[Tensor, Tensor | None]:
    """Elementwise Beta log-density ln f(x; zeta, eta) and entropy H in nats, one recorded node.

    f = Gamma(z+e)/(Gamma(z)Gamma(e)) x^(z-1)(1-x)^(e-1). `x` is a constant in
    the open unit interval, cast to the shapes' dtype after its logs; `zeta`
    and `eta` may be tensors. With `with_entropy=False` the entropy is None,
    and unless a graph is recorded no psi is evaluated.

    Per call, lnGamma and psi of z, e and z+e are taken once each, and psi' of
    each once in the entropy's backward: 3, 3 and 3 evaluations. The values
    follow the per-op chain in `tests/oracles.py` operation for operation, so
    they equal it bit for bit. The gradients are the closed forms
    d logp/dz = psi(z+e) - psi(z) + ln x and dH/dz = (z+e-2) psi'(z+e) - (z-1) psi'(z),
    and the same in e with ln(1-x).
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x > 0.0) & (x < 1.0)):     # written so that a NaN fails it
        raise DomainError("the Beta log-density requires x strictly inside (0, 1)")
    zeta, eta = Tensor._lift(zeta), Tensor._lift(eta)
    z, e = zeta.data, eta.data
    if not (np.all(z > 0.0) and np.all(e > 0.0)):
        raise DomainError("beta shape parameters must be positive")
    total = z + e
    lg_total, lg_z, lg_e = _gammaln(total), _gammaln(z), _gammaln(e)
    log_x, log_1mx = np.log(x).astype(z.dtype), np.log1p(-x).astype(e.dtype)
    z1, e1 = z - 1.0, e - 1.0
    logp = lg_total - lg_z - lg_e + z1 * log_x + e1 * log_1mx
    if not (with_entropy or Tensor._records((zeta, eta))):
        return Tensor(logp), None
    psi_total, psi_z, psi_e = _digamma(total), _digamma(z), _digamma(e)

    def logp_backward(g):
        zeta._accumulate(g * (psi_total - psi_z + log_x))
        eta._accumulate(g * (psi_total - psi_e + log_1mx))

    logp = Tensor._make(logp, (zeta, eta), logp_backward)
    if not with_entropy:
        return logp, None
    total2 = total - 2.0
    ent = lg_z + lg_e - lg_total - z1 * psi_z - e1 * psi_e + total2 * psi_total

    def entropy_backward(g):
        shared = total2 * _trigamma(total)
        zeta._accumulate(g * (shared - z1 * _trigamma(z)))
        eta._accumulate(g * (shared - e1 * _trigamma(e)))

    return logp, Tensor._make(ent, (zeta, eta), entropy_backward)


def beta_sample(zeta, eta, rng: np.random.Generator):
    """Draw from Beta(zeta, eta) for array shapes; clipped to the open unit interval."""
    return np.clip(rng.beta(zeta, eta), _UNIT_EPS, 1.0 - _UNIT_EPS)
