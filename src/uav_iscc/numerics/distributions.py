"""Beta density, sampler and entropy used by the stochastic policies.

Log-densities are built from autodiff primitives so shape parameters can be
trained; sampling goes through an explicit numpy Generator and never enters
the recorded graph.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

# keeps samples strictly inside (0, 1) so log terms stay finite
_UNIT_EPS = 1e-6


class DomainError(ValueError):
    """Density evaluated outside its support."""


def beta_log_prob(zeta, eta, x) -> Tensor:
    """ln f(x; zeta, eta) with f = Gamma(z+e)/(Gamma(z)Gamma(e)) x^(z-1)(1-x)^(e-1).

    `x` is a constant in the open unit interval; `zeta`/`eta` may be tensors.
    """
    x_np = np.asarray(x, dtype=np.float64)
    if np.any(x_np <= 0.0) or np.any(x_np >= 1.0):
        raise DomainError("beta_log_prob requires x strictly inside (0, 1)")
    zeta, eta = Tensor._lift(zeta), Tensor._lift(eta)
    if np.any(zeta.data <= 0.0) or np.any(eta.data <= 0.0):
        raise DomainError("beta shape parameters must be positive")
    log_norm = (zeta + eta).lgamma() - zeta.lgamma() - eta.lgamma()
    return log_norm + (zeta - 1.0) * np.log(x_np) + (eta - 1.0) * np.log1p(-x_np)


def beta_sample(zeta, eta, rng: np.random.Generator):
    """Draw from Beta(zeta, eta) for array shapes; clipped to the open unit interval."""
    return np.clip(rng.beta(zeta, eta), _UNIT_EPS, 1.0 - _UNIT_EPS)


def beta_entropy(zeta, eta) -> Tensor:
    """Differential entropy of Beta(zeta, eta) in nats (closed form)."""
    zeta, eta = Tensor._lift(zeta), Tensor._lift(eta)
    total = zeta + eta
    log_b = zeta.lgamma() + eta.lgamma() - total.lgamma()
    return (log_b
            - (zeta - 1.0) * zeta.digamma()
            - (eta - 1.0) * eta.digamma()
            + (total - 2.0) * total.digamma())

