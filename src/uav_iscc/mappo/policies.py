"""Stochastic actors: shared per-type MLP trunks with Beta heads.

Policies operate on the unit hypercube internally. Each action dimension owns
a native interval; the affine map from the unit draw to the interval
contributes -ln(width) per dimension to the log-density. Stored actions are
the unit-interval values, which also feed the critics. A Beta head has its
support on the interval itself, so no draw is clamped at a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import (
    BetaHeadParams,
    MlpParams,
    Tensor,
    beta_entropy,
    beta_log_prob,
    beta_sample,
    mlp_forward,
    no_grad,
)


@dataclass
class ActorParams:
    """One shared actor for a homogeneous agent type."""

    trunk: MlpParams
    head: BetaHeadParams

    @classmethod
    def create(cls, obs_dim: int, lo: np.ndarray, hi: np.ndarray,
               hidden: tuple, rng: np.random.Generator) -> "ActorParams":
        lo = np.asarray(lo, dtype=np.float64)
        action_dim = lo.size
        trunk = MlpParams.create([obs_dim, *hidden, 2 * action_dim], rng)
        head = BetaHeadParams(action_dim=action_dim, lo=lo, hi=np.asarray(hi, dtype=np.float64))
        return cls(trunk=trunk, head=head)

    def parameters(self):
        return self.trunk.parameters()

    @property
    def action_dim(self) -> int:
        return self.head.action_dim


def actor_forward(params: ActorParams, obs) -> tuple[Tensor, Tensor]:
    """Per-dimension Beta shape pair (zeta, eta), both > 1."""
    return params.head.shapes_from_raw(mlp_forward(params.trunk, obs))


def _log_width_total(params: ActorParams) -> float:
    return float(np.sum(np.log(params.head.widths)))


def sample_action(params: ActorParams, obs_batch: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one action per row of `obs_batch`.

    Returns (unit actions [B, A], log-probs [B]); the log-probability is the
    joint density over the native intervals.
    """
    with no_grad():  # the forward records no graph; the density runs on plain arrays
        zeta, eta = (t.data for t in actor_forward(params, Tensor(obs_batch)))
    unit = beta_sample(zeta, eta, rng)
    logp = (beta_log_prob(zeta, eta, unit).sum(axis=-1) - _log_width_total(params)).data
    return unit, logp


def greedy_action(params: ActorParams, obs_batch: np.ndarray) -> np.ndarray:
    """Deterministic unit action [B, A]: the Beta mean z/(z+e)."""
    with no_grad():
        zeta, eta = (t.data for t in actor_forward(params, Tensor(obs_batch)))
    return zeta / (zeta + eta)


def log_prob_entropy(params: ActorParams, obs_batch, unit_actions) -> tuple[Tensor, Tensor]:
    """Differentiable joint log-density and entropy for stored unit actions.

    Shapes: obs [.., B, obs_dim], actions [.., B, A] -> both outputs [.., B].
    The entropy is the per-dimension distribution entropy summed over
    dimensions (interval offsets are constant and dropped).
    """
    zeta, eta = actor_forward(params, obs_batch)
    x = np.asarray(unit_actions, dtype=np.float64)
    logp = beta_log_prob(zeta, eta, x).sum(axis=-1) - _log_width_total(params)
    ent = beta_entropy(zeta, eta).sum(axis=-1)
    return logp, ent
