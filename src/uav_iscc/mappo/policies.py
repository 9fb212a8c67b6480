"""Stochastic actors: shared per-type MLP trunks with Beta heads by default,
Gaussian heads as the ablation.

Policies operate on the unit hypercube internally. Each action dimension owns
a native interval; the affine map from the unit draw to the interval
contributes -ln(width) per dimension to the log-density. Stored actions are
the unit-interval values, which also feed the critics.
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
    gaussian_entropy,
    gaussian_log_prob,
    gaussian_sample,
    mlp_forward,
    no_grad,
)

# Gaussian draws are clamped into the open unit interval before decoding;
# this is exactly the boundary bias the Beta policy avoids
_GAUSS_CLAMP = 1e-3
_LOG_STD_MIN, _LOG_STD_MAX = -5.0, 1.0


@dataclass
class ActorParams:
    """One shared actor for a homogeneous agent type."""

    trunk: MlpParams
    head: BetaHeadParams
    kind: str = "beta"  # "beta" | "gaussian"

    @classmethod
    def create(cls, obs_dim: int, lo: np.ndarray, hi: np.ndarray,
               hidden: tuple, rng: np.random.Generator, kind: str = "beta") -> "ActorParams":
        lo = np.asarray(lo, dtype=np.float64)
        action_dim = lo.size
        trunk = MlpParams.create([obs_dim, *hidden, 2 * action_dim], rng)
        head = BetaHeadParams(action_dim=action_dim, lo=lo, hi=np.asarray(hi, dtype=np.float64))
        return cls(trunk=trunk, head=head, kind=kind)

    def parameters(self):
        return self.trunk.parameters()

    @property
    def action_dim(self) -> int:
        return self.head.action_dim


def actor_forward(params: ActorParams, obs) -> tuple[Tensor, Tensor]:
    """Beta: per-dimension shape pair, both > 1. Gaussian: (mean, log_std)."""
    raw = mlp_forward(params.trunk, obs)
    if params.kind == "beta":
        return params.head.shapes_from_raw(raw)
    a = params.head.action_dim
    mean = raw[..., :a]
    log_std = raw[..., a:].clip(_LOG_STD_MIN, _LOG_STD_MAX)
    return mean, log_std


def _log_width_total(params: ActorParams) -> float:
    return float(np.sum(np.log(params.head.widths)))


def sample_action(params: ActorParams, obs_batch: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one action per row of `obs_batch`.

    Returns (unit actions [B, A], log-probs [B]); the log-probability is the
    joint density over the native intervals.
    """
    with no_grad():  # the forward records no graph; the density runs on plain arrays
        p1, p2 = (t.data for t in actor_forward(params, Tensor(obs_batch)))
    if params.kind == "beta":
        unit = beta_sample(p1, p2, rng)
        logp = beta_log_prob(p1, p2, unit)
    else:
        unit = np.clip(gaussian_sample(p1, p2, rng), _GAUSS_CLAMP, 1.0 - _GAUSS_CLAMP)
        logp = gaussian_log_prob(p1, p2, unit)
    logp = (logp.sum(axis=-1) - _log_width_total(params)).data
    return unit, logp


def greedy_action(params: ActorParams, obs_batch: np.ndarray) -> np.ndarray:
    """Deterministic unit action [B, A]: Beta mean z/(z+e), or the clamped Gaussian mean."""
    with no_grad():
        p1, p2 = (t.data for t in actor_forward(params, Tensor(obs_batch)))
    if params.kind == "beta":
        unit = p1 / (p1 + p2)
    else:
        unit = np.clip(p1, _GAUSS_CLAMP, 1.0 - _GAUSS_CLAMP)
    return unit


def log_prob_entropy(params: ActorParams, obs_batch, unit_actions) -> tuple[Tensor, Tensor]:
    """Differentiable joint log-density and entropy for stored unit actions.

    Shapes: obs [.., B, obs_dim], actions [.., B, A] -> both outputs [.., B].
    The entropy is the per-dimension distribution entropy summed over
    dimensions (interval offsets are constant and dropped).
    """
    p1, p2 = actor_forward(params, obs_batch)
    x = np.asarray(unit_actions, dtype=np.float64)
    if params.kind == "beta":
        logp = beta_log_prob(p1, p2, x).sum(axis=-1) - _log_width_total(params)
        ent = beta_entropy(p1, p2).sum(axis=-1)
    else:
        logp = gaussian_log_prob(p1, p2, x).sum(axis=-1) - _log_width_total(params)
        ent = gaussian_entropy(p2).sum(axis=-1)
    return logp, ent
