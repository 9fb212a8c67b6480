"""Minimal dense linear algebra, reverse-mode differentiation, Adam, and the
probability kernels the actors and critics are built on."""

from .distributions import (
    DomainError,
    beta_entropy,
    beta_log_prob,
    beta_sample,
)
from .nn import (
    AttentionBlockParams,
    BetaHeadParams,
    DimensionError,
    MlpParams,
    mlp_forward,
)
from .optim import AdamState, adam_step, clip_grad_norm
from .tensor import GraphError, Tensor, concat, no_grad, parameter, self_masked_attention

__all__ = [
    "AdamState",
    "AttentionBlockParams",
    "BetaHeadParams",
    "DimensionError",
    "DomainError",
    "GraphError",
    "MlpParams",
    "Tensor",
    "adam_step",
    "beta_entropy",
    "beta_log_prob",
    "beta_sample",
    "clip_grad_norm",
    "concat",
    "mlp_forward",
    "no_grad",
    "parameter",
    "self_masked_attention",
]
