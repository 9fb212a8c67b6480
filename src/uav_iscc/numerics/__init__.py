"""Minimal dense linear algebra, reverse-mode differentiation, Adam, and the
probability kernels the actors and the critic are built on."""

from .distributions import (
    DomainError,
    beta_log_prob_entropy,
    beta_sample,
)
from .nn import (
    DimensionError,
    MlpParams,
    mlp_forward,
)
from .optim import AdamState, adam_step, clip_grad_norm
from .tensor import GraphError, Tensor, concat, dense, no_grad, parameter, self_masked_attention

__all__ = [
    "AdamState",
    "DimensionError",
    "DomainError",
    "GraphError",
    "MlpParams",
    "Tensor",
    "adam_step",
    "beta_log_prob_entropy",
    "beta_sample",
    "clip_grad_norm",
    "concat",
    "dense",
    "mlp_forward",
    "no_grad",
    "parameter",
    "self_masked_attention",
]
