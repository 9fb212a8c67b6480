"""Bias-corrected Adam over lists of parameter tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class AdamState:
    """First/second moment accumulators for one parameter list."""

    def __init__(self, params, lr: float = 5e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params: list[Tensor] = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most `max_norm`;
    returns the norm before scaling."""
    with_grad = [p for p in params if p.grad is not None]
    norm = float(np.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in with_grad)))
    if norm > max_norm > 0.0:
        scale = max_norm / (norm + 1e-12)
        for p in with_grad:
            p.grad = p.grad * scale
    return norm


def adam_step(state: AdamState) -> None:
    """Apply one update to every parameter with a gradient, then zero grads.

    Parameters without gradients are left untouched (no-op on zero grad).
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for i, p in enumerate(state.params):
        if p.grad is None:
            continue
        g = p.grad
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / bias1
        v_hat = state.v[i] / bias2
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p.grad = None
