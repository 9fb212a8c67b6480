"""Bias-corrected Adam over lists of parameter tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8    # Adam's moment decay rates and denominator offset


class AdamState:
    """First/second moment accumulators for one parameter list."""

    def __init__(self, params, lr: float):
        self.params: list[Tensor] = list(params)
        self.lr = lr
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
    bias1 = 1.0 - BETA1 ** state.step_count
    bias2 = 1.0 - BETA2 ** state.step_count
    for i, p in enumerate(state.params):
        if p.grad is None:
            continue
        g = p.grad
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g
        m_hat = state.m[i] / bias1
        v_hat = state.v[i] / bias2
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.grad = None
