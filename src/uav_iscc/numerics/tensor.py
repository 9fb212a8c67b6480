"""Reverse-mode automatic differentiation over a dynamically recorded graph.

A Tensor wraps a float64 numpy array plus an optional gradient accumulator.
Operations record closures on a tape (none inside ``no_grad()``); calling
``backward()`` on a scalar loss walks the tape in reverse topological order and
accumulates gradients into every reachable tensor with ``requires_grad=True``.
Plain numpy arrays and Python scalars are promoted to constant tensors on the
fly; a constant (neither ``requires_grad`` nor recorded parents) gets no gradient.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import digamma as _digamma
from scipy.special import gammaln as _gammaln


class GraphError(Exception):
    """Raised on contract violations of the recorded computation graph."""


_recording = True


@contextmanager
def no_grad():
    """Record no graph inside the block; outputs are constants."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


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


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-d float64 array with an optional same-shape gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    def _accumulate(self, grad: np.ndarray):
        if not (self.requires_grad or self._parents):
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad  # no copy: nothing writes a .grad in place
        else:
            self.grad = self.grad + grad

    def backward(self):
        """Populate gradients of all reachable tensors. Loss must be scalar."""
        if self.data.size != 1:
            raise GraphError(f"backward() requires a scalar, got shape {self.data.shape}")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _recording and any(p.requires_grad or p._parents for p in parents):
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = Tensor._lift(other)

        def backward(g):
            self._accumulate(g)
            other._accumulate(g)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __mul__(self, other):
        other = Tensor._lift(other)

        def backward(g):
            self._accumulate(g * other.data)
            other._accumulate(g * self.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = Tensor._lift(other)
        a, b = self.data, other.data
        # promote 1-d operands so one backward rule covers every case
        a2 = a[None, :] if a.ndim == 1 else a
        b2 = b[:, None] if b.ndim == 1 else b

        def backward(g):
            g2 = g
            if a.ndim == 1:
                g2 = np.expand_dims(g2, -2)
            if b.ndim == 1:
                g2 = np.expand_dims(g2, -1)
            if self.requires_grad or self._parents:  # constants skip their product
                self._accumulate(_unbroadcast(g2 @ b2.swapaxes(-1, -2), a2.shape).reshape(a.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(a2.swapaxes(-1, -2) @ g2, b2.shape).reshape(b.shape))

        return self._make(a @ b, (self, other), backward)

    # ------------------------------------------------------------------
    # elementwise transcendental
    # ------------------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - out_data * out_data))

        return self._make(out_data, (self,), backward)

    def softplus(self):
        # log(1 + e^x), evaluated stably for large |x|
        out_data = np.logaddexp(0.0, self.data)

        def backward(g):
            self._accumulate(g / (1.0 + np.exp(-self.data)))

        return self._make(out_data, (self,), backward)

    def lgamma(self):
        def backward(g):
            self._accumulate(g * _digamma(self.data))

        return self._make(_gammaln(self.data), (self,), backward)

    def digamma(self):
        def backward(g):
            self._accumulate(g * _trigamma(self.data))

        return self._make(_digamma(self.data), (self,), backward)

    # ------------------------------------------------------------------
    # clamping / selection (subgradient at kinks routes to one branch)
    # ------------------------------------------------------------------
    def clip(self, lo: float, hi: float):
        mask = (self.data > lo) & (self.data < hi)

        def backward(g):
            self._accumulate(g * mask)

        return self._make(np.clip(self.data, lo, hi), (self,), backward)

    def minimum(self, other):
        other = Tensor._lift(other)
        take_self = self.data <= other.data

        def backward(g):
            self._accumulate(g * take_self)
            other._accumulate(g * ~take_self)

        return self._make(np.minimum(self.data, other.data), (self, other), backward)

    # ------------------------------------------------------------------
    # shape / reduction
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        src = self.data.shape

        def backward(g):
            self._accumulate(g.reshape(src))

        return self._make(self.data.reshape(*shape), (self,), backward)

    def transpose(self, *axes):
        axes = axes or tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)

        def backward(g):
            self._accumulate(g.transpose(inv))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int):
        def backward(g):
            self._accumulate(np.swapaxes(g, a, b))

        return self._make(np.swapaxes(self.data, a, b), (self,), backward)

    def sum(self, axis=None, keepdims: bool = False):
        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape))
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def __getitem__(self, idx):
        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            self._accumulate(full)

        return self._make(self.data[idx], (self,), backward)


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------
def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax; outputs are positive and sum to one on `axis`.

    One recorded node: the backward is g*y - y * sum(g*y) on `axis`.
    """
    logits = Tensor._lift(logits)
    e = np.exp(logits.data - logits.data.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        gy = g * y
        gy -= y * gy.sum(axis=axis, keepdims=True)
        logits._accumulate(gy)

    return Tensor._make(y, (logits,), backward)


def parameter(data, rng: np.random.Generator | None = None, scale: float | None = None) -> Tensor:
    """Trainable tensor. With `rng`, `data` is read as a shape and filled
    uniformly in +-scale (Glorot-style limit when scale is None)."""
    if rng is not None:
        shape = tuple(data)
        if scale is None:
            fan_in = shape[0] if len(shape) > 1 else max(shape[0], 1)
            scale = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)
    return Tensor(data, requires_grad=True)
