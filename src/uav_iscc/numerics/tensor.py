"""Reverse-mode automatic differentiation over a dynamically recorded graph.

A Tensor wraps a float32 numpy array (the networks' dtype) or a float64 one
(anything else) plus an optional gradient accumulator of the same dtype.
Operations record closures on a tape (none inside ``no_grad()``); calling
``backward()`` on a scalar loss walks the tape in reverse topological order and
accumulates gradients into every reachable tensor with ``requires_grad=True``.
Those leaves keep theirs; an interior node's is released once it has propagated.
Plain numpy arrays and Python scalars are promoted to constant tensors on the
fly, in the dtype of the tensor they meet, so no result rests on numpy's scalar
promotion rules; a constant (neither ``requires_grad`` nor recorded parents)
gets no gradient.
On glibc, ``_retain_heap`` keeps freed pages for the next minibatch's graph to reuse.
"""

from __future__ import annotations

import ctypes
import math
import platform
from contextlib import contextmanager

import numpy as np


class GraphError(Exception):
    """Raised on contract violations of the recorded computation graph."""


_recording = True

_MASK = -1e30                # a query's own score: exp gives exactly 0, no inf arithmetic
_CHUNK_ELEMENTS = 1 << 18    # scores per self_masked_attention chunk: 2 MiB, an L2 cache


def _retain_heap() -> None:
    """Set both malloc thresholds: setting either one turns glibc's dynamic ones off."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
        mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD: return the heap top only past 64 MiB


_retain_heap()


@contextmanager
def no_grad():
    """Record no graph inside the block; outputs are constants."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


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
    """N-d array, float32 if given float32 and float64 otherwise, with an
    optional same-shape, same-dtype gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
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

    @property
    def _tracked(self) -> bool:
        """Whether gradients flow into this tensor; a constant gets none."""
        return self.requires_grad or bool(self._parents)

    def _accumulate(self, grad: np.ndarray):
        if not self._tracked:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad  # no copy: nothing writes a .grad in place
        else:
            self.grad = self.grad + grad

    def backward(self):
        """Accumulate gradients into all reachable leaves; each interior node's
        gradient is released once its backward has run. Loss must be scalar."""
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
                node.grad = None

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(x, like: "Tensor | None" = None) -> "Tensor":
        """`x` as a Tensor; an array or scalar takes the dtype of `like` when given."""
        if isinstance(x, Tensor):
            return x
        return Tensor(x if like is None else np.asarray(x, dtype=like.data.dtype))

    @staticmethod
    def _records(parents) -> bool:
        """Whether an op on `parents` is recorded for backward."""
        return _recording and any(p._tracked for p in parents)

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if Tensor._records(parents):
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = Tensor._lift(other, self)

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
        return self + (-Tensor._lift(other, self))

    def __mul__(self, other):
        other = Tensor._lift(other, self)

        def backward(g):  # constants skip their product
            if self._tracked:
                self._accumulate(g * other.data)
            if other._tracked:
                other._accumulate(g * self.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # elementwise transcendental
    # ------------------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def softplus(self):
        # log(1 + e^x), evaluated stably for large |x|
        out_data = np.logaddexp(0.0, self.data)

        def backward(g):
            # sigmoid(x) = 1/(1 + e^-x), with e^-x set to inf where -x >= ln(max
            # float) (x below about -88.7 in float32) instead of overflowing there:
            # the same exact 0 gradient (in float64 e^-x is finite at that one point
            # and its ~1e-308 gradient becomes 0). A NaN still reaches exp.
            neg = -self.data
            e_neg = np.full_like(neg, np.inf)
            np.exp(neg, out=e_neg, where=~(neg >= np.log(np.finfo(neg.dtype).max)))
            self._accumulate(g / (1.0 + e_neg))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # clamping / selection (subgradient at kinks routes to one branch)
    # ------------------------------------------------------------------
    def clip(self, lo: float, hi: float):
        mask = (self.data > lo) & (self.data < hi)

        def backward(g):
            self._accumulate(g * mask)

        return self._make(np.clip(self.data, lo, hi), (self,), backward)

    def minimum(self, other):
        other = Tensor._lift(other, self)
        take_self = self.data <= other.data

        def backward(g):
            if self._tracked:
                self._accumulate(g * take_self)
            if other._tracked:
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
        axes = range(self.data.ndim) if axis is None else np.atleast_1d(axis)
        n = math.prod(self.data.shape[i] for i in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def __getitem__(self, idx):
        """Basic indexing only: ints, slices, Ellipsis and None. Such an index
        picks each entry at most once, so the backward assigns the gradient."""
        for i in idx if isinstance(idx, tuple) else (idx,):
            if not (i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice))):
                raise GraphError(f"Tensor index {i!r}: only ints, slices, Ellipsis and None")

        def backward(g):
            full = np.zeros_like(self.data)
            full[idx] = g
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


def dense(x, w: Tensor, b: Tensor | None = None, tanh: bool = False) -> Tensor:
    """`x @ w`, plus `b` if given, then tanh if `tanh`, as one recorded node:
    the engine's one product by a weight matrix (MLP layers and the critic's
    bias-less attention maps).

    x [..., n], w [n, m], b [m] -> [..., m], with `b` no wider than `x @ w`
    (an MLP's layers share one dtype). The forward is the batched `x @ w`,
    with the bias add and the tanh done in place on its result. The
    backward repeats the unfused chain's arithmetic in the same order (tanh's
    g * (1 - y*y), the bias's sum over the leading axes, then the product's two
    GEMMs over the folded rows), so values and gradients equal that chain's bit
    for bit. With one output (m = 1) the input gradient is the broadcast product
    g_rows * wᵀ, the same single products as the K=1 GEMM at a fraction of its
    cost. A constant `x` or `w` gets no gradient and costs no GEMM.
    """
    x = Tensor._lift(x, w)
    a = x.data
    out = a @ w.data
    if b is not None:
        np.add(out, b.data, out=out, casting="safe")   # a bias wider than x @ w raises
    if tanh:
        np.tanh(out, out=out)

    def backward(g):
        if tanh:
            g = g * (1.0 - out * out)
        if b is not None:
            b._accumulate(g)
        g_rows = g.reshape(-1, w.data.shape[1])
        if x._tracked:
            gx = g_rows * w.data.T if w.data.shape[1] == 1 else g_rows @ w.data.T
            x._accumulate(gx.reshape(a.shape))
        if w._tracked:
            w._accumulate(a.reshape(-1, w.data.shape[0]).T @ g_rows)

    return Tensor._make(out, (x, w) if b is None else (x, w, b), backward)


def self_masked_attention(q, key, val) -> Tensor:
    """softmax(q @ keyᵀ / sqrt(d)) @ val, with query i blind to key i.

    q, key [..., U, d], val [..., U, dv] -> [..., U, dv]; the leading axes are
    a stack of independent attentions. One recorded node: the scores of each
    chunk of the stack (at most _CHUNK_ELEMENTS entries, or one [U, U] block)
    go into one buffer that the scale, the mask, the row-max shift, the exp
    and the normalisation overwrite in place, so a chunk stays in cache. The
    scale 1/sqrt(d) is taken in the scores' dtype, as the chain lifts it, so
    float32 scores are scaled in float32, forward and backward. A
    stack that fits one chunk is read as given; a larger one is flattened
    first, which copies a strided input. The backward keeps only the weights
    and repeats the unfused chain's arithmetic (matmul, scale, mask add,
    softmax, matmul) in the same order, so values and gradients equal that
    chain's bit for bit.
    """
    q, key, val = Tensor._lift(q), Tensor._lift(key), Tensor._lift(val)
    n_u, d = q.shape[-2:]
    if key.shape[-2] != n_u:
        raise ValueError(f"one key per query needed: {n_u} queries, {key.shape[-2]} keys")
    n = math.prod(q.shape[:-2])
    step = max(1, _CHUNK_ELEMENTS // max(1, n_u * n_u))
    if n <= step:               # one chunk: the stack as given, no copy
        qs, ks, vs, chunks = q.data, key.data, val.data, [...]
    else:                       # chunks of the flattened stack
        qs, ks, vs = (t.data.reshape(-1, *t.shape[-2:]) for t in (q, key, val))
        chunks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    stack = qs.shape[:-2]
    dtype = np.result_type(qs, ks, vs)
    scale = dtype.type(1.0 / np.sqrt(d))
    own = np.arange(n_u)
    # the backward needs every chunk's weights; without it each chunk is scratch
    weights = np.empty((*stack, n_u, n_u), dtype) if Tensor._records((q, key, val)) else None
    out = np.empty((*stack, n_u, vs.shape[-1]), dtype)
    for c in chunks:
        w = np.matmul(qs[c], ks[c].swapaxes(-1, -2), out=None if weights is None else weights[c])
        w *= scale
        w[..., own, own] += _MASK
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, vs[c], out=out[c])

    def backward(g):
        g = g.reshape(out.shape)
        gq, gkey_t, gval = (np.empty(shape, dtype) for shape in (qs.shape, (*stack, d, n_u), vs.shape))
        for c in chunks:
            w = weights[c]
            np.matmul(w.swapaxes(-1, -2), g[c], out=gval[c])
            gw = g[c] @ vs[c].swapaxes(-1, -2)
            gw *= w
            gw -= w * gw.sum(axis=-1, keepdims=True)
            gw *= scale
            np.matmul(gw, ks[c], out=gq[c])
            np.matmul(qs[c].swapaxes(-1, -2), gw, out=gkey_t[c])
        q._accumulate(gq.reshape(q.shape))
        key._accumulate(gkey_t.swapaxes(-1, -2).reshape(key.shape))
        val._accumulate(gval.reshape(val.shape))

    return Tensor._make(out.reshape(*q.shape[:-1], vs.shape[-1]), (q, key, val), backward)


def parameter(data, rng: np.random.Generator | None = None) -> Tensor:
    """Trainable tensor. With `rng`, `data` is read as a shape and filled with
    float64 uniforms in +-1/sqrt(fan_in), rounded to float32; without it the
    tensor keeps the dtype of `data`."""
    if rng is not None:
        shape = tuple(data)
        fan_in = shape[0] if len(shape) > 1 else max(shape[0], 1)
        scale = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-scale, scale, size=shape).astype(np.float32), requires_grad=True)
    return Tensor(data, requires_grad=True)
