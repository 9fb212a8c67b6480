"""Autodiff core: gradients against central finite differences, Adam behavior."""

import platform

import numpy as np
import pytest
from scipy.special import digamma, gammaln, polygamma

from uav_iscc.numerics import (
    AdamState,
    GraphError,
    MlpParams,
    Tensor,
    adam_step,
    beta_log_prob_entropy,
    concat,
    dense,
    mlp_forward,
    no_grad,
    parameter,
    self_masked_attention,
)
from uav_iscc.numerics import tensor as tensor_module
from uav_iscc.numerics.distributions import _trigamma

from oracles import dense_chain, in_float64, masked_attention_chain, matmul, softmax, tanh_node


def finite_diff_grad(loss_fn, params, h=1e-5):
    """Central-difference gradient of loss_fn() w.r.t. each entry of params."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = loss_fn()
            flat[i] = old - h
            down = loss_fn()
            flat[i] = old
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    # floor keeps FD truncation noise on near-zero entries from dominating
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5)


def test_square_gradient():
    x = parameter(3.0)
    loss = x * x
    loss.backward()
    assert np.allclose(x.grad, 6.0)


def test_backward_rejects_non_scalar():
    x = parameter(np.ones(3))
    with pytest.raises(GraphError):
        (x * 2.0).backward()


def test_backward_accumulates_until_reset():
    x = parameter(2.0)
    (x * x).backward()
    first = x.grad.copy()
    (x * x).backward()
    assert np.allclose(x.grad, 2.0 * first)
    x.grad = None
    (x * x).backward()
    assert np.allclose(x.grad, first)


def test_backward_releases_interior_gradients():
    # leaves keep their gradients and interior nodes drop theirs once used, so a
    # second pass over the same graph adds exactly the same leaf gradient again
    x = parameter(np.array([0.5, -1.5, 2.0]))
    w = parameter(np.array([[1.0, 2.0], [-0.5, 0.3], [0.7, -1.1]]))
    h = tanh_node(dense(x, w))
    loss = (h * h).sum() + h.mean()
    loss.backward()
    first = [x.grad.copy(), w.grad.copy()]
    interior, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            interior.append(node)
            stack.extend(node._parents)
    assert len(interior) >= 6
    assert all(node.grad is None for node in interior)
    loss.backward()
    for leaf, g in zip((x, w), first):
        assert np.array_equal(leaf.grad, 2.0 * g)


def test_softmax_cross_entropy_closed_form():
    # uniform logits, one-hot target: gradient is p - onehot
    n = 5
    logits = parameter(np.zeros(n))
    target = np.zeros(n)
    target[2] = 1.0
    p = softmax(logits)
    # -target/p is d(-sum(target * log p))/dp here, so the backward through
    # softmax yields the cross-entropy gradient
    (p * (-target / p.data)).sum().backward()
    expected = np.full(n, 1.0 / n)
    expected[2] -= 1.0
    assert np.allclose(logits.grad, expected, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_composite_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    w1 = parameter((4, 6), rng)
    b1 = parameter(rng.normal(size=6) * 0.1)
    w2 = parameter((6, 4), rng)
    in_float64(w1, w2)
    x = rng.normal(size=(7, 4))
    unit = rng.uniform(0.05, 0.95, size=(7, 2))

    def loss_fn():
        h = np.tanh(x @ w1.data + b1.data)
        z, e = np.split(1.0 + np.logaddexp(0.0, h @ w2.data), 2, axis=1)
        t = z + e
        logp = gammaln(t) - gammaln(z) - gammaln(e) + (z - 1) * np.log(unit) + (e - 1) * np.log1p(-unit)
        ent = (gammaln(z) + gammaln(e) - gammaln(t) - (z - 1) * digamma(z) - (e - 1) * digamma(e)
               + (t - 2) * digamma(t))
        return float(np.sum(logp + 2.0 * ent))

    h = dense(x, w1, b1, tanh=True)
    shapes = 1.0 + dense(h, w2).softplus()
    logp, ent = beta_log_prob_entropy(shapes[:, :2], shapes[:, 2:], unit)
    loss = (logp + ent * 2.0).sum()
    loss.backward()
    fd = finite_diff_grad(loss_fn, [w1, b1, w2])
    for p, g in zip([w1, b1, w2], fd):
        assert np.max(rel_err(p.grad, g)) < 1e-4


def test_reduction_shape_and_selection_ops():
    rng = np.random.default_rng(3)
    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(3, 4)))

    def loss_fn():
        m = np.minimum(a.data, b.data)
        c = np.clip(m, -0.5, 0.5)
        return float(np.mean(c, axis=0).sum() + a.data[1, 2:].sum())

    loss = a.minimum(b).clip(-0.5, 0.5).mean(axis=0).sum() + a[1, 2:].sum()
    loss.backward()
    fd = finite_diff_grad(loss_fn, [a, b])
    assert np.max(rel_err(np.where(fd[0] == 0, 0, a.grad), fd[0])) < 1e-4
    assert np.max(np.abs(b.grad - fd[1])) < 1e-6


@pytest.mark.parametrize("axis", [(0, 1), (-1, 0)], ids=["first-two", "last-and-first"])
def test_mean_over_a_tuple_axis(axis):
    a = parameter(np.random.default_rng(14).normal(size=(2, 3, 4)))
    m = a.mean(axis=axis)
    n = 6 if axis == (0, 1) else 8
    assert m.shape == np.mean(a.data, axis=axis).shape
    assert np.allclose(m.data, np.mean(a.data, axis=axis), rtol=1e-15, atol=0.0)
    m.sum().backward()
    assert np.all(a.grad == 1.0 / n)


def test_two_slices_of_one_tensor_sum_into_its_gradient():
    rng = np.random.default_rng(13)
    a = parameter(rng.normal(size=(3, 4)))
    c1, c2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 3))
    ((a[:, :2] * c1).sum() + (a[..., 1:] * c2).sum() + a[None, 2, -1].sum()).backward()
    expected = np.zeros((3, 4))
    expected[:, :2] += c1
    expected[:, 1:] += c2
    expected[2, -1] += 1.0
    assert np.allclose(a.grad, expected, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("index", [np.array([0, 0]), [1, 2], (slice(None), np.array([1]))])
def test_array_index_raises_graph_error(index):
    a = parameter(np.ones((3, 4)))
    with pytest.raises(GraphError, match="Tensor index .* only ints, slices, Ellipsis and None"):
        a[index]


def test_batched_matmul_gradients():
    rng = np.random.default_rng(4)
    q = parameter(rng.normal(size=(2, 3, 4)))
    w = parameter(rng.normal(size=(4, 5)))

    def loss_fn():
        s = q.data @ w.data                     # [2, 3, 5]
        g = s @ np.swapaxes(s, -1, -2)          # [2, 3, 3]
        return float(np.tanh(g).sum())

    s = dense(q, w)
    loss = tanh_node(matmul(s, s.swapaxes(-1, -2))).sum()
    loss.backward()
    fd = finite_diff_grad(loss_fn, [q, w])
    for p, g in zip([q, w], fd):
        assert np.max(rel_err(p.grad, g)) < 1e-4


def test_concat_gradients():
    rng = np.random.default_rng(5)
    parts = [parameter(rng.normal(size=4)) for _ in range(3)]

    def loss_fn():
        c = np.concatenate([p.data for p in parts])
        return float((c * c).sum() + c.mean())

    c = concat(parts)
    ((c * c).sum() + c.mean()).backward()
    fd = finite_diff_grad(loss_fn, parts)
    for p, g in zip(parts, fd):
        assert np.max(rel_err(p.grad, g)) < 1e-4


def test_constant_operands_get_no_gradient():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(5, 3)))
    mask = Tensor(rng.uniform(size=(5, 4)) > 0.3)
    target = Tensor(rng.normal(size=(5, 4)))
    w = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=4))

    def loss_fn():
        d = np.tanh(x.data @ w.data + b.data) * mask.data - target.data
        return float((d * d).mean())

    d = dense(x, w, b, tanh=True) * mask - target
    (d * d).mean().backward()
    assert x.grad is None and mask.grad is None and target.grad is None
    fd = finite_diff_grad(loss_fn, [w, b])
    for p, g in zip([w, b], fd):
        assert np.max(rel_err(p.grad, g)) < 1e-4


@pytest.mark.parametrize("op", ["mul", "minimum"])
def test_constant_on_either_side_leaves_the_other_operands_gradient(op):
    rng = np.random.default_rng(12)
    c = Tensor(rng.normal(size=6))
    w = parameter(rng.normal(size=6))
    expected = c.data if op == "mul" else (w.data < c.data).astype(float)
    for a, b in ((c, w), (w, c)):
        w.grad = None
        (a * b if op == "mul" else a.minimum(b)).sum().backward()
        assert np.array_equal(w.grad, expected)
        assert c.grad is None


def test_no_grad_outputs_record_no_parents():
    w = parameter(np.ones((3, 2)))
    with no_grad():
        outs = [dense(np.ones((4, 3)), w), tanh_node(w * 2.0), concat([w, w]), w.sum()]
    for out in outs:
        assert out._parents == () and out._backward is None
    assert dense(np.ones((4, 3)), w)._parents


def test_nested_no_grad_restores_recording_on_exit_and_on_raise():
    w = parameter(np.ones(2))
    with no_grad():
        with no_grad():
            pass
        assert not (w * 1.0)._parents
    assert (w * 1.0)._parents
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    assert (w * 1.0)._parents


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_gradient_is_the_sigmoid_without_overflow(dtype):
    # bit for bit g / (1 + e^-x) wherever e^-x is finite, and 0 where it
    # overflows, with no warning raised (filterwarnings makes one an error)
    edge = np.log(np.finfo(dtype).max)
    x = np.concatenate([np.linspace(-120.0, 120.0, 4001), [-1e30, -800.0, -710.0, 800.0]]).astype(dtype)
    x = np.concatenate([x, [-np.nextafter(edge, dtype(0)), -edge, -np.nextafter(edge, dtype(np.inf))]])
    assert x.dtype == dtype
    g = np.random.default_rng(8).normal(size=x.size).astype(dtype)
    p = parameter(x)
    (p.softplus() * g).sum().backward()
    with np.errstate(over="ignore"):
        e_neg = np.exp(-x)
    finite = np.isfinite(e_neg) & (-x != edge)
    assert p.grad[finite].tobytes() == (g / (1.0 + e_neg))[finite].tobytes()
    assert np.all(p.grad[~finite] == 0.0) and (~finite).sum() >= 5
    nan = parameter(np.array([np.nan], dtype))
    with np.errstate(invalid="ignore"):
        nan.softplus().sum().backward()
    assert np.isnan(nan.grad[0])


def test_trigamma_matches_scipy():
    x = np.concatenate([np.linspace(1.0, 20.0, 2001), np.geomspace(1.0, 1e6, 2001)])
    ref = polygamma(1, x)
    assert np.max(np.abs(_trigamma(x) - ref) / ref) < 1e-13


def test_softmax_properties():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(8, 5)) * 10.0
    p = softmax(Tensor(logits)).data
    assert np.all(p > 0)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)
    # equal logits -> uniform
    u = softmax(Tensor(np.zeros(4))).data
    assert np.allclose(u, 0.25)
    # (0, ln 3) -> (0.25, 0.75)
    two = softmax(Tensor(np.array([0.0, np.log(3.0)]))).data
    assert np.allclose(two, [0.25, 0.75], atol=1e-12)
    # additive shift leaves the output bit-identical
    shifted = softmax(Tensor(logits + 123.456)).data
    assert np.array_equal(p, softmax(Tensor(logits)).data)
    assert np.allclose(shifted, p, atol=1e-12)


@pytest.mark.parametrize("axis", [0, -1])
def test_softmax_gradient_matches_finite_differences(axis):
    rng = np.random.default_rng(7)
    x = parameter(rng.normal(size=(3, 4, 5)))
    masked = rng.uniform(size=x.shape) < 0.3
    np.moveaxis(masked, axis, 0)[0] = False          # every lane keeps one live entry
    mask = np.where(masked, -1e30, 0.0)
    c = rng.normal(size=x.shape)

    def loss_fn():
        z = x.data + mask
        e = np.exp(z - z.max(axis=axis, keepdims=True))
        y = e / e.sum(axis=axis, keepdims=True)
        return float((y * c + y * y).sum())

    y = softmax(x + mask, axis=axis)
    shifted = (x + mask) - (x.data + mask).max(axis=axis, keepdims=True)
    e = shifted.exp()
    assert np.array_equal(y.data, e.data / e.sum(axis=axis, keepdims=True).data)
    (y * c + y * y).sum().backward()
    assert np.all(np.isfinite(x.grad))
    assert np.all(x.grad[masked] == 0.0)
    fd = finite_diff_grad(loss_fn, [x])[0]
    assert np.max(rel_err(x.grad, fd)) < 1e-4


# (leading axes, U, score budget per chunk in [U, U] blocks (None: the default),
# head width, dtype); 1/sqrt(3) and 1/sqrt(5) are inexact in float32, so the
# node must scale float32 scores by the float32 constant the chain lifts
ATTENTION_CASES = {
    "one-chunk": ((2, 3), 7, None, 5, np.float64),
    "several-chunks": ((3, 2), 7, 2, 5, np.float64),
    "ragged-last-chunk": ((7,), 7, 3, 5, np.float64),
    "420x420": ((2, 4), 420, None, 5, np.float64),
    "float32-width3-one-chunk": ((4, 3), 7, None, 3, np.float32),
    "float32-width3-several-chunks": ((4, 3), 7, 5, 3, np.float32),
    "float32-width5-one-chunk": ((4, 3), 7, None, 5, np.float32),
    "float32-width5-several-chunks": ((4, 3), 7, 5, 5, np.float32),
    "float32-width16-one-chunk": ((4, 3), 7, None, 16, np.float32),
    "float32-width16-several-chunks": ((4, 3), 7, 5, 16, np.float32),
}


def attention_inputs(lead, n_u, seed, dv=3, width=5, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return (parameter(rng.normal(size=(*lead, n_u, width)).astype(dtype)),
            parameter(rng.normal(size=(*lead, n_u, width)).astype(dtype)),
            parameter(rng.normal(size=(*lead, n_u, dv)).astype(dtype)),
            rng.normal(size=(*lead, n_u, dv)).astype(dtype))


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_self_masked_attention_equals_unfused_chain(case, monkeypatch):
    lead, n_u, blocks, width, dtype = ATTENTION_CASES[case]
    if blocks is not None:
        monkeypatch.setattr(tensor_module, "_CHUNK_ELEMENTS", blocks * n_u * n_u)
    if case == "420x420":
        assert np.prod(lead) * n_u * n_u > tensor_module._CHUNK_ELEMENTS   # several chunks
    fused_in = attention_inputs(lead, n_u, seed=20, width=width, dtype=dtype)
    chain_in = attention_inputs(lead, n_u, seed=20, width=width, dtype=dtype)
    outs = []
    for fn, (q, key, val, c) in ((self_masked_attention, fused_in),
                                 (masked_attention_chain, chain_in)):
        out = fn(q, key, val)
        (out * c).sum().backward()
        outs.append(out.data)
    assert outs[0].shape == (*lead, n_u, 3) and outs[0].dtype == dtype
    assert outs[0].tobytes() == outs[1].tobytes()
    for fused, chain in zip(fused_in[:3], chain_in[:3]):
        assert fused.grad.tobytes() == chain.grad.tobytes()


@pytest.mark.parametrize("blocks", [5, 2])     # one chunk; chunks of 2, 2 and 1
def test_self_masked_attention_gradient_matches_finite_differences(blocks, monkeypatch):
    monkeypatch.setattr(tensor_module, "_CHUNK_ELEMENTS", blocks * 4 * 4)
    q, key, val, c = attention_inputs((5,), 4, seed=21)

    def loss_fn():
        with no_grad():
            out = self_masked_attention(q, key, val).data
        return float((out * c + out * out).sum())

    out = self_masked_attention(q, key, val)
    (out * c + out * out).sum().backward()
    fd = finite_diff_grad(loss_fn, [q, key, val])
    for p, g in zip([q, key, val], fd):
        assert np.max(rel_err(p.grad, g)) < 1e-4


@pytest.mark.parametrize("blocks", [5, 2])
def test_self_masked_attention_backward_leaves_inputs_unmodified(blocks, monkeypatch):
    monkeypatch.setattr(tensor_module, "_CHUNK_ELEMENTS", blocks * 7 * 7)
    q, key, val, g = attention_inputs((5,), 7, seed=23)
    before = [t.data.copy() for t in (q, key, val)]
    g_before = g.copy()
    out = self_masked_attention(q, key, val)
    out._backward(g)
    assert np.array_equal(g, g_before)
    for t, data in zip((q, key, val), before):
        assert np.array_equal(t.data, data)
        assert t.grad is not None and not np.shares_memory(t.grad, g)


@pytest.mark.parametrize("blocks", [5, 2])
def test_self_masked_attention_without_recording_keeps_no_closure(blocks, monkeypatch):
    monkeypatch.setattr(tensor_module, "_CHUNK_ELEMENTS", blocks * 7 * 7)
    q, key, val, _ = attention_inputs((5,), 7, seed=24)
    recorded = self_masked_attention(q, key, val)
    with no_grad():
        plain = self_masked_attention(q, key, val)
    assert recorded._backward is not None
    assert plain._backward is None and plain._parents == ()
    assert plain.data.tobytes() == recorded.data.tobytes()


@pytest.mark.parametrize("n_keys", [2, 4])
def test_self_masked_attention_rejects_mismatched_agent_counts(n_keys):
    # query i is masked from key i, so the queries and keys must be the same agents
    rng = np.random.default_rng(25)
    q, key, val = (rng.normal(size=(2, n, w)) for n, w in ((3, 5), (n_keys, 5), (n_keys, 3)))
    with pytest.raises(ValueError, match=f"3 queries, {n_keys} keys"):
        self_masked_attention(q, key, val)


# (input shape, whether the input is a parameter, outputs)
DENSE_INPUTS = {
    "2d": ((6, 5), True, 7),
    "3d": ((3, 4, 5), True, 7),
    "1d": ((5,), True, 7),
    "constant-3d": ((3, 4, 5), False, 7),
    "3d-one-output": ((3, 4, 5), True, 1),   # a value head: no K=1 GEMM for x's gradient
}


@pytest.mark.parametrize("tanh", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(DENSE_INPUTS))
def test_dense_equals_unfused_chain(case, dtype, tanh):
    shape, tracked, m = DENSE_INPUTS[case]
    outs, grads = [], []
    for fn in (dense, dense_chain):
        rng = np.random.default_rng(30)
        x = rng.normal(size=shape).astype(dtype)
        x = parameter(x) if tracked else Tensor(x)
        w = parameter(rng.normal(size=(5, m)).astype(dtype))
        b = parameter(rng.normal(size=m).astype(dtype))
        c = rng.normal(size=(*shape[:-1], m)).astype(dtype)
        out = fn(x, w, b, tanh=tanh)
        (out * c).sum().backward()
        assert out.data.dtype == dtype and out.shape == (*shape[:-1], m)
        assert tracked or x.grad is None
        outs.append(out.data)
        grads.append([w.grad, b.grad, x.grad] if tracked else [w.grad, b.grad])
    assert outs[0].tobytes() == outs[1].tobytes()
    for fused, chain in zip(*grads):
        assert fused.dtype == chain.dtype and fused.tobytes() == chain.tobytes()


def test_dense_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    x = parameter(rng.normal(size=(2, 3, 4)))
    w = parameter(rng.normal(size=(4, 5)))
    b = parameter(rng.normal(size=5))
    c = rng.normal(size=(2, 3, 5))
    # an MLP layer, then a bias-less map as the critic's attention uses
    for bias, tanh in ((b, True), (None, False)):
        x.grad = w.grad = None
        params = [x, w] if bias is None else [x, w, bias]

        def loss_fn():
            y = x.data @ w.data + (0.0 if bias is None else bias.data)
            y = np.tanh(y) if tanh else y
            return float((y * c + y * y).sum())

        y = dense(x, w, bias, tanh=tanh)
        assert y._parents == tuple(params)
        (y * c + y * y).sum().backward()
        fd = finite_diff_grad(loss_fn, params)
        for p, g in zip(params, fd):
            assert np.max(rel_err(p.grad, g)) < 1e-4


def test_mlp_records_one_node_per_layer():
    mlp = MlpParams.create([5, 8, 8, 3], np.random.default_rng(32))
    out = mlp_forward(mlp, np.ones((4, 5)))
    nodes, node = 0, out
    while node._parents:
        nodes += 1
        node = node._parents[0]
    assert nodes == 3


def test_mlp_zero_weights_returns_bias():
    rng = np.random.default_rng(7)
    mlp = MlpParams.create([3, 4], rng)
    mlp.layers[0][0].data[:] = 0.0
    mlp.layers[0][1].data[:] = np.array([1.0, -2.0, 0.5, 3.0])
    out = mlp_forward(mlp, Tensor(rng.normal(size=(5, 3))))
    assert np.allclose(out.data, np.tile([1.0, -2.0, 0.5, 3.0], (5, 1)))


def test_mlp_identity_single_layer():
    mlp = MlpParams.create([4, 4], np.random.default_rng(8))
    mlp.layers[0][0].data[:] = np.eye(4)
    mlp.layers[0][1].data[:] = 0.0
    x = np.random.default_rng(9).normal(size=4)
    assert np.allclose(mlp_forward(mlp, Tensor(x)).data, x)


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    mlp = MlpParams.create([5, 8, 3], rng)
    in_float64(*mlp.parameters())
    x = rng.normal(size=(6, 5))

    def loss_fn():
        h = np.tanh(x @ mlp.layers[0][0].data + mlp.layers[0][1].data)
        return float((h @ mlp.layers[1][0].data + mlp.layers[1][1].data).sum())

    mlp_forward(mlp, Tensor(x)).sum().backward()
    fd = finite_diff_grad(loss_fn, mlp.parameters())
    for p, g in zip(mlp.parameters(), fd):
        assert np.max(rel_err(p.grad, g)) < 1e-4


def test_mlp_shape_mismatch_names_layer():
    from uav_iscc.numerics import DimensionError

    mlp = MlpParams.create([5, 8, 3], np.random.default_rng(11))
    with pytest.raises(DimensionError, match="layer 0"):
        mlp_forward(mlp, Tensor(np.zeros((2, 4))))


def test_adam_first_step_is_signed_lr():
    p = parameter(np.array([1.0, -1.0, 2.0]))
    state = AdamState([p], lr=0.0005)
    p.grad = np.array([0.3, -4.0, 1e-12])
    before = p.data.copy()
    adam_step(state)
    delta = p.data - before
    # bias-corrected first step: -lr * g / (|g| + eps); tiny g is eps-limited
    assert np.allclose(delta[:2], [-0.0005, 0.0005], rtol=1e-4)
    assert abs(delta[2]) < 0.0005
    assert p.grad is None


def test_adam_zero_gradient_is_noop():
    p = parameter(np.array([1.0, 2.0]))
    state = AdamState([p])
    before = p.data.copy()
    adam_step(state)
    assert np.array_equal(p.data, before)


def test_adam_descends_convex_quadratic():
    p = parameter(np.array([3.0]))
    state = AdamState([p], lr=0.05)
    values = []
    for _ in range(2):
        loss = (p * p).sum()
        values.append(loss.item())
        loss.backward()
        adam_step(state)
    final = (p * p).sum().item()
    assert values[1] < values[0]
    assert final < values[1]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's")
def test_freed_heap_is_reused_without_page_faults():
    import resource  # Unix only, as glibc is

    # importing the engine keeps freed memory in the process: a second 16 MiB
    # array reuses the first one's pages instead of faulting in 4096 new ones
    first = np.ones(1 << 21)
    del first
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(1 << 21)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 64
