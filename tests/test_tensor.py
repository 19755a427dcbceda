import numpy as np
import pytest

from rvqsynth.nn import Conv1d, Dense, attend
from rvqsynth.tensor import (ShapeError, Tensor, _unbroadcast, broadcast_to,
                             concat, cross_entropy, leaky_relu, log_softmax,
                             softmax, straight_through)


def numeric_grad(fn, x, step=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return g


def check_grad(build, x, tol=1e-6):
    t = Tensor(x.copy(), requires_grad=True)
    build(t).backward()
    num = numeric_grad(lambda a: float(build(Tensor(a)).data), x.copy())
    np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


def test_elementwise_grads():
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, (3, 4))
    for build in [
        lambda t: (t * 3.0 + 1.0).sum(),
        lambda t: (t - t * t).mean(),
        lambda t: ((t * t + 1.0) ** 1.5).sum(),
        lambda t: leaky_relu(t).sum(),
    ]:
        check_grad(build, x)


# ±0, ±inf, NaN of either sign, the smallest subnormals and the extremes
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                    -5e-324, 1e308, -1e308, -3.5, 2.0])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_leaky_relu_has_the_bits_of_the_mask_form():
    """``max(x, 0.1·x)`` against ``x · where(x > 0, 1, 0.1)``, and its
    gradient against ``g · where(x > 0, 1, 0.1)``, bit for bit."""
    rng = np.random.default_rng(4)
    x = np.concatenate([SPECIAL, rng.normal(0.0, 1.0, 40)])
    g = np.concatenate([SPECIAL[::-1], rng.normal(0.0, 1.0, 40)])
    mask = np.where(x > 0.0, 1.0, 0.1)
    out = leaky_relu(x)
    assert type(out) is np.ndarray
    np.testing.assert_array_equal(bits(out), bits(x * mask))
    t = Tensor(x, requires_grad=True)
    node = leaky_relu(t)
    np.testing.assert_array_equal(bits(node.data), bits(x * mask))
    (node * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(bits(t.grad), bits(g * mask))


def test_matmul_and_shape_grads():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 1.0, (3, 4))
    w = rng.normal(0.0, 1.0, (4, 5))
    check_grad(lambda t: (t @ Tensor(w)).sum(), x)
    check_grad(lambda t: (Tensor(w.T) @ t.swapaxes(0, 1)).mean(), x)
    check_grad(lambda t: t.reshape(2, 6).sum(axis=1, keepdims=True).mean(), x)
    check_grad(lambda t: t[1:, 1:3].sum(), x)


def test_broadcast_grad():
    rng = np.random.default_rng(2)
    x = rng.normal(0.0, 1.0, (1, 4))
    y = rng.normal(0.0, 1.0, (3, 4))
    check_grad(lambda t: (t + Tensor(y)).sum(), x)
    check_grad(lambda t: (t * Tensor(y)).mean(), x)


def test_softmax_grads():
    """Softmax is on the tape only inside the attention node; the same
    array feeds its queries, keys and values."""
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, (2, 2, 4, 3))
    w = rng.normal(0.0, 1.0, (2, 4, 6))

    def fused(t):  # (B, heads, L, dh) heads merged, three times side by side
        merged = t.swapaxes(1, 2).reshape(2, 4, 6)
        return concat([merged, merged, merged], axis=2)

    for masked in (True, False):
        check_grad(lambda t: (attend(fused(t), 2, masked) * Tensor(w)).sum(), x)
    w = rng.normal(0.0, 1.0, 5)
    check_grad(lambda t: (log_softmax(t, axis=1) * Tensor(w)).sum(),
               rng.normal(0.0, 1.0, (4, 5)))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    p = softmax(rng.normal(0.0, 3.0, (6, 9)), axis=1)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_int_targets_matches_manual():
    rng = np.random.default_rng(5)
    logits = rng.normal(0.0, 1.0, (7, 4))
    targets = rng.integers(0, 4, 7)
    got = float(cross_entropy(Tensor(logits), targets).data)
    z = logits - logits.max(axis=1, keepdims=True)
    lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -lp[np.arange(7), targets].mean()
    assert abs(got - want) < 1e-12


def test_cross_entropy_soft_targets():
    rng = np.random.default_rng(6)
    logits = rng.normal(0.0, 1.0, (5, 3))
    hard = rng.integers(0, 3, 5)
    onehot = np.zeros((5, 3))
    onehot[np.arange(5), hard] = 1.0
    a = float(cross_entropy(Tensor(logits), hard).data)
    b = float(cross_entropy(Tensor(logits), onehot).data)
    assert abs(a - b) < 1e-12


def test_cross_entropy_grad():
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 1.0, (4, 3))
    targets = rng.integers(0, 3, 4)
    check_grad(lambda t: cross_entropy(t, targets), x)


def test_concat_and_pad_grads():
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 1.0, (2, 3))
    y = rng.normal(0.0, 1.0, (2, 2))
    check_grad(lambda t: (concat([t, Tensor(y)], axis=1) ** 2).sum(), x)
    check_grad(lambda t: (concat([Tensor(np.zeros((1, 3))), t,
                                  Tensor(np.zeros((2, 3)))], axis=0) * 2.0).sum(), x)


def test_straight_through_passes_grad_to_pre_quant():
    rng = np.random.default_rng(9)
    q = rng.normal(0.0, 1.0, (3, 4))
    z = Tensor(rng.normal(0.0, 1.0, (3, 4)), requires_grad=True)
    out = straight_through(Tensor(q), z)
    np.testing.assert_array_equal(out.data, q)
    (out * Tensor(np.arange(12.0).reshape(3, 4))).sum().backward()
    np.testing.assert_array_equal(z.grad, np.arange(12.0).reshape(3, 4))


def test_backward_requires_scalar():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (t * 2.0).backward()


def test_shared_subexpression_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x
    (y + y).sum().backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_sum_of_a_tensor_with_itself():
    x = Tensor(np.arange(3.0), requires_grad=True)
    y = x + x
    (y * Tensor(np.array([1.0, 2.0, 3.0]))).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_one_node_feeding_both_operands():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = x * 2.0
    ((y + y).sum() + (y * y).sum()).backward()
    # d/dx (4x + 4x^2) = 4 + 8x
    np.testing.assert_array_equal(x.grad, 4.0 + 8.0 * x.data)


def test_reshape_and_swapaxes_pass_gradients_through():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(0.0, 1.0, (2, 6)), requires_grad=True)
    w = rng.normal(0.0, 1.0, (3, 2, 2))
    (x.reshape(2, 3, 2).swapaxes(0, 1) * Tensor(w)).sum().backward()
    np.testing.assert_array_equal(x.grad, w.swapaxes(0, 1).reshape(2, 6))


def test_backward_leaves_upstream_gradients_unmodified():
    """A first gradient is kept without a copy; a second one makes a new
    array, so the gradient handed to the node it came from is never changed
    by later accumulation."""
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(0.0, 1.0, (2, 3)), requires_grad=True)
    w = rng.normal(0.0, 1.0, (2, 3))
    y = x + x
    flat = x.reshape(6)
    handed = {}
    for name, node in (("y", y), ("flat", flat)):
        def capture(g, name=name, backward=node._backward):
            handed[name] = g
            backward(g)
        node._backward = capture
    ((y * Tensor(w)).sum() + (flat * Tensor(w.reshape(6))).sum()).backward()
    np.testing.assert_array_equal(handed["y"], w)
    np.testing.assert_array_equal(handed["flat"], w.reshape(6))
    np.testing.assert_array_equal(x.grad, w + w + w)


def test_backward_releases_interior_gradients_and_keeps_leaves():
    """Every node with a backward drops its gradient once it is used; a
    Parameter and a user Tensor with requires_grad keep theirs, and every
    node keeps its data and parents."""
    r = np.random.default_rng(16)
    x = Tensor(r.normal(0.0, 1.0, (2, 5, 3)), requires_grad=True)
    layer = Dense(3, 4, r)
    conv = Conv1d(4, 4, 3, r)
    h = leaky_relu(conv(layer(x)))
    loss = (h * Tensor(r.normal(0.0, 1.0, h.shape))).sum() + (h * h).mean()
    loss.backward()
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    interior = [n for n in nodes if n._backward is not None]
    assert len(interior) > 5
    for node in interior:
        assert node.grad is None
        assert node._parents and node.data is not None
    leaves = [x, layer.weight, layer.bias, conv.weight, conv.bias]
    assert all(any(n is leaf for n in nodes) for leaf in leaves)
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
    assert all(n.grad is None for n in nodes if not n.requires_grad)


def test_second_backward_over_one_graph_adds_the_same_gradient():
    """Interior gradients start from zero in each backward, so a leaf
    accumulates exactly the gradient of one pass per pass."""
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = x * 2.0
    loss = (y + y).sum() + (y * y).sum()
    loss.backward()
    once = x.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(x.grad, once + once)


@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 2), ()])
def test_wrong_shaped_gradient_raises(shape):
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ShapeError, match="gradient of shape"):
        x._accumulate(np.ones(shape))
    x._accumulate(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        x._accumulate(np.ones(shape))


def test_getitem_grad_with_repeated_writes():
    x = Tensor(np.arange(4.0), requires_grad=True)
    (x[1:] + x[:-1]).sum().backward()
    np.testing.assert_array_equal(x.grad, [1.0, 2.0, 2.0, 1.0])


@pytest.mark.parametrize("key", [
    (slice(None), slice(1, None, 2)),
    (Ellipsis, 2),
    (1, None, slice(None, 2)),
    (np.int64(2),),
    slice(-2, None),
])
def test_getitem_basic_grad_matches_add_at(key):
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(0.0, 1.0, (3, 4, 5)), requires_grad=True)
    out = x[key]
    g = rng.normal(0.0, 1.0, out.shape)
    (out * Tensor(g)).sum().backward()
    want = np.zeros_like(x.data)
    np.add.at(want, key, g)
    np.testing.assert_array_equal(x.grad, want)


def test_getitem_advanced_grad_accumulates_repeated_indices():
    x = Tensor(np.arange(4.0), requires_grad=True)
    x[np.array([0, 2, 0])].sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0, 0.0])


def test_broadcast_to_grad():
    rng = np.random.default_rng(12)
    w = rng.normal(0.0, 1.0, (2, 3, 4))
    check_grad(lambda t: (broadcast_to(t, (2, 3, 4)) * Tensor(w)).sum(),
               rng.normal(0.0, 1.0, (1, 3, 1)))
    check_grad(lambda t: (broadcast_to(t, (2, 3, 4)) * Tensor(w)).sum(),
               rng.normal(0.0, 1.0, 4))
    t = Tensor(np.arange(3.0).reshape(3, 1), requires_grad=True)
    out = broadcast_to(t, (3, 5))
    np.testing.assert_array_equal(out.data, np.repeat(t.data, 5, axis=1))
    out.sum().backward()
    np.testing.assert_array_equal(t.grad, np.full((3, 1), 5.0))


def test_concat_and_broadcast_to_keep_arrays_off_the_tape(monkeypatch):
    made = []
    make = Tensor._make
    monkeypatch.setattr(Tensor, "_make", staticmethod(
        lambda *args: made.append(1) or make(*args)))
    a, b = np.arange(6.0).reshape(2, 3), np.ones((2, 1))
    joined = concat([a, b], axis=1)
    assert type(joined) is np.ndarray
    np.testing.assert_array_equal(joined, np.concatenate([a, b], axis=1))
    wide = broadcast_to(b, (2, 4))
    assert type(wide) is np.ndarray
    np.testing.assert_array_equal(wide, np.ones((2, 4)))
    x = np.random.default_rng(14).normal(0.0, 3.0, (3, 4, 5))
    logp = log_softmax(x, axis=1)
    assert type(logp) is np.ndarray
    assert made == []
    assert logp.tobytes() == log_softmax(Tensor(x), axis=1).data.tobytes()
    assert isinstance(concat([a, Tensor(b)], axis=1), Tensor)


def test_matmul_weight_grad_folds_leading_axes():
    """(B, T, C) @ (C, O): the weight gradient is one GEMM over B*T rows."""
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, (3, 5, 4))
    w = rng.normal(0.0, 1.0, (4, 2))
    g = rng.normal(0.0, 1.0, (3, 5, 2))
    wt = Tensor(w.copy(), requires_grad=True)
    xt = Tensor(x, requires_grad=True)
    ((xt @ wt) * Tensor(g)).sum().backward()
    per_batch = _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), w.shape)
    np.testing.assert_allclose(wt.grad, per_batch, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(xt.grad, g @ w.T, rtol=1e-12, atol=1e-12)
    check_grad(lambda t: ((Tensor(x) @ t) * Tensor(g)).sum(), w)


def test_determinism_bit_exact():
    rng = np.random.default_rng(10)
    x = rng.normal(0.0, 1.0, (5, 5))

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        (leaky_relu(t @ t).sum() + (t * t).mean()).backward()
        return t.grad.copy()

    np.testing.assert_array_equal(run(), run())
