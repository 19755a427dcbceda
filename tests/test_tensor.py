import numpy as np
import pytest

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
        lambda t: leaky_relu(t, 0.1).sum(),
    ]:
        check_grad(build, x)


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
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, (4, 5))
    w = rng.normal(0.0, 1.0, 5)
    check_grad(lambda t: (softmax(t, axis=1) * Tensor(w)).sum(), x)
    check_grad(lambda t: (log_softmax(t, axis=1) * Tensor(w)).sum(), x)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    p = softmax(Tensor(rng.normal(0.0, 3.0, (6, 9))), axis=1).data
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
    assert made == []
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
        (leaky_relu(t @ t, 0.1).sum() + (t * t).mean()).backward()
        return t.grad.copy()

    np.testing.assert_array_equal(run(), run())
