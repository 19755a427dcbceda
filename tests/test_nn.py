import tracemalloc

import numpy as np
import pytest

from rvqsynth.nn import (Conv1d, Dense, DivergenceError, Module, Parameter,
                         SelfAttention, TransformerBlock, adam_step,
                         conv_stack, decode_step, finite_difference_grad, fit)
from rvqsynth import nn
from rvqsynth.nn import attend, dense
from rvqsynth.tensor import ShapeError, Tensor, concat, leaky_relu, softmax


def rng():
    return np.random.default_rng(0)


def test_dense_matches_manual():
    layer = Dense(3, 2, rng())
    x = rng().normal(0.0, 1.0, (5, 3))
    out = layer(Tensor(x)).data
    np.testing.assert_allclose(out, x @ layer.weight.data + layer.bias.data)


@pytest.mark.parametrize("shape", [(6, 1, 5), (6, 2, 5), (6, 5), (2, 3, 2, 5)])
@pytest.mark.parametrize("bias", [True, False])
def test_dense_infer_matches_call(shape, bias):
    """The array (inference) call against the Tensor call, bit for bit:
    numpy folds the leading axes of a C-contiguous Tensor's ``x @ W`` into
    one GEMM, as the array call does. Rows of one token, (..., 1, C), are
    the exception: numpy runs one gemv per row (apart to rounding). The bias
    is random, or a fresh layer's zeros."""
    layer = Dense(5, 4, rng())
    if bias:
        layer.bias.data = rng().normal(0.0, 1.0, 4)
    x = np.random.default_rng(1).normal(0.0, 1.0, shape)
    out = layer(x)
    assert type(out) is np.ndarray
    assert out.shape == shape[:-1] + (4,)
    want = layer(Tensor(x)).data
    if shape[-2] > 1:
        np.testing.assert_array_equal(out, want)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)


def two_node_dense(x, weight, bias):
    """``x @ W`` then ``+ b`` as two tape nodes, the matmul with the weight
    gradient Tensor ``@`` used to fold into one GEMM over the leading axes."""
    def backward(g):
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data.T))
        weight._accumulate(x.data.reshape(-1, x.shape[-1]).T
                           @ g.reshape(-1, g.shape[-1]))

    return Tensor._make(np.matmul(x.data, weight.data), (x, weight), backward) + bias


@pytest.mark.parametrize("shape", [(6, 5), (1, 5), (3, 4, 5), (2, 1, 3, 5)])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("x_grad", [True, False])
def test_dense_node_matches_two_node_composition(shape, bias, x_grad):
    """Output, dx, dW and db bit for bit against the old two nodes, for a
    random bias and for a fresh layer's zero bias."""
    r = np.random.default_rng(7)
    x, w = r.normal(0.0, 1.0, shape), r.normal(0.0, 1.0, shape[:-1] + (4,))
    W, b = r.normal(0.0, 1.0, (5, 4)), r.normal(0.0, 1.0, 4)

    def run(fn):
        xt = Tensor(x, requires_grad=x_grad)
        Wt, bt = Parameter(W), Parameter(b if bias else np.zeros(4))
        out = fn(xt, Wt, bt)
        (out * Tensor(w)).sum().backward()
        return [out.data, xt.grad, Wt.grad, bt.grad]

    got, want = run(nn.dense), run(two_node_dense)
    assert (got[1] is None) == (not x_grad)
    for g, h in zip(got, want):
        if h is None:
            assert g is None
        else:
            np.testing.assert_array_equal(g.view(np.uint64), h.view(np.uint64))


def test_dense_is_one_tape_node():
    layer = Dense(3, 2, rng())
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    assert layer(x)._parents == (x, layer.weight, layer.bias)


# name -> (layer factory, whether it folds (B, L, C) rows through Dense)
ARRAY_LAYERS = {
    **{f"conv-{mode}-d{d}": (lambda mode=mode, d=d: Conv1d(
        6, 4, 3, rng(), dilation=d, mode=mode), False)
       for mode in ("causal", "same") for d in (1, 2)},
    "attention-causal": (lambda: SelfAttention(6, 2, rng(), causal=True), True),
    "attention-full": (lambda: SelfAttention(6, 2, rng(), causal=False), True),
    "block": (lambda: TransformerBlock(6, 2, rng()), True),
}


@pytest.mark.parametrize("name", sorted(ARRAY_LAYERS))
def test_array_call_matches_tensor_call(name):
    """One forward per layer: an array runs off the tape and gives an
    array equal to the Tensor call's data."""
    make, folds = ARRAY_LAYERS[name]
    layer = make()
    x = np.random.default_rng(1).normal(0.0, 1.0, (3, 7, 6))
    out = layer(x)
    assert type(out) is np.ndarray
    want = layer(Tensor(x)).data
    if not folds:
        np.testing.assert_array_equal(out, want)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("block", [False, True])
@pytest.mark.parametrize("causal", [False, True])
def test_cached_attention_in_chunks_matches_causal_call(causal, block):
    """Rows fed in chunks of 1, 3 and 1, each over the key/value block of the
    rows before it (empty at first), attend causally, whatever ``causal``
    says."""
    layer = (TransformerBlock if block else SelfAttention)(6, 2, rng())
    attn = layer.attn if block else layer
    attn.causal = causal
    x = np.random.default_rng(1).normal(0.0, 1.0, (2, 5, 6))
    kv, chunks = np.zeros((2, 0, 12)), []
    for lo, hi in ((0, 1), (1, 4), (4, 5)):
        chunks.append(layer(x[:, lo:hi], kv))
        kv = np.concatenate([kv, attn.wqkv(x[:, lo:hi])[..., 6:]], axis=1)
    attn.causal = True
    np.testing.assert_allclose(np.concatenate(chunks, axis=1), layer(x),
                               rtol=1e-12, atol=1e-12)


def test_dense_shape_check():
    layer = Dense(3, 2, rng())
    with pytest.raises(ShapeError):
        layer(Tensor(np.zeros((5, 4))))


def test_conv1d_causal_matches_manual():
    layer = Conv1d(2, 3, kernel=2, rng=rng(), mode="causal")
    x = rng().normal(0.0, 1.0, (1, 6, 2))
    out = layer(Tensor(x)).data[0]
    w, b = layer.weight.data, layer.bias.data
    for t in range(6):
        prev = x[0, t - 1] if t > 0 else np.zeros(2)
        want = prev @ w[0] + x[0, t] @ w[1] + b
        np.testing.assert_allclose(out[t], want)


def test_conv1d_causal_never_reads_future():
    layer = Conv1d(2, 2, kernel=3, rng=rng(), dilation=2, mode="causal")
    x = rng().normal(0.0, 1.0, (1, 10, 2))
    base = layer(Tensor(x)).data.copy()
    x2 = x.copy()
    x2[0, 7:] += 100.0
    np.testing.assert_array_equal(layer(Tensor(x2)).data[0, :7], base[0, :7])


def test_conv1d_same_is_centered():
    layer = Conv1d(1, 1, kernel=3, rng=rng(), mode="same")
    x = np.zeros((1, 7, 1))
    x[0, 3, 0] = 1.0
    out = layer(Tensor(x)).data[0, :, 0]
    w = layer.weight.data[:, 0, 0]
    np.testing.assert_allclose(out[2:5], w[::-1])
    np.testing.assert_allclose(out[:2], 0.0)
    np.testing.assert_allclose(out[5:], 0.0)


def test_conv1d_same_rejects_even_kernel():
    with pytest.raises(ValueError):
        Conv1d(1, 1, kernel=2, rng=rng(), mode="same")


def per_tap_conv(layer, x: Tensor) -> Tensor:
    """The conv as a graph of zero-pad concat, per-tap getitem, matmul and add."""
    B, T, C = x.shape
    k, d = layer.kernel, layer.dilation
    before = (k - 1) * d if layer.mode == "causal" else (k - 1) // 2 * d
    after = 0 if layer.mode == "causal" else before
    padded = concat([Tensor(np.zeros((B, before, C))), x,
                     Tensor(np.zeros((B, after, C)))], axis=1)
    out = None
    for tap in range(k):
        term = padded[:, tap * d:tap * d + T, :] @ layer.weight[tap]
        out = term if out is None else out + term
    return out + layer.bias


CONV_CASES = [(mode, kernel, dilation)
              for mode, kernels in (("causal", (1, 2, 3)), ("same", (1, 3)))
              for kernel in kernels for dilation in (1, 2)]


@pytest.mark.parametrize("mode,kernel,dilation", CONV_CASES)
def test_conv1d_matches_per_tap_graph(mode, kernel, dilation):
    layer = Conv1d(4, 3, kernel, rng(), dilation=dilation, mode=mode)
    layer.bias.data = rng().normal(0.0, 1.0, 3)
    x = np.random.default_rng(1).normal(0.0, 1.0, (2, 7, 4))
    g = np.random.default_rng(2).normal(0.0, 1.0, (2, 7, 3))

    def grads(forward):
        layer.zero_grad()
        xt = Tensor(x.copy(), requires_grad=True)
        out = forward(xt)
        (out * Tensor(g)).sum().backward()
        return out.data, xt.grad, layer.weight.grad.copy(), layer.bias.grad.copy()

    new = grads(layer)
    ref = grads(lambda xt: per_tap_conv(layer, xt))
    np.testing.assert_array_equal(new[0], ref[0])   # forward keeps its bits
    for a, b in zip(new[1:], ref[1:]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def loss(_):  # finite differences perturb x and the parameters in place
        return float((layer(Tensor(x)).data * g).sum())

    for array, grad in ((x, new[1]), (layer.weight.data, new[2]),
                        (layer.bias.data, new[3])):
        np.testing.assert_allclose(grad, finite_difference_grad(loss, array),
                                   rtol=1e-6, atol=1e-6)


def test_attention_causal_mask():
    layer = SelfAttention(8, 2, rng(), causal=True)
    x = rng().normal(0.0, 1.0, (1, 5, 8))
    base = layer(Tensor(x)).data.copy()
    x2 = x.copy()
    x2[0, 3:] += 10.0
    np.testing.assert_array_equal(layer(Tensor(x2)).data[0, :3], base[0, :3])


def test_attention_rows_mix_when_not_causal():
    layer = SelfAttention(8, 2, rng(), causal=False)
    x = rng().normal(0.0, 1.0, (1, 5, 8))
    base = layer(Tensor(x)).data.copy()
    x2 = x.copy()
    x2[0, 4] += 10.0
    assert not np.allclose(layer(Tensor(x2)).data[0, 0], base[0, 0])


def tape_softmax(t: Tensor) -> Tensor:
    """Softmax over the last axis as a tape node of its own."""
    out = softmax(t.data, axis=-1)

    def backward(g):
        t._accumulate((g - (g * out).sum(axis=-1, keepdims=True)) * out)

    return Tensor._make(out, (t,), backward)


def composed_attention(qkv, heads, masked, cache=None):
    """``attend`` as a composition of tape ops (or array ops for arrays): the
    key/value block concat, the fused input split by getitem, reshape and
    swapaxes, swapaxes, matmul, a scalar multiply, the mask add, softmax,
    matmul, swapaxes and reshape."""
    B, L, W3 = qkv.shape
    W = W3 // 3
    kv = qkv[:, :, W:] if cache is None else concat([cache, qkv[:, :, W:]], axis=1)
    P = kv.shape[1] - L
    q, k, v = (t[:, :, i * W:(i + 1) * W].reshape(B, -1, heads, W // heads)
               .swapaxes(1, 2) for t, i in ((qkv, 0), (kv, 0), (kv, 1)))
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(W // heads))
    if masked:
        scores = scores + np.triu(np.full((L, P + L), -1e30), k=P + 1)
    a = (tape_softmax(scores) if isinstance(scores, Tensor)
         else softmax(scores, axis=-1))
    return (a @ v).swapaxes(1, 2).reshape(B, L, W)


# (batch, heads, query rows L, cached rows P, masked)
ATTEND_CASES = [(2, 2, 4, 0, True), (2, 2, 4, 0, False), (2, 3, 3, 2, True),
                (3, 2, 1, 4, False), (1, 1, 1, 0, False), (2, 4, 2, 3, True)]


def attend_inputs(B, nh, L, P, seed=5):
    """The fused (B, L, 3W) projection, the earlier rows' key/value block
    (B, P, 2W) in a list, empty when P = 0, and output weights (B, L, W)."""
    rng_ = np.random.default_rng(seed)
    W = 3 * nh
    return (rng_.normal(0.0, 1.0, (B, L, 3 * W)),
            [rng_.normal(0.0, 1.0, (B, P, 2 * W))] if P else [],
            rng_.normal(0.0, 1.0, (B, L, W)))


def assert_close_relative(got, want, what=""):
    """≤1e-12 relative to the largest magnitude of ``want``."""
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= 1e-12 * scale, what


@pytest.mark.parametrize("B,nh,L,P,masked", ATTEND_CASES)
def test_attend_matches_composed_tape_ops(B, nh, L, P, masked):
    qkv, past, w = attend_inputs(B, nh, L, P)

    def run(fn):
        ts = [Tensor(a.copy(), requires_grad=True) for a in [qkv] + past]
        out = fn(ts[0], nh, masked, *ts[1:])
        (out * Tensor(w)).sum().backward()
        return [out.data] + [t.grad for t in ts]

    new, ref = run(attend), run(composed_attention)
    np.testing.assert_array_equal(new[0], ref[0])
    np.testing.assert_array_equal(new[0], attend(qkv, nh, masked, *past))
    for a, b, what in zip(new[1:], ref[1:], ["qkv", "key/value block"]):
        assert_close_relative(a, b, what)


@pytest.mark.parametrize("B,nh,L,P,masked", ATTEND_CASES)
def test_attend_grads_match_finite_differences(B, nh, L, P, masked):
    qkv, past, w = attend_inputs(B, nh, L, P, seed=6)
    ts = [Tensor(a.copy(), requires_grad=True) for a in [qkv] + past]
    (attend(ts[0], nh, masked, *ts[1:]) * Tensor(w)).sum().backward()

    def loss(_):  # finite differences perturb qkv and the block in place
        return float((attend(qkv, nh, masked, *past) * w).sum())

    for t, array in zip(ts, [qkv] + past):
        np.testing.assert_allclose(t.grad, finite_difference_grad(loss, array),
                                   rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("P", [0, 1, 3])
def test_attend_over_a_block_is_the_tail_of_the_causal_call(P):
    """L rows over the key/value block of P earlier rows give the last L rows
    of the causal call over all P + L rows, to 1e-12 relative; the gradients
    of ``qkv`` and the block are that call's for those rows and columns (to
    1e-12 relative, the earlier rows' queries getting 0), the composed ops'
    and the finite differences'."""
    nh, L = 2, 3
    full, _, w = attend_inputs(2, nh, P + L, 0, seed=10)
    W = full.shape[-1] // 3
    # copies: finite differences perturb them in place through reshape(-1)
    inputs = [full[:, P:].copy()] + ([full[:, :P, W:].copy()] if P else [])
    w = w[:, P:]
    assert_close_relative(attend(inputs[0], nh, True, *inputs[1:]),
                          attend(full, nh, True)[:, P:])

    def grads(fn, *arrays):
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        (fn(ts[0], nh, True, *ts[1:]) * Tensor(w)).sum().backward()
        return [t.grad for t in ts]

    got = grads(attend, *inputs)
    whole = grads(lambda t, *args: attend(t, *args)[:, P:], full)[0]
    assert not whole[:, :P, :W].any()
    for g, want, what in zip(got, (whole[:, P:], whole[:, :P, W:]), ("qkv", "block")):
        assert_close_relative(g, want, what)
    for g, want, what in zip(got, grads(composed_attention, *inputs),
                             ("qkv", "block")):
        assert_close_relative(g, want, what)

    def loss(_):  # finite differences perturb qkv and the block in place
        return float((attend(inputs[0], nh, True, *inputs[1:]) * w).sum())

    for g, array in zip(got, inputs):
        np.testing.assert_allclose(g, finite_difference_grad(loss, array),
                                   rtol=1e-6, atol=1e-7)


def slots(block):
    """A key/value block (B, P, 2W) as a KVCache holds it: keys and values
    (P, B, W) each, heads merged."""
    return np.split(block.swapaxes(0, 1), 2, axis=-1)


@pytest.mark.parametrize("nh", [1, 2, 4])
@pytest.mark.parametrize("B", [1, 3, 160])
def test_kv_cache_attend_matches_list_cache(B, nh):
    """One row (B, 3W) at a time through ``KVCache.attend`` against ``attend`` of the
    same rows as sequences of one over the key/value block of the rows
    before, at every fill from 0 to capacity − 1: the output (B, W) to
    1e-12 relative, the keys and values written bit for bit with the heads
    merged."""
    capacity, dh = 4, 3
    W = nh * dh
    steps = np.random.default_rng(7).normal(0.0, 1.0, (capacity, B, 3 * W))
    cache, past = nn.KVCache(capacity, B, W, nh), np.zeros((B, 0, 2 * W))
    for fill, qkv in enumerate(steps):
        assert cache.fill == fill
        out = cache.attend(qkv)
        assert out.shape == (B, W)
        assert_close_relative(out, attend(qkv[:, None], nh, False, past)[:, 0],
                              f"fill {fill}")
        past = np.concatenate([past, qkv[:, None, W:]], axis=1)
        for got, want in zip((cache.k, cache.v), slots(past)):
            np.testing.assert_array_equal(got[:fill + 1], want)


@pytest.mark.parametrize("nh", [1, 2, 4])
@pytest.mark.parametrize("R,n", [(1, 4), (3, 2), (8, 20)])
def test_kv_cache_strided_rows_write_to_their_candidates(R, n, nh):
    """R rows over a cache of R·n rows, as at the sampler's first depth,
    read every n-th cache row and write their keys and values to n rows
    each, as ``np.repeat(…, n, axis=0)`` would; the R·n candidates' next
    step then matches a key/value block repeated to them."""
    dh = 3
    W = nh * dh
    rng_ = np.random.default_rng(8)
    style = rng_.normal(0.0, 1.0, (2, 1, W))  # one row's keys and values
    cache = nn.KVCache(3, R * n, W, nh)
    cache.append(*style)
    past = np.broadcast_to(np.concatenate(style, axis=1), (R, 1, 2 * W))
    qkv = rng_.normal(0.0, 1.0, (R, 3 * W))
    assert_close_relative(cache.attend(qkv),
                          attend(qkv[:, None], nh, False, past)[:, 0])
    past = np.concatenate([past, qkv[:, None, W:]], axis=1)
    for got, want in zip((cache.k, cache.v), slots(past)):
        np.testing.assert_array_equal(got[:2], np.repeat(want, n, axis=1))
    qkv = rng_.normal(0.0, 1.0, (R * n, 3 * W))
    past = np.repeat(past, n, axis=0)
    assert_close_relative(cache.attend(qkv),
                          attend(qkv[:, None], nh, False, past)[:, 0])


def test_kv_cache_refuses_a_write_past_capacity():
    cache = nn.KVCache(2, 3, 4, 2)
    for _ in range(2):
        cache.attend(np.ones((3, 12)))
    keys = cache.k.copy()
    with pytest.raises(ShapeError, match="full"):
        cache.attend(np.zeros((3, 12)))
    assert cache.fill == 2
    np.testing.assert_array_equal(cache.k, keys)


def test_kv_cache_append_refuses_rows_not_dividing_its_rows():
    """Called directly, ``append`` refuses a block (B, W) whose B does not
    divide the cache's rows with ``ShapeError`` before anything is written."""
    cache = nn.KVCache(3, 6, 4, 2).append(np.ones((2, 4)), np.ones((2, 4)))
    keys, values = cache.k.copy(), cache.v.copy()
    for B in (4, 5, 7):
        with pytest.raises(ShapeError, match="divide"):
            cache.append(np.zeros((B, 4)), np.zeros((B, 4)))
    assert cache.fill == 1
    np.testing.assert_array_equal(cache.k, keys)
    np.testing.assert_array_equal(cache.v, values)


@pytest.mark.parametrize("k_width,v_width", [(6, 6), (8, 6)])
def test_kv_cache_append_refuses_a_width_not_its_own(k_width, v_width):
    """Keys or values (B, W') with W' not the cache's width raise ShapeError
    before anything is written, even when only the values are wrong."""
    cache = nn.KVCache(3, 4, 8, 2)
    keys, values = cache.k.tobytes(), cache.v.tobytes()
    with pytest.raises(ShapeError, match="width 8"):
        cache.append(np.zeros((2, k_width)), np.zeros((2, v_width)))
    assert cache.fill == 0
    assert cache.k.tobytes() == keys and cache.v.tobytes() == values


@pytest.mark.parametrize("block_shape", [(2, 1, 6), (3, 1, 8), (3, 0, 8), (2, 8)])
@pytest.mark.parametrize("tape", [False, True])
def test_attend_refuses_a_block_not_of_its_rows(block_shape, tape):
    """Rows (B, L, 3W) take a key/value block (B, P, 2W) only: another width,
    another B or another rank raises ShapeError, not numpy's reshape error."""
    qkv, block = np.zeros((2, 3, 12)), np.zeros(block_shape)
    if tape:
        qkv, block = Tensor(qkv, requires_grad=True), Tensor(block, requires_grad=True)
    with pytest.raises(ShapeError, match=r"key/value block .* \(2, P, 8\)"):
        attend(qkv, 2, True, block)
    assert attend(qkv, 2, True, np.zeros((2, 1, 8))).shape == (2, 3, 4)


def attend_cached_reference(qkv, heads, cache):
    """``KVCache.attend`` as it was before the cache held its scale:
    a tuple-loop append, generator slices and the ndarray reductions."""
    dh = qkv.shape[-1] // (3 * heads)
    B = len(qkv)
    q, k, v = qkv.reshape(B, 3, -1).transpose(1, 0, 2)
    if cache.fill == len(cache.k):
        raise ShapeError("full")
    for buf, new in ((cache.k, k), (cache.v, v)):
        buf[cache.fill].reshape(len(new), -1, new.shape[-1])[:] = new[:, None]
    cache.fill += 1
    K, V = (a[:cache.fill, ::len(a[0]) // B] for a in (cache.k, cache.v))
    s = ((K * q).reshape(-1, heads * dh) @ cache.E).reshape(len(K), B, heads)
    s -= s.max(axis=0)
    a = np.exp(np.multiply(s, 1.0 / np.sqrt(dh), out=s), out=s)
    a /= a.sum(axis=0)
    out = (a.reshape(-1, heads) @ cache.Et).reshape(K.shape)
    return np.multiply(out, V, out=out).sum(axis=0)


@pytest.mark.parametrize("nh", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 4])
def test_kv_cache_attend_matches_method_reference(n, nh):
    """B rows over a cache of n·B rows against the reference kernel on its
    own cache: outputs and cache contents bit for bit at every fill from 1
    to capacity; then a full cache raises ShapeError and keeps ``fill``."""
    B, capacity, dh = 3, 5, 4
    W = nh * dh
    steps = np.random.default_rng(9).normal(0.0, 1.0, (capacity, B, 3 * W))
    cache, ref = nn.KVCache(capacity, n * B, W, nh), nn.KVCache(capacity, n * B, W, nh)
    for fill, qkv in enumerate(steps, 1):
        got, want = cache.attend(qkv), attend_cached_reference(qkv, nh, ref)
        assert cache.fill == ref.fill == fill
        assert got.tobytes() == want.tobytes(), f"fill {fill}"
        assert cache.k[:fill].tobytes() == ref.k[:fill].tobytes()
        assert cache.v[:fill].tobytes() == ref.v[:fill].tobytes()
    with pytest.raises(ShapeError, match="full"):
        cache.attend(steps[0])
    assert cache.fill == capacity


@pytest.mark.parametrize("qkv", [Tensor(np.zeros((3, 12))),
                                 np.zeros((3, 2, 12)), np.zeros((2, 12)),
                                 np.zeros((3, 1, 12)), np.zeros(()),
                                 np.zeros((3, 9))])
def test_kv_cache_takes_one_row_of_arrays_dividing_its_rows(qkv):
    """A KVCache takes an array (B, 3W) whose B divides its rows: a Tensor,
    a sequence (B, L, 3W), even of one row, a 0-d array, another width or a
    B that does not divide is refused before anything is written."""
    cache = nn.KVCache(4, 3, 4, 2)
    with pytest.raises(ShapeError):
        cache.attend(qkv)
    assert cache.fill == 0


@pytest.mark.parametrize("x,match", [(np.zeros((3, 1, 4)), r"expects \(B, 4\)"),
                                     (Tensor(np.zeros((3, 4))), "of an array")])
def test_attention_over_a_kv_cache_takes_decode_rows_of_arrays(x, match):
    """Through a block's ``decode_step`` too: a sequence (B, L, W), even of
    one row, or a Tensor raises ShapeError and leaves ``fill`` as it was."""
    arrays = TransformerBlock(4, 2, rng()).arrays()
    cache = nn.KVCache(4, 3, 4, 2).append(np.ones((1, 4)), np.ones((1, 4)))
    with pytest.raises(ShapeError, match=match):
        decode_step(x, cache, arrays)
    assert cache.fill == 1
    assert decode_step(np.ones((3, 4)), cache, arrays).shape == (3, 4)


@pytest.mark.parametrize("tape", [False, True])
def test_layers_refuse_a_kv_cache(tape):
    """The layers and ``attend`` run over a key/value block only: a KVCache
    raises ShapeError (not AttributeError) and leaves ``fill`` as it was.
    Decode rows go through ``KVCache.attend`` and ``decode_step``."""
    block = TransformerBlock(4, 2, rng())
    cache = nn.KVCache(4, 3, 4, 2).append(np.ones((1, 4)), np.ones((1, 4)))
    x, qkv = np.ones((3, 1, 4)), np.ones((3, 1, 12))
    if tape:
        x, qkv = Tensor(x, requires_grad=True), Tensor(qkv, requires_grad=True)
    for call in (lambda: block.attn(x, cache), lambda: block(x, cache),
                 lambda: attend(qkv, 2, False, cache)):
        with pytest.raises(ShapeError, match="key/value block .* got KVCache"):
            call()
    assert cache.fill == 1


def test_attend_refuses_decode_rows():
    """A 2-D ``qkv`` (decode rows), with a KVCache or without, raises
    ShapeError that points to ``KVCache.attend``."""
    cache = nn.KVCache(3, 3, 4, 2)
    for args in ((), (cache,)):
        with pytest.raises(ShapeError, match="KVCache.attend"):
            attend(np.ones((3, 12)), 2, False, *args)
    assert cache.fill == 0


@pytest.mark.parametrize("causal", [False, True])
def test_attention_layer_grads_match_composed_tape_ops(causal, monkeypatch):
    """Through the projections and a key/value block: rows after the block
    of the rows before them (whose own call is over an empty block, so
    causal), with every input and parameter gradient."""
    layer = SelfAttention(6, 2, rng(), causal=causal)
    for p in layer.parameters().values():
        p.data = np.random.default_rng(2).normal(0.0, 1.0, p.data.shape)
    data = np.random.default_rng(3).normal(0.0, 1.0, (2, 7, 6))
    w = np.random.default_rng(4).normal(0.0, 1.0, (2, 7, 6))

    def run():
        layer.zero_grad()
        x0 = Tensor(data[:, :3].copy(), requires_grad=True)
        x1 = Tensor(data[:, 3:].copy(), requires_grad=True)
        first = layer(x0, np.zeros((2, 0, 12)))
        out = concat([first, layer(x1, layer.wqkv(x0)[:, :, 6:])], axis=1)
        (out * Tensor(w)).sum().backward()
        grads = {n: p.grad for n, p in layer.parameters().items()}
        return out.data, x0.grad, x1.grad, grads

    new = run()
    monkeypatch.setattr(nn, "attend", composed_attention)
    ref = run()
    np.testing.assert_array_equal(new[0], ref[0])
    assert_close_relative(new[1], ref[1], "x0")
    assert_close_relative(new[2], ref[2], "x1")
    # the key block of wqkv.bias has a zero gradient up to rounding
    # (softmax is shift-invariant)
    scale = max(np.abs(g).max() for g in ref[3].values())
    for name, g in new[3].items():
        assert np.abs(g - ref[3][name]).max() <= 1e-12 * scale, name


def three_dense_attention(layer, x, cache=None):
    """The layer with q, k and v from three Dense layers holding the column
    blocks of ``wqkv``, joined for ``composed_attention``, then ``wo``."""
    W = layer.width
    qkv = concat([dense(x, layer.wqkv.weight[:, i * W:(i + 1) * W],
                        layer.wqkv.bias[i * W:(i + 1) * W]) for i in range(3)],
                 axis=2)
    return layer.wo(composed_attention(qkv, layer.heads, x.shape[1] > 1, cache))


# (width, heads, rows B, new rows L, cached rows P): the shapes of training
# (B·T rows of D tokens after one style token) and of sampling (one token)
ORACLE_CASES = [(8, 2, 3, 4, 0), (8, 2, 5, 1, 2), (64, 4, 16, 4, 1),
                (64, 4, 1, 1, 1), (64, 4, 4, 1, 3), (64, 4, 160, 1, 2)]


@pytest.mark.parametrize("W,heads,B,L,P", ORACLE_CASES)
def test_fused_projection_matches_three_dense_layers(W, heads, B, L, P):
    """Bit for bit forward, Tensors and arrays each, over a key/value block of
    P rows; gradients of the input, the block and every parameter to 1e-12,
    since dx is one K = 3W GEMM instead of three summed."""
    layer = SelfAttention(W, heads, rng())
    gen = np.random.default_rng(8)
    for p in layer.parameters().values():
        p.data = gen.normal(0.0, 0.3, p.data.shape)
    x = gen.normal(0.0, 1.0, (B, L, W))
    past = gen.normal(0.0, 1.0, (B, P, 2 * W)) if P else None
    w = gen.normal(0.0, 1.0, (B, L, W))

    def run(forward):
        layer.zero_grad()
        ts = [Tensor(a.copy(), requires_grad=True)
              for a in [x] + ([past] if P else [])]
        out = forward(ts[0], *ts[1:])
        (out * Tensor(w)).sum().backward()
        grads = [t.grad for t in ts]
        grads += [p.grad for p in layer.parameters().values()]
        return out.data, grads

    new = run(layer)
    ref = run(lambda xt, *cache: three_dense_attention(layer, xt, *cache))
    np.testing.assert_array_equal(new[0], ref[0])
    np.testing.assert_array_equal(layer(x, past),
                                  three_dense_attention(layer, x, past))
    for a, b in zip(new[1], ref[1]):
        assert_close_relative(a, b)


def test_attention_is_one_tape_node():
    """From the scores to the merged output, one node whose parents are the
    fused projection and, when given, the Tensor key/value block."""
    layer = SelfAttention(8, 2, rng())
    x = Tensor(rng().normal(0.0, 1.0, (3, 5, 8)), requires_grad=True)
    block = Tensor(rng().normal(0.0, 1.0, (3, 2, 16)), requires_grad=True)
    for past in ((), (block,)):
        out = layer(x, *past)
        merged = out._parents[0]   # wo: one dense node over (merged, W, b)
        assert merged.shape == (3, 5, 8)
        assert merged._parents[1:] == past
        qkv = merged._parents[0]   # wqkv: one dense node over (x, W, b)
        assert qkv.shape == (3, 5, 24) and qkv._parents[0] is x


def test_transformer_block_grad_flows():
    block = TransformerBlock(8, 2, rng())
    x = Tensor(rng().normal(0.0, 1.0, (2, 4, 8)), requires_grad=True)
    block(x).sum().backward()
    assert np.any(x.grad != 0.0)
    for p in block.parameters().values():
        assert p.grad.shape == p.data.shape


def test_module_parameter_discovery_nested():
    class Net(Module):
        def __init__(self):
            self.a = Dense(2, 2, rng())
            self.blocks = [Dense(2, 2, rng()), Dense(2, 2, rng())]
            self.w = Parameter(np.zeros(3))

    names = set(Net().parameters())
    assert {"a.weight", "a.bias", "blocks.0.weight", "blocks.1.bias",
            "w"} <= names


def test_adam_reduces_quadratic():
    p = Parameter(np.array([5.0, -3.0]))
    moments = [(np.zeros(2), np.zeros(2))]
    for t in range(1, 301):
        p.grad = 2.0 * p.data
        adam_step([p], moments, t, lr=0.05)
    assert np.all(np.abs(p.data) < 0.1)


def test_adam_aborts_on_nonfinite_grad_without_update():
    p = Parameter(np.ones(2))
    q = Parameter(np.ones(2))
    p.grad = np.array([1.0, np.nan])
    q.grad = np.ones(2)
    moments = [(np.full(2, 0.5), np.full(2, 0.25)), (np.zeros(2), np.zeros(2))]
    before = list(moments)
    with pytest.raises(DivergenceError):
        adam_step([q, p], moments, 4, lr=0.1)
    np.testing.assert_array_equal(q.data, np.ones(2))
    np.testing.assert_array_equal(p.data, np.ones(2))
    assert all(now is was for now, was in zip(moments, before, strict=True))
    np.testing.assert_array_equal(moments[0][0], np.full(2, 0.5))
    np.testing.assert_array_equal(moments[0][1], np.full(2, 0.25))


def test_parameter_holds_no_optimizer_state():
    p = Parameter(np.ones(2))
    assert p.requires_grad and p.grad is None
    for name in ("adam_m", "adam_v", "adam_step"):
        assert not hasattr(p, name)
        with pytest.raises(AttributeError):
            setattr(p, name, np.zeros(2))


def reference_adam(p, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba's Adam from zero moments over the gradients ``grads(p)``
    of successive steps, one step count for all of them."""
    m = v = np.zeros_like(p)
    for t, grad in enumerate(grads, 1):
        g = grad(p)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        p = p - lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
    return p


def test_fit_counts_adam_steps_across_epochs_and_starts_each_fit_afresh():
    """Two epochs of two batches are Adam steps 1 to 4 of one run, bit for
    bit; a second fit of the same parameter starts from zero moments."""
    p = Parameter(np.array([1.0, -2.0]))

    def step(batch):
        return {"loss": (p * p).sum()}

    def grads(n):
        return [lambda q: 2.0 * q] * n

    fit({"p": p}, 2, 0.1, lambda: iter(range(2)), step)
    want = reference_adam(np.array([1.0, -2.0]), grads(4), 0.1)
    assert p.data.tobytes() == want.tobytes()
    fit({"p": p}, 1, 0.1, lambda: iter(range(1)), step)
    assert p.data.tobytes() == reference_adam(want, grads(1), 0.1).tobytes()


def test_conv_stack_puts_leaky_relu_between_layers():
    convs = [Conv1d(2, 3, 1, rng(), mode="same"),
             Conv1d(3, 2, 3, rng(), mode="causal")]
    x = Tensor(rng().normal(0.0, 1.0, (1, 5, 2)))
    want = convs[1](leaky_relu(convs[0](x))).data
    np.testing.assert_array_equal(conv_stack(x, convs).data, want)


def quadratic_fit(**kwargs):
    """Two epochs of two batches fitting p toward 0 on sum(p**2)."""
    p = Parameter(np.array([1.0, -2.0]))

    def step(batch):
        loss = (p * p).sum()
        return {"loss": loss, "half": loss * 0.5}

    return fit({"p": p}, 2, 0.1, lambda: iter(range(2)), step, **kwargs)


def test_fit_rows_hold_epoch_then_parts_in_step_order():
    history = quadratic_fit()
    assert [list(row) for row in history] == [["epoch", "loss", "half"]] * 2
    assert [row["epoch"] for row in history] == [0, 1]
    for row in history:
        assert row["half"] == pytest.approx(0.5 * row["loss"])
    assert history[1]["loss"] < history[0]["loss"]


def test_fit_end_epoch_runs_before_row_is_logged():
    events = []
    quadratic_fit(end_epoch=lambda e: events.append(("end", e)),
                  log=lambda row: events.append(("log", row["epoch"])))
    assert events == [("end", 0), ("log", 0), ("end", 1), ("log", 1)]


def test_fit_nonfinite_loss_restores_epoch_start_and_raises():
    p = Parameter(np.array([1.0, -2.0]))
    losses = iter([1.0, 1.0, 1.0, float("nan")])
    at_end, logged = {}, []

    def step(batch):
        return {"loss": (p * p).sum() * next(losses)}

    with pytest.raises(DivergenceError):
        fit({"p": p}, 2, 0.1, lambda: iter(range(2)), step, log=logged.append,
            end_epoch=lambda epoch: at_end.setdefault(epoch, p.data.copy()))
    assert [row["epoch"] for row in logged] == [0]
    # epoch 1 took one finite step before the NaN; it is rolled back
    np.testing.assert_array_equal(p.data, at_end[0])


def test_fit_holds_no_graph_at_end_epoch_or_after():
    """The step's graph is released before ``end_epoch`` runs and nothing of
    it outlives ``fit``: what tracemalloc still sees then is ``fit``'s Adam
    moments and the parameters' gradients, far below one (4096, 8)
    activation."""
    r = np.random.default_rng(17)
    layer = Dense(8, 8, r)
    x = r.normal(0.0, 1.0, (4096, 8))

    def step(batch):
        h = leaky_relu(layer(Tensor(x)))
        return {"loss": (h * h).mean()}

    held = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]

        def end_epoch(epoch):
            held.append(tracemalloc.get_traced_memory()[0] - base)

        fit(layer.parameters(), 2, 0.01, lambda: iter(range(2)), step,
            end_epoch=end_epoch)
        held.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    assert len(held) == 3
    assert max(held) < x.nbytes // 4, held


def test_finite_difference_matches_analytic():
    x = rng().normal(0.0, 1.0, (3,))
    g = finite_difference_grad(lambda a: float((a ** 2).sum()), x.copy())
    np.testing.assert_allclose(g, 2 * x, atol=1e-6)
