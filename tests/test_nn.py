import tracemalloc

import numpy as np
import pytest

from rvqsynth.nn import (Conv1d, Dense, DivergenceError, Module, Parameter,
                         SelfAttention, TransformerBlock, adam_step,
                         conv_stack, finite_difference_grad, fit)
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
    the exception: numpy runs one gemv per row (apart to rounding)."""
    layer = Dense(5, 4, rng(), bias=bias)
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

    out = Tensor._make(np.matmul(x.data, weight.data), (x, weight), backward)
    return out if bias is None else out + bias


@pytest.mark.parametrize("shape", [(6, 5), (1, 5), (3, 4, 5), (2, 1, 3, 5)])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("x_grad", [True, False])
def test_dense_node_matches_two_node_composition(shape, bias, x_grad):
    """Output, dx, dW and db bit for bit against the old two nodes."""
    r = np.random.default_rng(7)
    x, w = r.normal(0.0, 1.0, shape), r.normal(0.0, 1.0, shape[:-1] + (4,))
    W, b = r.normal(0.0, 1.0, (5, 4)), r.normal(0.0, 1.0, 4)

    def run(fn):
        xt = Tensor(x, requires_grad=x_grad)
        Wt, bt = Parameter(W), Parameter(b) if bias else None
        out = fn(xt, Wt, bt)
        (out * Tensor(w)).sum().backward()
        return [out.data, xt.grad, Wt.grad] + ([bt.grad] if bias else [])

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
    assert Dense(3, 2, rng(), bias=False)(x)._parents[0] is x


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
    """Rows fed in chunks of 1, 3 and 1 over a K/V cache attend causally,
    whatever ``causal`` says."""
    layer = (TransformerBlock if block else SelfAttention)(6, 2, rng(),
                                                          causal=causal)
    attn = layer.attn if block else layer
    x = np.random.default_rng(1).normal(0.0, 1.0, (2, 5, 6))
    cache = []
    chunks = [layer(x[:, lo:hi], cache) for lo, hi in ((0, 1), (1, 4), (4, 5))]
    assert [a.shape[2] for a in cache] == [5, 5]
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
    layer = Conv1d(1, 1, kernel=3, rng=rng(), mode="same", bias=False)
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
    fused input split by getitem, reshape and swapaxes, the cache concat,
    swapaxes, matmul, a scalar multiply, the mask add, softmax, matmul,
    swapaxes and reshape."""
    B, L, W3 = qkv.shape
    W = W3 // 3
    q, k, v = (qkv[:, :, i * W:(i + 1) * W].reshape(B, L, heads, W // heads)
               .swapaxes(1, 2) for i in range(3))
    if cache is not None:
        if cache:
            k = concat([cache[0], k], axis=2)
            v = concat([cache[1], v], axis=2)
        cache[:] = [k, v]
    P = k.shape[2] - L
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
    """The fused (B, L, 3W) projection, the cached keys and values (B, nh,
    P, dh), none when P = 0, and output weights (B, L, W)."""
    rng_ = np.random.default_rng(seed)
    dh = 3
    return (rng_.normal(0.0, 1.0, (B, L, 3 * nh * dh)),
            [rng_.normal(0.0, 1.0, (B, nh, P, dh)) for _ in range(2 if P else 0)],
            rng_.normal(0.0, 1.0, (B, L, nh * dh)))


def assert_close_relative(got, want, what=""):
    """≤1e-12 relative to the largest magnitude of ``want``."""
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= 1e-12 * scale, what


@pytest.mark.parametrize("B,nh,L,P,masked", ATTEND_CASES)
def test_attend_matches_composed_tape_ops(B, nh, L, P, masked):
    qkv, past, w = attend_inputs(B, nh, L, P)

    def run(fn):
        ts = [Tensor(a.copy(), requires_grad=True) for a in [qkv] + past]
        cache = ts[1:]
        out = fn(ts[0], nh, masked, cache)
        (out * Tensor(w)).sum().backward()
        return [out.data] + [t.data for t in cache] + [t.grad for t in ts]

    new, ref = run(attend), run(composed_attention)
    for a, b in zip(new[:3], ref[:3]):   # the output and the cache left
        np.testing.assert_array_equal(a, b)
    cache = list(past)
    np.testing.assert_array_equal(new[0], attend(qkv, nh, masked, cache))
    for a, b in zip(new[1:3], cache):
        np.testing.assert_array_equal(a, b)
    for a, b, what in zip(new[3:], ref[3:], ["qkv", "cached k", "cached v"]):
        assert_close_relative(a, b, what)


@pytest.mark.parametrize("B,nh,L,P,masked", ATTEND_CASES)
def test_attend_grads_match_finite_differences(B, nh, L, P, masked):
    qkv, past, w = attend_inputs(B, nh, L, P, seed=6)
    ts = [Tensor(a.copy(), requires_grad=True) for a in [qkv] + past]
    (attend(ts[0], nh, masked, ts[1:]) * Tensor(w)).sum().backward()

    def loss(_):  # finite differences perturb qkv and the cache in place
        return float((attend(qkv, nh, masked, list(past)) * w).sum())

    for t, array in zip(ts, [qkv] + past):
        np.testing.assert_allclose(t.grad, finite_difference_grad(loss, array),
                                   rtol=1e-6, atol=1e-7)


def merged(split):
    """List-cache keys or values (B, heads, P, dh) as a KVCache holds them,
    (P, B, W) with the heads merged."""
    B, nh, P, dh = split.shape
    return split.transpose(2, 0, 1, 3).reshape(P, B, nh * dh)


@pytest.mark.parametrize("nh", [1, 2, 4])
@pytest.mark.parametrize("B", [1, 3, 160])
def test_kv_cache_attend_matches_list_cache(B, nh):
    """One row at a time over a KVCache against the list-cache ``attend``
    at every fill from 0 to capacity − 1: the output to 1e-12 relative, the
    keys and values written bit for bit with the heads merged."""
    capacity, dh = 4, 3
    W = nh * dh
    steps = np.random.default_rng(7).normal(0.0, 1.0, (capacity, B, 1, 3 * W))
    cache, past = nn.KVCache(capacity, B, W, nh), []
    for fill, qkv in enumerate(steps):
        assert cache.fill == fill
        out = attend(qkv, nh, False, cache)
        assert out.shape == (B, 1, W)
        assert_close_relative(out, attend(qkv, nh, False, past), f"fill {fill}")
        for got, split in zip((cache.k, cache.v), past):
            np.testing.assert_array_equal(got[:fill + 1], merged(split))


@pytest.mark.parametrize("nh", [1, 2, 4])
@pytest.mark.parametrize("R,n", [(1, 4), (3, 2), (8, 20)])
def test_kv_cache_strided_rows_write_to_their_candidates(R, n, nh):
    """R rows over a cache of R·n rows, as at the sampler's first depth,
    read every n-th cache row and write their keys and values to n rows
    each, as ``np.repeat(…, n, axis=0)`` would; the R·n candidates' next
    step then matches a list cache repeated to them."""
    dh = 3
    W = nh * dh
    rng_ = np.random.default_rng(8)
    style = rng_.normal(0.0, 1.0, (2, 1, W))  # one row's keys and values
    cache = nn.KVCache(3, R * n, W, nh)
    cache.append(*style)
    past = [np.broadcast_to(a.reshape(1, nh, 1, dh), (R, nh, 1, dh))
            for a in style]
    qkv = rng_.normal(0.0, 1.0, (R, 1, 3 * W))
    assert_close_relative(attend(qkv, nh, False, cache),
                          attend(qkv, nh, False, past))
    for got, split in zip((cache.k, cache.v), past):
        np.testing.assert_array_equal(got[:2], np.repeat(merged(split), n, axis=1))
    qkv = rng_.normal(0.0, 1.0, (R * n, 1, 3 * W))
    past = [np.repeat(a, n, axis=0) for a in past]
    assert_close_relative(attend(qkv, nh, False, cache),
                          attend(qkv, nh, False, past))


def test_kv_cache_refuses_a_write_past_capacity():
    cache = nn.KVCache(2, 3, 4, 2)
    for _ in range(2):
        attend(np.ones((3, 1, 12)), 2, False, cache)
    keys = cache.k.copy()
    with pytest.raises(ShapeError, match="full"):
        attend(np.zeros((3, 1, 12)), 2, False, cache)
    assert cache.fill == 2
    np.testing.assert_array_equal(cache.k, keys)


@pytest.mark.parametrize("qkv", [Tensor(np.zeros((3, 1, 12))),
                                 np.zeros((3, 2, 12)), np.zeros((2, 1, 12))])
def test_kv_cache_takes_one_row_of_arrays_dividing_its_rows(qkv):
    cache = nn.KVCache(4, 3, 4, 2)
    with pytest.raises(ShapeError):
        attend(qkv, 2, False, cache)
    assert cache.fill == 0


@pytest.mark.parametrize("causal", [False, True])
def test_attention_layer_grads_match_composed_tape_ops(causal, monkeypatch):
    """Through the projections and the K/V cache: rows after a cached
    prefix, with every input and parameter gradient."""
    layer = SelfAttention(6, 2, rng(), causal=causal)
    for p in layer.parameters().values():
        p.data = np.random.default_rng(2).normal(0.0, 1.0, p.data.shape)
    data = np.random.default_rng(3).normal(0.0, 1.0, (2, 7, 6))
    w = np.random.default_rng(4).normal(0.0, 1.0, (2, 7, 6))

    def run():
        layer.zero_grad()
        x0 = Tensor(data[:, :3].copy(), requires_grad=True)
        x1 = Tensor(data[:, 3:].copy(), requires_grad=True)
        cache = []
        out = concat([layer(x0, cache), layer(x1, cache)], axis=1)
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


def three_dense_attention(layer, x, cache):
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
    """Bit for bit forward, Tensors and arrays each, cache included; gradients
    of the input, the cache and every parameter to 1e-12, since dx is one
    K = 3W GEMM instead of three summed."""
    layer = SelfAttention(W, heads, rng())
    gen = np.random.default_rng(8)
    for p in layer.parameters().values():
        p.data = gen.normal(0.0, 0.3, p.data.shape)
    x = gen.normal(0.0, 1.0, (B, L, W))
    past = [gen.normal(0.0, 1.0, (B, heads, P, W // heads)) for _ in range(2)]
    w = gen.normal(0.0, 1.0, (B, L, W))

    def run(forward):
        layer.zero_grad()
        ts = [Tensor(a.copy(), requires_grad=True)
              for a in [x] + (past if P else [])]
        cache = ts[1:]
        out = forward(ts[0], cache)
        (out * Tensor(w)).sum().backward()
        grads = [t.grad for t in ts]
        grads += [p.grad for p in layer.parameters().values()]
        return out.data, [t.data for t in cache], grads

    new = run(layer)
    ref = run(lambda xt, cache: three_dense_attention(layer, xt, cache))
    np.testing.assert_array_equal(new[0], ref[0])
    for a, b in zip(new[1], ref[1]):
        np.testing.assert_array_equal(a, b)
    caches = [list(past) if P else [] for _ in range(2)]
    np.testing.assert_array_equal(layer(x, caches[0]),
                                  three_dense_attention(layer, x, caches[1]))
    for a, b in zip(*caches):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(new[2], ref[2]):
        assert_close_relative(a, b)


def test_attention_is_one_tape_node():
    """From the scores to the merged output, one node whose parents are the
    fused projection and the cached keys and values."""
    layer = SelfAttention(8, 2, rng())
    x = Tensor(rng().normal(0.0, 1.0, (3, 5, 8)), requires_grad=True)
    cache = [Tensor(rng().normal(0.0, 1.0, (3, 2, 2, 4)), requires_grad=True)
             for _ in range(2)]
    for past in ([], cache):
        out = layer(x, list(past))
        merged = out._parents[0]   # wo: one dense node over (merged, W, b)
        assert merged.shape == (3, 5, 8)
        assert merged._parents[1:] == tuple(past)
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
    for _ in range(300):
        p.grad = 2.0 * p.data
        adam_step([p], lr=0.05)
    assert np.all(np.abs(p.data) < 0.1)


def test_adam_aborts_on_nonfinite_grad_without_update():
    p = Parameter(np.ones(2))
    q = Parameter(np.ones(2))
    p.grad = np.array([1.0, np.nan])
    q.grad = np.ones(2)
    before_q = q.data.copy()
    with pytest.raises(DivergenceError):
        adam_step([q, p], lr=0.1)
    np.testing.assert_array_equal(q.data, before_q)
    assert q.adam_step == 0


def test_conv_stack_puts_leaky_relu_between_layers():
    convs = [Conv1d(2, 3, 1, rng(), mode="same"),
             Conv1d(3, 2, 3, rng(), mode="causal")]
    x = Tensor(rng().normal(0.0, 1.0, (1, 5, 2)))
    want = convs[1](leaky_relu(convs[0](x), 0.1)).data
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
    it outlives ``fit``: what tracemalloc still sees then is the parameter's
    Adam state and gradient, far below one (4096, 8) activation."""
    r = np.random.default_rng(17)
    layer = Dense(8, 8, r)
    x = r.normal(0.0, 1.0, (4096, 8))

    def step(batch):
        h = leaky_relu(layer(Tensor(x)), 0.1)
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
