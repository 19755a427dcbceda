"""Layers, parameters, the Adam optimizer and the shared training loop.

Each layer reports its hyperparameters as plain data through ``spec``;
checkpoints store the model's config dict instead. All layers operate on
batched sequences of shape (B, T, C); Dense also accepts (N, C).

Each layer has one forward. A ``Tensor`` input is recorded on the tape; an
``np.ndarray`` input runs the same code off the tape and returns an array,
which is how inference calls the layers.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, leaky_relu, softmax


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite values."""


class Parameter(Tensor):
    """A trainable tensor with Adam accumulators."""

    __slots__ = ("adam_m", "adam_v", "adam_step")

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.adam_m = np.zeros_like(self.data)
        self.adam_v = np.zeros_like(self.data)
        self.adam_step = 0

    def zero_grad(self):
        self.grad = None


def adam_step(params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """Standard bias-corrected Adam update. Aborts before touching any
    parameter if any gradient is non-finite."""
    params = list(params)
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        if not np.all(np.isfinite(p.grad)):
            raise DivergenceError("non-finite gradient; step aborted")
    for p in params:
        p.adam_step += 1
        t = p.adam_step
        p.adam_m = beta1 * p.adam_m + (1.0 - beta1) * p.grad
        p.adam_v = beta2 * p.adam_v + (1.0 - beta2) * p.grad * p.grad
        mhat = p.adam_m / (1.0 - beta1 ** t)
        vhat = p.adam_v / (1.0 - beta2 ** t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + eps)


class Module:
    """Base class providing parameter discovery by attribute walking."""

    def parameters(self) -> dict:
        out = {}
        for name, value in vars(self).items():
            seq = isinstance(value, (list, tuple))
            for i, item in enumerate(value if seq else [value]):
                key = f"{name}.{i}" if seq else name
                if isinstance(item, Parameter):
                    out[key] = item
                elif isinstance(item, Module):
                    out.update((f"{key}.{sub}", p) for sub, p in item.parameters().items())
        return out

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()


def operand(x, p):
    """``p`` for a Tensor input ``x``, so the tape records it; else its array."""
    return p if p is None or isinstance(x, Tensor) else p.data


def _init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    scale = 1.0 / np.sqrt(max(1, fan_in))
    return rng.uniform(-scale, scale, size=shape)


class Dense(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(_init(rng, in_dim, (in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    @property
    def spec(self):
        return {"kind": "dense", "in_dim": self.in_dim, "out_dim": self.out_dim,
                "bias": self.bias is not None}

    def __call__(self, x):
        return dense(x, self.weight, self.bias)


def dense(x, weight: Tensor, bias: Tensor | None = None):
    """``x @ W + b``, the bias added in place. An array ``x`` runs off the tape
    as one 2-D GEMM over its folded leading axes; a Tensor makes one node,
    whose ``x @ W`` numpy folds the same way, with the same bits, except on
    rows of one token (..., 1, C), which take one gemv each (≤1e-15 relative
    apart). Backward: db = Σ g over the leading axes, dx = g Wᵀ (one GEMM per
    leading index), dW = xᵀ g as one GEMM."""
    wd = weight.data
    if x.shape[-1] != wd.shape[0]:
        raise ShapeError(f"dense expects last dim {wd.shape[0]}, got {x.shape}")
    tape = isinstance(x, Tensor)
    xd = x.data if tape else x.reshape(-1, x.shape[-1]) if x.ndim > 2 else x
    out = xd @ wd
    if bias is not None:
        out += bias.data
    if not tape:
        return out.reshape(x.shape[:-1] + wd.shape[1:])

    def backward(g):
        if bias is not None:
            bias._accumulate(g.sum(axis=tuple(range(g.ndim - 1))))
        if x.requires_grad:
            x._accumulate(g @ wd.T)
        if weight.requires_grad:
            weight._accumulate(xd.reshape(-1, wd.shape[0]).T @ g.reshape(-1, wd.shape[1]))

    return Tensor._make(out, (x, weight) if bias is None else (x, weight, bias), backward)


class Conv1d(Module):
    """1-D convolution over the time axis of (B, T, C) input.

    ``mode='causal'`` reads only indices <= t; ``mode='same'`` uses a centered
    window (odd kernel sizes only).
    """

    def __init__(self, in_dim: int, out_dim: int, kernel: int,
                 rng: np.random.Generator, dilation: int = 1,
                 mode: str = "causal", bias: bool = True):
        if mode not in ("causal", "same"):
            raise ValueError(f"unknown conv mode {mode!r}")
        if mode == "same" and kernel % 2 == 0:
            raise ValueError("'same' convolution requires an odd kernel size")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.kernel = kernel
        self.dilation = dilation
        self.mode = mode
        self.weight = Parameter(_init(rng, in_dim * kernel, (kernel, in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    @property
    def spec(self):
        return {"kind": "conv1d", "in_dim": self.in_dim, "out_dim": self.out_dim,
                "kernel": self.kernel, "dilation": self.dilation,
                "mode": self.mode, "bias": self.bias is not None}

    @property
    def radius(self) -> int:
        """Half-width of the centered receptive field ('same' mode)."""
        return (self.kernel - 1) // 2 * self.dilation

    def __call__(self, x):
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"conv1d expects last dim {self.in_dim}, got {x.shape}")
        return conv1d(x, operand(x, self.weight), operand(x, self.bias),
                      self.dilation, self.mode)


def tap_sum(rows, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """The conv forward kernel: ``rows[tap] @ weight[tap]`` summed in tap
    order, then the bias."""
    out = rows[0] @ weight[0]
    for tap in range(1, len(rows)):
        out = out + rows[tap] @ weight[tap]
    return out if bias is None else out + bias


def conv1d(x, weight, bias=None, dilation: int = 1, mode: str = "causal"):
    """Convolve axis -2 of ``x`` (..., T, C) with ``weight`` (k, C, O).

    The forward is ``tap_sum`` over the padded taps; an array ``x`` (with
    array weights) returns it, a Tensor makes one tape node. Its backward
    lowers the taps to im2col columns (N*T, k*C): the weight gradient is one
    GEMM over them, the input gradient one GEMM followed by k slice-adds.
    """
    k, C, O = weight.shape
    T = x.shape[-2]
    d = dilation
    if mode == "causal":
        before, after = (k - 1) * d, 0
    else:
        before = after = (k - 1) // 2 * d
    tape = isinstance(x, Tensor)
    padded = np.zeros(x.shape[:-2] + (before + T + after, x.shape[-1]))
    padded[..., before:before + T, :] = x.data if tape else x
    taps = [padded[..., tap * d:tap * d + T, :] for tap in range(k)]
    if not tape:
        return tap_sum(taps, weight, bias)
    out = tap_sum(taps, weight.data, None if bias is None else bias.data)

    def backward(g):
        g2 = g.reshape(-1, O)
        if weight.requires_grad:
            cols = np.concatenate(taps, axis=-1).reshape(-1, k * C)
            weight._accumulate((cols.T @ g2).reshape(k, C, O))
        if bias is not None:
            bias._accumulate(g2.sum(axis=0))
        if x.requires_grad:
            gcols = (g2 @ weight.data.reshape(k * C, O).T).reshape(
                x.shape[:-1] + (k * C,))
            gpad = np.zeros(padded.shape)
            for tap in range(k):
                gpad[..., tap * d:tap * d + T, :] += gcols[..., tap * C:(tap + 1) * C]
            x._accumulate(gpad[..., before:before + T, :])

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


class SelfAttention(Module):
    """Multi-head self-attention with an optional causal mask.

    ``cache`` (a list, empty at first; Tensors or arrays) carries the keys
    and values of earlier rows: it is left holding ``[k, v]`` of every row so
    far, each (B, heads, rows, W / heads), and the new rows attend to all
    cached rows and causally among themselves, whatever ``causal`` says; a
    ``KVCache`` (off the tape) takes one new row per call, see ``attend``.
    """

    def __init__(self, width: int, heads: int, rng: np.random.Generator,
                 causal: bool = True):
        if width % heads != 0:
            raise ValueError("width must be divisible by heads")
        self.width = width
        self.heads = heads
        self.causal = causal
        # q, k and v in one GEMM: Dense drew three (W, W) blocks in turn
        self.wqkv = Dense(width, 3 * width, rng)
        blocks = np.split(self.wqkv.weight.data.reshape(3 * width, width), 3)
        self.wqkv.weight.data = np.hstack(blocks)
        self.wo = Dense(width, width, rng)

    @property
    def spec(self):
        return {"kind": "attention", "width": self.width, "heads": self.heads,
                "causal": self.causal}

    def __call__(self, x, cache=None):
        if x.ndim != 3 or x.shape[-1] != self.width:
            raise ShapeError(f"attention expects (B, L, {self.width}), got {x.shape}")
        # one row sees every row before it, so its mask would be all zeros
        masked = x.shape[1] > 1 and (self.causal or cache is not None)
        return self.wo(attend(self.wqkv(x), self.heads, masked, cache))


class KVCache:
    """Preallocated keys and values ``k``, ``v`` (capacity, rows, W), heads
    merged (each row the fused projection's column block), written below
    ``fill``; ``E`` is the (W, heads) 0/1 head indicator, ``Et`` C-ordered."""

    def __init__(self, capacity: int, rows: int, width: int, heads: int):
        self.k, self.v = np.empty((2, capacity, rows, width))
        self.fill = 0
        self.E = np.repeat(np.eye(heads), width // heads, axis=0)
        self.Et = self.E.T.copy()

    def append(self, k: np.ndarray, v: np.ndarray) -> "KVCache":
        """Write the next keys and values (B, W), row i to rows/B rows."""
        if self.fill == len(self.k):
            raise ShapeError(f"KV cache is full ({len(self.k)} positions)")
        for buf, new in ((self.k, k), (self.v, v)):
            buf[self.fill].reshape(len(new), -1, new.shape[-1])[:] = new[:, None]
        self.fill += 1
        return self


def attend(qkv, heads: int, masked: bool, cache=None):
    """``softmax(q kᵀ/√dh + mask) v`` of the (B, heads, L, dh) queries, keys and
    values split from ``qkv`` (B, L, 3W), after the P rows ``cache`` holds (see
    ``SelfAttention``), heads merged to (B, L, W); the mask hides from row i
    the keys after P + i. Arrays give an array, a Tensor one tape node over
    ``qkv`` and the cached Tensors: with a the softmax, da = dO vᵀ and ds =
    (da − rowsum(da∘a))∘a/√dh, dq = ds k, dk = dsᵀ q and dv = aᵀ dO, C-ordered,
    fill one (B, L, 3W) gradient and hand the cached rows theirs.

    A ``KVCache`` of n·B rows takes arrays of one row (L = 1), written to n
    rows each; the rows read every n-th, K, V (P, B, W): s = ((K ⊙ q) E)/√dh,
    a softmax across the P slabs, and ((a Eᵀ) ⊙ V) summed over them."""
    tape = isinstance(qkv, Tensor)
    x = qkv.data if tape else qkv
    B, L, W3 = x.shape
    dh = W3 // (3 * heads)
    if isinstance(cache, KVCache):
        if tape or L != 1 or cache.k.shape[1] % B:
            raise ShapeError(f"a KVCache takes one row of arrays, not {x.shape}")
        q, k, v = x[:, 0].reshape(B, 3, -1).transpose(1, 0, 2)
        cache.append(k, v)
        K, V = (a[:cache.fill, ::len(a[0]) // B] for a in (cache.k, cache.v))
        s = ((K * q).reshape(-1, W3 // 3) @ cache.E).reshape(len(K), B, heads)
        a = np.exp((s - s.max(axis=0)) * (1.0 / np.sqrt(dh)))
        a /= a.sum(axis=0)
        out = (a.reshape(-1, heads) @ cache.Et).reshape(K.shape)
        return np.multiply(out, V, out=out).sum(axis=0)[:, None]
    q, k, v = x.reshape(B, L, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    past = list(cache or ())
    if past:
        k, v = (np.concatenate([p.data if isinstance(p, Tensor) else p, new],
                               axis=2) for p, new in zip(past, (k, v)))
    P = k.shape[2] - L
    scale = 1.0 / np.sqrt(dh)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if masked:
        scores = scores + np.triu(np.full((L, P + L), -1e30), k=P + 1)
    a = softmax(scores, axis=-1)
    out = (a @ v).swapaxes(1, 2).reshape(B, L, W3 // 3)

    def hand_back(grads, i, d):  # d: all P + L rows' dk (i = 1) or dv (2)
        grads[i] = d[:, :, P:]
        if P and isinstance(past[i - 1], Tensor):  # a copy, so d dies here
            past[i - 1]._accumulate(d[:, :, :P].copy())

    def backward(g, i=0):  # i = 1 or 2: that of the cached keys or values
        full = (np.zeros if i else np.empty)((B, L, 3, heads, dh))
        grads = full.transpose(2, 0, 3, 1, 4)
        if i:
            hand_back(grads, i, g)
        else:
            g = g.reshape(B, L, heads, dh).swapaxes(1, 2)
            da = g @ v.swapaxes(-1, -2)
            ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale
            np.matmul(ds, k, out=grads[0])
            hand_back(grads, 1, ds.swapaxes(-1, -2) @ q)
            hand_back(grads, 2, a.swapaxes(-1, -2) @ g)
        qkv._accumulate(full.reshape(B, L, W3))

    kv = [k, v]
    if tape:  # later calls reach qkv and the cache through these keys, values
        parents = (qkv, *(p for p in past if isinstance(p, Tensor)))
        out = Tensor._make(out, parents, backward)
        kv = [Tensor._make(t, parents, lambda g, i=i: backward(g, i))
              for i, t in enumerate(kv, 1)]
    if cache is not None:
        cache[:] = kv
    return out


class TransformerBlock(Module):
    """Pre-activation attention + feedforward block with residuals."""

    def __init__(self, width: int, heads: int, rng: np.random.Generator,
                 causal: bool = True, ff_mult: int = 2):
        self.attn = SelfAttention(width, heads, rng, causal=causal)
        self.ff1 = Dense(width, ff_mult * width, rng)
        self.ff2 = Dense(ff_mult * width, width, rng)

    def __call__(self, x, cache=None):
        """``cache`` is the attention's; see ``SelfAttention``."""
        x = x + self.attn(x, cache)
        return x + self.ff2(leaky_relu(self.ff1(x), 0.1))


def conv_stack(x, convs):
    """Apply ``convs`` in order with a leaky ReLU between consecutive layers."""
    for i, conv in enumerate(convs):
        if i:
            x = leaky_relu(x, 0.1)
        x = conv(x)
    return x


def fit(params, epochs: int, lr: float, batches, step, log=None,
        end_epoch=None) -> list:
    """The epoch/batch/Adam loop shared by every trainer.

    ``params`` maps names to the Parameters to train. ``batches()`` yields
    the batches of one epoch and ``step(batch)`` returns the batch's named
    loss parts (Tensors), ``"loss"`` first; ``"loss"`` is minimized.
    ``end_epoch(epoch)`` runs after the epoch's last step. Each history row
    is ``{"epoch", *parts}`` with parts averaged over batches. A non-finite
    loss restores the parameters from the start of the epoch and raises
    ``DivergenceError``.
    """
    params = list(params.values())
    history = []
    for epoch in range(epochs):
        snapshot = [p.data.copy() for p in params]
        totals, n_batches = {}, 0
        for batch in batches():
            for p in params:
                p.zero_grad()
            parts = step(batch)
            loss = parts["loss"]
            if not np.isfinite(loss.data):
                for p, data in zip(params, snapshot):
                    p.data = data
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}; rolled back")
            loss.backward()
            for k in parts:
                totals[k] = totals.get(k, 0.0) + float(parts[k].data)
            # drop the graph now: kept, it would live through the next
            # step's forward and backward (and through ``end_epoch``)
            del parts, loss
            adam_step(params, lr)
            n_batches += 1
        if end_epoch is not None:
            end_epoch(epoch)
        row = {"epoch": epoch, **{k: v / n_batches for k, v in totals.items()}}
        history.append(row)
        if log is not None:
            log(row)
    return history


def finite_difference_grad(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return g
