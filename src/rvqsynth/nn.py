"""Layers, parameters, the Adam optimizer and the shared training loop.

Each layer reports its hyperparameters as plain data through ``spec``;
checkpoints store the model's config dict instead. All layers operate on
batched sequences of shape (B, T, C); Dense also accepts (N, C), attention
and blocks may put earlier rows' keys and values (B, P, 2C) before them.
Decoding runs ``decode_step`` on a block's ``arrays`` over a ``KVCache``.

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
    """A trainable tensor; ``fit`` keeps its optimizer state."""

    __slots__ = ()

    def __init__(self, data):
        Tensor.__init__(self, data, requires_grad=True)

    def zero_grad(self):
        self.grad = None


def adam_step(params, moments, t: int, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected Adam's update ``t`` (from 1) of the list ``params``, their
    moments (m, v) replaced in the list ``moments``. Aborts before touching
    any parameter or moment if any gradient is non-finite."""
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        if not np.all(np.isfinite(p.grad)):
            raise DivergenceError("non-finite gradient; step aborted")
    for i, p in enumerate(params):
        m, v = moments[i]
        m = beta1 * m + (1.0 - beta1) * p.grad
        v = beta2 * v + (1.0 - beta2) * p.grad * p.grad
        moments[i] = m, v
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
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
    """``p`` on the tape for a Tensor input ``x`` (an array as a constant), else an array."""
    if isinstance(x, Tensor):
        return p if isinstance(p, Tensor) else Tensor(p)
    return p.data if isinstance(p, Tensor) else p


def _init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    scale = 1.0 / np.sqrt(max(1, fan_in))
    return rng.uniform(-scale, scale, size=shape)


class Dense(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(_init(rng, in_dim, (in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim))

    @property
    def spec(self):
        return {"kind": "dense", "in_dim": self.in_dim, "out_dim": self.out_dim}

    def __call__(self, x):
        return dense(x, self.weight, self.bias)

    def arrays(self) -> tuple:
        """The weight and bias arrays as they are now, for ``affine``."""
        return self.weight.data, self.bias.data


def affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``dense`` of rows (N, C) on arrays: ``x @ weight``, then ``+= bias``."""
    out = x @ weight
    out += bias
    return out


def dense(x, weight: Tensor, bias: Tensor):
    """``x @ W + b``, the bias added in place. An array ``x`` runs off the tape
    as ``affine`` on its rows, the leading axes folded (a 2-D ``x`` as it is);
    a Tensor makes one node, whose ``x @ W`` numpy folds the same way, with
    the same bits, except on rows of one token (..., 1, C), which take one
    gemv each (≤1e-15 relative apart). Backward: db = Σ g over the leading
    axes, dx = g Wᵀ (one GEMM per leading index), dW = xᵀ g as one GEMM."""
    wd = weight.data
    if x.shape[-1] != wd.shape[0]:
        raise ShapeError(f"dense expects last dim {wd.shape[0]}, got {x.shape}")
    if not isinstance(x, Tensor):
        rows = x.reshape(-1, x.shape[-1]) if x.ndim > 2 else x
        return affine(rows, wd, bias.data).reshape(x.shape[:-1] + wd.shape[1:])
    xd = x.data
    out = xd @ wd
    out += bias.data

    def backward(g):
        bias._accumulate(g.sum(axis=tuple(range(g.ndim - 1))))
        if x.requires_grad:
            x._accumulate(g @ wd.T)
        if weight.requires_grad:
            weight._accumulate(xd.reshape(-1, wd.shape[0]).T @ g.reshape(-1, wd.shape[1]))

    return Tensor._make(out, (x, weight, bias), backward)


class Conv1d(Module):
    """1-D convolution over the time axis of (B, T, C) input.

    ``mode='causal'`` reads only indices <= t; ``mode='same'`` uses a centered
    window (odd kernel sizes only).
    """

    def __init__(self, in_dim: int, out_dim: int, kernel: int,
                 rng: np.random.Generator, dilation: int = 1,
                 mode: str = "causal"):
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
        self.bias = Parameter(np.zeros(out_dim))

    @property
    def spec(self):
        return {"kind": "conv1d", "in_dim": self.in_dim, "out_dim": self.out_dim,
                "kernel": self.kernel, "dilation": self.dilation, "mode": self.mode}

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

    ``cache`` is None or the keys and values of P earlier rows as one block
    (B, P, 2W), a Tensor or an array (see ``attend``): the new rows (B, L, W)
    attend to them and causally among themselves, whatever ``causal`` says.
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
    ``fill`` (set back to rewind); ``E`` is the (W, heads) 0/1 head
    indicator, ``Et`` C-ordered, ``scale`` 1/√(W/heads), made once."""

    def __init__(self, capacity: int, rows: int, width: int, heads: int):
        self.k, self.v = np.empty((2, capacity, rows, width))
        self.fill = 0
        self.E = np.repeat(np.eye(heads), width // heads, axis=0)
        self.Et = self.E.T.copy()
        self.scale = 1.0 / np.sqrt(width // heads)

    def append(self, k: np.ndarray, v: np.ndarray) -> "KVCache":
        """Write the next keys and values (B, W), row i to rows/B rows."""
        B, W = k.shape
        if v.shape != k.shape or W != self.k.shape[2]:
            raise ShapeError(f"KV cache width {self.k.shape[2]}: got {k.shape}, {v.shape}")
        if self.k.shape[1] % B:
            raise ShapeError(f"{B} rows do not divide the KV cache's {self.k.shape[1]}")
        if self.fill == len(self.k):
            raise ShapeError(f"KV cache is full ({len(self.k)} positions)")
        self.k[self.fill].reshape(B, -1, W)[:] = k[:, None]
        self.v[self.fill].reshape(B, -1, W)[:] = v[:, None]
        self.fill += 1
        return self

    def attend(self, qkv: np.ndarray) -> np.ndarray:
        """Attention (B, W) of decode rows, an array (B, 3W) whose keys and values
        go to rows/B rows each, over the rows read every (rows/B)-th, K, V (P, B,
        W): s = ((K ⊙ q) E)·``scale``, a softmax across the P slabs, and ((a Eᵀ)
        ⊙ V) summed over them, reduced by the ufuncs (see ``sample_categorical``)."""
        W, heads = self.k.shape[2], self.E.shape[1]
        if isinstance(qkv, Tensor) or qkv.shape[1:] != (3 * W,):
            raise ShapeError(f"a KVCache of width {W} expects (B, {W}) decode rows, "
                             f"their (B, {3 * W}) qkv of an array, not {qkv.shape}")
        B = len(qkv)
        self.append(qkv[:, W:2 * W], qkv[:, 2 * W:])
        K = self.k[:self.fill, ::len(self.k[0]) // B]
        V = self.v[:self.fill, ::len(self.v[0]) // B]
        s = ((K * qkv[:, :W]).reshape(-1, W) @ self.E).reshape(len(K), B, heads)
        s -= np.maximum.reduce(s, axis=0)
        a = np.exp(np.multiply(s, self.scale, out=s), out=s)
        a /= np.add.reduce(a, axis=0)
        out = (a.reshape(-1, heads) @ self.Et).reshape(K.shape)
        return np.add.reduce(np.multiply(out, V, out=out), axis=0)


def attend(qkv, heads: int, masked: bool, cache=None):
    """``softmax(q kᵀ/√dh + mask) v`` of the (B, heads, L, dh) queries, keys and
    values split from ``qkv`` (B, L, 3W), heads merged to (B, L, W), after the
    P rows of a block ``cache`` (B, P, 2W) of their ``[k | v]`` columns (a
    block of another shape raises ``ShapeError``); the mask hides from row i
    the keys after P + i. Arrays give an array, a Tensor one tape node over
    ``qkv`` and a Tensor block: with a the softmax, da = dO vᵀ and
    ds = (da − rowsum(da∘a))∘a/√dh, dq = ds k, dk = dsᵀ q and dv = aᵀ dO, the
    last two over all P + L rows, fill the (B, L, 3W) gradient of ``qkv`` and
    the (B, P, 2W) one of the block. Decode rows go to ``KVCache.attend``."""
    tape = isinstance(qkv, Tensor)
    x = qkv.data if tape else qkv
    if np.ndim(x) != 3:
        raise ShapeError(f"attend expects (B, L, 3W) rows, got {np.shape(x)}; "
                         f"decode rows (B, 3W) go to KVCache.attend")
    B, L, W3 = x.shape
    past = cache.data if isinstance(cache, Tensor) else cache
    if past is not None and (np.ndim(past) != 3 or past.shape[::2] != (B, W3 - W3 // 3)):
        raise ShapeError(f"a key/value block for rows {x.shape} must be ({B}, P, "
                         f"{W3 - W3 // 3}), got {type(past).__name__} {np.shape(past)}")
    dh = W3 // (3 * heads)
    q, k, v = x.reshape(B, L, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    P = 0 if past is None else past.shape[1]
    if P:
        k, v = (np.concatenate([p, new], axis=2) for p, new in zip(
            past.reshape(B, P, 2, heads, dh).transpose(2, 0, 3, 1, 4), (k, v)))
    scale = 1.0 / np.sqrt(dh)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if masked:
        scores = scores + np.triu(np.full((L, P + L), -1e30), k=P + 1)
    a = softmax(scores, axis=-1)
    out = (a @ v).swapaxes(1, 2).reshape(B, L, W3 // 3)
    if not tape:
        return out

    def backward(g):
        g = g.reshape(B, L, heads, dh).swapaxes(1, 2)
        da = g @ v.swapaxes(-1, -2)
        ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale
        full, dpast = np.empty((B, L, 3, heads, dh)), np.empty((B, P, 2, heads, dh))
        grads, kv = full.transpose(2, 0, 3, 1, 4), dpast.transpose(2, 0, 3, 1, 4)
        np.matmul(ds, k, out=grads[0])
        d = np.empty((B, heads, P + L, dh))  # dk, then dv, of all P + L rows
        for i, (lhs, rhs) in enumerate(((ds, q), (a, g))):
            np.matmul(lhs.swapaxes(-1, -2), rhs, out=d)
            grads[i + 1], kv[i] = d[:, :, P:], d[:, :, :P]
        qkv._accumulate(full.reshape(B, L, W3))
        if isinstance(cache, Tensor):
            cache._accumulate(dpast.reshape(B, P, W3 - W3 // 3))

    block = (cache,) if isinstance(cache, Tensor) else ()
    return Tensor._make(out, (qkv, *block), backward)


class TransformerBlock(Module):
    """Pre-activation attention + feedforward block with residuals."""

    def __init__(self, width: int, heads: int, rng: np.random.Generator):
        self.attn = SelfAttention(width, heads, rng)
        self.ff1 = Dense(width, 2 * width, rng)
        self.ff2 = Dense(2 * width, width, rng)

    def __call__(self, x, cache=None):
        """``cache``: None or earlier rows' keys and values (B, P, 2W)."""
        x = x + self.attn(x, cache)
        return x + self.ff2(leaky_relu(self.ff1(x)))

    def arrays(self) -> tuple:
        """``Dense.arrays`` of wqkv, wo, ff1 and ff2, for ``decode_step``."""
        return tuple(d.arrays() for d in (self.attn.wqkv, self.attn.wo, self.ff1, self.ff2))


def decode_step(x: np.ndarray, cache: KVCache, arrays: tuple) -> np.ndarray:
    """A ``TransformerBlock``'s step of decode rows (B, W) over ``cache`` on ``arrays``."""
    qkv, wo, ff1, ff2 = arrays
    x = x + affine(cache.attend(affine(x, *qkv)), *wo)
    return x + affine(leaky_relu(affine(x, *ff1)), *ff2)


def conv_stack(x, convs):
    """Apply ``convs`` in order with a leaky ReLU between consecutive layers."""
    for i, conv in enumerate(convs):
        if i:
            x = leaky_relu(x)
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
    ``DivergenceError``. Adam's moments and step count live for the fit alone.
    """
    params = list(params.values())
    moments = [(np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    history, t = [], 0
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
            t += 1
            adam_step(params, moments, t, lr)
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
