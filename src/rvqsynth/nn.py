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

from .tensor import ShapeError, Tensor, concat, leaky_relu, softmax


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite values."""


class Parameter(Tensor):
    """A trainable tensor with Adam accumulators."""

    __slots__ = ("adam_m", "adam_v", "adam_step")

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.grad = np.zeros_like(self.data)
        self.adam_m = np.zeros_like(self.data)
        self.adam_v = np.zeros_like(self.data)
        self.adam_step = 0

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)


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
            if isinstance(value, Parameter):
                out[name] = value
            elif isinstance(value, Module):
                for sub, p in value.parameters().items():
                    out[f"{name}.{sub}"] = p
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        for sub, p in item.parameters().items():
                            out[f"{name}.{i}.{sub}"] = p
                    elif isinstance(item, Parameter):
                        out[f"{name}.{i}"] = item
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
        """``x @ W + b``. An array with more than one leading axis is
        folded into one 2-D GEMM, where a Tensor lets numpy run one GEMM
        per leading index: the two agree to rounding (≤1e-15 relative), not
        bit for bit, which inference tolerates (streamed logits are checked
        against teacher-forced ones at 1e-10, sampled grids unchanged).
        """
        if x.shape[-1] != self.in_dim:
            raise ShapeError(
                f"dense expects last dim {self.in_dim}, got {x.shape}")
        tape = isinstance(x, Tensor)  # ``operand`` inlined: a hot path
        lead = None
        if not tape and x.ndim > 2:
            lead, x = x.shape[:-1], x.reshape(-1, self.in_dim)
        out = x @ (self.weight if tape else self.weight.data)
        if self.bias is not None:
            out = out + (self.bias if tape else self.bias.data)
        return out if lead is None else out.reshape(lead + (self.out_dim,))


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
    widths = [(0, 0)] * x.ndim
    widths[-2] = (before, after)
    tape = isinstance(x, Tensor)
    padded = np.pad(x.data if tape else x, widths)
    taps = [padded[..., tap * d:tap * d + T, :] for tap in range(k)]
    if not tape:
        return tap_sum(taps, weight, bias)
    out = tap_sum(taps, weight.data, None if bias is None else bias.data)

    def backward(g):
        g2 = g.reshape(-1, O)
        if weight.requires_grad:
            cols = np.empty(x.shape[:-1] + (k * C,))
            for tap in range(k):
                cols[..., tap * C:(tap + 1) * C] = taps[tap]
            weight._accumulate((cols.reshape(-1, k * C).T @ g2).reshape(k, C, O))
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
    cached rows and causally among themselves, whatever ``causal`` says.
    """

    def __init__(self, width: int, heads: int, rng: np.random.Generator,
                 causal: bool = True):
        if width % heads != 0:
            raise ValueError("width must be divisible by heads")
        self.width = width
        self.heads = heads
        self.causal = causal
        self.wq = Dense(width, width, rng)
        self.wk = Dense(width, width, rng)
        self.wv = Dense(width, width, rng)
        self.wo = Dense(width, width, rng)

    @property
    def spec(self):
        return {"kind": "attention", "width": self.width, "heads": self.heads,
                "causal": self.causal}

    def __call__(self, x, cache: list | None = None):
        if x.ndim != 3 or x.shape[-1] != self.width:
            raise ShapeError(f"attention expects (B, L, {self.width}), got {x.shape}")
        B, L, W = x.shape
        nh = self.heads
        dh = W // nh

        def split(t):
            return t.reshape(B, L, nh, dh).swapaxes(1, 2)  # (B, nh, L, dh)

        q, k, v = split(self.wq(x)), split(self.wk(x)), split(self.wv(x))
        if cache is not None:
            if cache:
                k = concat([cache[0], k], axis=2)
                v = concat([cache[1], v], axis=2)
            cache[:] = [k, v]
        P = k.shape[2] - L
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dh))
        # one row sees every row before it, so its mask would be all zeros
        if L > 1 and (self.causal or cache is not None):
            scores = scores + np.triu(np.full((L, P + L), -1e30), k=P + 1)
        attn = softmax(scores, axis=-1)
        return self.wo((attn @ v).swapaxes(1, 2).reshape(B, L, W))


class TransformerBlock(Module):
    """Pre-activation attention + feedforward block with residuals."""

    def __init__(self, width: int, heads: int, rng: np.random.Generator,
                 causal: bool = True, ff_mult: int = 2):
        self.attn = SelfAttention(width, heads, rng, causal=causal)
        self.ff1 = Dense(width, ff_mult * width, rng)
        self.ff2 = Dense(ff_mult * width, width, rng)

    def __call__(self, x, cache: list | None = None):
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
            # bind no loop variable to a part: it would keep this batch's
            # graph and gradients alive through the next backward
            for k in parts:
                totals[k] = totals.get(k, 0.0) + float(parts[k].data)
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
