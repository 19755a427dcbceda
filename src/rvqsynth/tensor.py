"""Minimal reverse-mode autodiff over dense float64 arrays.

Everything runs in double precision with a fixed reduction order so that
repeated runs with the same seed are bit-identical. ``backward`` releases
each interior node's gradient once that node's backward has consumed it;
leaves (Parameters and user Tensors with ``requires_grad``) keep theirs.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    ndiff = grad.ndim - len(shape)
    if ndiff > 0:
        grad = grad.sum(axis=tuple(range(ndiff)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node on the differentiation tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- autograd --------------------------------------------------------

    def backward(self):
        """Add d(self)/d(leaf) to every leaf's ``grad``. Each interior node's
        (one with a ``_backward``) gradient is set to ``None`` once used, so a
        second backward over one graph starts them from zero."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    def _accumulate(self, grad: np.ndarray):
        # no gradient is ever written in place: the first one is kept uncopied
        if not self.requires_grad:
            return
        if grad.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {grad.shape} for {self!r}")
        self.grad = grad if self.grad is None else self.grad + grad

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other

        def backward(g):
            for t in (a, b):  # a constant operand's gradient is not computed
                if t.requires_grad:
                    t._accumulate(_unbroadcast(g, t.data.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            a._accumulate(-g)

        return Tensor._make(-a.data, (a,), backward)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other

        def backward(g):
            for t, u in ((a, b), (b, a)):
                if t.requires_grad:
                    t._accumulate(_unbroadcast(g * u.data, t.data.shape))

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        a = self
        e = float(exponent)

        def backward(g):
            a._accumulate(g * e * a.data ** (e - 1.0))

        return Tensor._make(a.data ** e, (a,), backward)

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        out = np.matmul(a.data, b.data)

        def backward(g):  # both operands have at least two axes
            if a.requires_grad:
                ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                a._accumulate(_unbroadcast(ga, a.data.shape))
            if not b.requires_grad:
                return
            b._accumulate(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                                       b.data.shape))

        return Tensor._make(out, (a, b), backward)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

        return Tensor._make(out, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        return mean(self, axis, keepdims)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.data.shape

        def backward(g):
            a._accumulate(g.reshape(old))

        return Tensor._make(a.data.reshape(shape), (a,), backward)

    def swapaxes(self, ax1: int, ax2: int):
        a = self

        def backward(g):
            a._accumulate(np.swapaxes(g, ax1, ax2))

        return Tensor._make(np.swapaxes(a.data, ax1, ax2), (a,), backward)

    def __getitem__(self, key):
        a = self
        out = a.data[key]
        # basic indices select each element at most once, so the gradient
        # can be assigned; advanced indices may repeat and need np.add.at
        basic = all(k is None or k is Ellipsis or isinstance(k, (slice, np.integer))
                    or (isinstance(k, int) and not isinstance(k, bool))
                    for k in (key if isinstance(key, tuple) else (key,)))

        def backward(g):
            full = np.zeros_like(a.data)
            if basic:
                full[key] = g
            else:
                np.add.at(full, key, g)
            a._accumulate(full)

        return Tensor._make(np.array(out), (a,), backward)


# -- free functions -----------------------------------------------------------


def concat(tensors, axis: int = 0):
    """Join along ``axis``; only arrays give an array, off the tape."""
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        for t, part in zip(tensors, np.split(g, np.cumsum(sizes[:-1]), axis=axis)):
            t._accumulate(part)

    return Tensor._make(out, tensors, backward)


def broadcast_to(t, shape):
    """Broadcast ``t`` to ``shape``; the gradient is summed back. An array
    gives numpy's read-only view."""
    if not isinstance(t, Tensor):
        return np.broadcast_to(t, shape)
    out = np.broadcast_to(t.data, shape).copy()

    def backward(g):
        t._accumulate(_unbroadcast(g, t.data.shape))

    return Tensor._make(out, (t,), backward)


def mean(t, axis=None, keepdims: bool = False):
    """``sum * (1 / n)`` over ``axis`` of a Tensor, on the tape, or of an
    array, with the same bits (``ndarray.mean`` divides by n instead)."""
    n = np.prod(t.shape if axis is None else np.take(t.shape, axis))
    return t.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def leaky_relu(t):
    """``t`` where positive, else ``0.1 * t``; an array gives an array. As
    ``max(t, 0.1·t)`` it needs no mask and has the bits of
    ``t·where(t > 0, 1, 0.1)`` (±0, ±inf and NaN too)."""
    x = t.data if isinstance(t, Tensor) else t
    out = np.maximum(x, 0.1 * x)
    if not isinstance(t, Tensor):
        return out

    def backward(g):  # max(x > 0, 0.1) is where(x > 0, 1, 0.1), 4x faster
        t._accumulate(g * np.maximum(x > 0.0, 0.1))

    return Tensor._make(out, (t,), backward)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of an array along ``axis`` (``nn.attend`` has its backward)."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(t, axis: int = -1):
    """``t`` minus its log-sum-exp along ``axis``; an array gives an array."""
    x = t.data if isinstance(t, Tensor) else t
    shifted = x - x.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    if not isinstance(t, Tensor):
        return out

    def backward(g):
        t._accumulate(g - np.exp(out) * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (t,), backward)


def straight_through(quantized, pre_quant: Tensor) -> Tensor:
    """Forward value of ``quantized``; gradient passes unchanged to ``pre_quant``.

    ``quantized`` never receives a gradient, even if it is itself on the tape.
    """
    qdata = quantized.data if isinstance(quantized, Tensor) else _as_array(quantized)
    if qdata.shape != pre_quant.data.shape:
        raise ShapeError(
            f"straight_through shape mismatch: {qdata.shape} vs {pre_quant.data.shape}"
        )

    def backward(g):
        pre_quant._accumulate(g)

    return Tensor._make(qdata.copy(), (pre_quant,), backward)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy over the leading axes.

    ``targets`` is either an integer array of class indices with shape
    ``logits.shape[:-1]`` or a distribution array of the same shape as
    ``logits`` (soft targets).
    """
    targets = np.asarray(targets)
    ls = log_softmax(logits, axis=-1)
    if targets.shape == logits.data.shape and targets.dtype.kind == "f":
        return -(ls * Tensor(targets)).sum() * (1.0 / max(1, ls.data[..., 0].size))
    if targets.shape != logits.data.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} incompatible with logits {logits.data.shape}"
        )
    flat = ls.reshape(-1, logits.data.shape[-1])
    idx = (np.arange(flat.data.shape[0]), targets.reshape(-1).astype(np.intp))
    picked = flat[idx]
    return -picked.mean()
