"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ``numpy`` array and records the operations
applied to it on a tape.  Calling :meth:`Tensor.backward` on any node walks
the tape in reverse topological order and accumulates gradients into every
leaf created with ``requires_grad=True``.

The op set is what the predictor, the interaction loss and the penetration
gradient record: broadcasting ``+ - * /`` (Tensor on the left), negation,
batched ``@`` (operands at least 2-D), ``sum``/``mean``, ``sqrt``, shape ops,
basic slicing, ``concat``/``stack``, ``softmax``, ``gelu``, and the norm and
cross product along the last axis.
"""

from __future__ import annotations

import numpy as np


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate gradients of this node into all upstream leaves.

        `grad` defaults to ones; pass an explicit array to seed the
        vector-Jacobian product of a non-scalar output.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError("seed gradient shape mismatch")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in node._backward(g):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = self.data + other.data

        def bw(g):
            return ((self, _unbroadcast(g, self.data.shape)),
                    (other, _unbroadcast(g, other.data.shape)))

        return Tensor._make(out, (self, other), bw)

    def __neg__(self):
        def bw(g):
            return ((self, -g),)

        return Tensor._make(-self.data, (self,), bw)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        out = self.data * other.data

        def bw(g):
            return ((self, _unbroadcast(g * other.data, self.data.shape)),
                    (other, _unbroadcast(g * self.data, other.data.shape)))

        return Tensor._make(out, (self, other), bw)

    def __truediv__(self, other):
        other = as_tensor(other)
        out = self.data / other.data

        def bw(g):
            return ((self, _unbroadcast(g / other.data, self.data.shape)),
                    (other, _unbroadcast(-g * self.data / other.data ** 2,
                                         other.data.shape)))

        return Tensor._make(out, (self, other), bw)

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        out = self.data @ other.data

        def bw(g):
            ga = g @ np.swapaxes(other.data, -1, -2)
            gb = np.swapaxes(self.data, -1, -2) @ g
            return ((self, _unbroadcast(ga, self.data.shape)),
                    (other, _unbroadcast(gb, other.data.shape)))

        return Tensor._make(out, (self, other), bw)

    # -- pointwise ----------------------------------------------------------

    def sqrt(self):
        out = np.sqrt(self.data)

        def bw(g):
            return ((self, g * 0.5 / out),)

        return Tensor._make(out, (self,), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((self, np.broadcast_to(g, self.data.shape).copy()),)

        return Tensor._make(out, (self,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self.data.reshape(shape)
        old = self.data.shape

        def bw(g):
            return ((self, g.reshape(old)),)

        return Tensor._make(out, (self,), bw)

    def swapaxes(self, a: int, b: int):
        out = np.swapaxes(self.data, a, b)

        def bw(g):
            return ((self, np.swapaxes(g, a, b)),)

        return Tensor._make(out, (self,), bw)

    def __getitem__(self, idx):
        """Basic (non-repeating) indexing only: slices, ints, ellipsis."""
        out = self.data[idx]
        shape = self.data.shape

        def bw(g):
            full = np.zeros(shape)
            full[idx] += g
            return ((self, full),)

        return Tensor._make(out, (self,), bw)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False)


def leaf(x) -> Tensor:
    return Tensor(x, requires_grad=True)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(zip(tensors, pieces))

    return Tensor._make(out, tuple(tensors), bw)


def stack(tensors: list[Tensor], axis: int) -> Tensor:
    expanded = []
    for t in tensors:
        t = as_tensor(t)
        shape = list(t.data.shape)
        pos = axis if axis >= 0 else axis + len(shape) + 1
        shape.insert(pos, 1)
        expanded.append(t.reshape(tuple(shape)))
    return concat(expanded, axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((x, out * (g - inner)),)

    return Tensor._make(out, (x,), bw)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU as a single tape node."""
    x = as_tensor(x)
    c = 0.7978845608028654  # sqrt(2/pi)
    sq = x.data * x.data
    th = np.tanh(c * (x.data + 0.044715 * sq * x.data))
    out = 0.5 * x.data * (1.0 + th)

    def bw(g):
        du = c * (1.0 + 0.134145 * sq)
        local = 0.5 * (1.0 + th) + 0.5 * x.data * (1.0 - th * th) * du
        return ((x, g * local),)

    return Tensor._make(out, (x,), bw)


def norm_last(x: Tensor, eps: float = 0.0) -> Tensor:
    """Euclidean norm along the last axis, kept as a size-1 axis.

    `eps` is added inside the square root; a tiny positive value keeps the
    gradient finite at the origin (smoothed norm).
    """
    sq = (x * x).sum(axis=-1, keepdims=True)
    if eps:
        sq = sq + eps
    return sq.sqrt()


def cross_last(a: Tensor, b: Tensor) -> Tensor:
    """Cross product along the last axis (size 3)."""
    a0, a1, a2 = a[..., 0:1], a[..., 1:2], a[..., 2:3]
    b0, b1, b2 = b[..., 0:1], b[..., 1:2], b[..., 2:3]
    return concat([a1 * b2 - a2 * b1,
                   a2 * b0 - a0 * b2,
                   a0 * b1 - a1 * b0], axis=-1)
