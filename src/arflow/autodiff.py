"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ``numpy`` array and records the operations
applied to it on a tape.  Calling :meth:`Tensor.backward` on any node walks
the tape in reverse topological order and accumulates gradients into every
leaf created with ``requires_grad=True``.

The op set is what the predictor, the interaction loss and the penetration
gradient record: broadcasting ``+ - *`` (Tensor on the left), negation,
batched ``@`` (operands at least 2-D), whole-tensor ``sum``/``mean``,
``reshape``, basic slicing, ``concat`` and ``gelu``.  The predictor's dense
layers, layer norms and attention blocks are each one node (``linear``,
``layer_norm``, ``attention``) with a closed-form backward, and so is the
6D rotation decode (``geometry.decode_rot6d_t``); their forwards repeat the
arithmetic of the composed ops operation for operation, so they give the
same bits.

A node's backward returns one gradient per parent, in parent order, and
``None`` for a parent that needs none; binary ops and the fused nodes
compute only the gradients some parent needs.
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
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                break
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

        # depth-first post-order over the nodes that need a gradient; tensors
        # hash by identity, so they key the sets and dicts directly
        order: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)] if self.requires_grad else []
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and p not in seen:
                    stack.append((p, False))

        grads: dict[Tensor, np.ndarray] = {self: grad}
        for node in reversed(order):
            g = grads.pop(node, None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                prev = grads.get(parent)
                grads[parent] = pg if prev is None else prev + pg

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = self.data + other.data

        def bw(g):
            return (_unbroadcast(g, self.data.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.data.shape) if other.requires_grad else None)

        return Tensor._make(out, (self, other), bw)

    def __neg__(self):
        def bw(g):
            return (-g,)

        return Tensor._make(-self.data, (self,), bw)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        out = self.data * other.data

        def bw(g):
            return (_unbroadcast(g * other.data, self.data.shape)
                    if self.requires_grad else None,
                    _unbroadcast(g * self.data, other.data.shape)
                    if other.requires_grad else None)

        return Tensor._make(out, (self, other), bw)

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        out = self.data @ other.data

        def bw(g):
            return (_unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.data.shape)
                    if self.requires_grad else None,
                    _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.data.shape)
                    if other.requires_grad else None)

        return Tensor._make(out, (self, other), bw)

    # -- reductions -----------------------------------------------------------

    def sum(self):
        """Sum of every element, a 0-d tensor."""
        out = self.data.sum()

        def bw(g):
            return (np.full(self.data.shape, g),)

        return Tensor._make(out, (self,), bw)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self.data.reshape(shape)
        old = self.data.shape

        def bw(g):
            return (g.reshape(old),)

        return Tensor._make(out, (self,), bw)

    def __getitem__(self, idx):
        """Basic (non-repeating) indexing only: slices, ints, ellipsis."""
        out = self.data[idx]
        shape = self.data.shape

        def bw(g):
            full = np.zeros(shape)
            full[idx] += g
            return (full,)

        return Tensor._make(out, (self,), bw)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False)


def leaf(x) -> Tensor:
    return Tensor(x, requires_grad=True)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(out, tuple(tensors), bw)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU ``0.5 x (1 + tanh(c (x + 0.044715 x^3)))``
    as one tape node.  In-place steps keep the number of full-size
    temporaries down."""
    xd = x.data
    th = np.multiply(xd, xd)
    th *= 0.044715
    th *= xd
    th += xd
    th *= _GELU_C
    np.tanh(th, out=th)
    one_th = np.add(1.0, th)
    out = np.multiply(0.5, xd)
    out *= one_th

    def bw(g):
        # d out / dx = 0.5 (1 + th) + 0.5 x (1 - th^2) c (1 + 0.134145 x^2)
        #            = 0.5 (1 + th) + out (1 - th) c (1 + 0.134145 x^2)
        local = np.multiply(xd, xd)
        local *= 0.134145 * _GELU_C
        local += _GELU_C
        local *= out
        tmp = np.subtract(1.0, th)
        local *= tmp
        np.multiply(0.5, one_th, out=tmp)
        local += tmp
        local *= g
        return (local,)

    return Tensor._make(out, (x,), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer ``x @ w + b`` over the last axis as one tape node.

    The leading axes of ``x`` are flattened into the rows of one GEMM, so
    the weight gradient is a single product as well.
    """
    n_in, n_out = w.data.shape
    rows = x.data.reshape(-1, n_in)
    out = rows @ w.data
    out += b.data

    def bw(g):
        g = g.reshape(-1, n_out)
        return ((g @ w.data.T).reshape(x.data.shape) if x.requires_grad else None,
                rows.T @ g if w.requires_grad else None,
                np.ones(len(g)) @ g if b.requires_grad else None)

    return Tensor._make(out.reshape(*x.data.shape[:-1], n_out), (x, w, b), bw)


def layer_norm(x: Tensor, g: Tensor, b: Tensor, eps: float) -> Tensor:
    """Layer normalization over the last axis, scaled by ``g`` and shifted
    by ``b``, as one tape node."""
    n = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    xhat = x.data + (-mu)
    out = np.multiply(xhat, xhat)
    var = out.sum(axis=-1, keepdims=True) * (1.0 / n)
    s = np.sqrt(var + eps)
    xhat /= s
    np.multiply(xhat, g.data, out=out)
    out += b.data

    def bw(gy):
        # row sums as matrix-vector products over (rows, n) views
        gy2 = gy.reshape(-1, n)
        xh2 = xhat.reshape(-1, n)
        gxh = gy2 * xh2
        ones = np.ones(len(gy2))
        gg = ones @ gxh if g.requires_grad else None
        gb = ones @ gy2 if b.requires_grad else None
        if not x.requires_grad:
            return None, gg, gb
        # dx = (gy g - mean(gy g) - xhat mean(gy g xhat)) / s
        m2 = gxh @ (g.data * (1.0 / n))
        m1 = gy2 @ (g.data * (1.0 / n))
        gx = gy2 * g.data
        gx -= m1[:, None]
        np.multiply(xh2, m2[:, None], out=gxh)
        gx -= gxh
        gx /= s.reshape(-1, 1)
        return gx.reshape(x.data.shape), gg, gb

    return Tensor._make(out, (x, g, b), bw)


def attention(qkv: Tensor, heads: int, mask: np.ndarray) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    ``qkv`` is (B, S, 3W): per token, the queries, keys and values of all
    heads side by side.  ``mask`` (S, S) is added to the scaled scores
    before the softmax.  Returns the heads' weighted values, concatenated
    per token: (B, S, W).
    """
    b, s, w3 = qkv.data.shape
    w = w3 // 3
    hd = w // heads
    scale = 1.0 / np.sqrt(hd)
    split = qkv.data.reshape(b, s, 3, heads, hd)
    q, k, v = (np.swapaxes(split[:, :, i], 1, 2) for i in range(3))
    # p = softmax((q @ k^T) * scale + mask) over the keys, computed in place
    p = q @ np.swapaxes(k, 2, 3)
    p *= scale
    p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = np.swapaxes(p @ v, 1, 2).reshape(b, s, w)

    def bw(g):
        go = np.swapaxes(g.reshape(b, s, heads, hd), 1, 2)
        gp = go @ np.swapaxes(v, 2, 3)
        # softmax backward, then the scale: ds = scale p (gp - sum(gp p))
        gs = p * gp
        gp -= gs.sum(axis=-1, keepdims=True)
        gp *= p
        gp *= scale
        grad = np.empty((b, s, 3, heads, hd))
        np.swapaxes(grad[:, :, 0], 1, 2)[...] = gp @ k
        np.swapaxes(grad[:, :, 1], 1, 2)[...] = np.swapaxes(gp, 2, 3) @ q
        np.swapaxes(grad[:, :, 2], 1, 2)[...] = np.swapaxes(p, 2, 3) @ go
        return (grad.reshape(b, s, w3),)

    return Tensor._make(out, (qkv,), bw)
