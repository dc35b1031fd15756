"""Central-difference checks of every op the tape records.

Each case maps input tensors to an output tensor; the check contracts the
output with a fixed random weight and compares the tape gradient of every
input with central differences of that scalar.
"""

import numpy as np
import pytest

from arflow import autodiff as ad

H = 1e-6
CAUSAL = np.triu(np.full((3, 3), -1e9), k=1)
# (inputs' shapes, op, inputs must be positive)
CASES = {
    "add-broadcast": ([(3, 4), (4,)], lambda a, b: a + b, False),
    "add-array": ([(2, 3)], lambda a: a + np.arange(3.0), False),
    "sub-broadcast": ([(2, 1, 4), (3, 1)], lambda a, b: a - b, False),
    "sub-scalar": ([(2, 3)], lambda a: a - 0.5, False),
    "neg": ([(2, 3)], lambda a: -a, False),
    "mul-broadcast": ([(3, 4), (3, 1)], lambda a, b: a * b, False),
    "mul-scalar": ([(2, 3)], lambda a: a * 2.5, False),
    "div-broadcast": ([(3, 4), (4,)], lambda a, b: a / b, True),
    "div-scalar": ([(2, 3)], lambda a: a / 3.0, False),
    "matmul-batched": ([(2, 3, 4), (2, 4, 5)], lambda a, b: a @ b, False),
    "matmul-broadcast": ([(2, 3, 4), (4, 5)], lambda a, b: a @ b, False),
    "sum": ([(3, 4)], lambda a: a.sum(), False),
    "sum-axis": ([(2, 3, 4)], lambda a: a.sum(axis=1), False),
    "sum-axis-keepdims": ([(2, 3, 4)], lambda a: a.sum(axis=-1, keepdims=True), False),
    "mean": ([(3, 4)], lambda a: a.mean(), False),
    "mean-axes": ([(2, 3, 4)], lambda a: a.mean(axis=(0, 2)), False),
    "reshape": ([(2, 3, 4)], lambda a: a.reshape(6, 4), False),
    "reshape-tuple": ([(2, 3, 4)], lambda a: a.reshape((4, 6)), False),
    "getitem-slices": ([(4, 5)], lambda a: a[1:3, ::2], False),
    "getitem-int-ellipsis": ([(2, 3, 4)], lambda a: a[..., 1], False),
    "concat": ([(2, 3), (2, 2)], lambda a, b: ad.concat([a, b], axis=1), False),
    "stack": ([(2, 3), (2, 3)], lambda a, b: ad.stack([a, b], axis=-1), False),
    "gelu": ([(3, 4)], ad.gelu, False),
    "linear": ([(2, 3, 4), (4, 5), (5,)], ad.linear, False),
    "layer-norm": ([(2, 3, 5), (5,), (5,)],
                   lambda x, g, b: ad.layer_norm(x, g, b, 1e-5), False),
    "attention-causal": ([(2, 3, 12)], lambda a: ad.attention(a, 2, CAUSAL), False),
    "attention-full": ([(2, 3, 12)], lambda a: ad.attention(a, 2, np.zeros((3, 3))),
                       False),
    "sqrt": ([(3, 4)], lambda a: a.sqrt(), True),
    "norm-last": ([(4, 3)], ad.norm_last, False),
    "norm-last-eps": ([(4, 3)], lambda a: ad.norm_last(a, eps=1e-3), False),
    "cross-last": ([(4, 3), (4, 3)], ad.cross_last, False),
}


@pytest.mark.parametrize("name", list(CASES))
def test_gradient_matches_central_differences(name):
    shapes, op, positive = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    arrays = [rng.uniform(0.5, 2.0, size=s) if positive else rng.normal(size=s)
              for s in shapes]
    leaves = [ad.leaf(a) for a in arrays]
    out = op(*leaves)
    weight = rng.normal(size=out.shape)

    def scalar(values):
        return float(np.sum(op(*[ad.constant(v) for v in values]).data * weight))

    (out * ad.constant(weight)).sum().backward()
    for i, (leaf, array) in enumerate(zip(leaves, arrays)):
        assert leaf.grad.shape == array.shape
        fd = np.empty_like(array)
        for idx in np.ndindex(array.shape):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[i][idx] += H
            minus[i][idx] -= H
            fd[idx] = (scalar(plus) - scalar(minus)) / (2 * H)
        assert np.allclose(leaf.grad, fd, rtol=1e-6, atol=1e-8), (name, i)


def test_gradients_accumulate_over_reused_inputs():
    a = ad.leaf(np.array([[1.0, -2.0], [0.5, 3.0]]))
    ((a * a) + a).sum().backward()
    assert np.allclose(a.grad, 2.0 * a.data + 1.0)
