"""Central-difference checks of every op the tape records.

Each case maps input tensors to an output tensor; the check contracts the
output with a fixed random weight and compares the tape gradient of every
input with central differences of that scalar.  A guard keeps the cases
complete: every public ``autodiff`` function and every ``Tensor`` method
or operator that records a node must be called directly by some case.
"""

import inspect
import sys

import numpy as np
import pytest

from arflow import autodiff as ad
from arflow import geometry as geo

H = 1e-6
CAUSAL = np.triu(np.full((3, 3), -1e9), k=1)
# (inputs' shapes, op)
CASES = {
    "add-broadcast": ([(3, 4), (4,)], lambda a, b: a + b),
    "add-array": ([(2, 3)], lambda a: a + np.arange(3.0)),
    "sub-broadcast": ([(2, 1, 4), (3, 1)], lambda a, b: a - b),
    "sub-scalar": ([(2, 3)], lambda a: a - 0.5),
    "neg": ([(2, 3)], lambda a: -a),
    "mul-broadcast": ([(3, 4), (3, 1)], lambda a, b: a * b),
    "mul-scalar": ([(2, 3)], lambda a: a * 2.5),
    "matmul-batched": ([(2, 3, 4), (2, 4, 5)], lambda a, b: a @ b),
    "matmul-broadcast": ([(2, 3, 4), (4, 5)], lambda a, b: a @ b),
    "sum": ([(3, 4)], lambda a: a.sum()),
    "mean": ([(3, 4)], lambda a: a.mean()),
    "reshape": ([(2, 3, 4)], lambda a: a.reshape(6, 4)),
    "reshape-tuple": ([(2, 3, 4)], lambda a: a.reshape((4, 6))),
    "getitem-slices": ([(4, 5)], lambda a: a[1:3, ::2]),
    "getitem-int-ellipsis": ([(2, 3, 4)], lambda a: a[..., 1]),
    "concat": ([(2, 3), (2, 2)], lambda a, b: ad.concat([a, b], axis=1)),
    "gelu": ([(3, 4)], ad.gelu),
    "linear": ([(2, 3, 4), (4, 5), (5,)], ad.linear),
    "layer-norm": ([(2, 3, 5), (5,), (5,)],
                   lambda x, g, b: ad.layer_norm(x, g, b, 1e-5)),
    "attention-causal": ([(2, 3, 12)], lambda a: ad.attention(a, 2, CAUSAL)),
    "attention-full": ([(2, 3, 12)], lambda a: ad.attention(a, 2, np.zeros((3, 3)))),
    # The 6D decode is one node that replaced a chain of elementary ops;
    # each case named after one of those ops checks the node's backward
    # along the step that op took.
    # a column over its broadcast norm: b1 = a / |a| alone
    "div-broadcast": ([(4, 6)], lambda r: geo.decode_rot6d_t(r)[..., 0]),
    # one unbatched block, whose two norms are single numbers
    "div-scalar": ([(6,)], geo.decode_rot6d_t),
    # short columns, where eps inside the square roots bends the norms
    "sqrt": ([(4, 6)], lambda r: geo.decode_rot6d_t(r * 0.01, eps=1e-4)),
    "norm-last": ([(4, 6)], lambda r: geo.decode_rot6d_t(r, eps=0.0)),
    "norm-last-eps": ([(4, 6)], lambda r: geo.decode_rot6d_t(r, eps=1e-3)),
    # b2 alone, through the projection u = b - (b . b1) b1
    "sum-axis-keepdims": ([(4, 6)], lambda r: geo.decode_rot6d_t(r)[..., 1]),
    # b3 = b1 x b2 alone
    "cross-last": ([(4, 6)], lambda r: geo.decode_rot6d_t(r)[..., 2]),
    # the three columns of a batch, stacked
    "stack": ([(2, 3, 6)], geo.decode_rot6d_t),
}


@pytest.mark.parametrize("name", list(CASES))
def test_gradient_matches_central_differences(name):
    shapes, op = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    arrays = [rng.normal(size=s) for s in shapes]
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


# the functions and methods of the tape that record no node
PLUMBING = {"as_tensor", "constant", "leaf", "__init__", "__repr__", "backward"}


def recording_ops():
    """Public ``autodiff`` functions and ``Tensor`` methods and operators,
    the plumbing aside, by name."""
    ops = {f"ad.{n}": f for n, f in vars(ad).items()
           if inspect.isfunction(f) and f.__module__ == ad.__name__ and n[0] != "_"}
    ops.update((f"Tensor.{n}", f) for n, f in vars(ad.Tensor).items()
               if inspect.isfunction(f) and (n[0] != "_" or n.endswith("__")))
    return {n: f for n, f in ops.items() if n.split(".")[1] not in PLUMBING}


def test_every_recording_op_has_a_central_difference_case():
    ops = recording_ops()
    names = {n.split(".")[1] for n in ops} | PLUMBING
    assert PLUMBING <= set(vars(ad)) | set(vars(ad.Tensor)), "stale plumbing name"
    assert {"gelu", "__add__", "__matmul__", "sum"} <= names
    # the code objects that a case's op calls directly, from this file
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back.f_code.co_filename == __file__:
            called.add(frame.f_code)

    rng = np.random.default_rng(0)
    for shapes, op in CASES.values():
        leaves = [ad.leaf(rng.normal(size=s)) for s in shapes]
        sys.setprofile(profile)
        try:
            op(*leaves)
        finally:
            sys.setprofile(None)
    missing = sorted(n for n, f in ops.items() if f.__code__ not in called)
    assert not missing, f"no central-difference case calls {missing}"
