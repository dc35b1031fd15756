"""Numpy test oracles kept out of the package.

``interaction_loss`` recomputes the training interaction loss from FK
directly, independently of ``flowpath.interaction_targets`` and the tape.
It keeps the paper's actor-relative form, which the package drops because
the actor terms cancel; the oracle is the reference that shows they do.
``response_property`` re-checks the reactor response each scripted
scenario is built to show.  ``linear``, ``layer_norm``, ``attention`` and
``gelu`` are the predictor's blocks, and ``decode`` the 6D rotation decode,
written as the chains of elementary ops (q/k/v slices, transposes, a
separate softmax; norms, a projection, a cross product of coordinate
products) that the fused tape nodes must reproduce bit for bit.
``velocity_walk`` is unguided sampling in the velocity form of traditional
flow matching, which the sampler's reprojection step equals.  ``rot6d``
writes rotation matrices in the motion layout's 6D form, and ``rotations``
reads them back with the package's one decode at exact norms.
``check_rot6d`` is the strict 6D-block check as norms and a cosine
(``np.linalg.norm`` and ``einsum``), the reference for the package's
check, which takes squared norms and the dot product from one pass.
``full_path`` replaces the package's reach test by one that finds every
frame in reach, so the penetration metrics and the guidance terms run
every frame through FK, as they did before the test existed.
"""

import contextlib

import numpy as np

from arflow import autodiff as ad
from arflow import flowpath as fp
from arflow import geometry as geo
from arflow.data import _SHOULDER, _pose_joints
from arflow.errors import DegenerateRotation


@contextlib.contextmanager
def full_path():
    """Within the block, ``geometry.apart`` finds no frame apart."""
    apart = geo.apart
    geo.apart = lambda lo_a, *args: np.zeros(len(lo_a), dtype=bool)
    try:
        yield
    finally:
        geo.apart = apart


def check_rot6d(r):
    """Raise ``DegenerateRotation`` if a 6D block of ``r`` (..., 6) has a
    column at most 1e-8 long, one whose squared norm overflows, or columns
    whose |cos| is at least 1 - 1e-8, in that order over all blocks."""
    a, b = r[..., :3], r[..., 3:]
    with np.errstate(over="ignore"):
        na = np.linalg.norm(a, axis=-1)
        nb = np.linalg.norm(b, axis=-1)
    if np.any(na <= 1e-8) or np.any(nb <= 1e-8):
        raise DegenerateRotation("6D block has a near-zero column")
    if np.any(np.isinf(na) | np.isinf(nb)):
        raise DegenerateRotation("6D block has a column too long to normalize")
    cos = np.einsum("...i,...i->...", a, b) / (na * nb)
    if np.any(np.abs(cos) >= 1.0 - 1e-8):
        raise DegenerateRotation("6D block has near-parallel columns")


def rot6d(m):
    """6D blocks (..., 6) of rotation matrices (..., 3, 3): the first two columns."""
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def rotations(r):
    """Rotation matrices (..., 3, 3) of 6D blocks (..., 6), by the package's
    tape decode at exact norms (``eps=0``), as ``motion_joint_positions``
    decodes after its checks."""
    return geo.decode_rot6d_t(ad.constant(np.asarray(r, dtype=np.float64)), eps=0.0).data


def _parts(skel, motion):
    h, k = motion.shape[0], skel.joint_count
    rot = rotations(motion[:, :6 * (k + 1)].reshape(h, k + 1, 6))
    return geo.motion_joint_positions(skel, motion), rot, motion[:, 6 * (k + 1):]


def interaction_loss(pred_x1, gt_x1, x0, skel):
    """Interaction loss between predicted and ground-truth reactions.

    Three terms, each (1/H) * sum of squared differences between the
    ground-truth-relative and prediction-relative quantities against the
    same actor: per-joint FK positions, per-slot relative rotation matrices
    (all K joint rotations plus the root orientation, each times the
    transposed actor matrix), and root translations.
    """
    pred_x1, gt_x1, x0 = (np.asarray(x, dtype=np.float64) for x in (pred_x1, gt_x1, x0))
    assert pred_x1.shape == gt_x1.shape == x0.shape
    a_pos, a_rot, a_trans = _parts(skel, x0)
    g_pos, g_rot, g_trans = _parts(skel, gt_x1)
    p_pos, p_rot, p_trans = _parts(skel, pred_x1)
    a_rot_t = np.swapaxes(a_rot, -1, -2)
    loss = (np.sum(((g_pos - a_pos) - (p_pos - a_pos)) ** 2)
            + np.sum((g_rot @ a_rot_t - p_rot @ a_rot_t) ** 2)
            + np.sum(((g_trans - a_trans) - (p_trans - a_trans)) ** 2))
    return float(loss / pred_x1.shape[0])


def approach_direction(sample):
    """Unit vector from the reactor's start toward the actor's start."""
    a0 = sample.actor[0, -3:]
    r0 = sample.reactor[0, -3:]
    v = a0 - r0
    return v / np.linalg.norm(v)


def response_property(sample, skel):
    """Check the per-scenario reactor response on a generated sample."""
    d = approach_direction(sample)
    disp = sample.reactor[-1, -3:] - sample.reactor[0, -3:]
    if sample.label == 0:       # push_retreat: move away from the actor
        return float(disp @ d) < 0.0
    if sample.label == 2:       # kick_dodge: move sideways, not along the line
        e = np.array([-d[1], d[0], 0.0])
        return abs(float(disp @ e)) > abs(float(disp @ d))
    # wave_mirror: shoulder swing series of both bodies strongly correlated
    jid = _pose_joints(skel)[_SHOULDER]

    def shoulder_angle(motion):
        rots = rotations(motion[:, 6 * jid: 6 * jid + 6])
        return np.arctan2(rots[:, 0, 2], rots[:, 0, 0])  # rotation about +y
    a = shoulder_angle(sample.actor)
    r = shoulder_angle(sample.reactor)
    return float(np.corrcoef(a, r)[0, 1]) > 0.95


def velocity_walk(predictor, x0, steps, sigma_min):
    """Walk the uniform grid of ``steps`` times from the (B, H, D) actions
    ``x0`` by ``x <- x + (t_{n+1} - t_n) * v``, the velocity recovered from
    the predictor's endpoint estimate."""
    x = np.array(x0, dtype=np.float64)
    grid = np.linspace(0.0, 1.0, steps)
    for tn, tn1 in zip(grid[:-1].tolist(), grid[1:].tolist()):
        x = x + (tn1 - tn) * fp.v_from_x1(predictor(x, tn), x, tn, sigma_min)
    return x


def linear(x, w, b):
    """Dense layer on the (rows, n_in) matrix of ``x``: ``x @ w + b``."""
    return (x.reshape(-1, w.shape[0]) @ w + b).reshape(*x.shape[:-1], w.shape[1])


def layer_norm(x, g, b, eps):
    """Layer norm as mean, centring, variance and scaling ops in turn."""
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * (1.0 / n)
    xc = x + (-mu)
    var = (xc * xc).sum(axis=-1, keepdims=True) * (1.0 / n)
    return xc / np.sqrt(var + eps) * g + b


def attention(qkv, heads, mask):
    """Multi-head attention from q, k, v slices of a (B, S, 3, heads, hd)
    view, each moved to (B, heads, S, hd)."""
    b, s, w3 = qkv.shape
    hd = w3 // 3 // heads
    split = qkv.reshape(b, s, 3, heads, hd)
    q = np.swapaxes(split[:, :, 0], 1, 2)
    k = np.swapaxes(split[:, :, 1], 1, 2)
    v = np.swapaxes(split[:, :, 2], 1, 2)
    scores = (q @ np.swapaxes(k, 2, 3)) * (1.0 / np.sqrt(hd)) + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = (e / e.sum(axis=-1, keepdims=True)) @ v
    return np.swapaxes(att, 1, 2).reshape(b, s, w3 // 3)


def gelu(x):
    """tanh-approximation GELU in one expression."""
    c = 0.7978845608028654
    th = np.tanh(c * (x + 0.044715 * (x * x) * x))
    return 0.5 * x * (1.0 + th)


def decode(r, eps):
    """Gram-Schmidt 6D decode as smoothed norms, divisions, the projection
    ``b + (-(b1 * dot))`` and the cross product as ``y1*z2 + (-(z1*y2))``
    and its cyclic shifts, stacked as columns."""
    a, b = r[..., 0:3], r[..., 3:6]
    b1 = a / np.sqrt((a * a).sum(axis=-1, keepdims=True) + eps)
    u = b + (-(b1 * (b * b1).sum(axis=-1, keepdims=True)))
    b2 = u / np.sqrt((u * u).sum(axis=-1, keepdims=True) + eps)
    x1, y1, z1 = (b1[..., i:i + 1] for i in range(3))
    x2, y2, z2 = (b2[..., i:i + 1] for i in range(3))
    b3 = np.concatenate([y1 * z2 + (-(z1 * y2)), z1 * x2 + (-(x1 * z2)),
                         x1 * y2 + (-(y1 * x2))], axis=-1)
    return np.stack([b1, b2, b3], axis=-1)
