"""Body geometry: 6D rotations, kinematic chains, capsule SDFs, voxel overlap.

A body is a capsule-skinned kinematic tree.  Joint 0 is the root; every
other joint hangs off a parent with a constant offset expressed in the
parent frame.  One capsule per (parent, child) bone gives the body an exact
signed distance field, which the penetration loss and the intersection
metrics are built on.  One kernel, :func:`_capsule_distance`, holds the
capsule-distance arithmetic: the SDF, its gradient and the intersection
volume's sweep all take their distances from it.  The sweep tests with it
only the voxel centers near the ends of each capsule's closed-form
z-interval in a grid column, so it equals the full-grid voxel count bit
for bit.  One pass (:func:`_rot6d_dots`) measures the 6D blocks, and both
the strict check (:func:`_check_rot6d`) and the reach test
(:func:`reach_box`, :func:`apart`) judge them by it; the reach test
bounds a frame's joints before any FK, so the callers skip the frames
whose bodies provably cannot touch.

Motion layout: a motion is an (H, D) float array with
``D = 6 * (K + 1) + 3`` per frame — K joint rotations in 6D, the root
orientation in 6D, then the 3 root-translation coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (
    DegenerateRotation,
    DimensionMismatch,
    GridTooLarge,
    InvalidConfig,
)

IDENTITY_ROT6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

_NORM_EPS = 1e-8
_COS_EPS = 1e-8


# ---------------------------------------------------------------------------
# 6D rotation representation
# ---------------------------------------------------------------------------

def _rot6d_dots(skel: Skeleton, motion: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|a|², |b|² and a·b, each (F, K + 1), of the 6D blocks ``(a, b)`` of
    an (F, D) motion, as :func:`_dot3` sums: the one measure of the blocks
    that :func:`_check_rot6d` and :func:`reach_box` judge them by.  An
    overflowing square is inf, and a NaN stays NaN."""
    k = skel.joint_count
    blocks = motion[:, : 6 * (k + 1)].reshape(len(motion), k + 1, 6).transpose(2, 0, 1)
    a, b = blocks[:3], blocks[3:]
    with np.errstate(over="ignore", invalid="ignore"):
        return _dot3(a, a), _dot3(b, b), _dot3(a, b)


def _check_rot6d(na2: np.ndarray, nb2: np.ndarray, dot: np.ndarray) -> None:
    """Raise ``DegenerateRotation`` if a 6D block measured by
    :func:`_rot6d_dots` has a near-zero column (length at most 1e-8), one
    whose squared norm overflows, or near-parallel columns (|cos θ| at
    least 1 - 1e-8), in that order of precedence over all blocks."""
    if np.any(na2 <= _NORM_EPS ** 2) or np.any(nb2 <= _NORM_EPS ** 2):
        raise DegenerateRotation("6D block has a near-zero column")
    if np.any(np.isinf(na2) | np.isinf(nb2)):
        raise DegenerateRotation("6D block has a column too long to normalize")
    # cos² θ · |b|², which cannot overflow where |a|² and |b|² are finite
    if np.any((dot / na2) * dot >= (1.0 - _COS_EPS) ** 2 * nb2):
        raise DegenerateRotation("6D block has near-parallel columns")


def decode_rot6d_t(r: ad.Tensor, eps: float = 1e-12) -> ad.Tensor:
    """Gram-Schmidt decode of 6D blocks (..., 6) to the rotation matrices
    (..., 3, 3) with columns ``b1 = a / |a|``, ``b2 = u / |u|`` for
    ``u = b - (b . b1) b1``, and ``b1 x b2``: one tape node, with the
    closed-form backward of that chain.

    ``eps`` goes inside the square roots of both norms, so gradients stay
    finite on degenerate in-flight predictions.  It also bends blocks with
    short columns: at the default, ``[1e-7, 0, 0, 0, 1e-7, 0]`` decodes far
    from orthonormal.  :func:`motion_joint_positions` checks the blocks and
    decodes with ``eps=0``.
    """
    a, b = r.data[..., 0:3], r.data[..., 3:6]
    na = np.sqrt((a * a).sum(axis=-1, keepdims=True) + eps)
    b1 = a / na
    dot = (b * b1).sum(axis=-1, keepdims=True)
    u = b - b1 * dot
    nu = np.sqrt((u * u).sum(axis=-1, keepdims=True) + eps)
    b2 = u / nu
    out = np.stack([b1, b2, np.cross(b1, b2)], axis=-1)

    def bw(g):
        g3 = g[..., 2]
        gb2 = g[..., 1] + np.cross(g3, b1)
        gu = (gb2 - b2 * (b2 * gb2).sum(axis=-1, keepdims=True)) / nu
        s = (b1 * gu).sum(axis=-1, keepdims=True)
        gb1 = g[..., 0] + np.cross(b2, g3) - s * b - dot * gu
        ga = (gb1 - b1 * (b1 * gb1).sum(axis=-1, keepdims=True)) / na
        return (np.concatenate([ga, gu - s * b1], axis=-1),)

    return ad.Tensor._make(out, (r,), bw)


# ---------------------------------------------------------------------------
# Skeleton
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Skeleton:
    """Kinematic tree: parent indices, per-joint offsets, per-bone radii.

    ``parents[0]`` is -1; every other parent index is smaller than its
    child.  ``offsets[j]`` is the bone vector from parent j in the parent
    frame (meters).  ``radii[j - 1]`` is the capsule radius of the bone
    ending at joint j.
    """

    parents: tuple[int, ...]
    offsets: np.ndarray
    radii: np.ndarray
    # longest root-to-joint chain (meters), taken once: with orthonormal
    # rotations every joint lies within it of joint 0
    reach: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.float64))
        object.__setattr__(self, "radii", np.asarray(self.radii, dtype=np.float64))
        k = len(self.parents)
        if k < 1 or self.parents[0] != -1:
            raise InvalidConfig("joint 0 must be the root (parent -1)")
        for j, p in enumerate(self.parents[1:], start=1):
            if not isinstance(p, (int, np.integer)) or not 0 <= p < j:
                raise InvalidConfig(
                    f"parent of joint {j} must be an integer in [0, {j})")
        if self.offsets.shape != (k, 3):
            raise InvalidConfig(f"offsets must have shape ({k}, 3)")
        if self.radii.shape != (max(k - 1, 0),):
            raise InvalidConfig(f"radii must have shape ({k - 1},)")
        if not np.all((self.radii > 0.0) & np.isfinite(self.radii)):
            raise InvalidConfig("all capsule radii must be positive and finite")
        if not np.all(np.isfinite(self.offsets)):
            raise InvalidConfig("offsets must be finite")
        chain = [0.0]
        for j, p in enumerate(self.parents[1:], start=1):
            chain.append(chain[p] + float(np.linalg.norm(self.offsets[j])))
        object.__setattr__(self, "reach", max(chain))

    @property
    def joint_count(self) -> int:
        return len(self.parents)

    @property
    def motion_dim(self) -> int:
        return 6 * (self.joint_count + 1) + 3


def check_bones(skel: Skeleton) -> None:
    """``InvalidConfig`` for a skeleton of one joint: it has no bones, so
    its bodies have no capsules to voxelize or to take distances to."""
    if not skel.radii.size:
        raise InvalidConfig("the skeleton has one joint and no bones, so its "
                            "bodies have no capsules")


# ---------------------------------------------------------------------------
# Forward kinematics
# ---------------------------------------------------------------------------

def _strict_fk(skel: Skeleton, motion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions (H, K, 3) and rotations (H, K + 1, 3, 3) of an (H, D)
    motion: the checks of :func:`_check_rot6d` on every block, then
    :func:`_exact_fk`."""
    motion = np.asarray(motion, dtype=np.float64)
    if motion.ndim != 2 or motion.shape[1] != skel.motion_dim:
        raise DimensionMismatch(
            f"motion must be (H, {skel.motion_dim}), got {motion.shape}")
    _check_rot6d(*_rot6d_dots(skel, motion))
    return _exact_fk(skel, motion)


def _exact_fk(skel: Skeleton, motion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fk_positions_t` of an (H, D) motion whose blocks passed
    :func:`_check_rot6d`, on a constant with exact norms (``eps=0``)."""
    pos, rots = fk_positions_t(skel, ad.constant(motion), eps=0.0)
    return pos.data, rots.data


def motion_joint_positions(skel: Skeleton, motion: np.ndarray) -> np.ndarray:
    """World positions (H, K, 3) of all K joints in every frame (strict FK)."""
    return _strict_fk(skel, motion)[0]


def fk_positions_t(skel: Skeleton, motion: ad.Tensor,
                   eps: float = 1e-12) -> tuple[ad.Tensor, ad.Tensor]:
    """Forward kinematics of an (H, D) motion tensor on the tape.

    Joint 0 sits at the root translation; each child sits at its parent
    plus the parent's world rotation applied to the child's offset.  The
    root world rotation is the root orientation times joint rotation 0.
    Returns positions (H, K, 3) and the (H, K + 1, 3, 3) decode, with
    ``eps``, of every rotation slot (K joints, then the root orientation).
    """
    k = skel.joint_count
    h = motion.shape[0]
    rots = decode_rot6d_t(motion[:, : 6 * (k + 1)].reshape(h, k + 1, 6), eps=eps)
    trans = motion[:, 6 * (k + 1):]
    world_rot: list[ad.Tensor] = [rots[:, k] @ rots[:, 0]]
    pos: list[ad.Tensor] = [trans.reshape(h, 1, 3)]
    for j in range(1, k):
        p = skel.parents[j]
        off = ad.constant(skel.offsets[j].reshape(3, 1))
        step = (world_rot[p] @ off).reshape(h, 1, 3)
        pos.append(pos[p] + step)
        world_rot.append(world_rot[p] @ rots[:, j])
    return ad.concat(pos, axis=1), rots


# ---------------------------------------------------------------------------
# Capsules and signed distance
# ---------------------------------------------------------------------------

@dataclass
class CapsuleSet:
    """World-space capsules of one body in one frame, stored columnar.

    ``seg_a``/``seg_b`` may carry leading frame axes, ``(..., C, 3)``: the
    set then holds one body per frame, all sharing the radii.  Only
    :func:`sdf_and_gradient`, :func:`intersection_volumes` (one frame
    axis) and :meth:`aabb` accept such a set; frame f's body alone is
    ``CapsuleSet(seg_a[f], seg_b[f], radius)``.
    """

    seg_a: np.ndarray   # (..., C, 3)
    seg_b: np.ndarray   # (..., C, 3)
    radius: np.ndarray  # (C,)

    def __post_init__(self):
        self.seg_a = np.atleast_2d(np.asarray(self.seg_a, dtype=np.float64))
        self.seg_b = np.atleast_2d(np.asarray(self.seg_b, dtype=np.float64))
        self.radius = np.asarray(self.radius, dtype=np.float64).reshape(-1)
        if len(self.radius) == 0:
            raise InvalidConfig("capsule set must be non-empty")
        if (self.seg_a.shape != self.seg_b.shape
                or self.seg_a.shape[-2:] != (len(self.radius), 3)):
            raise InvalidConfig(
                f"capsule endpoints {self.seg_a.shape}/{self.seg_b.shape} do not "
                f"match {len(self.radius)} radii")
        if np.any(self.radius <= 0.0):
            raise InvalidConfig("capsule radii must be positive")
        if not (np.isfinite(self.seg_a).all() and np.isfinite(self.seg_b).all()):
            raise InvalidConfig("capsule endpoints must be finite")

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        """Body box ``(lo, hi)``, each (..., 3): one per frame in a per-frame set."""
        lo = np.minimum(self.seg_a, self.seg_b) - self.radius[:, None]
        hi = np.maximum(self.seg_a, self.seg_b) + self.radius[:, None]
        return lo.min(axis=-2), hi.max(axis=-2)


def motion_capsules(skel: Skeleton, motion: np.ndarray) -> CapsuleSet:
    """Per-frame bodies of an (F, D) motion as one (F, C, 3) capsule set:
    one strict FK pass (:func:`motion_joint_positions`) over every frame,
    whichever sample each belongs to."""
    return joint_capsules(skel, motion_joint_positions(skel, motion))


def joint_capsules(skel: Skeleton, pos: np.ndarray) -> CapsuleSet:
    """Per-frame bodies of the joint positions (F, K, 3) that FK placed:
    one capsule from each joint's parent to the joint."""
    check_bones(skel)
    return CapsuleSet(pos[:, np.array(skel.parents[1:])], pos[:, 1:], skel.radii)


def _dot3(u, v):
    """Dot products of coordinate-first vectors ((3, ...) arrays or triples),
    added as ``(0 + 2) + 1``: written out, so no numpy summation order enters."""
    return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]


def _coords(x: np.ndarray) -> np.ndarray:
    """Coordinate-first view, (3, ...), of an (..., 3) array."""
    return x.transpose(-1, *range(x.ndim - 1))


def _segments(seg_a: np.ndarray, seg_b: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capsule axes ``seg_a -> seg_b`` (..., C, 3) as :func:`_capsule_distance`
    takes them: start ``a`` and direction ``d``, each (3, ..., C), and ``d``'s
    squared length ``dd``.  A zero-length capsule (``d = 0``) gets ``dd = 1``,
    so its closest point is ``a``."""
    a = _coords(seg_a)
    d = _coords(seg_b) - a
    dd = _dot3(d, d)
    return a, d, np.where(dd > 0.0, dd, 1.0)


def _capsule_distance(p, a, d, dd):
    """Offsets ``(ox, oy, oz)`` of points ``p`` from their closest points on
    the capsule axes ``a -> a + d``, and the offsets' lengths.

    The one copy of the capsule-distance arithmetic: the SDF, its gradient
    and the voxel sweep take every distance from it.  The coordinate-first
    arguments (see :func:`_segments`) broadcast: three axes of a grid
    block, scattered points, each with its own axis, or (..., N, 1) points
    on (..., 1, C).
    """
    (px, py, pz), (ax, ay, az), (dx, dy, dz) = p, a, d
    t = np.clip(_dot3((px - ax, py - ay, pz - az), d) / dd, 0.0, 1.0)
    ox, oy, oz = px - (ax + t * dx), py - (ay + t * dy), pz - (az + t * dz)
    return (ox, oy, oz), np.sqrt((ox * ox + oy * oy) + oz * oz)


def _tie_direction(d: np.ndarray) -> np.ndarray:
    # Deterministic fallback for a point on a capsule axis ``d``: +x
    # projected perpendicular to the axis (then +y when the axis is along x).
    n = np.sqrt(_dot3(d, d))
    if n < 1e-12:
        return np.array([1.0, 0.0, 0.0])
    dhat = d / n
    for basis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        u = basis - _dot3(basis, dhat) * dhat
        nu = np.sqrt(_dot3(u, u))
        if nu > 1e-8:
            return u / nu
    return np.array([1.0, 0.0, 0.0])


def sdf_and_gradient(points: np.ndarray, body: CapsuleSet) -> tuple[np.ndarray, np.ndarray]:
    """Signed distance to the body surface (negative inside) and its unit
    gradient, at many points.

    A single body takes any points reshaped to (N, 3) and returns (N,),
    (N, 3).  Per-frame bodies (``body.seg_a`` of shape (F, C, 3)) take
    (F, N, 3) points, frame f measured against body f, and return (F, N),
    (F, N, 3).  The gradient points from the nearest axis point toward the
    query point.  On the measure-zero tie set (a point on an axis, or
    equidistant capsules) the first capsule in index order wins, and a
    point on its axis gets a fixed perpendicular direction.
    """
    lead = body.seg_a.shape[:-2]
    points = np.asarray(points, dtype=np.float64).reshape(lead + (-1, 3))
    a, d, dd = _segments(body.seg_a, body.seg_b)
    off, dist = _capsule_distance(_coords(points)[..., None],
                                  a[..., None, :], d[..., None, :], dd[..., None, :])
    sdfs = dist - body.radius
    idx = np.argmin(sdfs, axis=-1)[..., None]
    sdf = np.take_along_axis(sdfs, idx, axis=-1)[..., 0]
    v = np.stack([np.take_along_axis(o, idx, axis=-1)[..., 0] for o in off], axis=-1)
    n = np.take_along_axis(dist, idx, axis=-1)
    grad = np.empty_like(v)
    ok = n[..., 0] > 1e-12
    grad[ok] = v[ok] / n[ok]
    for i in zip(*np.nonzero(~ok)):
        c = i[:-1] + (int(idx[i + (0,)]),)
        grad[i] = _tie_direction(body.seg_b[c] - body.seg_a[c])
    return sdf, grad


# ---------------------------------------------------------------------------
# Intersection volume
# ---------------------------------------------------------------------------

DEFAULT_VOXEL_SIZE = 0.02
MAX_VOXELS = 10 ** 8
# most voxels in one group of the sweep, and most centers in one kernel call
_CHUNK = 1 << 16
# margin of the column intervals per meter of a frame's coordinate scale
_TAU = 2.0 ** -20
# smallest voxel size or radius per meter of a frame's coordinate scale
_RESOLUTION = 2.0 ** -40
# largest voxel size whose volume is a finite float (about 5.6e102 m)
MAX_VOXEL_SIZE = float(np.finfo(np.float64).max) ** (1.0 / 3.0)


def check_voxel_size(voxel_size: float) -> None:
    """Raise ``InvalidConfig`` unless 0 < voxel size <= ``MAX_VOXEL_SIZE``."""
    if not 0.0 < voxel_size <= MAX_VOXEL_SIZE:  # NaN fails too
        raise InvalidConfig(f"voxel_size must be positive with a finite volume, got {voxel_size!r}")


def _grid_dims(lo: np.ndarray, hi: np.ndarray, voxel_size: float) -> np.ndarray:
    """Voxels per axis, at least one, of the grids from ``lo`` to ``hi`` (..., 3).
    Raises ``GridTooLarge`` past 2^53 voxels on an axis, where grid indices
    stop being exact floats."""
    with np.errstate(over="ignore"):
        n = np.ceil((hi - lo) / voxel_size - 1e-12)
    if np.any(n > 2.0 ** 53):
        raise GridTooLarge("grid exceeds 2^53 voxels along an axis")
    return np.maximum(n.astype(int), 1)


@dataclass
class _Windows:
    """The overlap windows that hold voxels, laid out flat one after the
    other, each x-major with z fastest."""

    frame: np.ndarray    # (W,) frame of each window
    origin: np.ndarray   # (W, 3) origin of the frame's shared grid
    i_lo: np.ndarray     # (W, 3) grid index of the window's first voxel
    n: np.ndarray        # (W, 3) voxels of the window per axis
    start: np.ndarray    # (W + 1,) flat offset of each window, then the total
    scale: np.ndarray    # (W,) 1 m plus the largest coordinate magnitude on the grid


def _windows(a: CapsuleSet, b: CapsuleSet, voxel_size: float) -> _Windows:
    """Each frame's window around its two boxes' overlap, on the frame's
    shared grid: both boxes' union padded by one voxel.  Raises
    ``GridTooLarge`` when a window holds more than ``MAX_VOXELS`` voxels."""
    lo_a, hi_a = a.aabb()
    lo_b, hi_b = b.aabb()
    lo_i = np.maximum(lo_a, lo_b)
    hi_i = np.minimum(hi_a, hi_b)
    near = np.flatnonzero(np.all(lo_i < hi_i, axis=1))
    lo_i, hi_i = lo_i[near], hi_i[near]
    origin = np.minimum(lo_a, lo_b)[near] - voxel_size
    top = np.maximum(hi_a, hi_b)[near] + voxel_size
    dims = _grid_dims(origin, top, voxel_size)
    i_lo = np.maximum(np.floor((lo_i - origin) / voxel_size).astype(int), 0)
    i_hi = np.minimum(np.ceil((hi_i - origin) / voxel_size).astype(int), dims)
    live = np.all(i_lo < i_hi, axis=1)
    n = (i_hi - i_lo)[live]
    if np.any(np.prod(n, axis=1, dtype=np.float64) > MAX_VOXELS):
        raise GridTooLarge("overlap window exceeds the voxel cap")
    scale = 1.0 + np.maximum(np.abs(origin), np.abs(top))[live].max(axis=1)
    return _Windows(near[live], origin[live], i_lo[live], n,
                    np.concatenate([[0], np.cumsum(np.prod(n, axis=1))]), scale)


def _center(win: _Windows, w: np.ndarray, axis: int, i: np.ndarray,
            voxel_size: float) -> np.ndarray:
    """Coordinate ``axis`` of the centers of window-relative indices ``i``
    in windows ``w``, as the full grid has it."""
    return win.origin[w, axis] + ((win.i_lo[w, axis] + i).astype(np.float64) + 0.5) * voxel_size


@dataclass
class _Model:
    """A body's capsules in the windows, one entry per (window, capsule)
    in window-major order: the kernel's axes (see :func:`_segments`), and
    what the sweep reads of the capsules :func:`_capsule_model` makes of
    them.  The rows are a, the z of b, dx, dy, dz/exy, 1/|d_xy|, dd/exy,
    -1/dz, min(dd/dz, 0), max(dd/dz, 0), both squared radii, τ and the z
    of the window's first centers, where exy = dx² + dy² and dd = exy + dz².
    """

    radius: np.ndarray   # (C,)
    a: np.ndarray        # (3, W * C)
    d: np.ndarray        # (3, W * C)
    dd: np.ndarray       # (W * C,)
    rows: np.ndarray     # (16, W * C)
    box: np.ndarray      # (4, W, C): x-y box of the outer radius, lo_x, hi_x, lo_y, hi_y


def _capsule_model(body: CapsuleSet, win: _Windows, voxel_size: float) -> _Model:
    """Each capsule of ``body`` in each window, as :func:`_column_intervals`
    takes it.

    An axis whose x-y part is at most τ long (in |dx| + |dy|) gets the x-y
    part (τ, 0), and one at most τ long in z the z part τ.  The radii widen
    by τ and by the L1 length of that change, because distances to two
    segments differ by at most the largest distance between matching
    points.  Every modeled axis has an x-y part longer than τ/√2 and a z
    part of at least τ, so no division meets a zero or denormal divisor.
    """
    a, d, dd = _segments(body.seg_a[win.frame], body.seg_b[win.frame])
    tau = (_TAU * win.scale)[:, None]
    short_xy = np.abs(d[0]) + np.abs(d[1]) <= tau
    dx = np.where(short_xy, tau, d[0])
    dy = np.where(short_xy, 0.0, d[1])
    dz = np.where(np.abs(d[2]) <= tau, tau, d[2])
    widen = tau + (np.abs(d[0] - dx) + np.abs(d[1] - dy)) + np.abs(d[2] - dz)
    exy = dx * dx + dy * dy
    dd_model = exy + dz * dz
    ax, ay, az = a
    z0 = _center(win, slice(None), 2, 0, voxel_size)[:, None]
    r_in = np.maximum(body.radius - widen, 0.0)
    r_out = body.radius + widen
    rows = (ax, ay, az, az + dz, dx, dy, dz / exy, 1.0 / np.sqrt(exy), dd_model / exy,
            -1.0 / dz, np.minimum(dd_model / dz, 0.0), np.maximum(dd_model / dz, 0.0),
            r_in * r_in, r_out * r_out, tau, z0)
    rows = np.stack([np.broadcast_to(v, dd.shape) for v in rows]).reshape(len(rows), -1)
    box = np.stack([np.minimum(ax, ax + dx) - r_out, np.maximum(ax, ax + dx) + r_out,
                    np.minimum(ay, ay + dy) - r_out, np.maximum(ay, ay + dy) + r_out])
    return _Model(body.radius, a.reshape(3, -1), d.reshape(3, -1), dd.ravel(), rows, box)


def _column_intervals(x, y, m):
    """z-bounds ``(lo, hi)`` (2, P) of modeled capsules on the vertical
    lines through (x, y) (P,), for the inner and the outer radius: the
    hull of what the two end spheres and the finite cylinder hold, each in
    closed form; ``lo > hi`` when empty.  ``m`` holds the rows of
    :func:`_capsule_model`, one column per line."""
    ax, ay, az, bz, dx, dy, dz_exy, inv_xy, inv_slope, neg_inv_dz, span_lo, span_hi = m[:12]
    wx, wy = x - ax, y - ay
    proj = wx * dx + wy * dy
    # on the line z = az + s, the squared distance to the axis's line is
    # slope (s - mid)² + rho, and the axis parameter is in [0, 1] for s
    # in [t_lo, t_hi]
    mid = proj * dz_exy
    rho = np.square((wx * dy - wy * dx) * inv_xy)
    t0 = proj * neg_inv_dz
    t_lo, t_hi = t0 + span_lo, t0 + span_hi
    ex, ey = wx - dx, wy - dy
    r2 = m[12:14]
    pieces = []
    for cz, rho_s in ((az, wx * wx + wy * wy), (bz, ex * ex + ey * ey)):
        h2 = r2 - rho_s
        h = np.sqrt(np.maximum(h2, 0.0))
        pieces.append((h2 < 0.0, cz - h, cz + h))
    h2 = r2 - rho
    half = np.sqrt(np.maximum(h2, 0.0) * inv_slope)
    s_lo, s_hi = np.maximum(mid - half, t_lo), np.minimum(mid + half, t_hi)
    pieces.append(((h2 < 0.0) | (s_lo > s_hi), az + s_lo, az + s_hi))
    lo, hi = np.inf, -np.inf
    for empty, lo_s, hi_s in pieces:
        lo = np.minimum(lo, np.where(empty, np.inf, lo_s))
        hi = np.maximum(hi, np.where(empty, -np.inf, hi_s))
    return lo, hi


def _expand(start: np.ndarray, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``[start, start + runs)`` one value at a time: each value's
    run and the value."""
    run = np.repeat(np.arange(len(runs)), runs)
    return run, np.arange(len(run)) + np.repeat(start - (np.cumsum(runs) - runs), runs)


def _occupancy(model: _Model, win: _Windows, cols: tuple, length: int,
               voxel_size: float) -> np.ndarray:
    """Center-in-body flags (``length``,) of one group of the flat windows,
    whose columns ``cols`` are ``(window, x, y, offset)``: each column's
    window, center coordinates and flat offset of its first voxel."""
    w, x, y, offset = cols
    box = model.box[:, w]
    col, cap = np.nonzero((box[0] <= x[:, None]) & (x[:, None] <= box[1])
                          & (box[2] <= y[:, None]) & (y[:, None] <= box[3]))
    k = w[col] * len(model.radius) + cap
    m = model.rows[:, k]
    lo, hi = _column_intervals(x[col], y[col], m)
    # ends to window-relative center indices within the group, moved by the
    # slack tau: inward for the inner, outward for the outer interval
    tau, z0 = m[-2] * np.array([[1.0], [-1.0]]), m[-1]
    first = np.maximum(-offset, 0)[col]
    end = np.minimum(win.n[w, 2], length - offset)[col]
    lo = np.clip(np.ceil((lo + tau - z0) / voxel_size), first, end)
    hi = np.clip(np.floor((hi - tau - z0) / voxel_size) + 1.0, first, end)
    o0, o1 = lo[1].astype(np.int64), np.maximum(hi[1], lo[1]).astype(np.int64)
    i0 = np.clip(lo[0].astype(np.int64), o0, o1)
    i1 = np.clip(hi[0].astype(np.int64), i0, o1)
    # the inner intervals' centers
    base = offset[col]
    occ = np.zeros(length, dtype=bool)
    occ[_expand(base + i0, i1 - i0)[1]] = True
    # the centers between the inner and outer ends through the kernel
    start = np.concatenate([o0, i1])
    pair, iz = _expand(start, np.concatenate([i0, o1]) - start)
    pair %= len(k)
    flat = base[pair] + iz
    keep = ~occ[flat]
    pair, iz, flat = pair[keep], iz[keep], flat[keep]
    for s in range(0, len(pair), _CHUNK):
        p, i = pair[s:s + _CHUNK], iz[s:s + _CHUNK]
        c = k[p]
        _, dist = _capsule_distance(
            (x[col[p]], y[col[p]], _center(win, w[col[p]], 2, i, voxel_size)),
            model.a[:, c], model.d[:, c], model.dd[c])
        occ[flat[s:s + _CHUNK][dist - model.radius[cap[p]] < 0.0]] = True
    return occ


def _columns(win: _Windows, ws: np.ndarray, g0: int, length: int,
             voxel_size: float) -> tuple:
    """The (x, y) columns of windows ``ws`` that hold voxels of the flat
    range ``[g0, g0 + length)``, as :func:`_occupancy` takes them."""
    nz = win.n[ws, 2]
    j0 = (np.maximum(win.start[ws], g0) - win.start[ws]) // nz
    count = (np.minimum(win.start[ws + 1], g0 + length) - win.start[ws] - 1) // nz + 1 - j0
    run, j = _expand(j0, count)
    w = ws[run]
    ix, iy = np.divmod(j, win.n[w, 1])
    return (w, _center(win, w, 0, ix, voxel_size), _center(win, w, 1, iy, voxel_size),
            win.start[w] + j * win.n[w, 2] - g0)


def intersection_volumes(a: CapsuleSet, b: CapsuleSet, voxel_size: float) -> list[float]:
    """Intersection volume of the two bodies of each frame (cubic meters),
    in frame order; ``a`` and ``b`` hold one body per frame, (F, C, 3).

    A voxel of a frame's grid (both bodies' boxes, united and padded by one
    voxel) counts when its center lies inside both bodies: closer than
    ``r`` to the axis of a capsule of each, by :func:`_capsule_distance`.
    Only the window around the two boxes' overlap can hold such centers.
    The result equals the full-grid count bit for bit.  Raises
    ``GridTooLarge`` when a frame's window holds more than ``MAX_VOXELS``
    voxels or its grid more than 2^53 along an axis, and, before any box
    test, when the voxel size or a radius is below 2^-40·S, where S is one
    meter plus the largest coordinate magnitude of the frame's capsule
    endpoints.  Why k = 40: a box, a center and the kernel's distance are
    each off by up to about 40u·S < 2^-47·S (u = 2^-53, see below), so
    above 2^-40·S those errors stay under 1/128 of every radius and voxel.
    Below 2^-53·S a box loses its radius altogether and the sweep and the
    full-grid count part ways; at 1e15 m the float spacing is 0.125 m and
    the limit about 900 m.  The ±1e6 m cases (S ≈ 2^20 m, radii down to
    0.01 m and voxels down to 0.0071 m) need k ≥ 28.

    The windows of all frames are laid out flat, one after the other, each
    x-major with z fastest, and swept in groups of at most ``_CHUNK``
    voxels.  A capsule is convex, so it meets each (x, y) column of centers
    in one z-interval: the hull of what its two end spheres and its finite
    cylinder hold, each in closed form (:func:`_column_intervals`, on the
    axis :func:`_capsule_model` gives it).  The sweep takes this interval
    for the radii r - τ and r + τ, moves their ends by τ inward and outward
    and maps them to center indices.  Centers inside the inner interval are
    occupied without a test, centers outside the outer one are not, and
    only those in between, a few per thousand columns, go through the
    kernel.  Each body's occupancy of a group is one flag per voxel; the
    two bodies' flags are ANDed and counted per frame.

    Why the margin suffices: τ = 2^-20·S, where S is one meter plus the
    largest coordinate magnitude on the frame's grid, and u = 2^-53.  The
    distance to a segment is 1-Lipschitz, so a z-error of e at an interval
    end, or a move of e of the axis, acts like a change of at most e in the
    radius.

    * Kernel: its closest point lies within a few u·S of the axis, and its
      clamped axis parameter is off by a few u·|p - a|/|d|, so its ``dist``
      is within about 40u·S of the true distance; the sign of ``dist - r``
      is exact.  Where ``dd`` underflows, ``_segments`` makes it 1 and the
      kernel measures from ``a``, off by at most |d| < 2^-511.
    * Model: :func:`_capsule_model` moves an axis's end by at most 2τ, so
      that every axis has an x-y part longer than τ/√2 and a z part of at
      least τ, and widens the radii by the distance moved.  That covers
      vertical and level axes and an underflowing ``dd``, and no division
      meets a zero or denormal divisor.
    * Intervals: with those parts, the cylinder's middle and half-length
      along a column are off by at most about 100u·S²/τ < 2^-26·S.  The
      square roots of r² - ρ² round like a radius change of a few u·S.
      Where the cylinder ends, the axis parameter is off by
      η ≤ 5u·|p - a|/|d|; the end spheres, within η·|d| of there, hold what
      the cylinder drops.
    * Indices: adding the ends to the column's z and dividing by the voxel
      size costs a few u·S more.

    In all the errors stay below 2^-26·S, a 64th of τ.
    """
    check_voxel_size(voxel_size)
    if a.seg_a.ndim != 3 or b.seg_a.ndim != 3 or len(a.seg_a) != len(b.seg_a):
        raise DimensionMismatch(
            f"expected two (F, C, 3) capsule sets, got {a.seg_a.shape} and {b.seg_a.shape}")
    scale = 1.0 + np.max([np.abs(x).max(axis=(1, 2))
                          for x in (a.seg_a, a.seg_b, b.seg_a, b.seg_b)], axis=0)
    finest = min(voxel_size, a.radius.min(), b.radius.min())
    if np.any(finest < _RESOLUTION * scale):
        raise GridTooLarge(f"coordinate scale {scale.max():.3g} m exceeds 2^40 times "
                           f"the voxel size or radius {finest!r} m")
    win = _windows(a, b, voxel_size)
    model_a, model_b = (_capsule_model(body, win, voxel_size) for body in (a, b))
    counts = np.zeros(len(a.seg_a), dtype=np.int64)
    total = int(win.start[-1])
    for g0 in range(0, total, _CHUNK):
        length = min(_CHUNK, total - g0)
        ws = np.arange(np.searchsorted(win.start[1:], g0, side="right"),
                       np.searchsorted(win.start[:-1], g0 + length, side="left"))
        cols = _columns(win, ws, g0, length, voxel_size)
        both = (_occupancy(model_a, win, cols, length, voxel_size)
                & _occupancy(model_b, win, cols, length, voxel_size))
        bounds = np.clip(win.start[ws[0]:ws[-1] + 2] - g0, 0, length).tolist()
        counts[win.frame[ws]] += [np.count_nonzero(both[lo:hi])
                                  for lo, hi in zip(bounds, bounds[1:])]
    return (counts * voxel_size ** 3).tolist()


def capsule_intersection_volume(a: CapsuleSet, b: CapsuleSet, voxel_size: float) -> float:
    """Intersection volume of two one-frame bodies (cubic meters): the
    one-frame call of :func:`intersection_volumes`, whose docstring gives
    the column intervals, the margin argument and the voxel budget (groups
    of at most ``_CHUNK`` voxels).  Equals the full-grid count bit for bit."""
    return intersection_volumes(CapsuleSet(a.seg_a[None], a.seg_b[None], a.radius),
                                CapsuleSet(b.seg_a[None], b.seg_b[None], b.radius),
                                voxel_size)[0]


# ---------------------------------------------------------------------------
# Reach test
# ---------------------------------------------------------------------------

# a 6D block the reach bound trusts: the squared sine of its columns' angle
# is at least _RIGID_SIN2, and the decode's eps at most _RIGID_EPS times
# its first column's squared length
_RIGID_SIN2 = 2.0 ** -10
_RIGID_EPS = 2.0 ** -30
# largest coordinate scale the reach test trusts: squared differences of
# coordinates stay finite
_REACH_SCALE = 2.0 ** 500


def reach_box(skel: Skeleton, motion: np.ndarray, dots: tuple, eps: float = 1e-12
              ) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame box ``(lo, hi)``, each (F, 3), that holds every joint
    :func:`fk_positions_t` places, at decode ``eps``, in the frames of an
    (F, D) motion, judged by ``dots``, its blocks' :func:`_rot6d_dots`: the
    root translation ± the skeleton's reach, widened by a factor (1 + τ)
    per level of the tree, τ = 2^-20.  A frame for which the bound below
    does not hold gets the box (-inf, inf).

    The bound holds when the root is finite and every 6D block ``(a, b)``
    is *rigid*: both columns finite and longer than 1e-8, the squared sine
    of their angle θ at least 2^-10, and ``eps`` at most 2^-30 |a|².  The
    decoded columns are then at most unit long, and orthogonal but for the
    first two, whose dot product is at most eps / (|a|² sin θ) ≤ 2^-25
    plus a few hundred u of rounding (u = 2^-53); so no decoded block
    stretches a vector by more than 2^-25.  A world rotation is a product
    of at most K + 1 blocks, and a joint lies at most the sum of its
    chain's offsets, each turned by one world rotation, from the root:
    within ``reach · (1 + τ)^(K + 2)``.  What rounding adds to the
    positions is absolute, a few K·u times the coordinate scale, and
    :func:`apart` covers it.  A short column or near-parallel columns bend
    the tolerant decode (see :func:`decode_rot6d_t`), so such a frame is
    not trusted.
    """
    na2, nb2, dot = dots
    root = motion[:, 6 * (skel.joint_count + 1):]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # cos² θ · |b|², which cannot overflow where |a|² and |b|² are finite
        rigid = ((_NORM_EPS ** 2 < na2) & (na2 < np.inf)
                 & (_NORM_EPS ** 2 < nb2) & (nb2 < np.inf)
                 & (eps <= _RIGID_EPS * na2)
                 & ((dot / na2) * dot <= (1.0 - _RIGID_SIN2) * nb2))
    trusted = (rigid.all(axis=1) & np.isfinite(root).all(axis=1))[:, None]
    reach = skel.reach * (1.0 + _TAU) ** (skel.joint_count + 2)
    return np.where(trusted, root - reach, -np.inf), np.where(trusted, root + reach, np.inf)


def apart(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray,
          gap: float, finest: float) -> np.ndarray:
    """Flags (F,) of the frames whose boxes ``a`` and ``b`` (each (F, 3))
    are provably more than ``gap`` apart along some axis.

    The separation must exceed ``gap`` by the margin τ·S, τ = 2^-20, where
    S is one meter plus the largest coordinate magnitude of the frame's two
    boxes; and the frame must sit where float64 resolves ``finest`` by
    2^-40·(S + τ·S), the rule of :func:`intersection_volumes`, and below
    2^500 m, where no squared distance overflows.  Why τ·S suffices: the
    errors of FK's positions, of the boxes, and of the kernel's distances
    (:func:`intersection_volumes` bounds them) are each a few hundred u·S
    at most, u = 2^-53, for any tree of fewer than 2^30 joints.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sep = np.maximum(lo_a - hi_b, lo_b - hi_a).max(axis=1)
        scale = 1.0 + np.abs(np.concatenate([lo_a, hi_a, lo_b, hi_b], axis=1)).max(axis=1)
        margin = _TAU * scale
        return ((sep > gap + margin) & (scale + margin <= _REACH_SCALE)
                & (_RESOLUTION * (scale + margin) <= finest))
