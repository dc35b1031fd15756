"""Body geometry: 6D rotations, kinematic chains, capsule SDFs, voxel grids.

A body is a capsule-skinned kinematic tree.  Joint 0 is the root; every
other joint hangs off a parent with a constant offset expressed in the
parent frame.  One capsule per (parent, child) bone gives the body an exact
signed distance field, which the penetration loss and the intersection
metrics are built on.

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
    GridMismatch,
    GridTooLarge,
    InvalidConfig,
    NotARotation,
)

IDENTITY_ROT6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

_NORM_EPS = 1e-8
_COS_EPS = 1e-8


# ---------------------------------------------------------------------------
# 6D rotation representation
# ---------------------------------------------------------------------------

def rot6d_decode(r: np.ndarray) -> np.ndarray:
    """Decode 6D rotation(s) into orthonormal matrices via Gram-Schmidt.

    Parameters
    ----------
    r : array, shape (..., 6)
        First two columns of a rotation matrix, one column after the other.

    Returns
    -------
    array, shape (..., 3, 3)
        Rotation matrices with determinant +1.

    Raises
    ------
    DegenerateRotation
        If either column is near zero or the columns are near parallel.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-1] != 6:
        raise DimensionMismatch(f"expected trailing dimension 6, got {r.shape}")
    a, b = r[..., :3], r[..., 3:]
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    if np.any(na <= _NORM_EPS) or np.any(nb <= _NORM_EPS):
        raise DegenerateRotation("6D block has a near-zero column")
    cos = np.einsum("...i,...i->...", a, b) / (na * nb)
    if np.any(np.abs(cos) >= 1.0 - _COS_EPS):
        raise DegenerateRotation("6D block has near-parallel columns")
    b1 = a / na[..., None]
    u = b - np.einsum("...i,...i->...", b, b1)[..., None] * b1
    b2 = u / np.linalg.norm(u, axis=-1)[..., None]
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-1)


def rot6d_encode(m: np.ndarray) -> np.ndarray:
    """Encode rotation matrices as 6D vectors (first two columns).

    Raises ``NotARotation`` unless ``m`` is orthonormal with det +1 within
    1e-6.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise DimensionMismatch(f"expected (..., 3, 3), got {m.shape}")
    eye = np.eye(3)
    gram = np.einsum("...ji,...jk->...ik", m, m)
    if np.any(np.abs(gram - eye) > 1e-6):
        raise NotARotation("matrix is not orthonormal within 1e-6")
    if np.any(np.linalg.det(m) < 0.0):
        raise NotARotation("matrix has determinant -1")
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def decode_rot6d_t(r: ad.Tensor, eps: float = 1e-12) -> ad.Tensor:
    """Differentiable 6D decode on the tape.

    Uses smoothed norms (``eps`` inside the square roots) so gradients stay
    finite on degenerate in-flight predictions; for valid rotations it
    matches :func:`rot6d_decode` to ~1e-12.
    """
    a, b = r[..., 0:3], r[..., 3:6]
    b1 = a / ad.norm_last(a, eps=eps)
    dot = (b * b1).sum(axis=-1, keepdims=True)
    u = b - b1 * dot
    b2 = u / ad.norm_last(u, eps=eps)
    b3 = ad.cross_last(b1, b2)
    return ad.stack([b1, b2, b3], axis=-1)


# ---------------------------------------------------------------------------
# Skeleton and poses
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

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.float64))
        object.__setattr__(self, "radii", np.asarray(self.radii, dtype=np.float64))
        k = len(self.parents)
        if k < 1 or self.parents[0] != -1:
            raise InvalidConfig("joint 0 must be the root (parent -1)")
        for j, p in enumerate(self.parents[1:], start=1):
            if not 0 <= p < j:
                raise InvalidConfig(f"parent of joint {j} must be in [0, {j})")
        if self.offsets.shape != (k, 3):
            raise InvalidConfig(f"offsets must have shape ({k}, 3)")
        if self.radii.shape != (max(k - 1, 0),):
            raise InvalidConfig(f"radii must have shape ({k - 1},)")
        if np.any(self.radii <= 0.0):
            raise InvalidConfig("all capsule radii must be positive")
        if not np.all(np.isfinite(self.offsets)):
            raise InvalidConfig("offsets must be finite")

    @property
    def joint_count(self) -> int:
        return len(self.parents)

    @property
    def motion_dim(self) -> int:
        return 6 * (self.joint_count + 1) + 3


@dataclass
class BodyPoseFrame:
    """One frame of one body: K joint rotations, root orientation, root translation."""

    joint_rot: np.ndarray  # (K, 6)
    root_rot: np.ndarray   # (6,)
    root_trans: np.ndarray  # (3,)


def identity_frame(skel: Skeleton) -> BodyPoseFrame:
    k = skel.joint_count
    return BodyPoseFrame(np.tile(IDENTITY_ROT6D, (k, 1)), IDENTITY_ROT6D.copy(),
                         np.zeros(3))


def frame_to_row(skel: Skeleton, frame: BodyPoseFrame) -> np.ndarray:
    """Pack one pose frame into a length-D motion row."""
    k = skel.joint_count
    if frame.joint_rot.shape != (k, 6):
        raise DimensionMismatch(f"joint_rot must be ({k}, 6)")
    return np.concatenate([np.asarray(frame.joint_rot).reshape(-1),
                           np.asarray(frame.root_rot).reshape(6),
                           np.asarray(frame.root_trans).reshape(3)])


def motion_from_frames(skel: Skeleton, frames: list[BodyPoseFrame]) -> np.ndarray:
    return np.stack([frame_to_row(skel, f) for f in frames])


# ---------------------------------------------------------------------------
# Forward kinematics
# ---------------------------------------------------------------------------

def forward_kinematics(skel: Skeleton, frame: BodyPoseFrame) -> np.ndarray:
    """World positions of all K joints for one pose frame.

    Joint 0 sits at ``root_trans``; each child sits at its parent plus the
    parent's world rotation applied to the child's offset.  The root world
    rotation is ``root_rot @ joint_rot[0]``.
    """
    k = skel.joint_count
    if np.asarray(frame.joint_rot).shape != (k, 6):
        raise DimensionMismatch(f"joint_rot must be ({k}, 6)")
    rots = rot6d_decode(np.asarray(frame.joint_rot, dtype=np.float64))
    root = rot6d_decode(np.asarray(frame.root_rot, dtype=np.float64))
    world_rot = np.empty((k, 3, 3))
    pos = np.empty((k, 3))
    world_rot[0] = root @ rots[0]
    pos[0] = np.asarray(frame.root_trans, dtype=np.float64)
    for j in range(1, k):
        p = skel.parents[j]
        pos[j] = pos[p] + world_rot[p] @ skel.offsets[j]
        world_rot[j] = world_rot[p] @ rots[j]
    return pos


def motion_joint_positions(skel: Skeleton, motion: np.ndarray) -> np.ndarray:
    """FK for a whole motion at once; returns (H, K, 3)."""
    motion = np.asarray(motion, dtype=np.float64)
    if motion.ndim != 2 or motion.shape[1] != skel.motion_dim:
        raise DimensionMismatch(
            f"motion must be (H, {skel.motion_dim}), got {motion.shape}")
    k = skel.joint_count
    h = motion.shape[0]
    rots = rot6d_decode(motion[:, : 6 * (k + 1)].reshape(h, k + 1, 6))
    trans = motion[:, 6 * (k + 1):]
    world_rot = np.empty((h, k, 3, 3))
    pos = np.empty((h, k, 3))
    world_rot[:, 0] = rots[:, k] @ rots[:, 0]
    pos[:, 0] = trans
    for j in range(1, k):
        p = skel.parents[j]
        pos[:, j] = pos[:, p] + np.einsum("hij,j->hi", world_rot[:, p], skel.offsets[j])
        world_rot[:, j] = world_rot[:, p] @ rots[:, j]
    return pos


def fk_positions_t(skel: Skeleton, motion: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
    """Differentiable FK over a motion tensor on the tape.

    Returns ``(positions, rotations)`` where positions is (H, K, 3) and
    rotations is the (H, K + 1, 3, 3) decode of all rotation slots (K joint
    rotations followed by the root orientation).
    """
    k = skel.joint_count
    h = motion.shape[0]
    rots = decode_rot6d_t(motion[:, : 6 * (k + 1)].reshape(h, k + 1, 6))
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

@dataclass(frozen=True)
class Capsule:
    endpoint_a: np.ndarray
    endpoint_b: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise InvalidConfig("capsule radius must be positive")


@dataclass
class CapsuleSet:
    """World-space capsules of one body in one frame, stored columnar.

    ``seg_a``/``seg_b`` may carry leading frame axes, ``(..., C, 3)``: the
    set then holds one body per frame, all sharing the radii.  Only
    :func:`sdf_and_gradient` and :meth:`frame` accept such a set.
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

    def __len__(self) -> int:
        return len(self.radius)

    def frame(self, f: int) -> "CapsuleSet":
        """Body of frame ``f`` in a set with a leading frame axis."""
        return CapsuleSet(self.seg_a[f], self.seg_b[f], self.radius)

    @property
    def capsules(self) -> list[Capsule]:
        return [Capsule(a, b, float(r))
                for a, b, r in zip(self.seg_a, self.seg_b, self.radius)]

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.minimum(self.seg_a, self.seg_b) - self.radius[:, None]
        hi = np.maximum(self.seg_a, self.seg_b) + self.radius[:, None]
        return lo.min(axis=0), hi.max(axis=0)


def body_capsules(skel: Skeleton, frame: BodyPoseFrame) -> CapsuleSet:
    """One capsule per bone, endpoints at the two world joint positions."""
    pos = forward_kinematics(skel, frame)
    parents = np.array(skel.parents[1:])
    return CapsuleSet(pos[parents], pos[1:], skel.radii)


def motion_capsules(skel: Skeleton, motion: np.ndarray) -> CapsuleSet:
    """Per-frame bodies of an (F, D) motion as one (F, C, 3) capsule set.

    One FK pass covers every frame, whichever sample each belongs to;
    :meth:`CapsuleSet.frame` gives one frame's body.
    """
    pos = motion_joint_positions(skel, motion)
    parents = np.array(skel.parents[1:])
    return CapsuleSet(pos[:, parents], pos[:, 1:], skel.radii)


def _segment_closest(points: np.ndarray, body: CapsuleSet) -> np.ndarray:
    """Closest points on every capsule axis for every query point.

    ``points`` is (..., N, 3) with the body's leading frame axes, if any;
    returns (..., N, C, 3).
    """
    d = body.seg_b - body.seg_a                                # (..., C, 3)
    dd = np.einsum("...ci,...ci->...c", d, d)[..., None, :]    # (..., 1, C)
    ap = points[..., :, None, :] - body.seg_a[..., None, :, :]  # (..., N, C, 3)
    t = np.einsum("...nci,...ci->...nc", ap, d)
    t = np.divide(t, dd, out=np.zeros_like(t), where=dd > 0.0)
    t = np.clip(t, 0.0, 1.0)
    return body.seg_a[..., None, :, :] + t[..., None] * d[..., None, :, :]


def _capsule_sdfs(points: np.ndarray, body: CapsuleSet) -> np.ndarray:
    """Per-capsule signed distances: (N, C)."""
    closest = _segment_closest(points, body)
    dist = np.linalg.norm(points[:, None, :] - closest, axis=-1)
    return dist - body.radius[None, :]


def body_sdf(p: np.ndarray, body: CapsuleSet) -> float:
    """Signed distance from a point to the body surface (negative inside)."""
    p = np.asarray(p, dtype=np.float64).reshape(1, 3)
    return float(_capsule_sdfs(p, body).min())


def _tie_direction(d: np.ndarray) -> np.ndarray:
    # Deterministic fallback for a point on a capsule axis ``d``: +x
    # projected perpendicular to the axis (then +y when the axis is along x).
    n = np.linalg.norm(d)
    if n < 1e-12:
        return np.array([1.0, 0.0, 0.0])
    dhat = d / n
    for basis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        u = basis - np.dot(basis, dhat) * dhat
        nu = np.linalg.norm(u)
        if nu > 1e-8:
            return u / nu
    return np.array([1.0, 0.0, 0.0])


def body_sdf_gradient(p: np.ndarray, body: CapsuleSet) -> np.ndarray:
    """Unit gradient of :func:`body_sdf` at ``p``.

    Points from the nearest axis point toward ``p``.  On the measure-zero
    tie set (point on an axis, or equidistant capsules) the first capsule
    in index order wins and a fixed perpendicular direction is returned.
    """
    sdf, grad = sdf_and_gradient(np.asarray(p, dtype=np.float64).reshape(1, 3), body)
    return grad[0]


def sdf_and_gradient(points: np.ndarray, body: CapsuleSet) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized SDF value and unit gradient at many points.

    A single body takes any points reshaped to (N, 3) and returns (N,),
    (N, 3).  Per-frame bodies (``body.seg_a`` of shape (F, C, 3)) take
    (F, N, 3) points, frame f measured against body f, and return (F, N),
    (F, N, 3).
    """
    lead = body.seg_a.shape[:-2]
    points = np.asarray(points, dtype=np.float64).reshape(lead + (-1, 3))
    closest = _segment_closest(points, body)
    diff = points[..., :, None, :] - closest
    dist = np.linalg.norm(diff, axis=-1)
    sdfs = dist - body.radius
    idx = np.argmin(sdfs, axis=-1)[..., None]
    sdf = np.take_along_axis(sdfs, idx, axis=-1)[..., 0]
    v = np.take_along_axis(diff, idx[..., None], axis=-2)[..., 0, :]
    n = np.take_along_axis(dist, idx, axis=-1)
    grad = np.empty_like(v)
    ok = n[..., 0] > 1e-12
    grad[ok] = v[ok] / n[ok]
    for i in zip(*np.nonzero(~ok)):
        c = i[:-1] + (int(idx[i + (0,)]),)
        grad[i] = _tie_direction(body.seg_b[c] - body.seg_a[c])
    return sdf, grad


# ---------------------------------------------------------------------------
# Voxelization
# ---------------------------------------------------------------------------

DEFAULT_VOXEL_SIZE = 0.02
MAX_VOXELS = 10 ** 8
_CHUNK = 1 << 19


@dataclass
class VoxelGrid:
    origin: np.ndarray
    voxel_size: float
    dims: tuple[int, int, int]
    occupancy: np.ndarray  # bool, shape dims

    @property
    def occupied_count(self) -> int:
        return int(self.occupancy.sum())

    @property
    def volume(self) -> float:
        """Occupied volume in cubic meters (count times voxel_size cubed)."""
        return self.occupied_count * self.voxel_size ** 3


def _grid_dims(lo: np.ndarray, hi: np.ndarray, voxel_size: float) -> tuple[int, int, int]:
    n = np.ceil((hi - lo) / voxel_size - 1e-12).astype(int)
    return tuple(int(max(v, 1)) for v in n)


def _occupancy(body: CapsuleSet, origin: np.ndarray, voxel_size: float,
               index_ranges: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Center-in-solid occupancy over a grid-aligned index window."""
    axes = [origin[i] + (index_ranges[i] + 0.5) * voxel_size for i in range(3)]
    shape = tuple(len(a) for a in axes)
    xs, ys, zs = np.meshgrid(*axes, indexing="ij")
    points = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    occ = np.empty(points.shape[0], dtype=bool)
    for start in range(0, points.shape[0], _CHUNK):
        chunk = points[start:start + _CHUNK]
        occ[start:start + _CHUNK] = _capsule_sdfs(chunk, body).min(axis=1) < 0.0
    return occ.reshape(shape)


def voxelize(body: CapsuleSet, voxel_size: float,
             bounds: tuple[np.ndarray, np.ndarray] | None = None,
             max_voxels: int = MAX_VOXELS) -> VoxelGrid:
    """Occupancy grid of a body: a voxel is occupied iff its center is inside.

    ``bounds`` is an (lo, hi) axis-aligned box; when omitted it is the body
    AABB padded by one voxel.  Raises ``GridTooLarge`` when the grid would
    exceed ``max_voxels`` cells and ``InvalidConfig`` when explicit bounds
    do not enclose the body.
    """
    if voxel_size <= 0.0:
        raise InvalidConfig("voxel_size must be positive")
    lo_body, hi_body = body.aabb()
    if bounds is None:
        lo = lo_body - voxel_size
        hi = hi_body + voxel_size
    else:
        lo = np.asarray(bounds[0], dtype=np.float64)
        hi = np.asarray(bounds[1], dtype=np.float64)
        if np.any(lo > lo_body) or np.any(hi < hi_body):
            raise InvalidConfig("bounds do not enclose the body")
    dims = _grid_dims(lo, hi, voxel_size)
    if int(np.prod(dims)) > max_voxels:
        raise GridTooLarge(f"grid {dims} exceeds {max_voxels} voxels")
    ranges = tuple(np.arange(n, dtype=np.float64) for n in dims)
    occ = _occupancy(body, lo, voxel_size, ranges)
    return VoxelGrid(lo, float(voxel_size), dims, occ)


def shared_bounds(a: CapsuleSet, b: CapsuleSet, voxel_size: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Union of both bodies' AABBs padded by one voxel; one grid for both."""
    lo_a, hi_a = a.aabb()
    lo_b, hi_b = b.aabb()
    return (np.minimum(lo_a, lo_b) - voxel_size,
            np.maximum(hi_a, hi_b) + voxel_size)


def intersection_volume_frame(a: VoxelGrid, b: VoxelGrid) -> float:
    """Volume of voxels occupied in both grids (cubic meters).

    The grids must share origin, voxel size, and dimensions exactly.
    """
    if (a.dims != b.dims or a.voxel_size != b.voxel_size
            or not np.array_equal(a.origin, b.origin)):
        raise GridMismatch("grids differ in origin, voxel size, or dims")
    count = int(np.logical_and(a.occupancy, b.occupancy).sum())
    return count * a.voxel_size ** 3


def capsule_intersection_volume(a: CapsuleSet, b: CapsuleSet, voxel_size: float,
                                max_voxels: int = MAX_VOXELS) -> float:
    """Intersection volume of two bodies on their shared grid (cubic meters).

    Equal to voxelizing both bodies over the shared padded-union grid and
    counting both-occupied voxels, but only the grid-aligned window around
    the AABB overlap is evaluated (voxels outside it cannot be occupied by
    both bodies).  Center coordinates are computed with the exact same
    arithmetic as :func:`voxelize`, so the result matches the full-grid
    computation bit for bit.
    """
    if voxel_size <= 0.0:
        raise InvalidConfig("voxel_size must be positive")
    lo_a, hi_a = a.aabb()
    lo_b, hi_b = b.aabb()
    lo_i = np.maximum(lo_a, lo_b)
    hi_i = np.minimum(hi_a, hi_b)
    if np.any(lo_i >= hi_i):
        return 0.0
    origin = np.minimum(lo_a, lo_b) - voxel_size
    dims = _grid_dims(origin, np.maximum(hi_a, hi_b) + voxel_size, voxel_size)
    i_lo = np.maximum(np.floor((lo_i - origin) / voxel_size).astype(int), 0)
    i_hi = np.minimum(np.ceil((hi_i - origin) / voxel_size).astype(int), dims)
    if np.any(i_lo >= i_hi):
        return 0.0
    if int(np.prod(i_hi - i_lo)) > max_voxels:
        raise GridTooLarge("overlap window exceeds the voxel cap")
    ranges = tuple(np.arange(i_lo[i], i_hi[i], dtype=np.float64) for i in range(3))
    occ_a = _occupancy(a, origin, voxel_size, ranges)
    occ_b = _occupancy(b, origin, voxel_size, ranges)
    return int(np.logical_and(occ_a, occ_b).sum()) * voxel_size ** 3
