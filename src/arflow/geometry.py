"""Body geometry: 6D rotations, kinematic chains, capsule SDFs, voxel overlap.

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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    DegenerateRotation,
    DimensionMismatch,
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
    if not np.all(np.abs(gram - eye) <= 1e-6):  # NaN fails this test too
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

    @property
    def joint_count(self) -> int:
        return len(self.parents)

    @property
    def motion_dim(self) -> int:
        return 6 * (self.joint_count + 1) + 3


# ---------------------------------------------------------------------------
# Forward kinematics
# ---------------------------------------------------------------------------

def motion_joint_positions(skel: Skeleton, motion: np.ndarray) -> np.ndarray:
    """World positions of all K joints in every frame; returns (H, K, 3).

    Joint 0 sits at the root translation; each child sits at its parent
    plus the parent's world rotation applied to the child's offset.  The
    root world rotation is the root orientation times joint rotation 0.
    """
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

    def capsule_aabbs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-capsule boxes ``(lo, hi)``, each (..., C, 3)."""
        return (np.minimum(self.seg_a, self.seg_b) - self.radius[:, None],
                np.maximum(self.seg_a, self.seg_b) + self.radius[:, None])

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        """Body box ``(lo, hi)``, each (..., 3): one per frame in a per-frame set."""
        lo, hi = self.capsule_aabbs()
        return lo.min(axis=-2), hi.max(axis=-2)


def motion_capsules(skel: Skeleton, motion: np.ndarray) -> CapsuleSet:
    """Per-frame bodies of an (F, D) motion as one (F, C, 3) capsule set.

    One FK pass covers every frame, whichever sample each belongs to;
    :meth:`CapsuleSet.frame` gives one frame's body.
    """
    pos = motion_joint_positions(skel, motion)
    parents = np.array(skel.parents[1:])
    return CapsuleSet(pos[:, parents], pos[:, 1:], skel.radii)


def _segment_closest(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray
                     ) -> np.ndarray:
    """Closest points on every capsule axis ``seg_a -> seg_b`` for every query point.

    ``points`` is (..., N, 3) with the capsules' leading frame axes, if any;
    returns (..., N, C, 3).
    """
    d = seg_b - seg_a                                          # (..., C, 3)
    dd = np.einsum("...ci,...ci->...c", d, d)[..., None, :]    # (..., 1, C)
    ap = points[..., :, None, :] - seg_a[..., None, :, :]      # (..., N, C, 3)
    t = np.einsum("...nci,...ci->...nc", ap, d)
    t = np.divide(t, dd, out=np.zeros_like(t), where=dd > 0.0)
    t = np.clip(t, 0.0, 1.0)
    return seg_a[..., None, :, :] + t[..., None] * d[..., None, :, :]


def _capsule_sdfs(points: np.ndarray, body: CapsuleSet,
                  which: slice = slice(None)) -> np.ndarray:
    """Signed distances to the capsules ``which`` of the body: (N, C)."""
    closest = _segment_closest(points, body.seg_a[which], body.seg_b[which])
    dist = np.linalg.norm(points[:, None, :] - closest, axis=-1)
    return dist - body.radius[which][None, :]


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
    closest = _segment_closest(points, body.seg_a, body.seg_b)
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
# Intersection volume
# ---------------------------------------------------------------------------

DEFAULT_VOXEL_SIZE = 0.02
MAX_VOXELS = 10 ** 8
_CHUNK = 1 << 19


def check_voxel_size(voxel_size: float) -> None:
    """Raise ``InvalidConfig`` unless the voxel size is positive and finite."""
    if not (np.isfinite(voxel_size) and voxel_size > 0.0):
        raise InvalidConfig(f"voxel_size must be positive and finite, got {voxel_size!r}")


def _grid_dims(lo: np.ndarray, hi: np.ndarray, voxel_size: float) -> tuple[int, int, int]:
    n = np.ceil((hi - lo) / voxel_size - 1e-12).astype(int)
    return tuple(int(max(v, 1)) for v in n)


def _capsule_windows(body: CapsuleSet, origin: np.ndarray, voxel_size: float,
                     i_lo: np.ndarray, i_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-capsule voxel index windows ``[lo, hi)``, (C, 3) each, clipped to
    the grid window ``[i_lo, i_hi)`` and counted from ``i_lo``.

    Each window covers the capsule's box padded by one voxel, so every
    center it leaves out lies more than a voxel outside the capsule.
    """
    lo, hi = body.capsule_aabbs()
    w_lo = np.floor((lo - origin) / voxel_size).astype(int) - 1
    w_hi = np.ceil((hi - origin) / voxel_size).astype(int) + 1
    return np.maximum(w_lo, i_lo) - i_lo, np.minimum(w_hi, i_hi) - i_lo


def _inside(points: np.ndarray, body: CapsuleSet, c: int) -> np.ndarray:
    """Whether each of the (N, 3) points lies inside capsule ``c`` (SDF < 0)."""
    inside = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), _CHUNK):
        chunk = points[start:start + _CHUNK]
        inside[start:start + _CHUNK] = _capsule_sdfs(chunk, body, slice(c, c + 1))[:, 0] < 0.0
    return inside


def capsule_intersection_volume(a: CapsuleSet, b: CapsuleSet, voxel_size: float) -> float:
    """Intersection volume of two bodies on their shared grid (cubic meters).

    The grid is the union of both bodies' boxes padded by one voxel, and a
    voxel counts when its center lies inside both bodies (signed distance
    below zero).  Only voxels that can hold such a center are tested: the
    window around the two boxes' overlap; in it, each capsule of ``a`` on
    the centers of its own box padded by one voxel; then each capsule of
    ``b`` on the centers ``a`` occupies, again only inside its padded box.
    Every tested center gets the same coordinates and the same per-capsule
    arithmetic as on the full grid, so the result equals the full-grid
    count bit for bit.  Raises ``GridTooLarge`` when the overlap window
    holds more than ``MAX_VOXELS`` voxels.
    """
    check_voxel_size(voxel_size)
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
    if int(np.prod(i_hi - i_lo)) > MAX_VOXELS:
        raise GridTooLarge("overlap window exceeds the voxel cap")
    axes = [origin[i] + (np.arange(i_lo[i], i_hi[i], dtype=np.float64) + 0.5) * voxel_size
            for i in range(3)]

    occ_a = np.zeros(tuple(i_hi - i_lo), dtype=bool)
    w_lo, w_hi = _capsule_windows(a, origin, voxel_size, i_lo, i_hi)
    for c in range(len(a)):
        if np.any(w_lo[c] >= w_hi[c]):
            continue
        block = tuple(slice(lo, hi) for lo, hi in zip(w_lo[c], w_hi[c]))
        grids = np.meshgrid(*(ax[s] for ax, s in zip(axes, block)), indexing="ij")
        points = np.stack([g.ravel() for g in grids], axis=1)
        occ_a[block] |= _inside(points, a, c).reshape(grids[0].shape)

    cells = np.argwhere(occ_a)                 # (P, 3) window indices of a's centers
    points = np.stack([axes[i][cells[:, i]] for i in range(3)], axis=1)
    in_b = np.zeros(len(cells), dtype=bool)
    w_lo, w_hi = _capsule_windows(b, origin, voxel_size, i_lo, i_hi)
    for c in range(len(b)):
        todo = np.flatnonzero(~in_b & np.all((cells >= w_lo[c]) & (cells < w_hi[c]), axis=1))
        if len(todo):
            in_b[todo] = _inside(points[todo], b, c)
    return int(in_b.sum()) * voxel_size ** 3
