"""Full-grid voxelization: the test oracle of the intersection volume.

Each body is voxelized on its own grid, every center tested against every
capsule; two bodies on one shared grid give the intersection volume by
counting both-occupied voxels.  :func:`window_intersection_volume` is the
same count over the window around the two boxes' overlap, with every
capsule tested on every center of the window.  The package computes the
same count with fewer tests, for many frames at once
(``geometry.intersection_volumes``; ``capsule_intersection_volume`` is its
one-frame call); both must match it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from arflow import geometry as geo
from arflow.errors import ArflowError, GridTooLarge, InvalidConfig


class GridMismatch(ArflowError):
    """Voxel grids differ in origin, voxel size, or dimensions."""


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


def capsule_sdfs(points: np.ndarray, body: geo.CapsuleSet) -> np.ndarray:
    """Signed distances of (N, 3) points to every capsule of the body: (N, C),
    from the package's capsule-distance kernel."""
    a, d, dd = geo._segments(body.seg_a, body.seg_b)
    _, dist = geo._capsule_distance(points.T[..., None], a[:, None], d[:, None], dd)
    return dist - body.radius


def _occupancy(body: geo.CapsuleSet, origin: np.ndarray, voxel_size: float,
               index_ranges: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Center-in-solid occupancy over a grid-aligned index window."""
    axes = [origin[i] + (index_ranges[i] + 0.5) * voxel_size for i in range(3)]
    shape = tuple(len(a) for a in axes)
    xs, ys, zs = np.meshgrid(*axes, indexing="ij")
    points = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    occ = np.empty(points.shape[0], dtype=bool)
    for start in range(0, points.shape[0], geo._CHUNK):
        chunk = points[start:start + geo._CHUNK]
        occ[start:start + geo._CHUNK] = capsule_sdfs(chunk, body).min(axis=1) < 0.0
    return occ.reshape(shape)


def voxelize(body: geo.CapsuleSet, voxel_size: float,
             bounds: tuple[np.ndarray, np.ndarray] | None = None,
             max_voxels: int = geo.MAX_VOXELS) -> VoxelGrid:
    """Occupancy grid of a body: a voxel is occupied iff its center is inside.

    ``bounds`` is an (lo, hi) axis-aligned box; when omitted it is the body
    AABB padded by one voxel.  Raises ``GridTooLarge`` when the grid would
    exceed ``max_voxels`` cells and ``InvalidConfig`` when explicit bounds
    do not enclose the body.
    """
    geo.check_voxel_size(voxel_size)
    lo_body, hi_body = body.aabb()
    if bounds is None:
        lo = lo_body - voxel_size
        hi = hi_body + voxel_size
    else:
        lo = np.asarray(bounds[0], dtype=np.float64)
        hi = np.asarray(bounds[1], dtype=np.float64)
        if np.any(lo > lo_body) or np.any(hi < hi_body):
            raise InvalidConfig("bounds do not enclose the body")
    dims = tuple(geo._grid_dims(lo, hi, voxel_size).tolist())
    if int(np.prod(dims)) > max_voxels:
        raise GridTooLarge(f"grid {dims} exceeds {max_voxels} voxels")
    ranges = tuple(np.arange(n, dtype=np.float64) for n in dims)
    occ = _occupancy(body, lo, voxel_size, ranges)
    return VoxelGrid(lo, float(voxel_size), dims, occ)


def shared_bounds(a: geo.CapsuleSet, b: geo.CapsuleSet, voxel_size: float
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


def full_grid_intersection_volume(a: geo.CapsuleSet, b: geo.CapsuleSet,
                                  voxel_size: float) -> float:
    """Both-occupied volume of two bodies voxelized on their shared grid."""
    bounds = shared_bounds(a, b, voxel_size)
    return intersection_volume_frame(voxelize(a, voxel_size, bounds),
                                     voxelize(b, voxel_size, bounds))


def window_intersection_volume(a: geo.CapsuleSet, b: geo.CapsuleSet,
                               voxel_size: float) -> float:
    """The shared-grid count over the box-overlap window, every center
    tested against every capsule of both bodies."""
    lo_a, hi_a = a.aabb()
    lo_b, hi_b = b.aabb()
    lo_i = np.maximum(lo_a, lo_b)
    hi_i = np.minimum(hi_a, hi_b)
    if np.any(lo_i >= hi_i):
        return 0.0
    origin = np.minimum(lo_a, lo_b) - voxel_size
    dims = geo._grid_dims(origin, np.maximum(hi_a, hi_b) + voxel_size, voxel_size)
    i_lo = np.maximum(np.floor((lo_i - origin) / voxel_size).astype(int), 0)
    i_hi = np.minimum(np.ceil((hi_i - origin) / voxel_size).astype(int), dims)
    if np.any(i_lo >= i_hi):
        return 0.0
    ranges = tuple(np.arange(i_lo[i], i_hi[i], dtype=np.float64) for i in range(3))
    occ_a = _occupancy(a, origin, voxel_size, ranges)
    occ_b = _occupancy(b, origin, voxel_size, ranges)
    return int(np.logical_and(occ_a, occ_b).sum()) * voxel_size ** 3
