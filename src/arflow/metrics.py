"""Evaluation metrics: intersection volume/frequency and feature-space scores.

Every metric takes arrays: IV/IF the (F, D) frame stacks of the actors
and the reactors, the features an (N, H, D) batch of motions, and
multimodality the features with an array of their labels.

Intersection Volume (IV) voxelizes actor and reactor on one shared grid per
frame and averages the both-occupied volume over every frame of every
sample; it is reported in cubic centimeters per frame.  Intersection
Frequency (IF) is the fraction of frames with any both-occupied voxel, so
IF = 0 exactly when IV = 0 under the same voxelization.

Before any FK, one pass per side over a chunk of up to ``EVAL_CHUNK``
frames measures every 6D block (``geometry._rot6d_dots``: |a|², |b|²
and a·b).  The strict check (``geometry._check_rot6d``) takes every
frame's verdict from it, and so does the reach test
(:func:`geometry.reach_box` and :func:`geometry.apart`), which boxes each
frame's joints around its root translation, the skeleton's longest
root-to-joint chain wide.  A frame whose two boxes lie more than two
capsule radii apart along some axis, by a float margin of 2^-20 of the
frame's coordinate scale, adds an exact zero: its bodies' bounding boxes
cannot overlap.  The test trusts only what it proves.  A frame with a
non-finite value, a 6D block that is not well conditioned, or a scale
that the sweep's 2^-40 rule might refuse goes the full way, so its
``InvalidConfig`` or ``GridTooLarge`` is raised as before.  One FK pass
per side, with no second check, builds the capsules of the other frames
of the chunk (none when no frame is in reach), and they go to one
:func:`geometry.intersection_volumes` call, which owns the voxel sweep and
its own box test.  IV, IF and the penetrating-frame
count equal the full-grid count bit for bit (its docstring gives the
column intervals, the margin argument and the voxel budget).  The
per-frame volumes are added in frame order.  A NaN or infinite motion, or
a skeleton of one joint, has no capsules: it raises ``InvalidConfig``; a
frame so far from the origin that float64 cannot resolve the voxel or a
radius there raises ``GridTooLarge``.

The feature-space scores (FID, diversity, multimodality) run on the
flattened FK joint positions of the motions, never on the model under
test; they stand in for a recognition network's features, so their
absolute values are only comparable between motions of one skeleton and
one frame count.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .errors import (
    DegenerateCovariance,
    DimensionMismatch,
    EmptyInput,
    InsufficientSamples,
    InvalidConfig,
)

M3_TO_CM3 = 1e6
COV_EPS = 1e-6
# frames per FK pass of the metrics and per sweep call: one pass serves
# many frames, and the chunk bounds the memory its intermediates take
EVAL_CHUNK = 1024
DIVERSITY_SUBSET = 200
MULTIMODALITY_SUBSET = 20
MAX_SUBSET = 10 ** 4  # largest subset of the diversity and multimodality draws


# ---------------------------------------------------------------------------
# Penetration metrics
# ---------------------------------------------------------------------------

class PenetrationStats(NamedTuple):
    """Voxel-overlap totals over every frame of a set of (actor, reactor) pairs."""

    volume_m3: float   # both-occupied volume summed over all frames
    f_pene: int        # frames with a nonzero both-occupied volume
    f_total: int       # frames evaluated

    @property
    def iv_cm3(self) -> float:
        """Intersection Volume: mean per-frame overlap in cubic centimeters."""
        return self.volume_m3 / self.f_total * M3_TO_CM3

    @property
    def if_frac(self) -> float:
        """Intersection Frequency: the fraction of frames that overlap."""
        return self.f_pene / self.f_total


def penetration_stats(actors, reactors, skel: geo.Skeleton, voxel_size: float
                      ) -> PenetrationStats:
    """IV/IF accumulation over the (F, D) frame stacks of both sides, frame
    f of ``actors`` against frame f of ``reactors``.

    Per chunk of ``EVAL_CHUNK`` frames, one measure of each side's 6D
    blocks feeds the strict check of every frame and the reach test, which
    finds the frames whose bodies cannot touch; they add an exact zero.
    One FK pass per side and one :func:`geometry.intersection_volumes` call
    take the other frames.  The errors of a chunk keep their order: the
    actors' ``DegenerateRotation``, then their non-finite bodies'
    ``InvalidConfig``, then the reactors'.
    """
    geo.check_voxel_size(voxel_size)
    geo.check_bones(skel)
    for motion in (actors, reactors):
        if np.ndim(motion) != 2 or np.shape(motion)[1] != skel.motion_dim:
            raise DimensionMismatch(
                f"motions must be (F, {skel.motion_dim}), got {np.shape(motion)}")
    if len(actors) != len(reactors):
        raise DimensionMismatch("actor and reactor frame counts differ")
    if len(actors) == 0:
        raise EmptyInput("no frames to evaluate")
    finest = min(voxel_size, skel.radii.min())
    volumes = np.zeros(len(actors))
    for start in range(0, len(actors), EVAL_CHUNK):
        sides = [m[start:start + EVAL_CHUNK] for m in (actors, reactors)]
        dots = [geo._rot6d_dots(skel, motion) for motion in sides]
        # joint boxes more than two radii apart hold capsules whose boxes are apart
        boxes = [geo.reach_box(skel, motion, d, eps=0.0) for motion, d in zip(sides, dots)]
        frames = np.flatnonzero(~geo.apart(*boxes[0], *boxes[1],
                                           2.0 * skel.radii.max(), finest))
        bodies = []
        # the full path's order: the actors' blocks and bodies, then the reactors'
        for motion, d in zip(sides, dots):
            geo._check_rot6d(*d)
            if len(frames):
                bodies.append(geo.joint_capsules(skel, geo._exact_fk(skel, motion[frames])[0]))
        if len(frames):
            volumes[start + frames] = geo.intersection_volumes(*bodies, voxel_size)
    # cumsum adds in frame order, as a per-frame running sum does
    return PenetrationStats(float(volumes.cumsum()[-1]),
                            int(np.count_nonzero(volumes > 0.0)), len(volumes))


# ---------------------------------------------------------------------------
# Feature-space metrics
# ---------------------------------------------------------------------------

def _feature_matrix(features) -> np.ndarray:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DimensionMismatch(f"features must be (n, d), got {feats.shape}")
    return feats


def _finite(*values):
    """The first value; ``DegenerateCovariance`` unless every value is
    finite, as statistics of features far enough out overflow float64."""
    if not all(np.isfinite(v).all() for v in values):
        raise DegenerateCovariance("feature statistics overflow float64")
    return values[0]


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def fid(features_a, features_b) -> float:
    """Frechet distance between the Gaussian fits of two feature sets.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)), with the product
    square root computed from the symmetric form
    (S_a^(1/2) S_b S_a^(1/2))^(1/2) via eigendecomposition.  Covariances are
    regularized with 1e-6 * I before the square root.  Means, covariances
    or a distance that overflow float64 raise ``DegenerateCovariance``.
    """
    a = _feature_matrix(features_a)
    b = _feature_matrix(features_b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch("feature dimensions differ")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise DegenerateCovariance("need at least 2 vectors per set")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DegenerateCovariance("non-finite features")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite
        mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
        eye = COV_EPS * np.eye(a.shape[1])
        cov_a = np.cov(a, rowvar=False) + eye
        cov_b = np.cov(b, rowvar=False) + eye
        _finite(mu_a, mu_b, cov_a, cov_b)
        root_a = _sqrtm_psd(cov_a)
        inner = root_a @ cov_b @ root_a
        _finite(inner)
        tr_sqrt = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum()
        value = float((mu_a - mu_b) @ (mu_a - mu_b)
                      + np.trace(cov_a) + np.trace(cov_b) - 2.0 * tr_sqrt)
    return max(_finite(value), 0.0)


def _subset_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidConfig(f"metric seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _two_subsets(n: int, size: int, rng: np.random.Generator,
                 with_replacement: bool) -> tuple[np.ndarray, np.ndarray]:
    if not 1 <= size <= MAX_SUBSET:
        raise InvalidConfig(f"subset size must be in [1, {MAX_SUBSET}], got {size}")
    if with_replacement:
        return rng.integers(0, n, size), rng.integers(0, n, size)
    if n < 2 * size:
        raise InsufficientSamples(
            f"need at least {2 * size} features for two disjoint subsets of "
            f"{size}, have {n}")
    perm = rng.permutation(n)
    return perm[:size], perm[size:2 * size]


def diversity(features, subset_size: int = DIVERSITY_SUBSET, *, seed: int = 0,
              with_replacement: bool = False) -> float:
    """Mean distance between two seeded disjoint subsets of the features;
    ``InvalidConfig`` when ``subset_size`` < 1, ``DegenerateCovariance``
    when the distances overflow float64."""
    feats = _feature_matrix(features)
    rng = _subset_rng(seed)
    ia, ib = _two_subsets(len(feats), subset_size, rng, with_replacement)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite
        return _finite(float(np.linalg.norm(feats[ia] - feats[ib], axis=1).mean()))


def multimodality(features, labels, subset_size: int = MULTIMODALITY_SUBSET,
                  *, seed: int = 0, with_replacement: bool = False) -> float:
    """Within-class spread, averaged over classes.

    ``labels`` holds the class of each feature row.  For each class, in
    sorted order, two seeded subsets of ``subset_size`` of its rows are
    drawn and the paired distances accumulated; the sum is divided by
    (num_classes * subset_size).  ``InvalidConfig`` when ``subset_size``
    < 1, ``DegenerateCovariance`` when the distances overflow float64.
    """
    feats = _feature_matrix(features)
    labels = np.asarray(labels)
    if labels.shape != feats.shape[:1]:
        raise DimensionMismatch(f"labels of shape {labels.shape} for {len(feats)} features")
    if not len(feats):
        raise EmptyInput("no classes given")
    rng = _subset_rng(seed)
    classes = np.unique(labels)
    total = 0.0
    for label in classes:
        members = feats[labels == label]
        ia, ib = _two_subsets(len(members), subset_size, rng, with_replacement)
        with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite
            total += float(np.linalg.norm(members[ia] - members[ib], axis=1).sum())
    return _finite(total) / (len(classes) * subset_size)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def extract_features(motions, skel: geo.Skeleton) -> np.ndarray:
    """The (N, H·K·3) flattened FK joint positions of an (N, H, D) batch of
    motions, from one strict FK pass per chunk of ``EVAL_CHUNK`` frames."""
    if np.ndim(motions) != 3 or np.shape(motions)[2] != skel.motion_dim:
        raise DimensionMismatch(
            f"motions must be (N, H, {skel.motion_dim}), got {np.shape(motions)}")
    if len(motions) == 0:
        raise EmptyInput("no motions to featurize")
    frames = np.reshape(motions, (-1, skel.motion_dim))
    pos = np.empty((len(frames), skel.joint_count, 3))
    for start in range(0, len(frames), EVAL_CHUNK):
        pos[start:start + EVAL_CHUNK] = geo.motion_joint_positions(
            skel, frames[start:start + EVAL_CHUNK])
    return pos.reshape(len(motions), -1)
