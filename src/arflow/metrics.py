"""Evaluation metrics: intersection volume/frequency and feature-space scores.

Intersection Volume (IV) voxelizes actor and reactor on one shared grid per
frame and averages the both-occupied volume over every frame of every
sample; it is reported in cubic centimeters per frame.  Intersection
Frequency (IF) is the fraction of frames with any both-occupied voxel, so
IF = 0 exactly when IV = 0 under the same voxelization.

Before any FK, a reach test (:func:`geometry.reach_box` and
:func:`geometry.apart`) boxes each frame's joints around its root
translation, the skeleton's longest root-to-joint chain wide.  A frame
whose two boxes lie more than two capsule radii apart along some axis, by
a float margin of 2^-20 of the frame's coordinate scale, adds an exact
zero: its bodies' bounding boxes cannot overlap.  The test trusts only
what it proves.  A frame with a non-finite value, a 6D block that is not
well conditioned, or a scale that the sweep's 2^-40 rule might refuse
goes the full way, so its ``InvalidConfig`` or ``GridTooLarge`` is raised
as before; every frame's 6D blocks are checked.  One FK pass per side
builds the capsules of the other frames of up to ``EVAL_CHUNK`` samples,
and they go to one :func:`geometry.intersection_volumes` call, which owns
the voxel sweep and its own box test.  IV, IF and the penetrating-frame
count equal the full-grid count bit for bit (its docstring gives the
column intervals, the margin argument and the voxel budget).  The
per-frame volumes are added in frame order.  A NaN or infinite motion has
no capsules: it raises ``InvalidConfig``; a frame so far from the origin
that float64 cannot resolve the voxel or a radius there raises
``GridTooLarge``.

The feature-space scores (FID, diversity, multimodality) run on features
computed from the motions alone (FK joint positions, flattened or randomly
projected), never from the model under test; absolute values depend
entirely on the extractor choice and are only comparable within one
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# samples per FK pass and per sweep call in penetration_stats: one pass
# serves many frames, and the chunk bounds the memory its intermediates take
EVAL_CHUNK = 64
DIVERSITY_SUBSET = 200
MULTIMODALITY_SUBSET = 20
MAX_SUBSET = 10 ** 4  # largest subset of the diversity and multimodality draws
MAX_PROJ_DIM = 10 ** 4  # widest random projection of the features


# ---------------------------------------------------------------------------
# Penetration metrics
# ---------------------------------------------------------------------------

def _all_frames(skel: geo.Skeleton, motions) -> np.ndarray:
    """The frames of every motion stacked into one (F, D) array."""
    for m in motions:
        if np.ndim(m) != 2 or np.shape(m)[1] != skel.motion_dim:
            raise DimensionMismatch(
                f"motion must be (H, {skel.motion_dim}), got {np.shape(m)}")
    return np.concatenate(motions)


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


def penetration_stats(samples, skel: geo.Skeleton, voxel_size: float
                      ) -> PenetrationStats:
    """IV/IF accumulation over (actor, reactor) motion pairs.

    Per chunk of samples, the reach test finds the frames whose bodies
    cannot touch; they add an exact zero.  One FK pass per side and one
    :func:`geometry.intersection_volumes` call take the other frames.
    """
    geo.check_voxel_size(voxel_size)
    if len(samples) == 0:
        raise EmptyInput("no samples to evaluate")
    if any(np.shape(actor)[:1] != np.shape(reactor)[:1] for actor, reactor in samples):
        raise DimensionMismatch("actor and reactor frame counts differ")
    total_volume = 0.0
    f_pene = f_total = 0
    finest = min(voxel_size, skel.radii.min())
    for start in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[start:start + EVAL_CHUNK]
        actors = _all_frames(skel, [a for a, _ in chunk])
        reactors = _all_frames(skel, [b for _, b in chunk])
        # joint boxes more than two radii apart hold capsules whose boxes are apart
        frames = np.flatnonzero(~geo.apart(*geo.reach_box(skel, actors, eps=0.0),
                                           *geo.reach_box(skel, reactors, eps=0.0),
                                           2.0 * skel.radii.max(), finest))
        caps_a = geo.motion_capsules(skel, actors, frames)
        caps_b = geo.motion_capsules(skel, reactors, frames)
        volumes = np.zeros(len(actors))
        if len(frames):
            volumes[frames] = geo.intersection_volumes(caps_a, caps_b, voxel_size)
        f_total += len(volumes)
        for vol in volumes.tolist():
            total_volume += vol
            f_pene += vol > 0.0
    return PenetrationStats(total_volume, f_pene, f_total)


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


def multimodality(features_by_class: dict, subset_size: int = MULTIMODALITY_SUBSET,
                  *, seed: int = 0, with_replacement: bool = False) -> float:
    """Within-class spread, averaged over classes.

    For each class two seeded subsets of ``subset_size`` are drawn and the
    paired distances accumulated; the sum is divided by
    (num_classes * subset_size).  ``InvalidConfig`` when ``subset_size`` < 1,
    ``DegenerateCovariance`` when the distances overflow float64.
    """
    if not features_by_class:
        raise EmptyInput("no classes given")
    rng = _subset_rng(seed)
    total = 0.0
    for label in sorted(features_by_class):
        feats = _feature_matrix(features_by_class[label])
        ia, ib = _two_subsets(len(feats), subset_size, rng, with_replacement)
        with np.errstate(over="ignore", invalid="ignore"):  # refused by _finite
            total += float(np.linalg.norm(feats[ia] - feats[ib], axis=1).sum())
    return _finite(total) / (len(features_by_class) * subset_size)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureExtractor:
    """Deterministic motion-to-vector map for the feature-space metrics,
    computed from the motions alone.

    kinds: ``flatten`` concatenates FK joint positions; ``proj`` applies a
    seeded fixed random linear map to the flattened vector.  Both take
    motions of one frame count.
    """

    kind: str = "flatten"
    seed: int = 0
    out_dim: int = 32

    def __post_init__(self):
        if self.kind not in ("flatten", "proj"):
            raise InvalidConfig(f"unknown extractor kind {self.kind!r}")
        if self.kind == "proj" and not 1 <= self.out_dim <= MAX_PROJ_DIM:
            raise InvalidConfig(f"out_dim must be in [1, {MAX_PROJ_DIM}], got {self.out_dim}")
        if self.seed < 0:
            raise InvalidConfig(f"feature seed must be >= 0, got {self.seed}")


def _flatten_features(motions, skel: geo.Skeleton) -> np.ndarray:
    """FK joint positions of every frame, one row per motion, from one FK pass."""
    counts = sorted({np.shape(m)[0] for m in motions})
    if len(counts) > 1:
        raise DimensionMismatch(f"flattened features need one frame count, got {counts}")
    pos = geo.motion_joint_positions(skel, _all_frames(skel, motions))
    return pos.reshape(len(motions), -1)


def extract_features(motions, extractor: FeatureExtractor,
                     skel: geo.Skeleton) -> np.ndarray:
    """Feature matrix (n_motions, d) of motions of one frame count."""
    if len(motions) == 0:
        raise EmptyInput("no motions to featurize")
    flat = _flatten_features(motions, skel)
    if extractor.kind == "flatten":
        return flat
    rng = np.random.default_rng(extractor.seed)
    proj = rng.normal(size=(flat.shape[1], extractor.out_dim))
    proj /= np.sqrt(flat.shape[1])
    return flat @ proj
