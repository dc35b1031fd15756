"""Evaluation metrics: intersection volume/frequency and feature-space scores.

Intersection Volume (IV) voxelizes actor and reactor on one shared grid per
frame and averages the both-occupied volume over every frame of every
sample; it is reported in cubic centimeters per frame.  Intersection
Frequency (IF) is the fraction of frames with any both-occupied voxel, so
IF = 0 exactly when IV = 0 under the same voxelization.

The sweep is pruned, never approximated.  One FK pass per side builds the
capsules of every frame of up to ``EVAL_CHUNK`` samples, and one
vectorized box test finds the frames whose two bodies' bounding boxes
overlap; only those reach :func:`geometry.capsule_intersection_volume`,
every other frame adds an exact zero.  Inside a frame, a capsule is tested only on the voxel
centers of its own padded box, and the reactor only on the centers the
actor occupies.  Each tested center gets the full-grid coordinates and
arithmetic, so IV, IF and the penetrating-frame count equal the full-grid
computation bit for bit.

The feature-space scores (FID, diversity, multimodality) run on a pluggable
extractor; absolute values depend entirely on the extractor choice and are
only comparable within one configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import data as dt
from . import geometry as geo
from . import model as mdl
from .errors import (
    DegenerateCovariance,
    DimensionMismatch,
    EmptyInput,
    InsufficientSamples,
    InvalidConfig,
)

M3_TO_CM3 = 1e6
COV_EPS = 1e-6
# samples per FK pass in penetration_stats and per predictor forward in
# latent features: one pass serves many frames, and the chunk bounds the
# memory its intermediates take
EVAL_CHUNK = 64
DIVERSITY_SUBSET = 200
MULTIMODALITY_SUBSET = 20


@dataclass
class MetricReport:
    iv_cm3: float | None = None
    if_frac: float | None = None
    fid: float | None = None
    diversity: float | None = None
    multimodality: float | None = None
    n_total: int = 0
    f_total: int = 0
    f_pene: int = 0

    def items(self):
        out = []
        for key in ("iv_cm3", "if_frac", "fid", "diversity", "multimodality"):
            val = getattr(self, key)
            if val is not None:
                out.append((key, val))
        out += [("n_total", self.n_total), ("f_total", self.f_total),
                ("f_pene", self.f_pene)]
        return out


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

    Only frames whose two bodies' boxes overlap reach the voxel sweep.
    """
    geo.check_voxel_size(voxel_size)
    if len(samples) == 0:
        raise EmptyInput("no samples to evaluate")
    if any(np.shape(actor)[:1] != np.shape(reactor)[:1] for actor, reactor in samples):
        raise DimensionMismatch("actor and reactor frame counts differ")
    total_volume = 0.0
    f_pene = f_total = 0
    for start in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[start:start + EVAL_CHUNK]
        caps_a = geo.motion_capsules(skel, _all_frames(skel, [a for a, _ in chunk]))
        caps_b = geo.motion_capsules(skel, _all_frames(skel, [b for _, b in chunk]))
        lo_a, hi_a = caps_a.aabb()
        lo_b, hi_b = caps_b.aabb()
        apart = np.any(np.maximum(lo_a, lo_b) >= np.minimum(hi_a, hi_b), axis=1)
        f_total += len(apart)
        for f in np.flatnonzero(~apart):
            vol = geo.capsule_intersection_volume(caps_a.frame(f), caps_b.frame(f),
                                                  voxel_size)
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


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def fid(features_a, features_b) -> float:
    """Frechet distance between the Gaussian fits of two feature sets.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)), with the product
    square root computed from the symmetric form
    (S_a^(1/2) S_b S_a^(1/2))^(1/2) via eigendecomposition.  Covariances are
    regularized with 1e-6 * I before the square root.
    """
    a = _feature_matrix(features_a)
    b = _feature_matrix(features_b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch("feature dimensions differ")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise DegenerateCovariance("need at least 2 vectors per set")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DegenerateCovariance("non-finite features")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    eye = COV_EPS * np.eye(a.shape[1])
    cov_a = np.cov(a, rowvar=False) + eye
    cov_b = np.cov(b, rowvar=False) + eye
    root_a = _sqrtm_psd(cov_a)
    inner = root_a @ cov_b @ root_a
    tr_sqrt = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum()
    value = float((mu_a - mu_b) @ (mu_a - mu_b)
                  + np.trace(cov_a) + np.trace(cov_b) - 2.0 * tr_sqrt)
    return max(value, 0.0)


def _two_subsets(n: int, size: int, rng: np.random.Generator,
                 with_replacement: bool) -> tuple[np.ndarray, np.ndarray]:
    if size < 1:
        raise InvalidConfig(f"subset size must be >= 1, got {size}")
    if with_replacement:
        return rng.integers(0, n, size), rng.integers(0, n, size)
    if n < 2 * size:
        raise InsufficientSamples(
            f"need at least {2 * size} features, have {n} "
            "(pass with_replacement=True to allow fewer)")
    perm = rng.permutation(n)
    return perm[:size], perm[size:2 * size]


def diversity(features, subset_size: int = DIVERSITY_SUBSET, *, seed: int = 0,
              with_replacement: bool = False) -> float:
    """Mean distance between two seeded disjoint subsets of the features;
    ``InvalidConfig`` when ``subset_size`` < 1."""
    feats = _feature_matrix(features)
    rng = np.random.default_rng(seed)
    ia, ib = _two_subsets(len(feats), subset_size, rng, with_replacement)
    return float(np.linalg.norm(feats[ia] - feats[ib], axis=1).mean())


def multimodality(features_by_class: dict, subset_size: int = MULTIMODALITY_SUBSET,
                  *, seed: int = 0, with_replacement: bool = False) -> float:
    """Within-class spread, averaged over classes.

    For each class two seeded subsets of ``subset_size`` are drawn and the
    paired distances accumulated; the sum is divided by
    (num_classes * subset_size).  ``InvalidConfig`` when ``subset_size`` < 1.
    """
    if not features_by_class:
        raise EmptyInput("no classes given")
    rng = np.random.default_rng(seed)
    total = 0.0
    for label in sorted(features_by_class):
        feats = _feature_matrix(features_by_class[label])
        ia, ib = _two_subsets(len(feats), subset_size, rng, with_replacement)
        total += float(np.linalg.norm(feats[ia] - feats[ib], axis=1).sum())
    return total / (len(features_by_class) * subset_size)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureExtractor:
    """Deterministic motion-to-vector map for the feature-space metrics.

    kinds: ``flatten`` concatenates FK joint positions; ``random_projection``
    applies a seeded fixed linear map to the flattened vector;
    ``predictor_latent`` mean-pools the hidden state of a trained predictor.
    """

    kind: str = "flatten"
    seed: int = 0
    out_dim: int = 32
    params: "mdl.PredictorParams | None" = None

    def __post_init__(self):
        if self.kind not in ("flatten", "random_projection", "predictor_latent"):
            raise InvalidConfig(f"unknown extractor kind {self.kind!r}")
        if self.kind == "random_projection" and self.out_dim < 1:
            raise InvalidConfig("out_dim must be positive")
        if self.kind == "predictor_latent" and self.params is None:
            raise InvalidConfig("predictor_latent needs trained params")


def _flatten_features(motions, skel: geo.Skeleton) -> np.ndarray:
    """FK joint positions of every frame, one row per motion, from one FK pass."""
    counts = sorted({np.shape(m)[0] for m in motions})
    if len(counts) > 1:
        raise DimensionMismatch(f"flattened features need one frame count, got {counts}")
    pos = geo.motion_joint_positions(skel, _all_frames(skel, motions))
    return pos.reshape(len(motions), -1)


def extract_features(motions, extractor: FeatureExtractor,
                     skel: geo.Skeleton) -> np.ndarray:
    """Feature matrix (n_motions, d); only latent features take mixed frame counts."""
    if len(motions) == 0:
        raise EmptyInput("no motions to featurize")
    if extractor.kind == "predictor_latent":
        # one predictor forward per chunk of equal-shape motions
        feats = np.empty((len(motions), extractor.params.config.width))
        for chunk in dt.equal_shape_chunks(motions, EVAL_CHUNK):
            feats[chunk] = mdl.hidden_features(extractor.params,
                                               np.stack([motions[i] for i in chunk]))
        return feats
    flat = _flatten_features(motions, skel)
    if extractor.kind == "flatten":
        return flat
    rng = np.random.default_rng(extractor.seed)
    proj = rng.normal(size=(flat.shape[1], extractor.out_dim))
    proj /= np.sqrt(flat.shape[1])
    return flat @ proj
