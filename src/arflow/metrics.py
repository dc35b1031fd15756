"""Evaluation metrics: intersection volume/frequency and feature-space scores.

Intersection Volume (IV) voxelizes actor and reactor on one shared grid per
frame and averages the both-occupied volume over every frame of every
sample; it is reported in cubic centimeters per frame.  Intersection
Frequency (IF) is the fraction of frames with any both-occupied voxel, so
IF = 0 exactly when IV = 0 under the same voxelization.

The feature-space scores (FID, diversity, multimodality) run on a pluggable
extractor; absolute values depend entirely on the extractor choice and are
only comparable within one configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

def penetration_stats(samples, skel: geo.Skeleton, voxel_size: float
                      ) -> tuple[float, int, int, int]:
    """Shared IV/IF accumulation over (actor, reactor) motion pairs.

    Returns ``(total_volume_m3, penetrating_frames, total_frames, n_samples)``.
    """
    if len(samples) == 0:
        raise EmptyInput("no samples to evaluate")
    total_volume = 0.0
    f_pene = 0
    f_total = 0
    for actor, reactor in samples:
        caps_a = geo.motion_capsules(skel, actor)
        caps_b = geo.motion_capsules(skel, reactor)
        if len(caps_a.seg_a) != len(caps_b.seg_a):
            raise DimensionMismatch("actor and reactor frame counts differ")
        for f in range(len(caps_a.seg_a)):
            vol = geo.capsule_intersection_volume(caps_a.frame(f), caps_b.frame(f),
                                                  voxel_size)
            total_volume += vol
            f_total += 1
            if vol > 0.0:
                f_pene += 1
    return total_volume, f_pene, f_total, len(samples)


def intersection_volume(samples, skel: geo.Skeleton,
                        voxel_size: float = geo.DEFAULT_VOXEL_SIZE) -> float:
    """Mean per-frame intersection volume across all samples, in cm^3."""
    total, _, f_total, _ = penetration_stats(samples, skel, voxel_size)
    return total / f_total * M3_TO_CM3


def intersection_frequency(samples, skel: geo.Skeleton,
                           voxel_size: float = geo.DEFAULT_VOXEL_SIZE) -> float:
    """Fraction of frames (across all samples) with nonzero intersection."""
    _, f_pene, f_total, _ = penetration_stats(samples, skel, voxel_size)
    return f_pene / f_total


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
    """Mean distance between two seeded disjoint subsets of the features."""
    feats = _feature_matrix(features)
    rng = np.random.default_rng(seed)
    ia, ib = _two_subsets(len(feats), subset_size, rng, with_replacement)
    return float(np.linalg.norm(feats[ia] - feats[ib], axis=1).mean())


def multimodality(features_by_class: dict, subset_size: int = MULTIMODALITY_SUBSET,
                  *, seed: int = 0, with_replacement: bool = False) -> float:
    """Within-class spread, averaged over classes.

    For each class two seeded subsets of ``subset_size`` are drawn and the
    paired distances accumulated; the sum is divided by
    (num_classes * subset_size).
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
    rows = [geo.motion_joint_positions(skel, m).reshape(-1) for m in motions]
    return np.stack(rows)


def extract_features(motions, extractor: FeatureExtractor,
                     skel: geo.Skeleton) -> np.ndarray:
    """Feature matrix (n_motions, d) for a list of motions."""
    if len(motions) == 0:
        raise EmptyInput("no motions to featurize")
    if extractor.kind == "flatten":
        return _flatten_features(motions, skel)
    if extractor.kind == "random_projection":
        flat = _flatten_features(motions, skel)
        rng = np.random.default_rng(extractor.seed)
        proj = rng.normal(size=(flat.shape[1], extractor.out_dim))
        proj /= np.sqrt(flat.shape[1])
        return flat @ proj
    return np.stack([mdl.hidden_features(extractor.params, m) for m in motions])
