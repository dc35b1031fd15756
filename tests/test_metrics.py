import numpy as np
import pytest

from arflow import data as dt
from arflow import geometry as geo
from arflow import metrics as mx
from arflow.errors import (
    DegenerateCovariance,
    DimensionMismatch,
    EmptyInput,
    InsufficientSamples,
    InvalidConfig,
)

from test_geometry import chain_skeleton
from test_sampler import still_actor
from voxel_oracle import shared_bounds, voxelize, window_intersection_volume


def pair(skel, h, actor_at, reactor_at_pt):
    return (still_actor(skel, h, actor_at), still_actor(skel, h, reactor_at_pt))


# ---------------------------------------------------------------------------
# IV / IF
# ---------------------------------------------------------------------------

def test_iv_zero_for_disjoint_pairs():
    skel = chain_skeleton(3)
    samples = [pair(skel, 2, (0, 0, 0), (5, 0, 0)),
               pair(skel, 2, (0, 0, 0), (0, 7, 0))]
    stats = mx.penetration_stats(samples, skel, 0.02)
    assert stats.iv_cm3 == 0.0
    assert stats.if_frac == 0.0


def test_iv_superposed_bodies_equals_body_volume():
    skel = chain_skeleton(3, radius=0.08)
    vs = 0.02
    actor = still_actor(skel, 1)
    bodies = geo.motion_capsules(skel, actor)
    caps = geo.CapsuleSet(bodies.seg_a[0], bodies.seg_b[0], bodies.radius)
    grid = voxelize(caps, vs, shared_bounds(caps, caps, vs))
    iv = mx.penetration_stats([(actor, actor.copy())], skel, vs).iv_cm3
    assert iv == pytest.approx(grid.volume * mx.M3_TO_CM3)


def test_iv_hand_average_over_samples():
    # one disjoint sample and one fully superposed sample -> IV = V/2
    skel = chain_skeleton(3, radius=0.08)
    vs = 0.02
    actor = still_actor(skel, 2)
    far = still_actor(skel, 2, (6.0, 0.0, 0.0))
    samples = [(actor, far), (actor, actor.copy())]
    bodies = geo.motion_capsules(skel, actor)
    caps = geo.CapsuleSet(bodies.seg_a[0], bodies.seg_b[0], bodies.radius)
    body_vol = geo.capsule_intersection_volume(caps, caps, vs) * mx.M3_TO_CM3
    assert mx.penetration_stats(samples, skel, vs).iv_cm3 == pytest.approx(body_vol / 2)


def test_if_one_when_every_frame_penetrates():
    skel = chain_skeleton(3, radius=0.08)
    actor = still_actor(skel, 4)
    assert mx.penetration_stats([(actor, actor.copy())], skel, 0.02).if_frac == 1.0


def test_if_counts_penetrating_frames():
    # 3 of 12 frames penetrate: one sample overlaps, three stay away
    skel = chain_skeleton(3, radius=0.08)
    h = 3
    overlapping = pair(skel, h, (0, 0, 0), (0.05, 0, 0))
    samples = [overlapping] + [pair(skel, h, (0, 0, 0), (4.0 + i, 0, 0))
                               for i in range(3)]
    assert mx.penetration_stats(samples, skel, 0.02).if_frac == pytest.approx(3 / 12)


def test_iv_additivity_over_sample_lists():
    skel = chain_skeleton(3, radius=0.08)
    vs = 0.02
    a = [pair(skel, 2, (0, 0, 0), (0.03, 0, 0))]
    b = [pair(skel, 2, (0, 0, 0), (5.0, 0, 0)),
         pair(skel, 2, (0, 0, 0), (0.1, 0, 0))]
    iv_a = mx.penetration_stats(a, skel, vs).iv_cm3
    iv_b = mx.penetration_stats(b, skel, vs).iv_cm3
    iv_all = mx.penetration_stats(a + b, skel, vs).iv_cm3
    frames_a, frames_b = 2 * len(a), 2 * len(b)
    expected = (iv_a * frames_a + iv_b * frames_b) / (frames_a + frames_b)
    assert iv_all == pytest.approx(expected, rel=1e-12)


def test_if_zero_iff_iv_zero():
    skel = chain_skeleton(3, radius=0.08)
    rng = np.random.default_rng(0)
    for trial in range(4):
        offset = (0.05 + 0.1 * trial, 0.0, 0.0) if trial % 2 == 0 else (5.0, 0, 0)
        samples = [pair(skel, 2, (0, 0, 0), offset)]
        stats = mx.penetration_stats(samples, skel, 0.02)
        iv, f = stats.iv_cm3, stats.if_frac
        assert (iv == 0.0) == (f == 0.0)


def test_penetration_stats_empty_input():
    skel = chain_skeleton(3)
    with pytest.raises(EmptyInput):
        mx.penetration_stats([], skel, 0.02)


@pytest.mark.parametrize("chunk", [mx.EVAL_CHUNK, 7])
def test_penetration_stats_equals_per_frame_oracle(chunk, tmp_path, monkeypatch):
    # 30 contact pairs of 16 frames, read back from a motion file; the
    # expected tuple sums the full-window oracle frame by frame, in order
    monkeypatch.setattr(mx, "EVAL_CHUNK", chunk)
    path = str(tmp_path / "contact.jsonl")
    dt.save_samples(path, dt.generate_mixed(30, frames=16, contact_fraction=1.0, seed=11),
                    dt.default_skeleton())
    samples, skel = dt.load_samples(path)
    pairs = [(s.actor, s.reactor) for s in samples]
    vs = 0.02
    volume, f_pene, f_total = 0.0, 0, 0
    for actor, reactor in pairs:
        caps_a = geo.motion_capsules(skel, actor)
        caps_b = geo.motion_capsules(skel, reactor)
        for f in range(len(actor)):
            vol = window_intersection_volume(
                geo.CapsuleSet(caps_a.seg_a[f], caps_a.seg_b[f], caps_a.radius),
                geo.CapsuleSet(caps_b.seg_a[f], caps_b.seg_b[f], caps_b.radius), vs)
            volume += vol
            f_total += 1
            f_pene += vol > 0.0
    assert f_total >= 480 and 0 < f_pene < f_total
    assert mx.penetration_stats(pairs, skel, vs) == (volume, f_pene, f_total)


@pytest.mark.parametrize("chunk", [997, 1 << 12])
def test_penetration_stats_in_small_groups_equals_per_frame_oracle(chunk, monkeypatch):
    # groups of a few hundred or thousand voxels cut the frames' windows,
    # and their columns, wherever the chunk ends
    pairs = [(s.actor, s.reactor)
             for s in dt.generate_mixed(6, frames=8, contact_fraction=1.0, seed=4)]
    skel = dt.default_skeleton()
    vs = 0.02
    volume, f_pene = 0.0, 0
    for actor, reactor in pairs:
        caps_a = geo.motion_capsules(skel, actor)
        caps_b = geo.motion_capsules(skel, reactor)
        for f in range(len(actor)):
            vol = window_intersection_volume(
                geo.CapsuleSet(caps_a.seg_a[f], caps_a.seg_b[f], caps_a.radius),
                geo.CapsuleSet(caps_b.seg_a[f], caps_b.seg_b[f], caps_b.radius), vs)
            volume += vol
            f_pene += vol > 0.0
    assert f_pene > 0
    monkeypatch.setattr(geo, "_CHUNK", chunk)
    assert mx.penetration_stats(pairs, skel, vs) == (volume, f_pene, 6 * 8)


def test_disjoint_frames_never_reach_the_sweep(monkeypatch):
    # every frame goes to the sweep, whose box test gives a window only to
    # the frames whose two bodies' boxes overlap
    skel = chain_skeleton(3, radius=0.08)
    near = still_actor(skel, 3, (0.05, 0.0, 0.0))
    far = still_actor(skel, 2, (5.0, 0.0, 0.0))
    samples = [(still_actor(skel, 5), np.concatenate([near, far])),
               pair(skel, 4, (0, 0, 0), (0, 6.0, 0))]
    windowed = []
    windows = geo._windows

    def recording_windows(a, b, voxel_size):
        win = windows(a, b, voxel_size)
        (lo_a, hi_a), (lo_b, hi_b) = a.aabb(), b.aabb()
        windowed.extend(((lo_a[f], hi_a[f]), (lo_b[f], hi_b[f])) for f in win.frame)
        return win

    monkeypatch.setattr(geo, "_windows", recording_windows)
    volume, f_pene, f_total = mx.penetration_stats(samples, skel, 0.02)
    assert (f_pene, f_total) == (3, 9) and volume > 0.0
    assert len(windowed) == 3
    for (lo_a, hi_a), (lo_b, hi_b) in windowed:
        assert np.all(np.maximum(lo_a, lo_b) < np.minimum(hi_a, hi_b))


@pytest.mark.parametrize("voxel_size", [0.0, -0.02, float("nan"), float("inf")])
def test_penetration_stats_rejects_bad_voxel_size_before_any_frame(voxel_size):
    skel = chain_skeleton(3)
    far_apart = [pair(skel, 2, (0, 0, 0), (5, 0, 0))]
    with pytest.raises(InvalidConfig):
        mx.penetration_stats(far_apart, skel, voxel_size)
    with pytest.raises(InvalidConfig):
        mx.penetration_stats([], skel, voxel_size)


@pytest.mark.parametrize("side", [0, 1])
def test_penetration_stats_rejects_a_nan_motion(side):
    # the NaN frame overlaps its partner's box test and used to add IV 0.0
    skel = chain_skeleton(3)
    motions = [still_actor(skel, 2), still_actor(skel, 2)]
    motions[side][1, -2] = np.nan
    with pytest.raises(InvalidConfig, match="finite"):
        mx.penetration_stats([tuple(motions)], skel, 0.02)


def test_penetration_stats_frame_count_mismatch():
    skel = chain_skeleton(3)
    with pytest.raises(DimensionMismatch):
        mx.penetration_stats([(still_actor(skel, 3), still_actor(skel, 2))], skel, 0.02)
    narrow = np.zeros((3, skel.motion_dim - 1))
    with pytest.raises(DimensionMismatch):
        mx.penetration_stats([(still_actor(skel, 3), still_actor(skel, 3)),
                              (narrow, narrow)], skel, 0.02)


# ---------------------------------------------------------------------------
# FID
# ---------------------------------------------------------------------------

def test_fid_self_distance_near_zero():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, 8))
    assert mx.fid(x, x) < 1e-6


def test_fid_two_gaussians_close_to_closed_form():
    rng = np.random.default_rng(2)
    a = rng.normal(loc=0.0, scale=1.0, size=(20000, 1))
    b = rng.normal(loc=3.0, scale=1.0, size=(20000, 1))
    # closed form (mu1-mu2)^2 + (s1-s2)^2 with sample statistics
    expected = (a.mean() - b.mean()) ** 2 + (a.std(ddof=1) - b.std(ddof=1)) ** 2
    assert mx.fid(a, b) == pytest.approx(float(expected), rel=1e-6)
    assert mx.fid(a, b) == pytest.approx(9.0, rel=0.05)


def test_fid_variance_only_gap():
    rng = np.random.default_rng(3)
    a = rng.normal(scale=1.0, size=(20000, 1))
    b = rng.normal(scale=2.0, size=(20000, 1))
    assert mx.fid(a, b) == pytest.approx(1.0, rel=0.05)


def test_fid_symmetry_and_orthogonal_invariance():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(400, 6))
    b = rng.normal(loc=0.5, size=(400, 6))
    assert mx.fid(a, b) == pytest.approx(mx.fid(b, a), rel=1e-9)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    assert mx.fid(a @ q, b @ q) == pytest.approx(mx.fid(a, b), abs=1e-6)


def test_fid_input_validation():
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionMismatch):
        mx.fid(rng.normal(size=(10, 3)), rng.normal(size=(10, 4)))
    with pytest.raises(DegenerateCovariance):
        mx.fid(rng.normal(size=(1, 3)), rng.normal(size=(10, 3)))


# ---------------------------------------------------------------------------
# diversity / multimodality
# ---------------------------------------------------------------------------

def test_diversity_zero_for_identical_features():
    feats = np.ones((40, 5))
    assert mx.diversity(feats, 10, seed=0) == 0.0


def test_diversity_bounded_by_two_point_distance():
    feats = np.zeros((40, 3))
    feats[20:, 0] = 2.0
    val = mx.diversity(feats, 10, seed=1)
    assert 0.0 <= val <= 2.0


def test_diversity_matches_brute_force():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    seed = 9
    got = mx.diversity(feats, 2, seed=seed)
    perm = np.random.default_rng(seed).permutation(4)
    expected = np.mean([np.linalg.norm(feats[perm[0]] - feats[perm[2]]),
                        np.linalg.norm(feats[perm[1]] - feats[perm[3]])])
    assert got == pytest.approx(float(expected), rel=1e-12)


def test_diversity_insufficient_without_replacement():
    with pytest.raises(InsufficientSamples):
        mx.diversity(np.zeros((5, 2)), 3, seed=0)
    assert mx.diversity(np.zeros((5, 2)), 3, seed=0, with_replacement=True) == 0.0


@pytest.mark.parametrize("size", [0, -3])
def test_subset_size_below_one_is_invalid(size):
    feats = np.arange(12.0).reshape(6, 2)
    for replace in (False, True):
        with pytest.raises(InvalidConfig, match="subset size"):
            mx.diversity(feats, size, with_replacement=replace)
        with pytest.raises(InvalidConfig, match="subset size"):
            mx.multimodality({0: feats}, size, with_replacement=replace)


def test_subset_size_above_the_limit_is_invalid():
    # with replacement, 10^29 draws used to fail inside numpy, exit 1
    feats = np.arange(12.0).reshape(6, 2)
    assert mx.diversity(feats, mx.MAX_SUBSET, with_replacement=True) > 0.0
    for size in (mx.MAX_SUBSET + 1, 10 ** 29):
        with pytest.raises(InvalidConfig, match="subset size"):
            mx.diversity(feats, size, with_replacement=True)
        with pytest.raises(InvalidConfig, match="subset size"):
            mx.multimodality({0: feats}, size, with_replacement=True)


def test_multimodality_constant_classes_and_c1_reduction():
    by_class = {0: np.ones((10, 3)), 1: np.zeros((10, 3))}
    assert mx.multimodality(by_class, 4, seed=0) == 0.0
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(30, 4))
    assert (mx.multimodality({0: feats}, 5, seed=3)
            == pytest.approx(mx.diversity(feats, 5, seed=3), rel=1e-12))


def test_multimodality_brute_force_two_classes():
    rng = np.random.default_rng(7)
    by_class = {0: rng.normal(size=(8, 2)), 1: rng.normal(size=(8, 2))}
    seed = 13
    got = mx.multimodality(by_class, 2, seed=seed)
    gen = np.random.default_rng(seed)
    total = 0.0
    for label in (0, 1):
        perm = gen.permutation(8)
        ia, ib = perm[:2], perm[2:4]
        total += np.linalg.norm(by_class[label][ia] - by_class[label][ib],
                                axis=1).sum()
    assert got == pytest.approx(total / (2 * 2), rel=1e-12)


def test_metric_seed_determinism():
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(50, 4))
    assert mx.diversity(feats, 10, seed=5) == mx.diversity(feats, 10, seed=5)
    assert mx.diversity(feats, 10, seed=5) != mx.diversity(feats, 10, seed=6)


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def test_flatten_features_single_frame():
    skel = chain_skeleton(2)
    motion = still_actor(skel, 1, (1.0, 2.0, 3.0))
    feats = mx.extract_features([motion], mx.FeatureExtractor("flatten"), skel)
    assert feats.shape == (1, 6)
    assert np.allclose(feats[0], [1, 2, 3, 1, 2, 4])  # root then root+(0,0,1)


def test_random_projection_deterministic_and_linear():
    skel = chain_skeleton(3)
    rng = np.random.default_rng(9)
    motions = [still_actor(skel, 2, tuple(rng.normal(size=3))) for _ in range(3)]
    ex = mx.FeatureExtractor("proj", seed=4, out_dim=7)
    f1 = mx.extract_features(motions, ex, skel)
    f2 = mx.extract_features(motions, ex, skel)
    assert np.array_equal(f1, f2)
    assert f1.shape == (3, 7)
    # linearity of the flatten+projection pipeline in the joint positions
    flat = mx._flatten_features(motions, skel)
    proj = mx.extract_features(motions, ex, skel)
    alpha = 2.5
    rngp = np.random.default_rng(4)
    p = rngp.normal(size=(flat.shape[1], 7)) / np.sqrt(flat.shape[1])
    assert np.allclose((alpha * flat) @ p, alpha * proj, atol=1e-12)


@pytest.mark.parametrize("kind", ["predictor_latent", "latent", "pca", ""])
def test_feature_extractor_rejects_unknown_kind(kind):
    with pytest.raises(InvalidConfig, match="unknown extractor kind"):
        mx.FeatureExtractor(kind)


@pytest.mark.parametrize("out_dim", [0, mx.MAX_PROJ_DIM + 1, 10 ** 29])
def test_random_projection_width_has_limits(out_dim):
    # 10^29 columns used to fail inside numpy's normal draw
    with pytest.raises(InvalidConfig, match="out_dim"):
        mx.FeatureExtractor("proj", out_dim=out_dim)


@pytest.mark.parametrize("kind", ["flatten", "proj"])
def test_flattened_features_reject_mixed_frame_counts(kind):
    skel = chain_skeleton(2)
    motions = [still_actor(skel, 3), still_actor(skel, 2)]
    with pytest.raises(DimensionMismatch, match=r"\[2, 3\]"):
        mx.extract_features(motions, mx.FeatureExtractor(kind), skel)
