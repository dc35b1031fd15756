import json

import numpy as np
import pytest

from arflow import flowpath as fp
from arflow import model as mdl
from arflow.errors import DimensionMismatch, InvalidConfig, UnknownCondition

from test_geometry import chain_skeleton
from test_flowpath import random_motion


def tiny_config(skel, h=3, **kw):
    defaults = dict(frame_dim=skel.motion_dim, max_frames=h, layers=1, width=8,
                    heads=2, causal=True, cond_vocab=3)
    defaults.update(kw)
    return mdl.PredictorConfig(**defaults)


def tiny_batch(rng, skel, n=2, h=3, labels=(0, 1)):
    return [(random_motion(rng, skel, h), random_motion(rng, skel, h),
             labels[i % len(labels)]) for i in range(n)]


def stacked(batch):
    """The (B, H, D) arrays x0 and x1 of a list of (x0, x1, c) triples."""
    return np.stack([s[0] for s in batch]), np.stack([s[1] for s in batch])


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_causality():
    rng = np.random.default_rng(0)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, h=6, width=16, layers=2)
    params = mdl.init_params(cfg, seed=1)
    x = rng.normal(size=(6, cfg.frame_dim))
    base = mdl.predict(params, x[None], 0.4, [1])[0]
    for h in range(5):
        perturbed = x.copy()
        perturbed[h + 1:] += rng.normal(size=perturbed[h + 1:].shape)
        out = mdl.predict(params, perturbed[None], 0.4, [1])[0]
        assert np.max(np.abs(out[: h + 1] - base[: h + 1])) < 1e-10


def test_predict_noncausal_sees_future():
    rng = np.random.default_rng(1)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, h=4, causal=False)
    params = mdl.init_params(cfg, seed=2)
    x = rng.normal(size=(4, cfg.frame_dim))
    base = mdl.predict(params, x[None], 0.3)[0]
    perturbed = x.copy()
    perturbed[-1] += 1.0
    assert np.max(np.abs(mdl.predict(params, perturbed[None], 0.3)[0, 0] - base[0])) > 0


def test_zero_output_projection_gives_zero():
    rng = np.random.default_rng(2)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=3)
    params.arrays["out_proj_w"][:] = 0.0
    params.arrays["out_proj_b"][:] = 0.0
    x = rng.normal(size=(3, cfg.frame_dim))
    assert np.all(mdl.predict(params, x[None], 0.7, [2]) == 0.0)


def test_predict_deterministic():
    rng = np.random.default_rng(3)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=4)
    x = rng.normal(size=(3, cfg.frame_dim))
    a = mdl.predict(params, x[None], 0.5, [0])
    b = mdl.predict(params, x[None], 0.5, [0])
    assert np.array_equal(a, b)


def test_predict_input_validation():
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=0)
    with pytest.raises(DimensionMismatch):
        mdl.predict(params, np.zeros((1, 3, cfg.frame_dim + 1)), 0.5)
    with pytest.raises(DimensionMismatch):
        mdl.predict(params, np.zeros((1, cfg.max_frames + 1, cfg.frame_dim)), 0.5)
    with pytest.raises(UnknownCondition):
        mdl.predict(params, np.zeros((1, 2, cfg.frame_dim)), 0.5, [cfg.cond_vocab])
    with pytest.raises(DimensionMismatch, match=r"\(B, H, "):  # one (H, D) motion
        mdl.predict(params, np.zeros((3, cfg.frame_dim)), 0.5)


@pytest.mark.parametrize("kw", [dict(sigma_min=-3.0), dict(sigma_min=1.0),
                                dict(sigma_min=float("nan")), dict(learning_rate=-1.0),
                                dict(learning_rate=0.0), dict(learning_rate=float("inf")),
                                dict(learning_rate=float("nan"))])
def test_train_config_rejects_bad_sigma_min_and_learning_rate(kw):
    with pytest.raises(InvalidConfig):
        mdl.TrainConfig(**kw)


def test_grad_loss_rejects_mismatched_pairs():
    rng = np.random.default_rng(16)
    skel = chain_skeleton(2)
    params = mdl.init_params(tiny_config(skel), seed=0)
    x0, x1 = stacked(tiny_batch(rng, skel))
    tcfg = mdl.TrainConfig(steps=1, batch_size=2, seed=0)
    for a, b in ((x0[0], x1[0]), (x0, x1[:1]), (x0[:0], x1[:0])):
        with pytest.raises(DimensionMismatch):
            mdl.grad_loss(params, a, b, [0] * len(a), skel, tcfg, ts=np.zeros(len(a)))
    with pytest.raises(DimensionMismatch, match="2 conditions for a batch of 1"):
        mdl.loss_value(params, x0[:1], x1[:1], [0, 1], skel, tcfg, ts=np.zeros(1))


def test_config_validation():
    with pytest.raises(InvalidConfig):
        mdl.PredictorConfig(frame_dim=10, max_frames=4, width=6, heads=4)
    with pytest.raises(InvalidConfig):
        mdl.PredictorConfig(frame_dim=10, max_frames=4, prediction_mode="eps")


# ---------------------------------------------------------------------------
# grad_loss
# ---------------------------------------------------------------------------

def test_grad_loss_value_consistency():
    rng = np.random.default_rng(4)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=5)
    tcfg = mdl.TrainConfig(steps=1, batch_size=2, seed=0)
    batch = tiny_batch(rng, skel)
    ts = np.array([0.2, 0.7])
    conds = [0, None]
    total, fm, inter, _ = mdl.grad_loss(params, *stacked(batch), conds, skel, tcfg,
                                        ts=ts)
    again = mdl.loss_value(params, *stacked(batch), conds, skel, tcfg, ts=ts)
    assert total == pytest.approx(again, rel=1e-12)
    assert total == pytest.approx(fm + tcfg.lambda_inter * inter, rel=1e-12)


@pytest.mark.parametrize("mode", ["x1", "v"])
def test_grad_loss_matches_finite_differences(mode):
    rng = np.random.default_rng(5)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, prediction_mode=mode)
    params = mdl.init_params(cfg, seed=6)
    # healthy output scale keeps the decode inside the interaction loss far
    # from its singularity, where finite differences at h=1e-5 are accurate
    params.arrays["out_proj_w"] = rng.normal(
        scale=1.0 / np.sqrt(cfg.width), size=params.arrays["out_proj_w"].shape)
    tcfg = mdl.TrainConfig(steps=1, batch_size=2, sigma_min=1e-4, seed=0)
    batch = tiny_batch(rng, skel)
    ts = np.array([0.13, 0.61])
    conds = [1, 2]
    x0, x1 = stacked(batch)
    _, _, _, grads = mdl.grad_loss(params, x0, x1, conds, skel, tcfg, ts=ts)

    names = sorted(params.arrays)
    h = 1e-5
    checked = 0
    while checked < 20:
        name = names[int(rng.integers(len(names)))]
        arr = params.arrays[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        hi = mdl.loss_value(params, x0, x1, conds, skel, tcfg, ts=ts)
        arr[idx] = orig - h
        lo = mdl.loss_value(params, x0, x1, conds, skel, tcfg, ts=ts)
        arr[idx] = orig
        fd = (hi - lo) / (2 * h)
        if abs(fd) < 1e-7:
            continue  # dead coordinate (unused embedding row etc.)
        assert abs(grads[name][idx] - fd) / abs(fd) < 1e-4, (name, idx)
        checked += 1


def test_lambda_zero_reduces_to_fm_gradient():
    rng = np.random.default_rng(6)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=7)
    batch = tiny_batch(rng, skel)
    ts = np.array([0.4, 0.9])
    conds = [None, 0]
    base = mdl.TrainConfig(steps=1, batch_size=2, lambda_inter=0.0, seed=0)
    t0, fm0, inter0, g0 = mdl.grad_loss(params, *stacked(batch), conds, skel, base,
                                        ts=ts)
    assert inter0 == 0.0 and t0 == fm0
    # fm-only gradient computed separately must match exactly
    _, _, _, g1 = mdl.grad_loss(params, *stacked(batch), conds, skel, base, ts=ts)
    for k in g0:
        assert np.array_equal(g0[k], g1[k])


@pytest.mark.parametrize("mode", ["x1", "v"])
def test_grad_loss_with_table_rows_equals_no_targets(mode):
    rng = np.random.default_rng(13)
    skel = chain_skeleton(3)
    cfg = tiny_config(skel, prediction_mode=mode)
    params = mdl.init_params(cfg, seed=9)
    tcfg = mdl.TrainConfig(steps=1, batch_size=3, seed=0)
    data = tiny_batch(rng, skel, n=5)
    table = fp.interaction_targets(skel, np.concatenate([s[0] for s in data]),
                                   np.concatenate([s[1] for s in data]))
    idx = np.array([3, 0, 3])
    args = (*stacked([data[i] for i in idx]), [0, None, 1], skel, tcfg)
    ts = np.array([0.1, 0.5, 0.85])
    got = mdl.grad_loss(params, *args, ts=ts,
                        targets=table.rows((idx[:, None] * 3 + np.arange(3)).ravel()))
    want = mdl.grad_loss(params, *args, ts=ts)
    assert got[:3] == want[:3] and want[2] > 0.0
    for k in want[3]:
        assert got[3][k].tobytes() == want[3][k].tobytes(), k


def test_cond_dropout_prob_one_hides_labels():
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=8)
    tcfg = mdl.TrainConfig(steps=1, batch_size=2, cond_dropout_prob=1.0, seed=0)
    data_rng = np.random.default_rng(7)
    x0, x1 = stacked(tiny_batch(data_rng, skel, labels=(0, 1)))
    ts = np.array([0.3, 0.8])
    ta, *_ = mdl.grad_loss(params, x0, x1, [0, 1], skel, tcfg, ts=ts, rng=rng_a)
    tb, *_ = mdl.grad_loss(params, x0, x1, [2, 2], skel, tcfg, ts=ts, rng=rng_b)
    assert ta == tb


# ---------------------------------------------------------------------------
# prediction_to_x1
# ---------------------------------------------------------------------------

def test_prediction_to_x1_modes():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(4, 9))
    x_t = rng.normal(size=(4, 9))
    assert mdl.prediction_to_x1(raw, x_t, 0.3, 0.0, "x1") is raw
    y = rng.normal(size=(4, 9))
    v = fp.v_from_x1(y, x_t, 0.4, 0.01)
    assert np.allclose(mdl.prediction_to_x1(v, x_t, 0.4, 0.01, "v"), y, atol=1e-12)
    assert np.allclose(mdl.prediction_to_x1(np.zeros_like(x_t), x_t, 0.6, 0.0, "v"),
                       x_t, atol=1e-15)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_memorizes_singleton():
    rng = np.random.default_rng(9)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, h=3, width=16, layers=1)
    x0 = random_motion(rng, skel, 3)
    x1 = random_motion(rng, skel, 3)
    tcfg = mdl.TrainConfig(steps=1200, batch_size=4, learning_rate=3e-3,
                           lambda_inter=0.0, cond_dropout_prob=0.0, seed=11)
    params, history = mdl.train([(x0, x1, None)], skel, cfg, tcfg)
    assert len(history) == tcfg.steps
    assert min(h[0] for h in history) < 1e-3


def test_train_rejects_mixed_frame_counts():
    rng = np.random.default_rng(12)
    skel = chain_skeleton(2)
    data = tiny_batch(rng, skel, n=3, h=3) + tiny_batch(rng, skel, n=2, h=2)
    tcfg = mdl.TrainConfig(steps=2, batch_size=2, lambda_inter=0.0, seed=0)
    with pytest.raises(InvalidConfig, match=r"\[2, 3\]"):
        mdl.train(data, skel, tiny_config(skel), tcfg)


@pytest.mark.parametrize("h,extra_cols", [(5, 0), (3, 1), (3, -1)],
                         ids=["too-long", "too-wide", "too-narrow"])
def test_train_rejects_records_that_do_not_fit_the_config(h, extra_cols):
    rng = np.random.default_rng(14)
    skel = chain_skeleton(2)
    cols = skel.motion_dim + extra_cols
    data = [(np.resize(x0, (h, cols)), np.resize(x1, (h, cols)), c)
            for x0, x1, c in tiny_batch(rng, skel, n=3, h=h)]
    tcfg = mdl.TrainConfig(steps=2, batch_size=2, lambda_inter=0.0, seed=0)
    with pytest.raises(InvalidConfig) as err:
        mdl.train(data, skel, tiny_config(skel, h=3), tcfg)
    if extra_cols:
        named = (f"[{cols}]", f"frame_dim={skel.motion_dim}")
    else:
        named = ("5 frames", "max_frames=3")
    assert all(part in str(err.value) for part in named)


def test_train_seed_determinism():
    rng = np.random.default_rng(10)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    data = tiny_batch(rng, skel, n=6)
    tcfg = mdl.TrainConfig(steps=30, batch_size=3, seed=123)
    p1, h1 = mdl.train(data, skel, cfg, tcfg)
    p2, h2 = mdl.train(data, skel, cfg, tcfg)
    assert h1 == h2
    for k in p1.arrays:
        assert np.array_equal(p1.arrays[k], p2.arrays[k])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_params_round_trip(tmp_path):
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=12)
    path = tmp_path / "model.json"
    mdl.save_params(str(path), params)
    loaded = mdl.load_params(str(path))
    assert loaded.config == cfg
    for k in params.arrays:
        assert np.array_equal(loaded.arrays[k], params.arrays[k])


def test_params_file_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(InvalidConfig):
        mdl.load_params(str(path))


def _write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _saved_doc(tmp_path):
    skel = chain_skeleton(2)
    params = mdl.init_params(tiny_config(skel), seed=12)
    path = tmp_path / "model.json"
    mdl.save_params(str(path), params)
    return json.loads(path.read_text())


def test_params_file_rejects_wrong_shape(tmp_path):
    # a (1,) output bias used to load and then broadcast in predict
    doc = _saved_doc(tmp_path)
    doc["arrays"]["out_proj_b"] = {"shape": [1], "data": [0.0]}
    with pytest.raises(InvalidConfig, match="out_proj_b"):
        mdl.load_params(_write_doc(tmp_path / "bad.json", doc))


def test_params_file_rejects_non_finite(tmp_path):
    doc = _saved_doc(tmp_path)
    doc["arrays"]["l0_qkv_w"]["data"][3] = float("nan")
    with pytest.raises(InvalidConfig, match="l0_qkv_w"):
        mdl.load_params(_write_doc(tmp_path / "nan.json", doc))
    doc["arrays"]["l0_qkv_w"]["data"][3] = float("inf")
    with pytest.raises(InvalidConfig, match="l0_qkv_w"):
        mdl.load_params(_write_doc(tmp_path / "inf.json", doc))


def test_params_file_rejects_data_shape_disagreement(tmp_path):
    doc = _saved_doc(tmp_path)
    doc["arrays"]["in_proj_b"]["data"].append(0.0)
    with pytest.raises(InvalidConfig):
        mdl.load_params(_write_doc(tmp_path / "long.json", doc))


def test_predict_batch_matches_single_calls():
    # one forward over the batch, one condition per sample; each sample's
    # output is bit-equal to its own batch-of-one call
    rng = np.random.default_rng(13)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, h=4, width=16)
    params = mdl.init_params(cfg, seed=5)
    params.arrays["out_proj_w"] = rng.normal(size=params.arrays["out_proj_w"].shape)
    x = rng.normal(size=(5, 4, cfg.frame_dim))
    conds = [0, None, 2, 1, None]
    out = mdl.predict(params, x, 0.3, conds)
    for i in range(5):
        assert np.array_equal(out[i], mdl.predict(params, x[i:i + 1], 0.3,
                                                  conds[i:i + 1])[0])
    nulls = mdl.predict(params, x, 0.3, None)
    assert np.array_equal(nulls[1], out[1])
    with pytest.raises(DimensionMismatch):
        mdl.predict(params, x, 0.3, [0, 1])


def test_hidden_features_batch_matches_single_calls():
    # one forward over the batch; each row is bit-equal to the features of
    # a batch of that motion alone
    rng = np.random.default_rng(15)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, h=4, width=16, layers=2)
    params = mdl.init_params(cfg, seed=6)
    x = rng.normal(size=(7, 4, cfg.frame_dim))
    feats = mdl.hidden_features(params, x)
    assert feats.shape == (7, 16)
    for i in range(7):
        assert np.array_equal(feats[i], mdl.hidden_features(params, x[i:i + 1])[0])
    with pytest.raises(DimensionMismatch):
        mdl.hidden_features(params, x[0])
