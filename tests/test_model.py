import hashlib
import json

import numpy as np
import pytest

import oracles
from arflow import autodiff as ad
from arflow import flowpath as fp
from arflow import model as mdl
from arflow.data import MAX_FRAMES
from arflow.errors import DimensionMismatch, InvalidConfig

from test_geometry import chain_skeleton
from test_flowpath import random_motion


def tiny_config(skel, h=3, **kw):
    defaults = dict(frame_dim=skel.motion_dim, max_frames=h, layers=1, width=8,
                    heads=2, causal=True)
    defaults.update(kw)
    return mdl.PredictorConfig(**defaults)


def tiny_batch(rng, skel, n=2, h=3):
    """(N, H, D) arrays x0 and x1 of random motions, drawn pair after pair."""
    pairs = [(random_motion(rng, skel, h), random_motion(rng, skel, h)) for _ in range(n)]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def frame_targets(skel, x1):
    """The interaction targets of a (B, H, D) batch, one row per frame."""
    return fp.interaction_targets(skel, x1.reshape(-1, skel.motion_dim))


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_causality():
    rng = np.random.default_rng(0)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, h=6, width=16, layers=2)
    params = mdl.init_params(cfg, seed=1)
    x = rng.normal(size=(6, cfg.frame_dim))
    base = mdl.predict(params, x[None], 0.4)[0]
    for h in range(5):
        perturbed = x.copy()
        perturbed[h + 1:] += rng.normal(size=perturbed[h + 1:].shape)
        out = mdl.predict(params, perturbed[None], 0.4)[0]
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
    assert np.all(mdl.predict(params, x[None], 0.7) == 0.0)


def test_predict_deterministic():
    rng = np.random.default_rng(3)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=4)
    x = rng.normal(size=(3, cfg.frame_dim))
    a = mdl.predict(params, x[None], 0.5)
    b = mdl.predict(params, x[None], 0.5)
    assert np.array_equal(a, b)


def test_predict_input_validation():
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=0)
    with pytest.raises(DimensionMismatch):
        mdl.predict(params, np.zeros((1, 3, cfg.frame_dim + 1)), 0.5)
    with pytest.raises(DimensionMismatch):
        mdl.predict(params, np.zeros((1, cfg.max_frames + 1, cfg.frame_dim)), 0.5)
    with pytest.raises(DimensionMismatch, match=r"\(B, H, "):  # one (H, D) motion
        mdl.predict(params, np.zeros((3, cfg.frame_dim)), 0.5)


@pytest.mark.parametrize("kw", [dict(sigma_min=-3.0), dict(sigma_min=1.0),
                                dict(sigma_min=float("nan")), dict(learning_rate=-1.0),
                                dict(learning_rate=0.0), dict(learning_rate=float("inf")),
                                dict(learning_rate=float("nan")), dict(lambda_inter=-1.0),
                                dict(lambda_inter=float("nan")),
                                dict(lambda_inter=float("inf"))])
def test_train_config_rejects_bad_sigma_min_and_learning_rate(kw):
    # sigma_min is a field of the predictor config, the others of TrainConfig
    with pytest.raises(InvalidConfig):
        if "sigma_min" in kw:
            tiny_config(chain_skeleton(2), **kw)
        else:
            mdl.TrainConfig(**kw)


def test_grad_loss_rejects_mismatched_pairs():
    rng = np.random.default_rng(16)
    skel = chain_skeleton(2)
    params = mdl.init_params(tiny_config(skel), seed=0)
    x0, x1 = tiny_batch(rng, skel)
    tcfg = mdl.TrainConfig(steps=1, batch_size=2, seed=0)
    for a, b in ((x0[0], x1[0]), (x0, x1[:1]), (x0[:0], x1[:0])):
        with pytest.raises(DimensionMismatch):
            mdl.grad_loss(params, a, b, skel, tcfg, ts=np.zeros(len(a)))


@pytest.mark.parametrize("make", [
    lambda: mdl.TrainConfig(steps=mdl.MAX_STEPS + 1),
    lambda: mdl.TrainConfig(steps=10 ** 29),
    lambda: mdl.PredictorConfig(frame_dim=10, max_frames=MAX_FRAMES + 1),
    lambda: mdl.PredictorConfig(frame_dim=10, max_frames=10 ** 29),
], ids=["steps-limit-plus-one", "steps-huge", "max-frames-limit-plus-one",
        "max-frames-huge"])
def test_step_and_frame_counts_have_limits(make):
    with pytest.raises(InvalidConfig, match=r"in \[1, "):
        make()
    # the limits themselves are legal
    mdl.TrainConfig(steps=mdl.MAX_STEPS)
    mdl.PredictorConfig(frame_dim=10, max_frames=MAX_FRAMES)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        mdl.PredictorConfig(frame_dim=10, max_frames=4, width=6, heads=4)
    with pytest.raises(InvalidConfig):
        mdl.PredictorConfig(frame_dim=10, max_frames=4, prediction_mode="eps")


@pytest.mark.parametrize("kw", [dict(frame_dim=10.0), dict(max_frames=4.0),
                                dict(layers=2.0), dict(width=64.0), dict(heads=True),
                                dict(heads="2"), dict(causal="no"), dict(causal=1),
                                dict(prediction_mode=None)])
def test_config_rejects_mistyped_fields(kw):
    # a model file is JSON: floats, bools and strings must not pass for
    # integers, nor a string for the causal flag
    fields = dict(frame_dim=10, max_frames=4)
    fields.update(kw)
    with pytest.raises(InvalidConfig):
        mdl.PredictorConfig(**fields)


# ---------------------------------------------------------------------------
# grad_loss
# ---------------------------------------------------------------------------

def test_grad_loss_value_consistency():
    rng = np.random.default_rng(4)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=5)
    tcfg = mdl.TrainConfig(steps=1, batch_size=2, seed=0)
    x0, x1 = tiny_batch(rng, skel)
    ts = np.array([0.2, 0.7])
    total, fm, inter, _ = mdl.grad_loss(params, x0, x1, skel, tcfg, ts=ts,
                                        targets=frame_targets(skel, x1))
    assert total == pytest.approx(fm + tcfg.lambda_inter * inter, rel=1e-12)


@pytest.mark.parametrize("mode", ["x1", "v"])
def test_grad_loss_matches_finite_differences(mode):
    rng = np.random.default_rng(5)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, prediction_mode=mode, sigma_min=1e-4)
    params = mdl.init_params(cfg, seed=6)
    # healthy output scale keeps the decode inside the interaction loss far
    # from its singularity, where finite differences at h=1e-5 are accurate
    params.arrays["out_proj_w"] = rng.normal(
        scale=1.0 / np.sqrt(cfg.width), size=params.arrays["out_proj_w"].shape)
    tcfg = mdl.TrainConfig(steps=1, batch_size=2, seed=0)
    x0, x1 = tiny_batch(rng, skel)
    ts = np.array([0.13, 0.61])
    targets = frame_targets(skel, x1)
    _, _, _, grads = mdl.grad_loss(params, x0, x1, skel, tcfg, ts=ts, targets=targets)

    names = sorted(params.arrays)
    h = 1e-5
    checked = 0
    while checked < 20:
        name = names[int(rng.integers(len(names)))]
        arr = params.arrays[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        hi = mdl.grad_loss(params, x0, x1, skel, tcfg, ts=ts, targets=targets)[0]
        arr[idx] = orig - h
        lo = mdl.grad_loss(params, x0, x1, skel, tcfg, ts=ts, targets=targets)[0]
        arr[idx] = orig
        fd = (hi - lo) / (2 * h)
        if abs(fd) < 1e-7:
            continue  # dead coordinate
        assert abs(grads[name][idx] - fd) / abs(fd) < 1e-4, (name, idx)
        checked += 1


def test_lambda_zero_reduces_to_fm_gradient():
    rng = np.random.default_rng(6)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    params = mdl.init_params(cfg, seed=7)
    batch = tiny_batch(rng, skel)
    ts = np.array([0.4, 0.9])
    base = mdl.TrainConfig(steps=1, batch_size=2, lambda_inter=0.0, seed=0)
    t0, fm0, inter0, g0 = mdl.grad_loss(params, *batch, skel, base, ts=ts)
    assert inter0 == 0.0 and t0 == fm0
    # fm-only gradient computed separately must match exactly
    _, _, _, g1 = mdl.grad_loss(params, *batch, skel, base, ts=ts)
    for k in g0:
        assert np.array_equal(g0[k], g1[k])


@pytest.mark.parametrize("mode", ["x1", "v"])
def test_grad_loss_with_table_rows_equals_no_targets(mode):
    # rows picked from the training set's table, as train passes them, give
    # the loss of the batch's own targets, which grad_loss built when none
    # were given
    rng = np.random.default_rng(13)
    skel = chain_skeleton(3)
    cfg = tiny_config(skel, prediction_mode=mode)
    params = mdl.init_params(cfg, seed=9)
    tcfg = mdl.TrainConfig(steps=1, batch_size=3, seed=0)
    x0s, x1s = tiny_batch(rng, skel, n=5)
    table = fp.interaction_targets(skel, x1s.reshape(-1, skel.motion_dim))
    idx = np.array([3, 0, 3])
    args = (x0s[idx], x1s[idx], skel, tcfg)
    ts = np.array([0.1, 0.5, 0.85])
    got = mdl.grad_loss(params, *args, ts=ts,
                        targets=table.rows((idx[:, None] * 3 + np.arange(3)).ravel()))
    want = mdl.grad_loss(params, *args, ts=ts, targets=frame_targets(skel, x1s[idx]))
    assert got[:3] == want[:3] and want[2] > 0.0
    for k in want[3]:
        assert got[3][k].tobytes() == want[3][k].tobytes(), k


def test_grad_loss_without_targets_raises():
    # train builds the interaction-target table; grad_loss takes its rows
    rng = np.random.default_rng(13)
    skel = chain_skeleton(3)
    params = mdl.init_params(tiny_config(skel), seed=9)
    x0, x1 = tiny_batch(rng, skel, n=3)
    ts = np.array([0.1, 0.5, 0.85])
    with pytest.raises(InvalidConfig, match="interaction targets"):
        mdl.grad_loss(params, x0, x1, skel, mdl.TrainConfig(lambda_inter=0.5), ts=ts)
    # without the interaction loss no targets are read
    mdl.grad_loss(params, x0, x1, skel, mdl.TrainConfig(lambda_inter=0.0), ts=ts)


# ---------------------------------------------------------------------------
# as_x1_predictor
# ---------------------------------------------------------------------------

def test_as_x1_predictor_modes():
    # an x1 model's output is the endpoint; a v model's velocity becomes one
    # on the path of the model's sigma_min
    rng = np.random.default_rng(8)
    skel = chain_skeleton(2)
    x_t = rng.normal(size=(2, 3, skel.motion_dim))
    arrays = mdl.init_params(tiny_config(skel), seed=3).arrays
    raw = mdl.predict(mdl.PredictorParams(tiny_config(skel), arrays), x_t, 0.4)
    x1_hat = mdl.as_x1_predictor(mdl.PredictorParams(tiny_config(skel), arrays))
    assert x1_hat(x_t, 0.4).tobytes() == raw.tobytes()
    v_cfg = tiny_config(skel, prediction_mode="v", sigma_min=0.01)
    got = mdl.as_x1_predictor(mdl.PredictorParams(v_cfg, arrays))(x_t, 0.4)
    assert np.allclose(fp.v_from_x1(got, x_t, 0.4, 0.01), raw, rtol=0, atol=1e-12)
    # a zero velocity at sigma_min 0 leaves the state where it is
    arrays["out_proj_w"][:] = 0.0
    still = mdl.PredictorParams(tiny_config(skel, prediction_mode="v", sigma_min=0.0), arrays)
    assert np.array_equal(mdl.as_x1_predictor(still)(x_t, 0.6), x_t)


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
                           lambda_inter=0.0, seed=11)
    params, history = mdl.train(x0[None], x1[None], skel, cfg, tcfg)
    assert len(history) == tcfg.steps
    assert min(h[0] for h in history) < 1e-3


@pytest.mark.parametrize("shape0, shape1", [
    ((3, 5, 0), (3, 5, 0)), ((3, 3, 1), (3, 3, 1)), ((3, 3, -1), (3, 3, -1)),
    ((3, 3, 0), (3, 2, 0)), ((3, 3, 0), (2, 3, 0)), ((0, 3, 0), (0, 3, 0)),
    ((3, 0, 0), (3, 0, 0))],
    ids=["too-long", "too-wide", "too-narrow", "unequal-frames", "unequal-counts",
         "empty", "no-frames"])
def test_train_rejects_records_that_do_not_fit_the_config(shape0, shape1):
    # one shape check: equal (N >= 1, 1 <= H <= max_frames, frame_dim) arrays;
    # shapes give (N, H, width - frame_dim)
    rng = np.random.default_rng(14)
    skel = chain_skeleton(2)
    x0s, x1s = (rng.normal(size=(n, h, skel.motion_dim + extra))
                for n, h, extra in (shape0, shape1))
    tcfg = mdl.TrainConfig(steps=2, batch_size=2, lambda_inter=0.0, seed=0)
    with pytest.raises(InvalidConfig) as err:
        mdl.train(x0s, x1s, skel, tiny_config(skel, h=3), tcfg)
    assert f"{x0s.shape} and {x1s.shape}" in str(err.value)
    assert f"H <= 3, {skel.motion_dim})" in str(err.value)


def test_train_seed_determinism():
    rng = np.random.default_rng(10)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel)
    data = tiny_batch(rng, skel, n=6)
    tcfg = mdl.TrainConfig(steps=30, batch_size=3, seed=123)
    p1, h1 = mdl.train(*data, skel, cfg, tcfg)
    p2, h2 = mdl.train(*data, skel, cfg, tcfg)
    assert h1 == h2
    for k in p1.arrays:
        assert np.array_equal(p1.arrays[k], p2.arrays[k])


def test_train_draw_order_is_pinned():
    # each step draws its batch indices, then its flow times, from the one
    # stream of TrainConfig.seed: the weights and the losses of a seed keep
    # their bits, and drawing the times first changes them
    rng = np.random.default_rng(15)
    skel = chain_skeleton(2)
    data = tiny_batch(rng, skel, n=5)
    tcfg = mdl.TrainConfig(steps=3, batch_size=2, seed=4)
    params, history = mdl.train(*data, skel, tiny_config(skel), tcfg)
    digest = hashlib.sha256(np.array(history).tobytes())
    for name, arr in params.arrays.items():
        digest.update(name.encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == (
        "95e2eecd3ead251451e0c6a50854918d00b42343e4eabd1fc22c8b61b3e50953")


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


def test_init_params_draw_order_is_pinned():
    # names, shapes, fills and the order of the normal draws all feed the
    # digest: a model file of a given seed keeps its bytes
    cfg = mdl.PredictorConfig(frame_dim=21, max_frames=3, layers=2, width=8, heads=2)
    digest = hashlib.sha256()
    for name, arr in mdl.init_params(cfg, seed=5).arrays.items():
        digest.update(name.encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == (
        "5abd9b1bdc78d93282868ddc42c3075950fbf37014b44e5b54ff14a040bd1ca7")


def test_load_params_draws_no_random_numbers(tmp_path, monkeypatch):
    skel = chain_skeleton(2)
    params = mdl.init_params(tiny_config(skel, layers=2), seed=12)
    path = tmp_path / "model.json"
    mdl.save_params(str(path), params)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_params created a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = mdl.load_params(str(path))
    assert loaded.arrays.keys() == params.arrays.keys()
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


@pytest.mark.parametrize("sigma_min", ["abc", None, True, 2.0, 1.0, -0.1, float("nan")])
def test_params_file_rejects_bad_sigma_min(tmp_path, sigma_min):
    doc = _saved_doc(tmp_path)
    doc["config"]["sigma_min"] = sigma_min
    with pytest.raises(InvalidConfig, match="sigma_min"):
        mdl.load_params(_write_doc(tmp_path / "sigma.json", doc))


@pytest.mark.parametrize("sigma_min", [0, 0.0, 1e-4, 0.5])
def test_params_file_accepts_sigma_min_in_range(tmp_path, sigma_min):
    doc = _saved_doc(tmp_path)
    doc["config"]["sigma_min"] = sigma_min
    loaded = mdl.load_params(_write_doc(tmp_path / "sigma.json", doc))
    assert loaded.config.sigma_min == sigma_min


@pytest.mark.parametrize("value", ["0.5", None, "abc"])
def test_params_file_rejects_non_numeric_array_data(tmp_path, value):
    # numpy would coerce "0.5" to a float; a model file holds numbers only
    doc = _saved_doc(tmp_path)
    doc["arrays"]["l0_qkv_w"]["data"][3] = value
    with pytest.raises(InvalidConfig, match="l0_qkv_w"):
        mdl.load_params(_write_doc(tmp_path / "typed.json", doc))


@pytest.mark.parametrize("value", [True, False])
def test_params_file_rejects_a_boolean_among_numbers(tmp_path, value):
    # numpy read a JSON true among the weights as 1.0
    doc = _saved_doc(tmp_path)
    doc["arrays"]["l0_qkv_w"]["data"][3] = value
    with pytest.raises(InvalidConfig, match="l0_qkv_w.*boolean"):
        mdl.load_params(_write_doc(tmp_path / "bool.json", doc))


@pytest.mark.parametrize("version", [3.0, "3"])
def test_params_file_rejects_a_version_that_is_not_the_integer_3(tmp_path, version):
    # a float version used to pass the version check (3.0 == 3)
    doc = _saved_doc(tmp_path)
    doc["version"] = version
    with pytest.raises(InvalidConfig, match="not a arflow-predictor v3 file"):
        mdl.load_params(_write_doc(tmp_path / "version.json", doc))


def test_params_file_with_a_huge_frame_dim_is_refused(tmp_path):
    # np.sqrt of a 10^29 fan-in raised TypeError: a traceback and exit 1
    doc = _saved_doc(tmp_path)
    doc["config"]["frame_dim"] = 10 ** 29
    with pytest.raises(InvalidConfig, match="in_proj_w"):
        mdl.load_params(_write_doc(tmp_path / "huge.json", doc))


def test_params_file_rejects_nested_data(tmp_path):
    # data is one flat list; nested rows of the right shape used to load
    doc = _saved_doc(tmp_path)
    rec = doc["arrays"]["in_proj_w"]
    rec["data"] = np.reshape(rec["data"], rec["shape"]).tolist()
    with pytest.raises(InvalidConfig, match="in_proj_w.*flat"):
        mdl.load_params(_write_doc(tmp_path / "nested.json", doc))


@pytest.mark.parametrize("data", [0.5, {"a": 1.0}, "1.0", None, True],
                         ids=["number", "object", "string", "null", "bool"])
def test_params_file_rejects_data_that_is_not_a_list(tmp_path, data):
    doc = _saved_doc(tmp_path)
    doc["arrays"]["final_ln_b"]["data"] = data
    with pytest.raises(InvalidConfig, match="final_ln_b"):
        mdl.load_params(_write_doc(tmp_path / "data.json", doc))


@pytest.mark.parametrize("shape", [[2, 4], [8, True], [8.0], [-1], "8", None],
                         ids=["2x4", "bool", "float", "minus-one", "string", "null"])
def test_params_file_rejects_a_shape_that_is_not_its_list_of_integers(tmp_path, shape):
    doc = _saved_doc(tmp_path)  # l0_ln1_g is (8,)
    doc["arrays"]["l0_ln1_g"]["shape"] = shape
    with pytest.raises(InvalidConfig, match="l0_ln1_g"):
        mdl.load_params(_write_doc(tmp_path / "shape.json", doc))


def _nan_weight(arrays):
    arrays["l0_qkv_w"][0, 3] = np.nan


@pytest.mark.parametrize("defect", [
    pytest.param(_nan_weight, id="nan-weight"),
    pytest.param(lambda arrays: arrays.update(out_proj_b=np.zeros(1)), id="wrong-shape"),
    pytest.param(lambda arrays: arrays.pop("final_ln_g"), id="missing-array"),
    pytest.param(lambda arrays: arrays.update(extra=np.zeros(2)), id="unknown-array"),
    pytest.param(lambda arrays: arrays.update(out_proj_b=np.array(["0"] * 6)), id="strings"),
])
def test_save_params_refuses_what_load_params_refuses(tmp_path, defect):
    # a NaN weight used to be written as a bare NaN token, a wrong shape as
    # written; load_params refuses both.  An existing file stays as it was
    skel = chain_skeleton(2)
    params = mdl.init_params(tiny_config(skel), seed=12)
    defect(params.arrays)
    path = tmp_path / "model.json"
    path.write_text("old")
    with pytest.raises(InvalidConfig, match="array"):
        mdl.save_params(str(path), params)
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_predict_batch_matches_single_calls():
    # one forward over the batch, the scalar t embedded once for all of it;
    # each sample's output is bit-equal to its own batch-of-one call
    rng = np.random.default_rng(13)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, h=4, width=16)
    params = mdl.init_params(cfg, seed=5)
    params.arrays["out_proj_w"] = rng.normal(size=params.arrays["out_proj_w"].shape)
    x = rng.normal(size=(5, 4, cfg.frame_dim))
    out = mdl.predict(params, x, 0.3)
    for i in range(5):
        assert np.array_equal(out[i], mdl.predict(params, x[i:i + 1], 0.3)[0])
    assert not np.array_equal(out[0], out[1])


@pytest.mark.parametrize("causal", [True, False])
def test_fused_forward_is_bit_equal_to_the_composed_ops(causal, monkeypatch):
    # predict with the fused tape nodes gives the same bits as the same
    # forward built from the composed oracle blocks, for initial parameters
    # and for parameters moved by a few Adam steps
    rng = np.random.default_rng(21)
    skel = chain_skeleton(2)
    cfg = tiny_config(skel, h=5, width=16, layers=2, heads=2, causal=causal)
    trained, _ = mdl.train(*tiny_batch(rng, skel, n=6, h=5), skel, cfg,
                           mdl.TrainConfig(steps=4, batch_size=3, learning_rate=0.05,
                                           seed=2))
    x = rng.normal(size=(4, 5, cfg.frame_dim))
    sets = [mdl.init_params(cfg, seed=8), trained]
    fused = [mdl.predict(p, x, 0.6) for p in sets]

    def composed(fn):
        return lambda *args: ad.constant(fn(*(a.data if isinstance(a, ad.Tensor) else a
                                              for a in args)))

    for name in ("linear", "layer_norm", "attention", "gelu"):
        monkeypatch.setattr(ad, name, composed(getattr(oracles, name)))
    for p, pred in zip(sets, fused):
        assert np.array_equal(pred, mdl.predict(p, x, 0.6))
