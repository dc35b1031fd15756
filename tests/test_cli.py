import dataclasses
import hashlib
import json

import numpy as np
import pytest

from arflow import cli
from arflow import data as dt
from arflow import flowpath as fp
from arflow import geometry as geo
from arflow import metrics as mx
from arflow import model as mdl
from arflow import sampler as smp
from arflow import selfcheck


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.jsonl"
    assert run("gen-data", "--pairs", "60", "--frames", "8", "--seed", "3",
               "--contact-fraction", "0.5", "--out", str(path)) == 0
    return path


@pytest.fixture(scope="module")
def small_model(small_data, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-model") / "model.json"
    assert run("train", "--data", str(small_data), "--out", str(path),
               "--steps", "150", "--batch", "8", "--width", "32", "--layers", "1",
               "--seed", "5") == 0
    return path


# ---------------------------------------------------------------------------
# parser defaults
# ---------------------------------------------------------------------------

def _field_default(cls, name):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


_REQUIRED = {"gen-data": ["--out", "o"], "train": ["--data", "d", "--out", "o"],
             "sample": ["--model", "m", "--data", "d", "--out", "o"],
             "eval": ["--inputs", "i"]}


@pytest.mark.parametrize("command, dest, expected", [
    ("gen-data", "noise", _field_default(dt.ScenarioConfig, "noise")),
    ("gen-data", "contact_fraction", _field_default(dt.ScenarioConfig, "contact_fraction")),
    ("train", "lr", _field_default(mdl.TrainConfig, "learning_rate")),
    ("train", "lambda_inter", _field_default(mdl.TrainConfig, "lambda_inter")),
    ("train", "sigma_min", _field_default(mdl.TrainConfig, "sigma_min")),
    ("train", "t_grid", _field_default(mdl.TrainConfig, "t_grid")),
    ("train", "cond_dropout", _field_default(mdl.TrainConfig, "cond_dropout_prob")),
    ("train", "seed", _field_default(mdl.TrainConfig, "seed")),
    ("train", "layers", _field_default(mdl.PredictorConfig, "layers")),
    ("train", "width", _field_default(mdl.PredictorConfig, "width")),
    ("train", "heads", _field_default(mdl.PredictorConfig, "heads")),
    ("train", "prediction", _field_default(mdl.PredictorConfig, "prediction_mode")),
    ("train", "causal", _field_default(mdl.PredictorConfig, "causal")),
    ("sample", "guidance", _field_default(smp.SamplerConfig, "guidance")),
    ("sample", "steps", _field_default(smp.SamplerConfig, "steps")),
    ("sample", "lambda_pene", _field_default(smp.SamplerConfig, "lambda_pene")),
    ("sample", "zeta", _field_default(smp.SamplerConfig, "zeta")),
    ("sample", "w", _field_default(smp.SamplerConfig, "w")),
    ("sample", "beta", _field_default(smp.SamplerConfig, "beta")),
    ("sample", "mode", _field_default(smp.SamplerConfig, "mode")),
    ("sample", "seed", _field_default(smp.SamplerConfig, "seed")),
    ("eval", "proj_dim", _field_default(mx.FeatureExtractor, "out_dim")),
    ("eval", "feature_seed", _field_default(mx.FeatureExtractor, "seed")),
    ("eval", "voxel", geo.DEFAULT_VOXEL_SIZE),
])
def test_parser_defaults_equal_config_defaults(command, dest, expected):
    # a CLI default that equals a config value is read from that config
    args = cli.build_parser().parse_args([command] + _REQUIRED[command])
    assert getattr(args, dest) == expected


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_record_count_and_checksum(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run("gen-data", "--pairs", "12", "--frames", "6", "--seed", "9",
               "--out", str(a)) == 0
    assert run("gen-data", "--pairs", "12", "--frames", "6", "--seed", "9",
               "--out", str(b)) == 0
    assert len(a.read_text().splitlines()) == 12
    assert sha(a) == sha(b)
    manifest = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert str(a) in manifest["outputs"]


@pytest.mark.parametrize("argv", [
    ["gen-data", "--pairs", "3", "--seed", "-1", "--out", "{out}"],
    ["train", "--data", "{data}", "--steps", "1", "--seed", "-1", "--out", "{out}"],
    ["sample", "--model", "{model}", "--data", "{data}", "--limit", "1", "--seed", "-1",
     "--out", "{out}"],
    ["sample", "--model", "{model}", "--data", "{data}", "--limit", "1", "--beta", "0.3",
     "--seed", "-1", "--out", "{out}"],
    ["eval", "--inputs", "{data}", "--metrics", "div", "--sd", "5", "--metric-seed", "-1",
     "--out", "{out}"],
    ["eval", "--inputs", "{data}", "--metrics", "div", "--sd", "5", "--features", "proj",
     "--feature-seed", "-1", "--out", "{out}"],
    ["verify", "--seed", "-1"],
], ids=["gen-data", "train", "sample", "sample-beta", "eval-metric", "eval-feature",
        "verify"])
def test_negative_seed_exits_2(argv, small_data, small_model, tmp_path, capsys):
    out = tmp_path / "out"
    paths = {"data": small_data, "model": small_model, "out": out}
    assert run(*(a.format(**paths) for a in argv)) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_zero_pairs_exits_2(tmp_path):
    assert run("gen-data", "--pairs", "0",
               "--out", str(tmp_path / "x.jsonl")) == 2


@pytest.mark.parametrize("flag", ["--noise=nan", "--noise=inf", "--fps=nan", "--fps=-1"])
def test_gen_data_bad_value_exits_2(flag, tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert run("gen-data", "--pairs", "3", "--frames", "4", flag, "--out", str(out)) == 2
    assert flag[2:flag.index("=")] in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_is_an_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("gen-data", "--pairs", "2", "--out", str(tmp_path / "x.jsonl"),
            "--frobnicate")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_smoke_and_loss_csv(small_data, tmp_path):
    out = tmp_path / "m.json"
    assert run("train", "--data", str(small_data), "--out", str(out),
               "--steps", "40", "--batch", "4", "--width", "16", "--layers", "1",
               "--seed", "1") == 0
    rows = (tmp_path / "m.json.loss.csv").read_text().splitlines()
    assert len(rows) == 40
    assert all(len(r.split(",")) == 4 for r in rows)


def test_train_lambda_inter_changes_losses(small_data, tmp_path):
    outs = []
    for lam in ("0", "1"):
        out = tmp_path / f"m{lam}.json"
        assert run("train", "--data", str(small_data), "--out", str(out),
                   "--steps", "25", "--batch", "4", "--width", "16",
                   "--layers", "1", "--lambda-inter", lam, "--seed", "2") == 0
        last = (tmp_path / f"m{lam}.json.loss.csv").read_text().splitlines()[-1]
        outs.append(float(last.split(",")[3]))
    assert outs[0] != outs[1]


def test_train_seed_reproducible_checksum(small_data, tmp_path):
    sums = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert run("train", "--data", str(small_data), "--out", str(out),
                   "--steps", "30", "--batch", "4", "--width", "16",
                   "--layers", "1", "--seed", "7") == 0
        sums.append(sha(out))
    assert sums[0] == sums[1]


@pytest.mark.parametrize("flag", ["--sigma-min=-3", "--lr=-1", "--lr=nan",
                                  "--lambda-inter=-1", "--log-every=-1"])
def test_train_bad_value_exits_2(flag, small_data, tmp_path):
    out = tmp_path / "m.json"
    assert run("train", "--data", str(small_data), "--out", str(out), "--steps", "2",
               flag) == 2
    assert not out.exists()


def test_train_missing_data_exits_2(tmp_path):
    assert run("train", "--data", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "m.json"), "--steps", "1") == 2


def test_train_mixed_frame_counts_exits_2(tmp_path, capsys):
    long_data, short_data = tmp_path / "long.jsonl", tmp_path / "short.jsonl"
    assert run("gen-data", "--pairs", "30", "--frames", "16", "--seed", "1",
               "--out", str(long_data)) == 0
    assert run("gen-data", "--pairs", "9", "--frames", "6", "--seed", "2",
               "--out", str(short_data)) == 0
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(long_data.read_text() + short_data.read_text())
    out = tmp_path / "m.json"
    assert run("train", "--data", str(mixed), "--out", str(out),
               "--steps", "3") == 2
    assert "[6, 16]" in capsys.readouterr().err
    assert not out.exists()


def _label_x(line):
    rec = json.loads(line)
    rec["label"] = "x"
    return json.dumps(rec)


@pytest.mark.parametrize("damage", [lambda line: "[1, 2]", _label_x],
                         ids=["not-an-object", "label-not-int"])
@pytest.mark.parametrize("command,code", [("eval", 2), ("train", 2), ("sample", 4)])
def test_malformed_record_exits_with_schema_code(damage, command, code, small_data,
                                                 small_model, tmp_path, capsys):
    lines = small_data.read_text().splitlines()
    lines[2] = damage(lines[2])
    data = tmp_path / "malformed.jsonl"
    data.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    # sample reads only its split: line 3 is in the train split, not in "test"
    argv = {"eval": ["eval", "--inputs", str(data)],
            "train": ["train", "--data", str(data), "--out", out, "--steps", "1"],
            "sample": ["sample", "--model", str(small_model), "--data", str(data),
                       "--out", out, "--split", "all"]}[command]
    assert run(*argv) == code
    assert "line 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_empty_selection_exits_4(small_model, tmp_path, capsys):
    # three records: the 90/10 cut leaves the test split empty
    data = tmp_path / "three.jsonl"
    assert run("gen-data", "--pairs", "3", "--frames", "8", "--seed", "3",
               "--out", str(data)) == 0
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(small_model), "--data", str(data),
               "--out", str(out), "--split", "test") == 4
    assert "no samples to drive sampling" in capsys.readouterr().err
    assert not out.exists()


def _damaged_copy(small_data, tmp_path, index):
    """small_data behind a blank first line, with record ``index`` not JSON."""
    lines = small_data.read_text().splitlines()
    lines[index] = "{not json"
    path = tmp_path / "damaged.jsonl"
    path.write_text("\n" + "\n".join(lines) + "\n")
    return path


def test_sample_ignores_damage_outside_its_selection(small_model, small_data,
                                                     tmp_path):
    outs = []
    for data in (small_data, _damaged_copy(small_data, tmp_path, 2)):
        outs.append(tmp_path / f"s{len(outs)}.jsonl")
        assert run("sample", "--model", str(small_model), "--data", str(data),
                   "--out", str(outs[-1]), "--guidance", "improved") == 0
    assert sha(outs[0]) == sha(outs[1])


def test_sample_damage_inside_its_selection_exits_4(small_model, small_data,
                                                    tmp_path, capsys):
    # record 57 of 60 is in the test split; the blank first line makes it line 58
    data = _damaged_copy(small_data, tmp_path, 56)
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(small_model), "--data", str(data),
               "--out", str(out)) == 4
    assert "line 58" in capsys.readouterr().err
    assert not out.exists()


def test_sample_negative_limit_exits_2(small_model, small_data, tmp_path):
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(small_model), "--data", str(small_data),
               "--out", str(out), "--limit", "-1") == 2
    assert not out.exists()


def test_sample_guidance_reduction_parity(small_model, small_data, tmp_path):
    outa = tmp_path / "euler.jsonl"
    outb = tmp_path / "improved0.jsonl"
    assert run("sample", "--model", str(small_model), "--data", str(small_data),
               "--out", str(outa), "--guidance", "none", "--seed", "4") == 0
    assert run("sample", "--model", str(small_model), "--data", str(small_data),
               "--out", str(outb), "--guidance", "improved", "--lambda-pene", "0",
               "--w", "1.0", "--seed", "4") == 0
    a, _ = dt.load_samples(str(outa))
    b, _ = dt.load_samples(str(outb))
    worst = max(np.max(np.abs(x.reactor - y.reactor)) for x, y in zip(a, b))
    assert worst < 1e-12


def test_sample_checksum_reproducible(small_model, small_data, tmp_path):
    sums = []
    for name in ("s1.jsonl", "s2.jsonl"):
        out = tmp_path / name
        assert run("sample", "--model", str(small_model), "--data",
                   str(small_data), "--out", str(out), "--beta", "0.02",
                   "--seed", "11") == 0
        sums.append(sha(out))
    assert sums[0] == sums[1]


def test_sample_missing_model_exits_4(small_data, tmp_path):
    assert run("sample", "--model", str(tmp_path / "missing.json"),
               "--data", str(small_data), "--out", str(tmp_path / "s.jsonl")) == 4


def test_sample_too_many_frames_exits_4(small_model, tmp_path):
    # small_model was trained on 8-frame data, so max_frames is 8
    long_data = tmp_path / "long.jsonl"
    assert run("gen-data", "--pairs", "4", "--frames", "12", "--seed", "3",
               "--out", str(long_data)) == 0
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(small_model), "--data", str(long_data),
               "--out", str(out), "--split", "all") == 4
    assert not out.exists()


def test_sample_stochastic_vanilla_exits_2(small_model, small_data, tmp_path):
    assert run("sample", "--model", str(small_model), "--data", str(small_data),
               "--out", str(tmp_path / "s.jsonl"), "--guidance", "vanilla",
               "--beta", "0.5") == 2


@pytest.mark.parametrize("flags", [["--lambda-pene", "inf"], ["--zeta", "nan"],
                                   ["--sigma-min=-5"], ["--sigma-min", "1.5"],
                                   ["--mode", "v"]])
def test_sample_bad_sampler_value_exits_2(flags, small_model, small_data, tmp_path):
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(small_model), "--data", str(small_data),
               "--out", str(out), "--guidance", "improved", "--steps", "2", *flags) == 2
    assert not out.exists()


def test_sample_flag_defaults_are_the_sampler_config_defaults():
    args = cli.build_parser().parse_args(
        ["sample", "--model", "m", "--data", "d", "--out", "o"])
    defaults = smp.SamplerConfig()
    for field in ("steps", "lambda_pene", "zeta", "w", "beta", "mode", "guidance", "seed"):
        assert getattr(args, field) == getattr(defaults, field), field
    train = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o"])
    assert train.sigma_min == fp.SIGMA_MIN_DEFAULT == mdl.TrainConfig().sigma_min


def test_sample_mixed_frames_and_chunks_match_per_actor(small_model, tmp_path):
    # 70 six-frame actors (more than one chunk) interleaved with 12
    # eight-frame ones; output keeps file order and each reaction matches a
    # batch-of-one call with the actor's position as its stream index
    short, long_ = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
    assert run("gen-data", "--pairs", "70", "--frames", "6", "--seed", "4",
               "--contact-fraction", "1.0", "--out", str(short)) == 0
    assert run("gen-data", "--pairs", "12", "--frames", "8", "--seed", "5",
               "--contact-fraction", "1.0", "--out", str(long_)) == 0
    lines_s = short.read_text().splitlines()
    lines_l = long_.read_text().splitlines()
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join(lines_s[:30] + lines_l[:6] + lines_s[30:]
                               + lines_l[6:]) + "\n")
    assert len(lines_s) > cli.SAMPLE_CHUNK
    out = tmp_path / "s.jsonl"
    flags = ["--guidance", "improved", "--beta", "0.2", "--cond", "label",
             "--seed", "6"]
    assert run("sample", "--model", str(small_model), "--data", str(mixed),
               "--out", str(out), "--split", "all", *flags) == 0
    subset, skel = dt.load_samples(str(mixed))
    got, _ = dt.load_samples(str(out))
    assert len(got) == len(subset) == 82
    params = mdl.load_params(str(small_model))
    cfg = smp.SamplerConfig(steps=5, sigma_min=params.meta["sigma_min"],
                            guidance="improved", beta=0.2, seed=6)
    predictor = mdl.as_x1_predictor(params, cfg.sigma_min)
    for index, (s, g) in enumerate(zip(subset, got)):
        assert np.array_equal(s.actor, g.actor) and s.label == g.label
        ctx = smp.GuidanceContext.from_actor(skel, s.actor[None])
        ref = smp.sample(predictor, s.actor[None], cfg, [s.label], ctx,
                         sample_index=[index])
        assert np.max(np.abs(g.reactor - ref[0])) <= 1e-12


def _edited_model(small_model, tmp_path, name, edit):
    doc = json.loads(small_model.read_text())
    edit(doc["arrays"])
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sample_huge_weights_exit_6(small_model, small_data, tmp_path):
    # finite weights whose output overflows: no NaN file, exit 6
    def huge(arrays):
        arrays["out_proj_w"]["data"] = [1e308] * len(arrays["out_proj_w"]["data"])
    model = _edited_model(small_model, tmp_path, "huge.json", huge)
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out)) == 6
    assert not out.exists()


@pytest.mark.parametrize("defect", ["nan", "shape"])
def test_sample_invalid_model_exits_4(small_model, small_data, tmp_path, defect):
    def edit(arrays):
        if defect == "nan":
            arrays["l0_ff_w1"]["data"][0] = float("nan")
        else:
            arrays["out_proj_b"] = {"shape": [1], "data": [0.0]}
    model = _edited_model(small_model, tmp_path, f"{defect}.json", edit)
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out)) == 4
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("layers", 1.0), ("width", 32.0),
                                          ("heads", True), ("causal", "no")])
def test_sample_mistyped_model_config_exits_4(field, value, small_model, small_data,
                                              tmp_path):
    # a float or bool for an integer field, or a string for the causal flag
    doc = json.loads(small_model.read_text())
    doc["config"][field] = value
    model = tmp_path / "typed.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out)) == 4
    assert not out.exists()


@pytest.mark.parametrize("meta", [[], {"sigma_min": "abc"}, {"sigma_min": None},
                                  {"sigma_min": 2.0}],
                         ids=["list", "string", "null", "out-of-range"])
def test_sample_bad_model_meta_exits_4(meta, small_model, small_data, tmp_path, capsys):
    doc = json.loads(small_model.read_text())
    doc["meta"] = meta
    model = tmp_path / "meta.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out)) == 4
    assert "meta" in capsys.readouterr().err
    assert not out.exists()


def test_sample_string_array_data_exits_4(small_model, small_data, tmp_path):
    def stringify(arrays):
        arrays["out_proj_b"]["data"][0] = str(arrays["out_proj_b"]["data"][0])
    model = _edited_model(small_model, tmp_path, "strings.json", stringify)
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out)) == 4
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_ground_truth_penetration(small_data, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(small_data), "--metrics", "iv,if",
               "--voxel", "0.02", "--out", str(out)) == 0
    text = out.read_text()
    values = dict(line.split(": ") for line in text.splitlines())
    assert float(values["iv_cm3"]) > 0.0
    assert 0.0 < float(values["if_frac"]) < 1.0
    assert int(values["n_total"]) == 60


def test_eval_fid_self_near_zero(small_data, tmp_path):
    out = tmp_path / "fid.txt"
    assert run("eval", "--inputs", str(small_data), "--ref", str(small_data),
               "--metrics", "fid", "--features", "proj", "--out", str(out)) == 0
    values = dict(line.split(": ") for line in out.read_text().splitlines())
    assert float(values["fid"]) < 1e-6


def test_eval_div_multimod(small_data, tmp_path):
    out = tmp_path / "dm.txt"
    assert run("eval", "--inputs", str(small_data), "--metrics", "div,multimod",
               "--sd", "10", "--sl", "4", "--allow-replacement",
               "--out", str(out)) == 0
    values = dict(line.split(": ") for line in out.read_text().splitlines())
    assert float(values["diversity"]) > 0.0
    assert float(values["multimodality"]) > 0.0


@pytest.mark.parametrize("metric,flag", [("div", "--sd=0"), ("div", "--sd=-3"),
                                         ("multimod", "--sl=0")])
def test_eval_subset_size_below_one_exits_2(metric, flag, small_data, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(small_data), "--metrics", metric, flag,
               "--out", str(out)) == 2
    assert "subset size" in capsys.readouterr().err
    assert not out.exists()


def test_eval_latent_features_need_model_exits_2(small_data, capsys):
    assert run("eval", "--inputs", str(small_data), "--metrics", "div",
               "--features", "latent", "--sd", "10", "--allow-replacement") == 2
    assert "--feature-model" in capsys.readouterr().err


@pytest.mark.parametrize("features", ["flatten", "proj"])
def test_eval_flattened_features_on_mixed_frame_counts_exit_2(features, tmp_path, capsys):
    data = tmp_path / "mixed.jsonl"
    skel = dt.default_skeleton()
    dt.save_samples(str(data), dt.generate_mixed(4, frames=6, seed=1)
                    + dt.generate_mixed(4, frames=8, seed=2), skel)
    assert run("eval", "--inputs", str(data), "--metrics", "div", "--features",
               features, "--sd", "2", "--allow-replacement") == 2
    assert "[6, 8]" in capsys.readouterr().err


@pytest.mark.parametrize("contact", [1.0, 0.0], ids=["contact", "far-apart"])
@pytest.mark.parametrize("voxel", ["0", "-0.02", "nan", "inf"])
def test_eval_bad_voxel_size_exits_2(voxel, contact, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    dt.save_samples(str(data), dt.generate_mixed(4, frames=4, contact_fraction=contact,
                                                 seed=2), dt.default_skeleton())
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(data), "--metrics", "iv,if",
               f"--voxel={voxel}", "--out", str(out)) == 2
    assert "voxel_size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("voxel", ["nan", "0"])
def test_eval_bad_voxel_size_without_iv_exits_2(voxel, small_data, tmp_path, capsys):
    # no voxel sweep runs, but every report records the voxel size
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(small_data), "--metrics", "div", "--sd", "10",
               f"--voxel={voxel}", "--out", str(out)) == 2
    assert "voxel_size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("metrics", [",", "", " , "])
def test_eval_empty_metric_list_exits_2(metrics, small_data, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(small_data), f"--metrics={metrics}",
               "--out", str(out)) == 2
    assert "no metric" in capsys.readouterr().err
    assert not out.exists()


def test_eval_huge_rotation_block_exits_2(tmp_path, capsys):
    # the block used to decode to a zero matrix: exit 0 with a made-up IV
    skel = dt.default_skeleton()
    samples = dt.generate_mixed(12, frames=4, contact_fraction=1.0, seed=2)
    samples[3].reactor[1, 6:12] = [1e200, 0, 0, 0, 1e200, 0]
    data = tmp_path / "huge.jsonl"
    dt.save_samples(str(data), samples, skel)
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(data), "--metrics", "iv,if",
               "--out", str(out)) == 2
    assert "too long" in capsys.readouterr().err
    assert not out.exists()


def test_eval_empty_input_exits_5(tmp_path):
    empty = tmp_path / "empty.jsonl"
    dt.save_samples(str(empty), [], dt.default_skeleton())
    assert run("eval", "--inputs", str(empty)) == 5


def test_guided_iv_not_worse_than_unguided(small_model, small_data, tmp_path):
    results = {}
    for guidance in ("none", "improved"):
        out = tmp_path / f"g_{guidance}.jsonl"
        assert run("sample", "--model", str(small_model), "--data",
                   str(small_data), "--out", str(out), "--guidance", guidance,
                   "--split", "all", "--limit", "20", "--seed", "3") == 0
        report = tmp_path / f"g_{guidance}.txt"
        assert run("eval", "--inputs", str(out), "--metrics", "iv",
                   "--out", str(report)) == 0
        values = dict(line.split(": ")
                      for line in report.read_text().splitlines())
        results[guidance] = float(values["iv_cm3"])
    assert results["improved"] <= results["none"]


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifests_record_phase_seconds(small_model, small_data, tmp_path):
    data = tmp_path / "data.jsonl"
    model = tmp_path / "model.json"
    sampled = tmp_path / "sampled.jsonl"
    report = tmp_path / "report.txt"
    assert run("gen-data", "--pairs", "12", "--frames", "4", "--seed", "1",
               "--out", str(data)) == 0
    assert run("train", "--data", str(data), "--out", str(model), "--steps", "2",
               "--batch", "4", "--width", "16", "--layers", "1") == 0
    assert run("sample", "--model", str(small_model), "--data", str(small_data),
               "--out", str(sampled), "--limit", "2") == 0
    assert run("eval", "--inputs", str(sampled), "--out", str(report)) == 0
    for path, command in ((data, "gen-data"), (model, "train"),
                          (sampled, "sample"), (report, "eval")):
        manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["wall_clock_s"] >= 0.0
        assert set(manifest["phase_s"]) == {"load", "compute", "write"}
        assert all(v >= 0.0 for v in manifest["phase_s"].values())
        assert sum(manifest["phase_s"].values()) <= manifest["wall_clock_s"] + 0.01


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_fresh_checkout(capsys):
    import time
    started = time.time()
    assert run("verify") == 0
    assert time.time() - started < 60.0
    out = capsys.readouterr().out
    assert "all 15 properties passed" in out


def test_verify_catches_corrupted_duality(monkeypatch, capsys):
    # mutation harness: break x1_from_v and confirm the suite names the
    # duality property
    real = fp.x1_from_v
    monkeypatch.setattr(fp, "x1_from_v",
                        lambda v, x_t, t, s: real(v, x_t, t, s) + 1e-6)
    results = selfcheck.run_all(seed=0)
    by_name = {r.name: r.ok for r in results}
    assert by_name["x1-v-duality"] is False
    assert run("verify") == 1
    assert "x1-v-duality" in capsys.readouterr().out
