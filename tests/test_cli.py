import argparse
import dataclasses
import hashlib
import json
import pathlib
import platform
import re

import numpy as np
import pytest

from arflow import cli
from arflow import data as dt
from arflow import flowpath as fp
from arflow import geometry as geo
from arflow import metrics as mx
from arflow import model as mdl
from arflow import sampler as smp


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return cli.main(list(argv))


def exit_code(*argv):
    """The status ``arflow`` exits with: ``main``'s return, or the parser's exit."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


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
    ("gen-data", "contact_fraction", _field_default(dt.ScenarioConfig, "contact_fraction")),
    ("train", "steps", _field_default(mdl.TrainConfig, "steps")),
    ("train", "batch", _field_default(mdl.TrainConfig, "batch_size")),
    ("train", "lr", _field_default(mdl.TrainConfig, "learning_rate")),
    ("train", "lambda_inter", _field_default(mdl.TrainConfig, "lambda_inter")),
    ("train", "sigma_min", _field_default(mdl.PredictorConfig, "sigma_min")),
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
    ("sample", "seed", _field_default(smp.SamplerConfig, "seed")),
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
], ids=["gen-data", "train", "sample", "sample-beta", "eval-metric"])
def test_negative_seed_exits_2(argv, small_data, small_model, tmp_path, capsys):
    out = tmp_path / "out"
    paths = {"data": small_data, "model": small_model, "out": out}
    assert run(*(a.format(**paths) for a in argv)) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_zero_pairs_exits_2(tmp_path):
    assert run("gen-data", "--pairs", "0",
               "--out", str(tmp_path / "x.jsonl")) == 2


@pytest.mark.parametrize("flag", ["--noise=nan", "--noise=inf", "--fps=nan", "--fps=-1",
                                  f"--pairs={10 ** 29}", f"--frames={10 ** 29}",
                                  f"--joints={10 ** 29}", f"--pairs={dt.MAX_PAIRS + 1}",
                                  f"--frames={dt.MAX_FRAMES + 1}",
                                  f"--joints={dt.MAX_JOINTS + 1}"])
def test_gen_data_bad_value_exits_2(flag, tmp_path, capsys):
    # sizes above their limits used to fail inside numpy: a traceback and exit 1;
    # --noise and --fps are deleted options, which the parser refuses
    out = tmp_path / "x.jsonl"
    assert exit_code("gen-data", "--pairs", "3", "--frames", "4", flag,
                     "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert flag[2:flag.index("=")] in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fps", ["0", "-1", "nan", "inf", "1e309"])
def test_gen_data_bad_fps_exits_2_before_generating(fps, tmp_path, monkeypatch, capsys):
    # --fps is deleted: every file records DEFAULT_FPS, and the parser refuses
    # the option before anything is generated
    def generate_mixed(*args, **kwargs):
        raise AssertionError("generated before the fps check")
    monkeypatch.setattr(dt, "generate_mixed", generate_mixed)
    assert exit_code("gen-data", "--pairs", "200000", f"--fps={fps}",
                     "--out", str(tmp_path / "x.jsonl")) == 2
    assert "fps" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _subparsers():
    """The subcommand parsers of ``cli.build_parser()``, by name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_unknown_flag_is_an_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("gen-data", "--pairs", "2", "--out", str(tmp_path / "x.jsonl"),
            "--frobnicate")
    assert exc.value.code == 2


def test_readme_command_line_flags_are_parser_options():
    # the README's "Command line" section names exactly the options of the
    # subcommands, and its command block names every subcommand once, so a
    # removed flag or command cannot stay in the docs, nor a new one be left out
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    options = {opt for p in _subparsers().values() for a in p._actions
               for opt in a.option_strings}
    assert {"--no-causal", "--voxel"} <= flags
    assert sorted(flags - options) == []
    assert sorted(options - flags - {"-h", "--help"}) == []
    assert sorted(re.findall(r"^arflow ([\w-]+)", section, re.M)) == sorted(_subparsers())


def test_verify_is_rejected_by_the_parser(capsys):
    # the algebra, reduction, gradient and causality checks live in tests/
    with pytest.raises(SystemExit) as exc:
        run("verify")
    assert exc.value.code == 2
    assert "verify" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["sample", "--model", "m", "--mode", "v"],
                                  ["train", "--t-grid", "10"],
                                  ["train", "--cond-dropout", "0.1"],
                                  ["train", "--unconditioned"],
                                  ["sample", "--model", "m", "--cond", "label"],
                                  ["gen-data", "--scenario", "all"],
                                  ["gen-data", "--noise", "0.02"],
                                  ["gen-data", "--fps", "20"]],
                         ids=["sample-mode", "train-t-grid", "train-cond-dropout",
                              "train-unconditioned", "sample-cond", "gen-data-scenario",
                              "gen-data-noise", "gen-data-fps"])
def test_removed_options_are_rejected_by_the_parser(argv, tmp_path, capsys):
    # sampling has one step form (the velocity form is the test oracle
    # tests/oracles.py:velocity_walk), training one grid of flow times, the
    # predictor sees no scenario label: the actor is the path's source, and
    # gen-data deals every scenario at one noise level and frame rate
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--data", str(tmp_path / "d.jsonl"), "--out", str(out))
    assert exc.value.code == 2
    flag = next(a for a in reversed(argv) if a.startswith("--"))
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# every numeric option
# ---------------------------------------------------------------------------

def _numeric_options():
    """(command, option, type) of every int or float option of the parser."""
    return [(command, a.option_strings[0], a.type) for command, p in _subparsers().items()
            for a in p._actions if a.type in (int, float)]


_HUGE = str(10 ** 29)
# the out-of-range values of each numeric option; a float option also gets
# nan, inf and -inf.  Work-size options (--pairs, --frames, --joints, --steps,
# --batch, --limit) get only values that are refused before any work starts.
_REFUSED = {
    ("gen-data", "--pairs"): ["0", "-1", str(dt.MAX_PAIRS + 1), _HUGE],
    ("gen-data", "--frames"): ["1", "-1", str(dt.MAX_FRAMES + 1), _HUGE],
    ("gen-data", "--joints"): ["2", "-1", str(dt.MAX_JOINTS + 1), _HUGE],
    ("gen-data", "--contact-fraction"): ["-0.1", "1.5", "1e308"],
    ("gen-data", "--seed"): ["-1"],
    ("train", "--steps"): ["0", "-1", str(mdl.MAX_STEPS + 1), _HUGE],
    ("train", "--batch"): ["0", "-1", str(mdl.MAX_BATCH + 1), _HUGE],
    ("train", "--lr"): ["0", "-0", "-1"],
    ("train", "--lambda-inter"): ["-1"],
    ("train", "--sigma-min"): ["-1", "1", "1e308"],
    ("train", "--layers"): ["0", "-1", str(mdl.MAX_LAYERS + 1), _HUGE],
    ("train", "--width"): ["0", "3", str(mdl.MAX_WIDTH + 2), _HUGE],
    ("train", "--heads"): ["0", "-1", "3", "64", _HUGE],  # --width 32
    ("train", "--log-every"): ["-1"],
    ("train", "--seed"): ["-1"],
    ("sample", "--limit"): ["-1"],
    ("sample", "--steps"): ["1", "-1", str(smp.MAX_STEPS + 1), _HUGE],
    ("sample", "--lambda-pene"): ["-1"],
    ("sample", "--zeta"): ["0", "-0", "-1"],
    ("sample", "--w"): ["-0.1", "1.5", "1e308"],
    ("sample", "--beta"): ["-0.1", "1.5", "1e308"],
    ("sample", "--seed"): ["-1"],
    ("eval", "--voxel"): ["0", "-0", "-1", "1e103", "1e308"],
    ("eval", "--sd"): ["0", "-1", str(mx.MAX_SUBSET + 1), _HUGE],
    ("eval", "--sl"): ["0", "-1", str(mx.MAX_SUBSET + 1), _HUGE],
    ("eval", "--metric-seed"): ["-1"],
}
# deleted options and the values each once refused: the parser now refuses
# the option itself
_DELETED = {
    ("gen-data", "--noise"): ["nan", "inf", "-inf", "-1", "101.0", "1e308"],
    ("gen-data", "--fps"): ["nan", "inf", "-inf", "0", "-1"],
    ("eval", "--features"): ["latent", "pca", ""],
    ("eval", "--proj-dim"): ["0", "-1", "10001", _HUGE],
    ("eval", "--feature-seed"): ["-1"],
}
# extreme values that are legal, so they are left out of the refused cases
_LEGAL = {
    ("gen-data", "--seed", _HUGE): "numpy seeds take any integer >= 0",
    ("train", "--steps", str(mdl.MAX_STEPS)): "the limit itself: hours of training",
    ("train", "--lr", "1e29"): "finite: trains to a finite but absurd model",
    ("train", "--lr", "1e308"): "finite: the update overflows and train exits 3",
    ("train", "--lambda-inter", "1e308"): "finite: the loss overflows and train exits 3",
    ("train", "--log-every", _HUGE): "logs never",
    ("train", "--seed", _HUGE): "numpy seeds take any integer >= 0",
    ("sample", "--limit", _HUGE): "more than there are: samples every actor",
    ("sample", "--lambda-pene", "1e308"): "a finite guidance weight; its overflow exits 6",
    ("sample", "--zeta", "1e308"): "finite reach: every joint is within it",
    ("sample", "--seed", _HUGE): "numpy seeds take any integer >= 0",
    ("eval", "--metric-seed", _HUGE): "numpy seeds take any integer >= 0",
}
_BASE = {"gen-data": ["--pairs", "3", "--frames", "4"],
         "train": ["--data", "{data}", "--steps", "2", "--batch", "4", "--width", "32",
                   "--layers", "1"],
         "sample": ["--model", "{model}", "--data", "{data}", "--limit", "2"],
         "eval": ["--inputs", "{data}", "--metrics", "iv,div", "--sd", "2",
                  "--allow-replacement"]}


def test_every_numeric_option_has_refused_values():
    # a new int or float option must name its out-of-range values here
    options = [(command, option) for command, option, _ in _numeric_options()]
    assert sorted(options) == sorted(_REFUSED)
    assert {key[:2] for key in _LEGAL} <= set(_REFUSED)
    assert not {key for key in _LEGAL if key[2] in _REFUSED[key[:2]]}
    assert not set(_DELETED) & set(options)


@pytest.mark.parametrize("command, option, value", [
    (command, option, value) for command, option, kind in _numeric_options()
    for value in (["nan", "inf", "-inf"] if kind is float else [])
    + _REFUSED.get((command, option), [])] + [
    (command, option, value) for (command, option), values in _DELETED.items()
    for value in values])
def test_numeric_option_out_of_range_exits_2(command, option, value, small_data,
                                             small_model, tmp_path, capsys):
    out = tmp_path / "out"
    base = [a.format(data=small_data, model=small_model) for a in _BASE[command]]
    assert exit_code(command, *base, f"{option}={value}", "--out", str(out)) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
                                  "--lambda-inter=-1", "--log-every=-1",
                                  f"--batch={10 ** 29}", f"--layers={10 ** 29}",
                                  f"--width={10 ** 29}", f"--heads={10 ** 29}",
                                  f"--batch={mdl.MAX_BATCH + 1}",
                                  f"--layers={mdl.MAX_LAYERS + 1}",
                                  f"--width={mdl.MAX_WIDTH + 2}", "--heads=128"])
def test_train_bad_value_exits_2(flag, small_data, tmp_path, capsys):
    # sizes above their limits used to fail in numpy: a traceback and exit 1
    out = tmp_path / "m.json"
    assert run("train", "--data", str(small_data), "--out", str(out), "--steps", "2",
               flag) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", [mdl.MAX_STEPS + 1, 10 ** 29])
def test_train_steps_above_the_limit_exit_2_before_the_data_is_read(steps, tmp_path,
                                                                    capsys):
    # 10^29 steps used to run until stopped
    assert run("train", "--data", str(tmp_path / "missing.jsonl"),
               "--out", str(tmp_path / "m.json"), "--steps", str(steps)) == 2
    err = capsys.readouterr().err
    assert f"steps must be in [1, {mdl.MAX_STEPS}]" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, value, message", [
    ("--layers", "0", "layers must be in [1, "), ("--width", "3", "divisible by heads"),
    ("--heads", "3", "divisible by heads"), ("--sigma-min", "1", "sigma_min must be"),
    ("--log-every", "-1", "--log-every must be >= 0")],
    ids=["layers", "width", "heads", "sigma-min", "log-every"])
def test_train_options_exit_2_before_the_data_is_read(option, value, message, tmp_path,
                                                      capsys):
    # the data file gives the predictor's frame_dim and max_frames; no
    # option check waits for it
    assert run("train", "--data", str(tmp_path / "missing.jsonl"),
               "--out", str(tmp_path / "m.json"), f"{option}={value}") == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and "missing.jsonl" not in err
    assert list(tmp_path.iterdir()) == []


def test_train_missing_data_exits_2(tmp_path):
    assert run("train", "--data", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "m.json"), "--steps", "1") == 2


def test_train_file_without_records_exits_2(tmp_path, capsys):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "m.json"
    empty.write_text("")
    assert run("train", "--data", str(empty), "--out", str(out), "--steps", "1") == 2
    assert "no samples in" in capsys.readouterr().err
    assert not out.exists()


def test_train_log_every_prints_one_line_per_interval(small_data, tmp_path, capsys):
    assert run("train", "--data", str(small_data), "--out", str(tmp_path / "m.json"),
               "--steps", "4", "--batch", "4", "--width", "16", "--layers", "1",
               "--log-every", "2") == 0
    logged = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("step ")]
    assert [line.split()[1] for line in logged] == ["2/4", "4/4"]


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


@pytest.mark.parametrize("damage", [lambda line: "[1, 2]", _label_x,
                                    lambda line: "[" * 100_000],
                         ids=["not-an-object", "label-not-int", "too-deep"])
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


def _huge_data_value(small_data, tmp_path, edit):
    lines = small_data.read_text().splitlines()
    rec = json.loads(lines[2])
    edit(rec)
    lines[2] = json.dumps(rec)
    path = tmp_path / "huge-value.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _huge_model_value(small_model, tmp_path, edit):
    doc = json.loads(small_model.read_text())
    edit(doc)
    path = tmp_path / "huge-value.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("case, code", [("config-layers", 4), ("array-name", 4),
                                        ("reactor-fps", 2), ("record-seed", 2)])
def test_a_huge_value_read_from_a_file_is_shown_cut(case, code, small_model, small_data,
                                                    tmp_path, capsys):
    # each used to be echoed whole: 0.1-1 million characters on stderr
    edits = {"config-layers": lambda doc: doc["config"].update(layers=[0] * 200_000),
             "array-name": lambda doc: doc["arrays"].update(
                 {"x" * 100_000: {"shape": [1], "data": [0.0]}}),
             "reactor-fps": lambda rec: rec["reactor"].update(fps=[[30.0]] * 100_000),
             "record-seed": lambda rec: rec.update(seed=["x"] * 300_000)}
    out = str(tmp_path / "out")
    if code == 4:
        model = _huge_model_value(small_model, tmp_path, edits[case])
        argv = ["sample", "--model", str(model), "--data", str(small_data), "--out", out]
    else:
        argv = ["eval", "--inputs", str(_huge_data_value(small_data, tmp_path, edits[case]))]
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert len(err) < 500
    assert re.search(r"\.\.\. \(\d{6,} characters\)", err)


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


def test_sample_keeps_the_input_fps(small_model, tmp_path):
    data, out = tmp_path / "data30.jsonl", tmp_path / "s.jsonl"
    samples = dt.generate_mixed(12, frames=8, seed=3)
    for s in samples:
        s.fps = 30.0
    dt.save_samples(str(data), samples, dt.default_skeleton())
    assert run("sample", "--model", str(small_model), "--data", str(data),
               "--out", str(out), "--split", "all") == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 12
    fps = [rec[person]["fps"] for rec in records for person in ("actor", "reactor")]
    assert all(type(f) is float and f == 30.0 for f in fps)


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


def test_sample_data_wider_than_the_model_exits_4(small_model, tmp_path, capsys):
    # 3-joint bodies have 27-wide frames; small_model reads 39-wide ones
    narrow, out = tmp_path / "narrow.jsonl", tmp_path / "s.jsonl"
    assert run("gen-data", "--pairs", "4", "--frames", "8", "--joints", "3",
               "--out", str(narrow)) == 0
    assert run("sample", "--model", str(small_model), "--data", str(narrow),
               "--out", str(out), "--split", "all") == 4
    assert "does not match model frame_dim" in capsys.readouterr().err
    assert not out.exists()


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
                                   ["--w", "1.5"], ["--beta=-0.5"],
                                   ["--zeta", "0"]])
def test_sample_bad_sampler_value_exits_2(flags, small_model, small_data, tmp_path):
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(small_model), "--data", str(small_data),
               "--out", str(out), "--guidance", "improved", "--steps", "2", *flags) == 2
    assert not out.exists()


@pytest.mark.parametrize("model", ["small", "missing"])
def test_sample_steps_above_the_limit_exit_2_before_any_file_is_read(
        model, small_model, small_data, tmp_path, capsys):
    # 10^29 steps used to fail in numpy's linspace: a traceback and exit 1
    out = tmp_path / "s.jsonl"
    path = small_model if model == "small" else tmp_path / "missing.json"
    assert run("sample", "--model", str(path), "--data", str(small_data),
               "--out", str(out), "--steps", str(10 ** 29)) == 2
    err = capsys.readouterr().err
    assert "steps must be in [2, " in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_sample_flag_defaults_are_the_sampler_config_defaults():
    args = cli.build_parser().parse_args(
        ["sample", "--model", "m", "--data", "d", "--out", "o"])
    defaults = smp.SamplerConfig()
    for field in ("steps", "lambda_pene", "zeta", "w", "beta", "guidance", "seed"):
        assert getattr(args, field) == getattr(defaults, field), field
    train = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o"])
    assert train.sigma_min == fp.SIGMA_MIN_DEFAULT == _field_default(mdl.PredictorConfig,
                                                                     "sigma_min")


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
    flags = ["--guidance", "improved", "--beta", "0.2", "--seed", "6"]
    assert run("sample", "--model", str(small_model), "--data", str(mixed),
               "--out", str(out), "--split", "all", *flags) == 0
    subset, skel = dt.load_samples(str(mixed))
    got, _ = dt.load_samples(str(out))
    assert len(got) == len(subset) == 82
    params = mdl.load_params(str(small_model))
    cfg = smp.SamplerConfig(steps=5, sigma_min=params.config.sigma_min,
                            guidance="improved", beta=0.2, seed=6)
    predictor = mdl.as_x1_predictor(params)
    for index, (s, g) in enumerate(zip(subset, got)):
        assert np.array_equal(s.actor, g.actor) and s.label == g.label
        ctx = smp.GuidanceContext.from_actor(skel, s.actor[None])
        ref = smp.sample(predictor, s.actor[None], cfg, ctx, sample_index=[index])
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


@pytest.mark.parametrize("guidance", ["vanilla", "improved"])
@pytest.mark.parametrize("steps", ["2", "5"])
def test_sample_guidance_overflow_exits_6(guidance, steps, small_model, tmp_path, capsys):
    # at 2 steps the overflowed state used to reach save_samples (exit 2),
    # at 5 the next predictor call, which took the blame (exit 6)
    data, out = tmp_path / "contact.jsonl", tmp_path / "s.jsonl"
    assert run("gen-data", "--pairs", "40", "--frames", "8", "--contact-fraction", "1.0",
               "--seed", "3", "--out", str(data)) == 0
    assert run("sample", "--model", str(small_model), "--data", str(data),
               "--out", str(out), "--guidance", guidance, "--lambda-pene", "1e308",
               "--steps", steps, "--limit", "4") == 6
    err = capsys.readouterr().err
    assert f"after the step from t=0 ({guidance} guidance)" in err
    assert not out.exists()


@pytest.mark.parametrize("defect", ["nan", "shape", "bool", "nested", "too-deep"])
def test_sample_invalid_model_exits_4(small_model, small_data, tmp_path, defect):
    def edit(arrays):
        if defect == "nan":
            arrays["l0_ff_w1"]["data"][0] = float("nan")
        elif defect == "shape":
            arrays["out_proj_b"] = {"shape": [1], "data": [0.0]}
        elif defect == "bool":  # used to be read as 1.0
            arrays["l0_ff_w1"]["data"][0] = True
        else:  # nested rows of the right shape used to load
            rec = arrays["in_proj_w"]
            rec["data"] = np.reshape(rec["data"], rec["shape"]).tolist()
    if defect == "too-deep":  # nested past the JSON decoder's recursion limit
        model = tmp_path / "too-deep.json"
        model.write_text("[" * 100_000)
    else:
        model = _edited_model(small_model, tmp_path, f"{defect}.json", edit)
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out)) == 4
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("layers", 1.0), ("width", 32.0),
                                          ("heads", True), ("causal", "no"),
                                          ("sigma_min", "abc"), ("sigma_min", None),
                                          ("sigma_min", 2.0),
                                          ("max_frames", dt.MAX_FRAMES + 1),
                                          ("max_frames", 10 ** 29)])
def test_sample_mistyped_model_config_exits_4(field, value, small_model, small_data,
                                              tmp_path, capsys):
    # a float or bool for an integer field, a string for the causal flag, a
    # sigma_min that is not a number in [0, 1), or a max_frames above its
    # limit (10^29 used to load and sample with exit 0)
    doc = json.loads(small_model.read_text())
    doc["config"][field] = value
    model = tmp_path / "typed.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out)) == 4
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_sample_version_1_model_exits_4(small_model, small_data, tmp_path, capsys):
    # version 1 kept sigma_min outside the config; it is not read at the default
    doc = json.loads(small_model.read_text())
    doc["version"] = 1
    del doc["config"]["sigma_min"]
    doc["meta"] = {"sigma_min": 0.05}
    model = tmp_path / "v1.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out)) == 4
    assert f"v{mdl.PARAMS_VERSION}" in capsys.readouterr().err
    assert not out.exists()


def test_sample_version_2_model_exits_4(small_model, small_data, tmp_path, capsys):
    # version 2 embedded a scenario label (config cond_vocab, array cond_embed)
    doc = json.loads(small_model.read_text())
    doc["version"] = 2
    doc["config"]["cond_vocab"] = 3
    doc["arrays"]["cond_embed"] = {"shape": [4, 32], "data": [0.0] * 128}
    model = tmp_path / "v2.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "s.jsonl"
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert "(version 2)" in err and f"v{mdl.PARAMS_VERSION}" in err
    assert not out.exists()


def test_sample_has_no_sigma_min_flag(small_model, small_data, tmp_path):
    # sample reads sigma_min from the model; the parser rejects the flag
    out = tmp_path / "s.jsonl"
    with pytest.raises(SystemExit) as err:
        run("sample", "--model", str(small_model), "--data", str(small_data),
            "--out", str(out), "--sigma-min", "0.05")
    assert err.value.code == 2
    assert not out.exists()


def test_sample_uses_the_sigma_min_the_model_was_trained_at(small_data, tmp_path):
    samples, skel = dt.load_samples(str(small_data))
    x0s, x1s = (np.stack([getattr(s, who) for s in samples]) for who in ("actor", "reactor"))
    pcfg = mdl.PredictorConfig(frame_dim=skel.motion_dim, max_frames=8, layers=1,
                               width=16, sigma_min=0.05)
    params, _ = mdl.train(x0s, x1s, skel, pcfg,
                          mdl.TrainConfig(steps=3, batch_size=4, seed=2))
    model, out = tmp_path / "m.json", tmp_path / "s.jsonl"
    mdl.save_params(str(model), params)
    assert run("sample", "--model", str(model), "--data", str(small_data),
               "--out", str(out), "--split", "all", "--limit", "5") == 0
    got = np.stack([s.reactor for s in dt.load_samples(str(out))[0]])
    actors = x0s[:5]
    predictor = mdl.as_x1_predictor(params)
    ref = smp.sample(predictor, actors, smp.SamplerConfig(sigma_min=0.05),
                     sample_index=range(5))
    assert np.array_equal(got, ref)
    # at the default sigma_min the same model walks another path
    other = smp.sample(predictor, actors, smp.SamplerConfig(), sample_index=range(5))
    assert smp.SamplerConfig().sigma_min == 1e-4
    assert np.max(np.abs(got - other)) > 1e-3


def test_trained_model_round_trips_byte_for_byte(small_model, tmp_path):
    # save_params(load_params(m)) writes the very bytes train wrote
    again = tmp_path / "again.json"
    mdl.save_params(str(again), mdl.load_params(str(small_model)))
    assert again.read_bytes() == small_model.read_bytes()


@pytest.mark.parametrize("guidance", ["none", "improved"])
def test_sample_output_round_trips_byte_for_byte(guidance, small_model, small_data,
                                                 tmp_path):
    # save_samples(load_samples(f)) writes the very bytes sample wrote
    out, again = tmp_path / "s.jsonl", tmp_path / "again.jsonl"
    assert run("sample", "--model", str(small_model), "--data", str(small_data),
               "--out", str(out), "--guidance", guidance, "--lambda-pene", "0.02") == 0
    samples, skel = dt.load_samples(str(out))
    dt.save_samples(str(again), samples, skel)
    assert again.read_bytes() == out.read_bytes()


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
    assert int(values["n_total"]) == 60 and int(values["f_pene"]) > 0


def test_eval_fid_self_near_zero(small_data, tmp_path):
    out = tmp_path / "fid.txt"
    assert run("eval", "--inputs", str(small_data), "--ref", str(small_data),
               "--metrics", "fid", "--out", str(out)) == 0
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
    # no IV sweep ran, so no penetrating frames were counted (it printed 0)
    assert "f_pene" not in values


@pytest.mark.parametrize("metric", ["div", "multimod", "fid"])
def test_eval_features_that_overflow_exit_2(metric, small_data, tmp_path, capsys):
    # finite reactors 1e200 m out and beyond: their features' distances and
    # covariances overflow float64 (div and multimod printed inf, fid failed)
    samples, skel = dt.load_samples(str(small_data))
    for i, s in enumerate(samples):
        s.reactor[:, -3] = 1e200 * (1 + i)
    data, out = tmp_path / "far.jsonl", tmp_path / "report.txt"
    dt.save_samples(str(data), samples, skel)
    extra = ["--ref", str(data)] if metric == "fid" else ["--allow-replacement"]
    assert run("eval", "--inputs", str(data), "--metrics", metric, *extra,
               "--out", str(out)) == 2
    assert "overflow float64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("metric,flag", [("div", "--sd=0"), ("div", "--sd=-3"),
                                         ("multimod", "--sl=0")])
def test_eval_subset_size_below_one_exits_2(metric, flag, small_data, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(small_data), "--metrics", metric, flag,
               "--out", str(out)) == 2
    assert "subset size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("metric, flag", [("div", "--sd"), ("multimod", "--sl")])
def test_eval_too_few_features_names_the_cli_options(metric, flag, small_data, tmp_path,
                                                     capsys):
    # the message used to name the library keyword with_replacement
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(small_data), "--metrics", metric,
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert re.search(rf"need at least \d+ features .*: lower {flag} or pass "
                     r"--allow-replacement", err)
    assert "with_replacement" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--metrics", "iv", "--sd", "0"],
    ["--metrics", "iv", "--sl", "0"],
    ["--metrics", "iv", "--metric-seed", "-1"],
], ids=["iv-sd", "iv-sl", "iv-metric-seed"])
def test_eval_options_are_checked_whatever_the_metrics(argv, small_data, tmp_path,
                                                       capsys):
    # like --voxel, an option the asked-for metrics do not read still exits 2
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(small_data), *argv, "--out", str(out)) == 2
    assert f"({argv[-2]})" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "report.txt.manifest.json").exists()


@pytest.mark.parametrize("argv, named", [
    (["--metrics", "iv", "--ref", "{missing}"], "--ref"),
    (["--metrics", "div", "--sd", "5", "--ref", "{data}"], "--ref"),
    (["--metrics", "iv,fid"], "--ref"),
    (["--metrics", "iv,fid", "--ref", "{missing}"], "missing.jsonl"),
], ids=["iv-missing-ref", "div-ref", "fid-without-ref", "fid-missing-ref"])
def test_eval_ref_without_fid_or_fid_without_ref_exits_2_before_any_metric(
        argv, named, small_data, tmp_path, capsys, monkeypatch):
    # an unread --ref used to leave a report and then exit 2 with no manifest,
    # and a missing or absent --ref was found out only after the IV sweep
    def never(*args, **kwargs):
        raise AssertionError("a metric ran")
    monkeypatch.setattr(mx, "penetration_stats", never)
    monkeypatch.setattr(mx, "extract_features", never)
    out = tmp_path / "r.txt"
    argv = [a.format(missing=tmp_path / "missing.jsonl", data=small_data) for a in argv]
    assert run("eval", "--inputs", str(small_data), *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--features", "latent"], ["--feature-model", "m.json"]],
                         ids=["features-latent", "feature-model"])
def test_eval_latent_features_are_rejected_by_the_parser(argv, small_data, capsys):
    # features come from the motions alone, never from a model
    with pytest.raises(SystemExit) as exc:
        run("eval", "--inputs", str(small_data), "--metrics", "div", "--sd", "10",
            "--allow-replacement", *argv)
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err


def test_eval_flattened_features_on_mixed_frame_counts_exit_2(tmp_path, capsys):
    data = tmp_path / "mixed.jsonl"
    skel = dt.default_skeleton()
    dt.save_samples(str(data), dt.generate_mixed(4, frames=6, seed=1)
                    + dt.generate_mixed(4, frames=8, seed=2), skel)
    assert run("eval", "--inputs", str(data), "--metrics", "div", "--sd", "2",
               "--allow-replacement") == 2
    assert "[6, 8]" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [["--joints", "4"], ["--frames", "6"]],
                         ids=["other-skeleton", "other-frame-count"])
def test_eval_fid_against_a_reference_of_another_shape_exits_2(
        shape, small_data, tmp_path, capsys, monkeypatch):
    # features of another skeleton or frame count can share a width (5
    # joints x 8 frames and 4 joints x 10 frames both give 120 values), and
    # a FID between them would be reported
    ref, out = tmp_path / "ref.jsonl", tmp_path / "fid.txt"
    assert run("gen-data", "--pairs", "40", "--seed", "1", *shape, "--out", str(ref)) == 0

    def never(*args, **kwargs):
        raise AssertionError("a feature was computed")
    monkeypatch.setattr(mx, "extract_features", never)
    assert run("eval", "--inputs", str(small_data), "--ref", str(ref), "--metrics", "fid",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "--ref" in err and "not comparable" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def boneless(tmp_path_factory):
    """A 20-record file of a one-joint skeleton, whose bodies have no
    capsules, and a model trained on it."""
    top = tmp_path_factory.mktemp("boneless")
    data, model = top / "data.jsonl", top / "model.json"
    skel = geo.Skeleton((-1,), np.zeros((1, 3)), [])
    pose = np.concatenate([geo.IDENTITY_ROT6D, geo.IDENTITY_ROT6D, np.zeros(3)])
    dt.save_samples(str(data), [
        dt.InteractionSample(np.tile(pose, (4, 1)), np.tile(pose + 0.01 * i, (4, 1)),
                             i % 3, (0, i % 3, i)) for i in range(20)], skel)
    assert run("train", "--data", str(data), "--out", str(model), "--steps", "2",
               "--width", "16", "--layers", "1") == 0
    return data, model


@pytest.mark.parametrize("command", ["eval", "sample"])
def test_penetration_on_a_skeleton_without_bones_exits_2(command, boneless, tmp_path,
                                                         capsys):
    # eval failed in radii.min() and guided sample in a float-typed index, exit 1
    data, model = boneless
    out = tmp_path / "out"
    argv = (["eval", "--inputs", str(data), "--metrics", "iv,if"] if command == "eval" else
            ["sample", "--model", str(model), "--data", str(data), "--guidance", "vanilla"])
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "no capsules" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("contact", [1.0, 0.0], ids=["contact", "far-apart"])
@pytest.mark.parametrize("voxel", ["1e308", "1e103"])
def test_eval_voxel_of_infinite_volume_exits_2(voxel, contact, tmp_path, capsys):
    # far-apart bodies used to overflow the voxel's cube: a traceback and exit 1
    data = tmp_path / "data.jsonl"
    dt.save_samples(str(data), dt.generate_mixed(4, frames=4, contact_fraction=contact,
                                                 seed=2), dt.default_skeleton())
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(data), "--metrics", "iv,if",
               f"--voxel={voxel}", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "finite volume" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before  # eval wrote nothing


@pytest.mark.parametrize("argv", [
    ["--metrics", "div", "--sd", str(10 ** 29), "--allow-replacement"],
    ["--metrics", "multimod", "--sl", str(10 ** 29), "--allow-replacement"],
    ["--metrics", "iv", "--sd", str(10 ** 29)],
    ["--metrics", "div", "--sd", str(mx.MAX_SUBSET + 1), "--allow-replacement"],
], ids=["div-sd", "multimod-sl", "iv-sd", "div-sd-limit-plus-one"])
def test_eval_subset_size_above_the_limit_exits_2(argv, small_data, tmp_path, capsys):
    # with replacement, 10^29 draws used to fail inside numpy: exit 1
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(small_data), *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"subset size must be <= {mx.MAX_SUBSET}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("voxel", ["3e-8", "1e-300"])
def test_eval_voxel_too_fine_for_its_grid_exits_2(voxel, tmp_path, capsys):
    # contact frames whose windows hold too many voxels, or whose voxel is
    # finer than their coordinates resolve, exit 2; they do not read as
    # "no penetration"
    data = tmp_path / "data.jsonl"
    dt.save_samples(str(data), dt.generate_mixed(2, frames=2, contact_fraction=1.0,
                                                 seed=2), dt.default_skeleton())
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(data), "--metrics", "iv,if",
               f"--voxel={voxel}", "--out", str(out)) == 2
    assert "exceeds" in capsys.readouterr().err
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


def test_eval_unknown_metric_exits_2(small_data, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(small_data), "--metrics", "iv,nope",
               "--out", str(out)) == 2
    assert "unknown metrics: ['nope']" in capsys.readouterr().err
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


def test_eval_far_from_the_origin_exits_2(tmp_path, capsys):
    # at 1e15 m the float spacing is 0.125 m: a capsule's box loses its
    # radius, so the sweep refuses the frame instead of reporting IV 0
    skel = dt.default_skeleton()
    samples = dt.generate_mixed(4, frames=4, contact_fraction=1.0, seed=2)
    for s in samples:
        s.actor[:, -3:] += [1e15, 0.0, 0.0]
        s.reactor[:, -3:] += [1e15, 0.0, 0.0]
    data = tmp_path / "far.jsonl"
    dt.save_samples(str(data), samples, skel)
    out = tmp_path / "report.txt"
    assert run("eval", "--inputs", str(data), "--metrics", "iv,if",
               "--out", str(out)) == 2
    assert "2^40" in capsys.readouterr().err
    assert not out.exists()


def test_eval_empty_input_exits_5(tmp_path):
    empty = tmp_path / "empty.jsonl"
    dt.save_samples(str(empty), [], dt.default_skeleton())
    assert run("eval", "--inputs", str(empty)) == 5


def test_eval_empty_reference_exits_5(small_data, tmp_path, capsys):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "report.txt"
    empty.write_text("")
    assert run("eval", "--inputs", str(small_data), "--metrics", "fid",
               "--ref", str(empty), "--out", str(out)) == 5
    assert "empty reference input" in capsys.readouterr().err
    assert not out.exists()


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
# an output path that names an input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, argv", [
    ("data.jsonl", ["sample", "--model", "{}/model.json", "--data", "{}/data.jsonl",
                    "--out", "{}/data.jsonl"]),
    ("data.jsonl", ["sample", "--model", "{}/model.json", "--data", "{}/data.jsonl",
                    "--out", "{}/link.jsonl"]),
    ("data.jsonl", ["sample", "--model", "{}/model.json", "--data", "{}/data.jsonl",
                    "--out", "{}/model.json"]),
    ("data.jsonl", ["eval", "--inputs", "{}/data.jsonl", "--out", "{}/data.jsonl"]),
    ("data.jsonl", ["eval", "--inputs", "{}/data.jsonl", "--metrics", "fid",
                    "--ref", "{}/model.json", "--out", "{}/model.json"]),
    ("r.txt.manifest.json", ["eval", "--inputs", "{}/r.txt.manifest.json",
                             "--out", "{}/r.txt"]),
    ("data.jsonl", ["train", "--data", "{}/data.jsonl", "--out", "{}/data.jsonl"]),
    ("data.jsonl", ["train", "--data", "{}/link.jsonl", "--out", "{}/data.jsonl"]),
    ("m.json.loss.csv", ["train", "--data", "{}/m.json.loss.csv", "--out", "{}/m.json"]),
    ("o.f8", ["sample", "--model", "{}/model.json", "--data", "{}/o.f8", "--out", "{}/o"]),
    ("m.json.f8", ["train", "--data", "{}/m.json.f8", "--out", "{}/m.json"]),
], ids=["sample-data", "sample-data-symlink", "sample-model", "eval-inputs", "eval-ref",
        "eval-manifest", "train-data", "train-data-symlink", "train-loss-csv",
        "sample-data-cache", "train-data-cache"])
def test_an_output_that_names_an_input_exits_2_before_any_read(
        name, argv, small_data, small_model, tmp_path, capsys, monkeypatch):
    # sample --data X --out X used to overwrite X and record the output's
    # SHA-256 as the input's; eval replaced the motion file by the report,
    # and train the data file by the model.  sample --data o.f8 --out o
    # replaced the input by the output's binary cache
    (tmp_path / name).write_bytes(small_data.read_bytes())
    (tmp_path / "model.json").write_bytes(small_model.read_bytes())
    (tmp_path / "link.jsonl").symlink_to(tmp_path / name)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def never(*args, **kwargs):
        raise AssertionError("a file was read")
    monkeypatch.setattr(dt, "load_samples", never)
    monkeypatch.setattr(mdl, "load_params", never)
    assert run(*[a.format(tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "would overwrite the input" in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_eval_reads_an_input_named_like_its_output_s_cache(small_data, tmp_path):
    # eval writes no binary cache, so an input named <out>.f8 is not refused
    data, out = tmp_path / "r.txt.f8", tmp_path / "r.txt"
    data.write_bytes(small_data.read_bytes())
    assert run("eval", "--inputs", str(data), "--out", str(out)) == 0
    assert data.read_bytes() == small_data.read_bytes()
    assert out.read_text().startswith("report_version: 1\n")


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
    environments = []
    for path, command in ((data, "gen-data"), (model, "train"),
                          (sampled, "sample"), (report, "eval")):
        manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["wall_clock_s"] >= 0.0
        phases = ({"load", "targets", "steps", "write"} if command == "train"
                  else {"load", "compute", "write"})
        assert set(manifest["phase_s"]) == phases
        assert all(v >= 0.0 for v in manifest["phase_s"].values())
        assert sum(manifest["phase_s"].values()) <= manifest["wall_clock_s"] + 0.01
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "blas", "threads", "src_sha256"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["threads"]) == set(cli.THREAD_VARS)
        assert len(env["src_sha256"]) == 64
        environments.append(env)
    # one block per process, the same in every manifest
    assert all(env == environments[0] for env in environments)
    assert cli._environment.cache_info().misses == 1
