"""Command-line surface: gen-data, train, sample, eval.

Every command that writes artifacts also writes ``<out>.manifest.json``
recording the resolved configuration, seeds, input/output checksums,
wall-clock time, ``time.perf_counter`` seconds per phase (``load``,
``compute``, ``write``; ``train`` splits ``compute`` into ``targets`` and
``steps``) and the environment (Python, numpy and BLAS versions, the
thread variables, a SHA-256 of the package sources); re-running with the
same flags reproduces the artifact checksums exactly (the manifest's
timing fields aside).

Exit codes: 0 success; 2 configuration error; 3 non-finite training loss;
4 model/data mismatch while sampling (including an invalid model file); 5
empty evaluation input; 6 non-finite predictor output or sampling state
(such as a guidance overflow) while sampling.  Exit 1 is unused.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from . import cache
from . import data as dt
from . import geometry as geo
from . import metrics as mx
from . import model as mdl
from . import sampler as smp
from .errors import (
    ArflowError,
    DimensionMismatch,
    EmptyInput,
    InsufficientSamples,
    InvalidConfig,
    NonFiniteLoss,
    NonFiniteSample,
    SchemaError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONFINITE = 3
EXIT_SCHEMA = 4
EXIT_EMPTY = 5
EXIT_NONFINITE_SAMPLE = 6

# exit codes of the errors that are not configuration errors (exit 2); a
# SchemaError is exit 4 from ``sample`` (model/data mismatch), 2 elsewhere
_EXIT_CODES = ((NonFiniteLoss, EXIT_NONFINITE), (EmptyInput, EXIT_EMPTY),
               (NonFiniteSample, EXIT_NONFINITE_SAMPLE))

# most actors one batched ``arflow sample`` call drives at once
SAMPLE_CHUNK = 64
# the thread-pool variables a manifest records (see ``arflow/__init__.py``)
THREAD_VARS = ("ARFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _atomic_write(path: str, text: str, digests: dict[str, str] | None = None) -> None:
    with cache.atomic_open(path, digests) as fh:
        fh.write(text)


def _check_outputs(inputs: list[str], outputs: list[str]) -> None:
    """``InvalidConfig`` when a path a command writes (an output, or its
    manifest) resolves to one of the files it reads."""
    read = {os.path.realpath(p) for p in inputs}
    for path in outputs + [outputs[0] + ".manifest.json"]:
        if os.path.realpath(path) in read:
            raise InvalidConfig(f"output {path} would overwrite the input it resolves to")


def _tree_sha256(top: str) -> str:
    """SHA-256 over the relative path and bytes of every ``.py`` file under
    ``top``, in sorted order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


@functools.cache
def _environment() -> dict:
    """The environment block of every manifest, built once per process;
    callers must not change it."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "src_sha256": _tree_sha256(os.path.dirname(os.path.abspath(__file__)))}


class _Phases:
    """Wall-clock start and ``time.perf_counter`` seconds per phase of a command.

    :meth:`end` charges the time since the previous call to one phase.
    """

    def __init__(self, *names: str):
        self.started = time.time()
        self.seconds = dict.fromkeys(names or ("load", "compute", "write"), 0.0)
        self._mark = time.perf_counter()

    def end(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now


def _write_manifest(out_path: str, command: str, config: dict, inputs: list[str],
                    outputs: list[str], phases: _Phases, digests: dict[str, str]) -> None:
    """Write ``out_path.manifest.json``.  A file's checksum is the digest its
    loader or writer took in this command (``digests``), else it is hashed."""
    checksums = {"inputs": {p: digests.get(p) or cache.sha256(p) for p in inputs},
                 "outputs": {p: digests.get(p) or cache.sha256(p) for p in outputs}}
    phases.end("write")
    manifest = {
        "command": command,
        "config": {k: v for k, v in config.items() if k not in ("func", "command")},
        **checksums,
        "wall_clock_s": round(time.time() - phases.started, 3),
        "phase_s": {k: round(v, 6) for k, v in phases.seconds.items()},
        "environment": _environment(),
    }
    _atomic_write(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    phases = _Phases()
    samples = dt.generate_mixed(args.pairs, frames=args.frames, joints=args.joints,
                                contact_fraction=args.contact_fraction, seed=args.seed)
    skel = dt.default_skeleton(args.joints)
    phases.end("compute")
    digests: dict[str, str] = {}
    dt.save_samples(args.out, samples, skel, digests)
    _write_manifest(args.out, "gen-data", vars(args), [], [args.out], phases, digests)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    phases = _Phases("load", "targets", "steps", "write")
    # every option is checked before the data file is read, which gives frame_dim and max_frames
    tcfg = mdl.TrainConfig(steps=args.steps, batch_size=args.batch,
                           learning_rate=args.lr, lambda_inter=args.lambda_inter,
                           seed=args.seed)
    pcfg = mdl.PredictorConfig(frame_dim=1, max_frames=1, layers=args.layers,
                               width=args.width, heads=args.heads, causal=args.causal,
                               prediction_mode=args.prediction, sigma_min=args.sigma_min)
    if args.log_every < 0:
        raise InvalidConfig(f"--log-every must be >= 0, got {args.log_every}")
    loss_path = args.out + ".loss.csv"
    _check_outputs([args.data], [args.out, loss_path])
    digests: dict[str, str] = {}
    samples, skel = dt.load_samples(args.data, digests=digests)
    if not samples:
        raise InvalidConfig(f"no samples in {args.data}")
    train_split = dt.train_test_split(samples)[0]
    counts = sorted({len(s.actor) for s in train_split})  # a reactor's is its actor's
    if len(counts) > 1:
        raise InvalidConfig(f"training records differ in frame count {counts}; "
                            f"train needs one frame count")
    x0s = np.stack([s.actor for s in train_split])
    x1s = np.stack([s.reactor for s in train_split])
    del samples, train_split  # the stacked arrays hold each record once
    phases.end("load")
    pcfg = dataclasses.replace(pcfg, frame_dim=skel.motion_dim, max_frames=x0s.shape[1])
    params, history = mdl.train(x0s, x1s, skel, pcfg, tcfg,
                                log_every=args.log_every, phase_end=phases.end)
    phases.end("steps")
    mdl.save_params(args.out, params, digests)
    _atomic_write(loss_path, "".join(
        f"{i},{fm!r},{inter!r},{total!r}\n"
        for i, (fm, inter, total) in enumerate(history)), digests)
    _write_manifest(args.out, "train", vars(args), [args.data],
                    [args.out, loss_path], phases, digests)
    print(f"trained {args.steps} steps; final fm loss {history[-1][0]:.6f}; "
          f"model at {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    """Sample reactions for the actors of ``--split``, the first ``--limit``
    of them when it is > 0.  Only those records are read and validated, and
    the frame width and ``max_frames`` checks apply to them alone."""
    phases = _Phases()
    if args.limit < 0:
        raise InvalidConfig(f"--limit must be >= 0, got {args.limit}")
    # every sampler option is checked before any file is read; the model gives sigma_min
    cfg = smp.SamplerConfig(steps=args.steps, guidance=args.guidance,
                            lambda_pene=args.lambda_pene, zeta=args.zeta, w=args.w,
                            beta=args.beta, seed=args.seed)
    _check_outputs([args.model, args.data], [args.out])
    # every load or model/data mismatch is a SchemaError: exit 4 for sample
    digests: dict[str, str] = {}
    try:
        params = mdl.load_params(args.model, digests)
        subset, skel = dt.load_samples(args.data, args.split, args.limit, digests)
    except (OSError, InvalidConfig) as err:
        raise SchemaError(str(err)) from err
    phases.end("load")
    if not subset:
        raise SchemaError("no samples to drive sampling")
    if skel.motion_dim != params.config.frame_dim:
        raise SchemaError(f"data dimension {skel.motion_dim} does not match model "
                          f"frame_dim {params.config.frame_dim}")
    frames = max(s.actor.shape[0] for s in subset)
    if frames > params.config.max_frames:
        raise SchemaError(f"data has {frames} frames, model max_frames is "
                          f"{params.config.max_frames}")

    cfg = dataclasses.replace(cfg, sigma_min=params.config.sigma_min)
    predictor = mdl.as_x1_predictor(params)

    # one batched sample call per chunk of equal-length actors; a sample's
    # stream index is its position in the subset, so its output does not
    # depend on how the subset is grouped and chunked
    reactions: list[np.ndarray | None] = [None] * len(subset)
    for chunk in dt.equal_shape_chunks([s.actor for s in subset], SAMPLE_CHUNK):
        actors = np.stack([subset[i].actor for i in chunk])
        ctx = smp.GuidanceContext.from_actor(skel, actors) if cfg.guided else None
        out = smp.sample(predictor, actors, cfg, ctx, sample_index=chunk)
        for i, reaction in zip(chunk, out):
            reactions[i] = reaction
    out_samples = [dataclasses.replace(s, reactor=r) for s, r in zip(subset, reactions)]
    phases.end("compute")
    dt.save_samples(args.out, out_samples, skel, digests)
    _write_manifest(args.out, "sample", vars(args), [args.model, args.data],
                    [args.out], phases, digests)
    print(f"sampled {len(out_samples)} reactions ({args.guidance} guidance) "
          f"to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    phases = _Phases()
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not wanted:
        raise InvalidConfig(f"no metric named in --metrics {args.metrics!r}")
    unknown = set(wanted) - {"iv", "if", "fid", "div", "multimod"}
    if unknown:
        raise InvalidConfig(f"unknown metrics: {sorted(unknown)}")
    # every option is checked before any file is read, the ones no asked-for
    # metric reads too
    if ("fid" in wanted) != (args.ref is not None):
        raise InvalidConfig("fid needs --ref, and only fid reads --ref")
    geo.check_voxel_size(args.voxel)  # every report records it
    for what, flag, value, least, most in (
            ("subset size", "--sd", args.sd, 1, mx.MAX_SUBSET),
            ("subset size", "--sl", args.sl, 1, mx.MAX_SUBSET),
            ("projection dimension", "--proj-dim", args.proj_dim, 1, mx.MAX_PROJ_DIM),
            ("metric seed", "--metric-seed", args.metric_seed, 0, np.inf),
            ("feature seed", "--feature-seed", args.feature_seed, 0, np.inf)):
        if value < least:
            raise InvalidConfig(f"{what} must be >= {least}, got {value} ({flag})")
        if value > most:
            raise InvalidConfig(f"{what} must be <= {most}, got {value} ({flag})")
    inputs = [args.inputs] + ([args.ref] if args.ref is not None else [])
    if args.out:
        _check_outputs(inputs, [args.out])
    digests: dict[str, str] = {}
    samples, skel = dt.load_samples(args.inputs, digests=digests)
    if not samples:
        raise EmptyInput("empty evaluation input")
    if args.ref is not None:
        ref_samples, ref_skel = dt.load_samples(args.ref, digests=digests)
        if not ref_samples:
            raise EmptyInput("empty reference input")
        # a random projection of one width is drawn for each input width, so
        # features of another skeleton or frame count are not comparable
        shapes = [(sk.joint_count, sorted({len(s.reactor) for s in ss}))
                  for sk, ss in ((skel, samples), (ref_skel, ref_samples))]
        if shapes[0] != shapes[1]:
            raise DimensionMismatch(
                f"--ref has {shapes[1][0]} joints and frame counts {shapes[1][1]}, "
                f"--inputs {shapes[0][0]} joints and {shapes[0][1]}: their features "
                "are not comparable")
    phases.end("load")

    # the report's values in their printed order
    values: dict[str, float] = {}
    stats = None
    if "iv" in wanted or "if" in wanted:
        stats = mx.penetration_stats([(s.actor, s.reactor) for s in samples], skel,
                                     args.voxel)
        if "iv" in wanted:
            values["iv_cm3"] = stats.iv_cm3
        if "if" in wanted:
            values["if_frac"] = stats.if_frac

    if {"fid", "div", "multimod"} & set(wanted):
        extractor = mx.FeatureExtractor(args.features, seed=args.feature_seed,
                                        out_dim=args.proj_dim)
        feats = mx.extract_features([s.reactor for s in samples], extractor, skel)
        if "fid" in wanted:
            ref_feats = mx.extract_features([s.reactor for s in ref_samples],
                                            extractor, ref_skel)
            values["fid"] = mx.fid(feats, ref_feats)
        try:
            if "div" in wanted:
                values["diversity"] = mx.diversity(feats, args.sd, seed=args.metric_seed,
                                                   with_replacement=args.allow_replacement)
            if "multimod" in wanted:
                by_class = {}
                for s, f in zip(samples, feats):
                    by_class.setdefault(s.label, []).append(f)
                values["multimodality"] = mx.multimodality(
                    {k: np.stack(v) for k, v in by_class.items()}, args.sl,
                    seed=args.metric_seed, with_replacement=args.allow_replacement)
        except InsufficientSamples as err:
            # div runs first, so a diversity value means multimod failed
            flag = "--sd" if "div" in wanted and "diversity" not in values else "--sl"
            raise InsufficientSamples(f"{err}: lower {flag} or pass "
                                      "--allow-replacement") from None
    values.update(n_total=len(samples), f_total=sum(len(s.reactor) for s in samples))
    if stats is not None:  # only the IV sweep counts penetrating frames
        values["f_pene"] = stats.f_pene

    lines = ["report_version: 1", f"voxel_size_m: {args.voxel!r}"]
    lines += [f"{key}: {value!r}" for key, value in values.items()]
    text = "\n".join(lines) + "\n"
    phases.end("compute")
    if args.out:
        _atomic_write(args.out, text, digests)
        _write_manifest(args.out, "eval", vars(args), inputs, [args.out], phases,
                        digests)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arflow",
        description="action-reaction flow matching: data, training, guided "
                    "sampling, and penetration metrics")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a removed flag must not read as a longer one
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("gen-data", help="generate a synthetic paired dataset")
    p.add_argument("--pairs", type=int, default=dt.DEFAULT_PAIRS)
    p.add_argument("--frames", type=int, default=dt.DEFAULT_FRAMES)
    p.add_argument("--joints", type=int, default=dt.DEFAULT_JOINTS)
    p.add_argument("--contact-fraction", type=float,
                   default=dt.ScenarioConfig.contact_fraction)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    tdef, pdef = mdl.TrainConfig(), mdl.PredictorConfig
    p = add("train", help="train the reaction predictor")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=tdef.steps)
    p.add_argument("--batch", type=int, default=tdef.batch_size)
    p.add_argument("--lr", type=float, default=tdef.learning_rate)
    p.add_argument("--lambda-inter", type=float, default=tdef.lambda_inter)
    p.add_argument("--sigma-min", type=float, default=pdef.sigma_min)
    p.add_argument("--layers", type=int, default=pdef.layers)
    p.add_argument("--width", type=int, default=pdef.width)
    p.add_argument("--heads", type=int, default=pdef.heads)
    p.add_argument("--prediction", choices=("x1", "v"), default=pdef.prediction_mode)
    p.add_argument("--causal", action=argparse.BooleanOptionalAction, default=pdef.causal)
    p.add_argument("--log-every", type=int, default=0)
    p.add_argument("--seed", type=int, default=tdef.seed)
    p.set_defaults(func=cmd_train)

    sdef = smp.SamplerConfig()
    p = add("sample", help="sample reactions for a dataset's actors")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("test", "train", "all"), default="test")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--guidance", choices=smp.GUIDANCE_MODES, default=sdef.guidance)
    p.add_argument("--steps", type=int, default=sdef.steps)
    p.add_argument("--lambda-pene", type=float, default=sdef.lambda_pene)
    p.add_argument("--zeta", type=float, default=sdef.zeta)
    p.add_argument("--w", type=float, default=sdef.w)
    p.add_argument("--beta", type=float, default=sdef.beta)
    p.add_argument("--seed", type=int, default=sdef.seed)
    p.set_defaults(func=cmd_sample)

    p = add("eval", help="evaluate a motion file")
    p.add_argument("--inputs", required=True)
    p.add_argument("--metrics", default="iv,if")
    p.add_argument("--voxel", type=float, default=geo.DEFAULT_VOXEL_SIZE)
    p.add_argument("--ref", default=None, help="reference motions for fid")
    p.add_argument("--features", choices=("flatten", "proj"), default="flatten")
    p.add_argument("--proj-dim", type=int, default=mx.FeatureExtractor.out_dim)
    p.add_argument("--feature-seed", type=int, default=mx.FeatureExtractor.seed)
    p.add_argument("--sd", type=int, default=mx.DIVERSITY_SUBSET)
    p.add_argument("--sl", type=int, default=mx.MULTIMODALITY_SUBSET)
    p.add_argument("--metric-seed", type=int, default=0)
    p.add_argument("--allow-replacement", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArflowError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, SchemaError) and args.command == "sample":
            return EXIT_SCHEMA
        return next((code for cls, code in _EXIT_CODES if isinstance(err, cls)),
                    EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
