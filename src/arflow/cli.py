"""Command-line surface: gen-data, train, sample, eval, verify.

Every command that writes artifacts also writes ``<out>.manifest.json``
recording the resolved configuration, seeds, input/output checksums,
wall-clock time and ``time.perf_counter`` seconds per phase (``load``,
``compute``, ``write``); re-running with the same flags reproduces the
artifact checksums exactly (the manifest's timing fields aside).

Exit codes: 0 success; 1 verify found failing properties; 2 configuration
error; 3 non-finite training loss; 4 model/data mismatch while sampling
(including an invalid model file); 5 empty evaluation input; 6 non-finite
predictor output while sampling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import data as dt
from . import flowpath as fp
from . import metrics as mx
from . import model as mdl
from . import sampler as smp
from . import selfcheck
from .errors import (
    ArflowError,
    EmptyInput,
    InvalidConfig,
    NonFiniteLoss,
    NonFiniteSample,
    SchemaError,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
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


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path: str, text: str) -> None:
    with dt.atomic_open(path) as fh:
        fh.write(text)


class _Phases:
    """Wall-clock start and ``time.perf_counter`` seconds per phase of a command.

    :meth:`end` charges the time since the previous call to one phase.
    """

    def __init__(self):
        self.started = time.time()
        self.seconds = {"load": 0.0, "compute": 0.0, "write": 0.0}
        self._mark = time.perf_counter()

    def end(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._mark
        self._mark = now


def _write_manifest(out_path: str, command: str, config: dict,
                    inputs: list[str], outputs: list[str], phases: _Phases) -> None:
    checksums = {"inputs": {p: _sha256(p) for p in inputs},
                 "outputs": {p: _sha256(p) for p in outputs}}
    phases.end("write")
    manifest = {
        "command": command,
        "config": {k: v for k, v in config.items() if k not in ("func", "command")},
        **checksums,
        "wall_clock_s": round(time.time() - phases.started, 3),
        "phase_s": {k: round(v, 6) for k, v in phases.seconds.items()},
    }
    _atomic_write(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    phases = _Phases()
    samples = dt.generate_mixed(args.pairs, frames=args.frames, joints=args.joints,
                                noise=args.noise,
                                contact_fraction=args.contact_fraction,
                                seed=args.seed, scenario=args.scenario)
    skel = dt.default_skeleton(args.joints)
    phases.end("compute")
    dt.save_samples(args.out, samples, skel, fps=args.fps)
    _write_manifest(args.out, "gen-data", vars(args), [], [args.out], phases)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    phases = _Phases()
    samples, skel = dt.load_samples(args.data)
    phases.end("load")
    if not samples:
        raise InvalidConfig(f"no samples in {args.data}")
    train_split, _ = dt.train_test_split(samples)
    cond_vocab = 0 if args.unconditioned else len(dt.SCENARIOS)
    dataset = [(s.actor, s.reactor, None if args.unconditioned else s.label)
               for s in train_split]
    # mdl.train rejects records of another frame count
    pcfg = mdl.PredictorConfig(frame_dim=skel.motion_dim,
                               max_frames=dataset[0][0].shape[0],
                               layers=args.layers, width=args.width,
                               heads=args.heads, causal=args.causal,
                               cond_vocab=cond_vocab,
                               prediction_mode=args.prediction)
    tcfg = mdl.TrainConfig(steps=args.steps, batch_size=args.batch,
                           learning_rate=args.lr, lambda_inter=args.lambda_inter,
                           sigma_min=args.sigma_min, t_grid=args.t_grid,
                           cond_dropout_prob=args.cond_dropout, seed=args.seed)
    params, history = mdl.train(dataset, skel, pcfg, tcfg,
                                log_every=args.log_every)
    params.meta = {"sigma_min": tcfg.sigma_min, "steps": tcfg.steps,
                   "seed": tcfg.seed, "train_samples": len(dataset)}
    phases.end("compute")
    mdl.save_params(args.out, params)
    loss_path = args.out + ".loss.csv"
    _atomic_write(loss_path, "".join(
        f"{i},{fm!r},{inter!r},{total!r}\n"
        for i, (fm, inter, total) in enumerate(history)))
    _write_manifest(args.out, "train", vars(args), [args.data],
                    [args.out, loss_path], phases)
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
    # every load or model/data mismatch is a SchemaError: exit 4 for sample
    try:
        params = mdl.load_params(args.model)
        subset, skel = dt.load_samples(args.data, args.split, args.limit)
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

    if args.sigma_min is not None:
        sigma_min = args.sigma_min
    else:
        sigma_min = params.meta.get("sigma_min", fp.SIGMA_MIN_DEFAULT)
    cfg = smp.SamplerConfig(steps=args.steps, sigma_min=float(sigma_min),
                            mode=args.mode, guidance=args.guidance,
                            lambda_pene=args.lambda_pene, zeta=args.zeta,
                            w=args.w, beta=args.beta, seed=args.seed)
    predictor = mdl.as_x1_predictor(params, cfg.sigma_min)

    # one batched sample call per chunk of equal-length actors; a sample's
    # stream index is its position in the subset, so its output does not
    # depend on how the subset is grouped and chunked
    reactions: list[np.ndarray | None] = [None] * len(subset)
    for chunk in dt.equal_shape_chunks([s.actor for s in subset], SAMPLE_CHUNK):
        actors = np.stack([subset[i].actor for i in chunk])
        ctx = smp.GuidanceContext.from_actor(skel, actors) if cfg.guided else None
        c = [subset[i].label for i in chunk] if args.cond == "label" else None
        out = smp.sample(predictor, actors, cfg, c, ctx, sample_index=chunk)
        for i, reaction in zip(chunk, out):
            reactions[i] = reaction
    out_samples = [dt.InteractionSample(s.actor, r, s.label, s.seed_used)
                   for s, r in zip(subset, reactions)]
    phases.end("compute")
    dt.save_samples(args.out, out_samples, skel)
    _write_manifest(args.out, "sample", vars(args), [args.model, args.data],
                    [args.out], phases)
    print(f"sampled {len(out_samples)} reactions ({args.guidance} guidance) "
          f"to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _extractor_from_args(args) -> mx.FeatureExtractor:
    if args.features == "flatten":
        return mx.FeatureExtractor("flatten")
    if args.features == "proj":
        return mx.FeatureExtractor("random_projection", seed=args.feature_seed,
                                   out_dim=args.proj_dim)
    if not args.feature_model:
        raise InvalidConfig("--features latent needs --feature-model")
    return mx.FeatureExtractor("predictor_latent",
                               params=mdl.load_params(args.feature_model))


def cmd_eval(args) -> int:
    phases = _Phases()
    samples, skel = dt.load_samples(args.inputs)
    phases.end("load")
    if not samples:
        raise EmptyInput("empty evaluation input")
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = set(wanted) - {"iv", "if", "fid", "div", "multimod"}
    if unknown:
        raise InvalidConfig(f"unknown metrics: {sorted(unknown)}")

    report = mx.MetricReport(n_total=len(samples))
    pairs = [(s.actor, s.reactor) for s in samples]
    if "iv" in wanted or "if" in wanted:
        stats = mx.penetration_stats(pairs, skel, args.voxel)
        report.f_total, report.f_pene = stats.f_total, stats.f_pene
        if "iv" in wanted:
            report.iv_cm3 = stats.iv_cm3
        if "if" in wanted:
            report.if_frac = stats.if_frac
    else:
        report.f_total = sum(s.reactor.shape[0] for s in samples)

    needs_features = {"fid", "div", "multimod"} & set(wanted)
    if needs_features:
        extractor = _extractor_from_args(args)
        feats = mx.extract_features([s.reactor for s in samples], extractor, skel)
        if "fid" in wanted:
            if not args.ref:
                raise InvalidConfig("fid needs --ref")
            phases.end("compute")
            ref_samples, ref_skel = dt.load_samples(args.ref)
            phases.end("load")
            if not ref_samples:
                raise EmptyInput("empty reference input")
            ref_feats = mx.extract_features([s.reactor for s in ref_samples],
                                            extractor, ref_skel)
            report.fid = mx.fid(feats, ref_feats)
        if "div" in wanted:
            report.diversity = mx.diversity(feats, args.sd, seed=args.metric_seed,
                                            with_replacement=args.allow_replacement)
        if "multimod" in wanted:
            by_class = {}
            for s, f in zip(samples, feats):
                by_class.setdefault(s.label, []).append(f)
            report.multimodality = mx.multimodality(
                {k: np.stack(v) for k, v in by_class.items()}, args.sl,
                seed=args.metric_seed, with_replacement=args.allow_replacement)

    lines = ["report_version: 1", f"voxel_size_m: {args.voxel!r}"]
    lines += [f"{key}: {value!r}" for key, value in report.items()]
    text = "\n".join(lines) + "\n"
    phases.end("compute")
    if args.out:
        _atomic_write(args.out, text)
        _write_manifest(args.out, "eval", vars(args),
                        [args.inputs] + ([args.ref] if args.ref else []),
                        [args.out], phases)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    results = selfcheck.run_all(seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        if not r.ok:
            failed.append(r.name)
    if failed:
        print(f"{len(failed)} of {len(results)} properties failed: "
              f"{', '.join(failed)}")
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} properties passed")
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

    p = sub.add_parser("gen-data", help="generate a synthetic paired dataset")
    p.add_argument("--pairs", type=int, default=dt.DEFAULT_PAIRS)
    p.add_argument("--frames", type=int, default=dt.DEFAULT_FRAMES)
    p.add_argument("--joints", type=int, default=dt.DEFAULT_JOINTS)
    p.add_argument("--scenario", default="all",
                   choices=("all",) + dt.SCENARIOS)
    p.add_argument("--contact-fraction", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--fps", type=float, default=dt.DEFAULT_FPS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the reaction predictor")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--lambda-inter", type=float, default=1.0)
    p.add_argument("--sigma-min", type=float, default=fp.SIGMA_MIN_DEFAULT)
    p.add_argument("--t-grid", type=int, default=1000)
    p.add_argument("--cond-dropout", type=float, default=0.1)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--prediction", choices=("x1", "v"), default="x1")
    p.add_argument("--causal", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--unconditioned", action="store_true",
                   help="hide scenario labels from the model")
    p.add_argument("--log-every", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    sdef = smp.SamplerConfig()
    p = sub.add_parser("sample", help="sample reactions for a dataset's actors")
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
    p.add_argument("--mode", choices=("x1", "v"), default=sdef.mode)
    p.add_argument("--cond", choices=("none", "label"), default="none")
    p.add_argument("--sigma-min", type=float, default=None,
                   help="defaults to the model's training value")
    p.add_argument("--seed", type=int, default=sdef.seed)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="evaluate a motion file")
    p.add_argument("--inputs", required=True)
    p.add_argument("--metrics", default="iv,if")
    p.add_argument("--voxel", type=float, default=0.02)
    p.add_argument("--ref", default=None, help="reference motions for fid")
    p.add_argument("--features", choices=("flatten", "proj", "latent"),
                   default="flatten")
    p.add_argument("--proj-dim", type=int, default=32)
    p.add_argument("--feature-seed", type=int, default=0)
    p.add_argument("--feature-model", default=None)
    p.add_argument("--sd", type=int, default=mx.DIVERSITY_SUBSET)
    p.add_argument("--sl", type=int, default=mx.MULTIMODALITY_SUBSET)
    p.add_argument("--metric-seed", type=int, default=0)
    p.add_argument("--allow-replacement", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the algebraic/gradient oracle suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

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
