"""Per-layer metrics of the traced run, and the hooks that record them.

Layers are the ``arflow`` modules that carry workload traffic.  Each entry
of :data:`METRICS` names the end-to-end metric the layer metric should
move and on which workload, written down before any change is measured.

A *pass* is the traced set-up, one timed repetition and the final phase.
``.ms`` is milliseconds spent per pass (set-up and final spans count once,
repetition spans are averaged over the traced repetitions); ``.calls``, ``.bytes``,
``.points``, ``.pairs`` and ``.frames`` are counts per pass, which repeat
exactly at a fixed seed; ``.ms.p50`` and ``.ms.p90`` are per call.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

from .spans import Hook, Span, ancestors, self_times

GUIDANCE = ("none", "vanilla", "improved")
COMMANDS = ("gen-data", "train", "sample", "eval")
SAMPLE_ALL = "sample_per_s.* on guided_contact and unguided_far"
GUIDED = "sample_per_s.vanilla/.improved on guided_contact and unguided_far"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str      # end-to-end metric(s) it should move, and on which workload


METRICS = [
    LayerMetric("cli.self_ms.gen-data", "ms", "lower", "setup_s on every workload"),
    LayerMetric("cli.self_ms.train", "ms", "lower", "train_steps_per_s on every workload"),
    LayerMetric("cli.self_ms.sample", "ms", "lower", SAMPLE_ALL + "; most on unguided_far"),
    LayerMetric("cli.self_ms.eval", "ms", "lower", "eval_frames_per_s; most on unguided_far"),
    LayerMetric("cli.ops_total", "count", "lower", "setup_s and every throughput metric"),
    LayerMetric("cli.ops_failed", "count", "lower",
                "failed on every workload; train_steps_per_s, sample_per_s.* and "
                "eval_frames_per_s count passing operations only"),
    LayerMetric("data.generate_mixed.ms", "ms", "lower", "setup_s on every workload"),
    LayerMetric("data.generate_mixed.pairs", "count", "lower", "setup_s on every workload"),
    LayerMetric("data.save_samples.ms", "ms", "lower", "setup_s and sample_per_s.*"),
    LayerMetric("data.save_samples.bytes", "bytes", "lower", "setup_s and sample_per_s.*"),
    LayerMetric("data.load_samples.ms", "ms", "lower",
                "train_steps_per_s, sample_per_s.*, eval_frames_per_s; most on unguided_far"),
    LayerMetric("data.load_samples.bytes", "bytes", "lower",
                "train_steps_per_s, sample_per_s.*, eval_frames_per_s"),
    LayerMetric("model.grad_loss.ms.p50", "ms", "lower", "train_steps_per_s on train_inter"),
    LayerMetric("model.grad_loss.ms.p90", "ms", "lower", "train_steps_per_s on train_inter"),
    LayerMetric("model.grad_loss.calls", "count", "lower", "train_steps_per_s on train_inter"),
    LayerMetric("model.train.self_ms_per_step", "ms", "lower",
                "train_steps_per_s on train_inter (Adam update and batch assembly)"),
    LayerMetric("model.predict.ms.p50", "ms", "lower", SAMPLE_ALL + "; most on unguided_far"),
    LayerMetric("model.predict.ms.p90", "ms", "lower", SAMPLE_ALL),
    LayerMetric("model.predict.calls", "count", "lower", SAMPLE_ALL),
    LayerMetric("model.save_params.ms", "ms", "lower", "train_steps_per_s, setup_s"),
    LayerMetric("model.load_params.ms", "ms", "lower", "sample_per_s.*"),
    LayerMetric("model.load_params.bytes", "bytes", "lower", "sample_per_s.*"),
    LayerMetric("autodiff.backward.ms.train", "ms", "lower", "train_steps_per_s on train_inter"),
    LayerMetric("autodiff.backward.calls.train", "count", "lower",
                "train_steps_per_s on train_inter"),
    LayerMetric("autodiff.backward.ms.guidance", "ms", "lower",
                "sample_per_s.vanilla/.improved on guided_contact; zero on unguided_far"),
    LayerMetric("autodiff.backward.calls.guidance", "count", "lower",
                "sample_per_s.vanilla/.improved on guided_contact; zero on unguided_far"),
    LayerMetric("flowpath.interaction_targets.ms", "ms", "lower",
                "train_steps_per_s on train_inter, setup_s on the sample workloads"),
    LayerMetric("flowpath.interaction_targets.calls", "count", "lower",
                "train_steps_per_s on train_inter, setup_s on the sample workloads"),
    LayerMetric("flowpath.interaction_loss_t.ms", "ms", "lower",
                "train_steps_per_s on train_inter"),
    LayerMetric("geometry.fk_positions_t.ms.train", "ms", "lower",
                "train_steps_per_s on train_inter"),
    LayerMetric("geometry.fk_positions_t.ms.guidance", "ms", "lower", GUIDED),
    LayerMetric("geometry.fk_positions_t.calls.train", "count", "lower",
                "train_steps_per_s on train_inter"),
    LayerMetric("geometry.fk_positions_t.calls.guidance", "count", "lower", GUIDED),
    LayerMetric("geometry.sdf_and_gradient.ms", "ms", "lower", GUIDED),
    LayerMetric("geometry.sdf_and_gradient.calls", "count", "lower", GUIDED),
    LayerMetric("geometry.sdf_and_gradient.points", "count", "lower", GUIDED),
    LayerMetric("geometry.motion_capsules.ms", "ms", "lower",
                "eval_frames_per_s, and sample_per_s.vanilla/.improved (guidance set-up)"),
    LayerMetric("geometry.capsule_intersection_volume.ms.p50", "ms", "lower",
                "eval_frames_per_s on guided_contact"),
    LayerMetric("geometry.capsule_intersection_volume.ms.p90", "ms", "lower",
                "eval_frames_per_s on guided_contact"),
    LayerMetric("geometry.capsule_intersection_volume.calls", "count", "lower",
                "eval_frames_per_s on every workload"),
    LayerMetric("geometry.capsule_intersection_volume.nonzero_ratio", "ratio", "higher",
                "eval_frames_per_s on guided_contact; near zero on unguided_far"),
    *(LayerMetric(f"sampler.sample.ms.{q}.{g}", "ms", "lower", f"sample_per_s.{g}")
      for q in ("p50", "p90") for g in GUIDANCE),
    LayerMetric("sampler.penetration_grad.ms.p50", "ms", "lower", GUIDED),
    LayerMetric("sampler.penetration_grad.ms.p90", "ms", "lower", GUIDED),
    LayerMetric("sampler.penetration_grad.calls", "count", "lower", GUIDED),
    LayerMetric("sampler.penetration_grad.active_ratio", "ratio", "higher",
                GUIDED + "; near 1 on guided_contact, 0 on unguided_far"),
    LayerMetric("sampler.GuidanceContext.from_actor.ms", "ms", "lower", GUIDED),
    LayerMetric("metrics.penetration_stats.ms", "ms", "lower", "eval_frames_per_s"),
    LayerMetric("metrics.penetration_stats.frames", "count", "lower", "eval_frames_per_s"),
    LayerMetric("trace.overhead", "ratio", "lower",
                "traced over untraced repetition wall time; setup_s and the throughput "
                "metrics come from untraced runs, so this bounds the per-layer distortion"),
]


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _guidance(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"guidance": cfg.guidance}


def hooks() -> list[Hook]:
    """The public functions wrapped in the traced run."""
    from arflow import autodiff, data, flowpath, geometry, metrics, model, sampler

    return [
        Hook(data, "generate_mixed", "data.generate_mixed",
             lambda a, k, r: {"pairs": len(r)}),
        Hook(data, "save_samples", "data.save_samples", _path_bytes),
        Hook(data, "load_samples", "data.load_samples", _path_bytes),
        Hook(model, "train", "model.train", lambda a, k, r: {"steps": len(r[1])}),
        Hook(model, "grad_loss", "model.grad_loss"),
        Hook(model, "predict", "model.predict"),
        Hook(model, "save_params", "model.save_params"),
        Hook(model, "load_params", "model.load_params", _path_bytes),
        Hook(autodiff.Tensor, "backward", "autodiff.backward"),
        Hook(flowpath, "interaction_targets", "flowpath.interaction_targets"),
        Hook(flowpath, "interaction_loss_t", "flowpath.interaction_loss_t"),
        Hook(geometry, "fk_positions_t", "geometry.fk_positions_t"),
        Hook(geometry, "sdf_and_gradient", "geometry.sdf_and_gradient",
             lambda a, k, r: {"points": len(r[0])}),
        Hook(geometry, "motion_capsules", "geometry.motion_capsules"),
        Hook(geometry, "capsule_intersection_volume", "geometry.capsule_intersection_volume",
             lambda a, k, r: {"nonzero": r > 0.0}),
        Hook(sampler, "sample", "sampler.sample", _guidance),
        Hook(sampler, "penetration_grad", "sampler.penetration_grad",
             lambda a, k, r: {"active": bool(r.any())}),
        Hook(sampler.GuidanceContext, "from_actor", "sampler.GuidanceContext.from_actor"),
        Hook(metrics, "penetration_stats", "metrics.penetration_stats",
             lambda a, k, r: {"frames": r[2]}),
    ]


def _context(spans: list[Span], index: int) -> str:
    names = set(ancestors(spans, index))
    if "sampler.penetration_grad" in names:
        return "guidance"
    if "model.grad_loss" in names:
        return "train"
    return "other"


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (nearest rank); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]


def per_layer(spans: list[Span], ops_failed: int, overhead: float) -> dict[str, float]:
    """Every metric of :data:`METRICS` from the spans of one traced run."""
    selfs = self_times(spans)
    phase = [s.op.split("/")[1] for s in spans]
    once = [p.startswith("setup") or p == "final" for p in phase]
    reps = max(1, len({p for p, o in zip(phase, once) if not o}))
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name, value=lambda i: spans[i].seconds * 1e3, where=lambda i: True):
        picked = [i for i in by_name.get(name, ()) if where(i)]
        # summed before dividing, so counts come out exact
        return (sum(value(i) for i in picked if once[i])
                + sum(value(i) for i in picked if not once[i]) / reps)

    def calls(name, where=lambda i: True):
        return total(name, lambda i: 1.0, where)

    def per_call_ms(name, q, where=lambda i: True):
        return _quantile([spans[i].seconds * 1e3 for i in by_name.get(name, ()) if where(i)], q)

    def attr(key):
        return lambda i: float(spans[i].attrs[key])

    def ratio(name, key):
        n = calls(name)
        return total(name, attr(key)) / n if n else 0.0

    def in_context(ctx):
        return lambda i: _context(spans, i) == ctx

    out = {}
    for c in COMMANDS:
        out[f"cli.self_ms.{c}"] = statistics.median(
            [selfs[i] * 1e3 for i in by_name.get(f"cli.{c}", ())] or [0.0])
    out["cli.ops_total"] = sum(calls(f"cli.{c}") for c in COMMANDS)
    out["cli.ops_failed"] = float(ops_failed)
    for name in ("data.generate_mixed", "data.save_samples", "data.load_samples",
                 "model.save_params", "model.load_params", "flowpath.interaction_targets",
                 "flowpath.interaction_loss_t", "geometry.sdf_and_gradient",
                 "geometry.motion_capsules", "sampler.GuidanceContext.from_actor",
                 "metrics.penetration_stats"):
        out[f"{name}.ms"] = total(name)
    out["data.generate_mixed.pairs"] = total("data.generate_mixed", attr("pairs"))
    for name in ("data.save_samples", "data.load_samples", "model.load_params"):
        out[f"{name}.bytes"] = total(name, attr("bytes"))
    for name in ("model.grad_loss", "model.predict", "geometry.capsule_intersection_volume",
                 "sampler.penetration_grad"):
        out[f"{name}.ms.p50"] = per_call_ms(name, 50)
        out[f"{name}.ms.p90"] = per_call_ms(name, 90)
        out[f"{name}.calls"] = calls(name)
    steps = total("model.train", attr("steps"))
    out["model.train.self_ms_per_step"] = (
        total("model.train", lambda i: selfs[i] * 1e3) / steps if steps else 0.0)
    for name in ("autodiff.backward", "geometry.fk_positions_t"):
        for ctx in ("train", "guidance"):
            out[f"{name}.ms.{ctx}"] = total(name, where=in_context(ctx))
            out[f"{name}.calls.{ctx}"] = calls(name, where=in_context(ctx))
    out["flowpath.interaction_targets.calls"] = calls("flowpath.interaction_targets")
    out["geometry.sdf_and_gradient.calls"] = calls("geometry.sdf_and_gradient")
    out["geometry.sdf_and_gradient.points"] = total("geometry.sdf_and_gradient", attr("points"))
    out["geometry.capsule_intersection_volume.nonzero_ratio"] = ratio(
        "geometry.capsule_intersection_volume", "nonzero")
    out["sampler.penetration_grad.active_ratio"] = ratio("sampler.penetration_grad", "active")
    for g in GUIDANCE:
        def of_mode(i, g=g):
            return spans[i].attrs["guidance"] == g
        out[f"sampler.sample.ms.p50.{g}"] = per_call_ms("sampler.sample", 50, of_mode)
        out[f"sampler.sample.ms.p90.{g}"] = per_call_ms("sampler.sample", 90, of_mode)
    out["metrics.penetration_stats.frames"] = total("metrics.penetration_stats", attr("frames"))
    out["trace.overhead"] = overhead
    return out
