"""Tests of the benchmark harness itself (not of arflow)."""

import json
import os
import re

import numpy as np
import pytest

from perfbench import layers, ops, workloads
from perfbench.spans import Span, Tracer, ancestors, installed, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_of_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, None, "w/1/x"),
        Span("a", 1.0, 4.0, 0, "w/1/x"),
        Span("a.leaf", 2.0, 3.0, 1, "w/1/x"),
        Span("b", 5.0, 7.0, 0, "w/1/x"),
        Span("b.left", 5.0, 6.0, 3, "w/1/x"),
        Span("b.overlap", 5.5, 6.5, 3, "w/1/x"),   # overlap counted once
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 0.5, 1.0, 1.0])
    assert list(ancestors(spans, 2)) == ["a", "root"]


def test_wrappers_restore_every_original():
    hooks = layers.hooks()
    before = [hook.owner.__dict__[hook.attr] for hook in hooks]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with installed(tracer, hooks):
            assert all(hook.owner.__dict__[hook.attr] is not original
                       for hook, original in zip(hooks, before))
            raise RuntimeError("leave the block early")
    assert all(hook.owner.__dict__[hook.attr] is original
               for hook, original in zip(hooks, before))


def test_wrapped_calls_record_nested_spans():
    from arflow import data as dt
    from arflow import sampler as smp

    sample = dt.generate_mixed(1, frames=4, contact_fraction=1.0, seed=3)[0]
    skel = dt.default_skeleton()
    tracer = Tracer()
    tracer.op = "w/setup1/probe"
    with installed(tracer, layers.hooks()):
        ctx = smp.GuidanceContext.from_actor(skel, sample.actor)
        smp.penetration_grad(sample.reactor, ctx, zeta=0.5)
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["sampler.GuidanceContext.from_actor", "geometry.motion_capsules"]
    assert tracer.spans[1].parent == 0
    grad = names.index("sampler.penetration_grad")
    assert tracer.spans[grad].attrs["active"] is True
    assert "sampler.penetration_grad" in ancestors(
        tracer.spans, names.index("autodiff.backward"))
    assert isinstance(ctx, smp.GuidanceContext)


def test_per_layer_reports_every_metric_from_spans():
    spans = [
        Span("cli.eval", 0.0, 1.0, None, "w/1/eval.none"),
        Span("metrics.penetration_stats", 0.1, 0.9, 0, "w/1/eval.none", {"frames": 16}),
        Span("cli.eval", 2.0, 3.0, None, "w/3/eval.none"),
        Span("metrics.penetration_stats", 2.1, 2.7, 2, "w/3/eval.none", {"frames": 16}),
        Span("data.generate_mixed", 4.0, 4.5, None, "w/setup1/gen-data", {"pairs": 300}),
    ]
    out = layers.per_layer(spans, ops_failed=0, overhead=1.05)
    assert set(out) == {m.name for m in layers.METRICS}
    assert out["metrics.penetration_stats.frames"] == 16       # per pass
    assert out["data.generate_mixed.pairs"] == 300             # set-up counts once
    assert out["metrics.penetration_stats.ms"] == pytest.approx(700.0)
    assert out["cli.self_ms.eval"] == pytest.approx(300.0)
    assert out["cli.ops_total"] == 1


# ---------------------------------------------------------------------------
# operation checks
# ---------------------------------------------------------------------------

def _report_op(tmp_path, text):
    path = tmp_path / "report.txt"

    def fake_cli(argv):
        path.write_text(text)
        return int(argv[0])

    op = ops.Op("eval.none", ["0"], [str(path)],
                lambda op: ops.read_report(op.outputs[0], samples=2, frames=4))
    return fake_cli, op


def test_operation_checks(tmp_path):
    good = "iv_cm3: 1.5\nn_total: 2\nf_total: 8\n"
    first = {}
    cli, op = _report_op(tmp_path, good)
    assert not ops.run_op(cli, op, "w/1/eval.none", first).failed
    assert ops.run_op(cli, ops.Op(op.label, ["3"], op.outputs, op.check),
                      "w/2/eval.none", first).error.startswith("exit code 3")
    for text, reason in [("iv_cm3: 1.5\nn_total: 3\nf_total: 12\n", "expected 2/8"),
                         ("iv_cm3: nan\nn_total: 2\nf_total: 8\n", "non-finite"),
                         ("iv_cm3: 1.25\nn_total: 2\nf_total: 8\n", "differs from first")]:
        cli, op = _report_op(tmp_path, text)
        assert reason in ops.run_op(cli, op, "w/3/eval.none", first).error


def test_fidelity_matches_records_by_index():
    actors = np.arange(24.0).reshape(4, 2, 3)
    truth = np.zeros((4, 2, 3))
    sampled = truth[1:3] + 2.0
    held_actors = actors[1:]
    assert ops.fidelity_rms(actors[1:3], sampled, held_actors, truth[1:]) == 2.0
    with pytest.raises(ops.OutputError):
        ops.fidelity_rms(actors[2:4], sampled, held_actors, truth[1:])


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def test_metric_names_and_units(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(workloads.UNITS) + [m.name for m in layers.METRICS]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(m["name"] for m in bench["end_to_end"] + bench["per_layer"])) == \
        len(bench["end_to_end"]) + len(bench["per_layer"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in layers.METRICS]


def test_benchmark_records_workload_reasons_and_layer_targets(bench):
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {name: w.why for name, w in workloads.WORKLOADS.items()}
    end_to_end = {m["name"].split(".")[0] for m in bench["end_to_end"]}
    for metric in layers.METRICS:
        assert any(name in metric.moves for name in end_to_end), metric.name
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"])
