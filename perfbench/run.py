"""Benchmark of the arflow pipeline through its command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload guided_contact --seed 1 --seconds 18 --trace 0

One process, one BLAS thread (``ARFLOW_THREADS=1``), one caller in a
closed loop: each ``arflow.cli.main`` call is issued after the previous
one returns, so there is no queue and no waiting time to report.  Set-up
runs several times and reports its median: once before the timed
repetitions and then once after each of the first ones, until
``--seconds`` of repetitions have run.  ``--trace 1`` alternates
untraced and traced repetitions and reports per-layer metrics instead of
end-to-end ones.

The last line of standard output is the result object; the line before it
holds the environment and the per-run detail, which is also written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

THREAD_VARS = ("ARFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5


def _pin_threads() -> None:
    # before numpy loads: one BLAS thread keeps outputs bit-reproducible
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_sha(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        try:
            with open(os.path.join(root, ".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(root, ".git", "packed-refs")) as fh:
                return next((line.split()[0] for line in fh if line.strip().endswith(ref)), None)
    except OSError:
        return None


def _tree_sha(top: str) -> str:
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


def environment(root: str, seed: int) -> dict:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_sha(os.path.join(root, "src", "arflow")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": _loadavg(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arflow", "cli.py")):
        print("error: run from the root of an arflow checkout (src/arflow not found)",
              file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, root)

    from arflow import cli
    from perfbench import layers, ops, workloads
    from perfbench.spans import Tracer, installed

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment(root, args.seed)
    workdir = os.path.join(root, ".perfbench", f"work-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    plan = workloads.Plan(workload, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    hooks = layers.hooks() if args.trace else []
    results: list[ops.OpResult] = []
    first_sha: dict[str, str] = {}

    def run_ops(rep: str, op_list, traced: bool) -> float:
        """Run one set-up, repetition or final phase; returns its scaled CLI seconds."""
        spent = 0.0
        for op in op_list:
            op_id = f"{workload.name}/{rep}/{op.label}"
            if traced:
                tracer.op = op_id
                with installed(tracer, hooks):
                    result = ops.run_op(cli.main, op, op_id, first_sha, tracer)
            else:
                result = ops.run_op(cli.main, op, op_id, first_sha)
            results.append(result)
            spent += result.scaled_seconds
        return spent

    # the set-ups after the first go between repetitions, so that both kinds
    # of sample spread over the whole run and its drifts in host speed
    later_setups = [] if args.trace else [f"setup{i}" for i in range(2, SETUP_REPS + 1)]

    try:
        run_ops("setup1", plan.setup_ops(), bool(args.trace))
        rep_seconds = {False: [], True: []}
        rep, measured, last = 0, 0.0, 0.0
        setup_ok = not any(r.failed for r in results)
        # stop before a repetition that would take the measured time past --seconds
        while setup_ok and (rep < 1 + args.trace or measured + last < args.seconds):
            traced = bool(args.trace) and rep % 2 == 1
            started = time.perf_counter()
            rep_seconds[traced].append(run_ops(str(rep + 1), plan.rep_ops(), traced))
            last = time.perf_counter() - started
            measured += last
            rep += 1
            if later_setups:
                run_ops(later_setups.pop(0), plan.setup_ops(), False)
        for name in later_setups if setup_ok else []:
            run_ops(name, plan.setup_ops(), False)
        if setup_ok:
            run_ops("final", plan.final_ops(), bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if r.failed]
    iv = workloads.iv_by_guidance(results)
    claim = workloads.guidance_claim(iv)
    unscaled = {}
    if args.trace:
        # each traced repetition against the untraced one just before it,
        # so a drift in host speed cancels within the pair
        pairs = zip(rep_seconds[False], rep_seconds[True])
        overhead = statistics.median([t / u for u, t in pairs] or [0.0])
        values = layers.per_layer(tracer.spans, len(failed), overhead)
        units = {m.name: m.unit for m in layers.METRICS}
        counts = {"traced_reps": len(rep_seconds[True]),
                  "untraced_reps": len(rep_seconds[False])}
    else:
        values, counts = workloads.end_to_end(results)
        values["peak_rss_mb"] = _peak_rss_mb()
        units = workloads.UNITS
        unscaled = workloads.end_to_end(results, scaled=False)[0]
    metrics = {name: {"value": float(values.get(name) or 0.0), "unit": unit}
               for name, unit in units.items()}
    env["loadavg_end"] = _loadavg()
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "env": env,
        "samples_per_median": counts,
        "unscaled_metrics": unscaled,
        "iv_cm3": iv,
        "claim": claim or "guided IV <= unguided IV",
        "failures": [{"op": r.op_id, "error": r.error} for r in failed],
        "ops": [{"op": r.op_id, "seconds": r.seconds, "reference_s": r.reference, **r.facts}
                for r in results],
    }
    out_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**detail, "metrics": metrics}, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            for index, span in enumerate(tracer.spans):
                fh.write(json.dumps({"id": index, "name": span.name, "op": span.op,
                                     "start": span.start, "end": span.end,
                                     "parent": span.parent, **span.attrs}) + "\n")
    print(json.dumps({k: detail[k] for k in ("workload", "env", "samples_per_median",
                                             "unscaled_metrics", "iv_cm3", "claim",
                                             "failures")}))
    print(json.dumps({"correct": not failed and not claim, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
