"""One benchmark operation is one ``arflow.cli.main`` call, checked.

An operation fails when its exit code is nonzero, its output holds the
wrong number of records, any value in its output is non-finite, or its
output SHA-256 differs from the first repetition of the same command in
the run (the ``ARFLOW_THREADS=1`` bit-reproducibility rule).

The checks read the output files with the standard ``json`` module and
numpy, not with ``arflow``'s own loaders, so the loaders' spans stay out
of the traced numbers and a loader bug cannot hide itself.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# arflow's deterministic split keeps the first 90% of records for training
TEST_FRACTION = 0.1
# seconds the reference loop takes on the host the numbers are scaled to
REFERENCE_SECONDS = 0.01
_REF_A = np.linspace(-1.0, 1.0, 16 * 64).reshape(16, 64)
_REF_B = np.linspace(1.0, -1.0, 64 * 64).reshape(64, 64)


def reference_seconds() -> float:
    """Time of a fixed loop of small products driven from Python.

    This is the kind of work the model, the samplers and the data
    generator do.  On a shared host the CPU speed drifts by tens of percent
    within seconds; timing this loop next to every operation measures
    that drift so it can be divided out.
    """
    started = time.perf_counter()
    total = 0.0
    for i in range(800):
        total += float(np.tanh(_REF_A @ _REF_B).sum()) + sum(range(i % 50))
    return time.perf_counter() - started
@dataclass
class Op:
    """A CLI call plus what its output must look like."""

    label: str                  # command key, equal across repetitions
    argv: list[str]
    outputs: list[str]          # files hashed for the reproducibility rule
    check: object               # callable(op) -> dict of facts; raises OutputError


@dataclass
class OpResult:
    op_id: str                  # workload/rep/label
    label: str
    seconds: float              # wall time of the CLI call
    exit_code: int | None
    error: str = ""
    facts: dict = field(default_factory=dict)
    reference: float = REFERENCE_SECONDS    # reference loop time around the call

    @property
    def failed(self) -> bool:
        return bool(self.error)

    @property
    def scaled_seconds(self) -> float:
        """Wall time on a host where the reference loop takes REFERENCE_SECONDS."""
        return self.seconds * REFERENCE_SECONDS / self.reference


class OutputError(Exception):
    """An operation's output broke one of the checks."""


def _sha256(paths: list[str]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def run_op(cli_main, op: Op, op_id: str, first_sha: dict, tracer=None) -> OpResult:
    """Call the CLI once, time it, then check its outputs."""
    out, err = io.StringIO(), io.StringIO()
    command = op.argv[0]
    span = tracer.span(f"cli.{command}") if tracer is not None else contextlib.nullcontext()
    gc.collect()    # every call starts from the same collector state
    before = reference_seconds()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = cli_main(list(op.argv))
    except SystemExit as exc:           # argparse rejects flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:                   # report the crash, keep the run going
        seconds = time.perf_counter() - started
        return OpResult(op_id, op.label, seconds, None, traceback.format_exc(limit=3))
    seconds = time.perf_counter() - started
    result = OpResult(op_id, op.label, seconds, code,
                      reference=(before + reference_seconds()) / 2.0)
    if code != 0:
        result.error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        return result
    try:
        result.facts = op.check(op) or {}
        sha = _sha256(op.outputs)
    except (OutputError, OSError, ValueError, KeyError, TypeError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    result.facts["sha256"] = sha
    expected = first_sha.setdefault(op.label, sha)
    if sha != expected:
        result.error = f"output sha256 {sha[:12]} differs from first repetition {expected[:12]}"
    return result


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------

def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise OutputError(f"non-finite value in {what}")
    return values


def person_motion(record: dict) -> np.ndarray:
    """(H, D) motion rows of one person record: rot6d, root_rot6d, trans."""
    return np.array([np.concatenate([np.ravel(f["rot6d"]), f["root_rot6d"], f["trans"]])
                     for f in record["frames"]], dtype=np.float64)


def read_motion_file(path: str, expect: int) -> tuple[np.ndarray, np.ndarray]:
    """Actors and reactors as (N, H, D) arrays; checks count and finiteness."""
    actors, reactors = [], []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                actors.append(person_motion(record["actor"]))
                reactors.append(person_motion(record["reactor"]))
    if len(actors) != expect:
        raise OutputError(f"{path}: {len(actors)} records, expected {expect}")
    actors, reactors = np.array(actors), np.array(reactors)
    return _finite(actors, path), _finite(reactors, path)


def read_model(path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    for name, rec in doc["arrays"].items():
        _finite(np.asarray(rec["data"], dtype=np.float64), f"{path}:{name}")


def read_loss_csv(path: str, steps: int) -> np.ndarray:
    """(steps, 3) array of fm, inter, total."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh if line.strip()]
    if len(rows) != steps:
        raise OutputError(f"{path}: {len(rows)} rows, expected {steps}")
    return _finite(np.array([[float(v) for v in row[1:]] for row in rows]), path)


def read_report(path: str, samples: int, frames: int) -> dict:
    report = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            report[key.strip()] = float(value)
    _finite(np.array(list(report.values())), path)
    if report.get("n_total") != samples or report.get("f_total") != samples * frames:
        raise OutputError(f"{path}: counts {report.get('n_total')}/{report.get('f_total')}, "
                          f"expected {samples}/{samples * frames}")
    return report


def held_out(records: np.ndarray) -> np.ndarray:
    """The records ``arflow sample --split test`` draws from, in order."""
    return records[int(round(len(records) * (1.0 - TEST_FRACTION))):]


def fidelity_rms(sample_actors: np.ndarray, sample_reactors: np.ndarray,
                 data_actors: np.ndarray, data_reactors: np.ndarray) -> float:
    """RMS of sampled minus ground-truth reactor, matched by record index.

    ``data_*`` are the records the sample was drawn from, in the same
    order; the actors must agree exactly or the match is wrong.
    """
    n = len(sample_reactors)
    if len(data_reactors) < n or not np.array_equal(sample_actors, data_actors[:n]):
        raise OutputError("sampled actors do not match the data file's records")
    return math.sqrt(float(np.mean((sample_reactors - data_reactors[:n]) ** 2)))
