"""The three workloads, the CLI operations they issue, and their metrics.

Every workload generates its dataset from the seed, so the program only
ever sees generated files.  The model's initialization and the sampler's
noise take a pinned seed instead: the initialization is one draw for the
whole run, and over ten seeds it alone moved the unguided output's
overlap, and with it the eval time, by up to a factor of two.  Set-up
builds what the timed repetitions read; each repetition then issues the
same commands with the same flags, so every output must hash equal to the
first repetition's.

- ``train_inter``: ``arflow train`` with the interaction loss on a mixed
  dataset (contact fraction 0.5), then a short sample/eval pass of the
  fresh model over far-apart actors from a second generated file, whose
  eval work does not depend on how many held-out actors happen to touch.
  Training dominates; model, autodiff, flowpath and the tape FK carry the
  time.
- ``guided_contact``: every actor starts within reach (contact fraction
  1.0), so guidance backward, capsule SDF and voxel IV dominate.  This is
  the workload on which the paper's claim (guidance lowers IV while the
  reaction stays near the ground truth) is measured.
- ``unguided_far``: bodies start 3.5-4.5 m apart (contact fraction 0.0).
  No joint comes within ``zeta`` and every eval frame leaves at the AABB
  test, so prediction, the guidance forward pass and file I/O carry the
  time: the bypass workload for guidance-backward and voxel-IV changes.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

from . import ops

PAIRS = 300
FRAMES = 16
JOINTS = 5
GUIDANCE = ("none", "vanilla", "improved")
# acceptance model shape
TRAIN_FLAGS = ["--layers", "2", "--width", "64", "--heads", "2", "--batch", "16",
               "--lambda-inter", "1"]
# lambda_pene is explicit: the CLI default of 2 discards the reaction, and a
# pinned value keeps this workload fixed when the defaults change
SAMPLE_FLAGS = ["--steps", "5", "--zeta", "0.5", "--w", "0.7", "--lambda-pene", "0.02",
                "--split", "test"]
LOSS_TAIL = 0.5
# seed of ``train`` and ``sample``: model initialization, batches, noise
MODEL_SEED = "0"
# end-to-end metric -> unit
UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "train_fm_loss_final": "loss",
    **{f"sample_per_s.{g}": "reactions/s" for g in GUIDANCE},
    "eval_frames_per_s": "frames/s",
    **{f"fidelity_rms.{g}": "rms" for g in GUIDANCE},
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    contact_fraction: float
    setup_train_steps: int      # model trained once per set-up
    rep_train_steps: int        # model trained in every repetition
    actors: int                 # reactions per guidance mode per repetition
    actors_contact: float | None = None     # own actor file; None: held-out records


WORKLOADS = {w.name: w for w in (
    Workload("train_inter",
             "training with the interaction loss, the costliest phase; model, autodiff, "
             "flowpath and tape FK do the work",
             0.5, setup_train_steps=0, rep_train_steps=60, actors=16, actors_contact=0.0),
    Workload("guided_contact",
             "every actor starts in reach, so guidance backward, capsule SDF and voxel IV "
             "dominate; the only workload that measures the paper's IV/fidelity claim",
             1.0, setup_train_steps=40, rep_train_steps=0, actors=30),
    Workload("unguided_far",
             "bodies start 3.5-4.5 m apart, so guidance never reaches backward and eval "
             "exits at the AABB test; prediction and file I/O carry the time",
             0.0, setup_train_steps=40, rep_train_steps=0, actors=30),
)}


class Plan:
    """The operations of one workload run, with the state their checks share."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.w = workload
        self.seed = str(seed)
        self.path = lambda name: os.path.join(workdir, name)
        self.held_actors = self.held_reactors = None
        own = workload.actors_contact is not None
        self.actor_data = self.path("actors.jsonl" if own else "data.jsonl")

    # -- operations --------------------------------------------------------

    def setup_ops(self) -> list[ops.Op]:
        data = self.path("data.jsonl")
        gen = ops.Op("gen-data",
                     ["gen-data", "--pairs", str(PAIRS), "--frames", str(FRAMES),
                      "--joints", str(JOINTS), "--contact-fraction",
                      str(self.w.contact_fraction), "--seed", self.seed, "--out", data],
                     [data], lambda op: self._check_data(op, PAIRS))
        result = [gen]
        if self.w.actors_contact is not None:
            # ten times the actors, so the held-out tenth is exactly the actors
            pairs = 10 * self.w.actors
            result.append(ops.Op(
                "gen-data.actors",
                ["gen-data", "--pairs", str(pairs), "--frames", str(FRAMES), "--joints",
                 str(JOINTS), "--contact-fraction", str(self.w.actors_contact), "--seed",
                 self.seed, "--out", self.actor_data],
                [self.actor_data], lambda op: self._check_data(op, pairs)))
        if self.w.setup_train_steps:
            result.append(self._train_op(self.w.setup_train_steps))
        return result

    def rep_ops(self) -> list[ops.Op]:
        result = [self._train_op(self.w.rep_train_steps)] if self.w.rep_train_steps else []
        for g in GUIDANCE:
            out = self.path(f"sample-{g}.jsonl")
            result.append(ops.Op(
                f"sample.{g}",
                ["sample", "--model", self.path("model.json"), "--data",
                 self.actor_data, "--out", out, "--guidance", g,
                 "--limit", str(self.w.actors), "--seed", MODEL_SEED] + SAMPLE_FLAGS,
                [out], self._check_sample))
        return result + [self._eval_op("none")]

    def final_ops(self) -> list[ops.Op]:
        """The guided outputs' evals, once per run: they feed the IV claim,
        and their outputs follow from the sample outputs, already hashed."""
        return [self._eval_op(g) for g in GUIDANCE if g != "none"]

    def _eval_op(self, g: str) -> ops.Op:
        report = self.path(f"report-{g}.txt")
        return ops.Op(
            f"eval.{g}",
            ["eval", "--inputs", self.path(f"sample-{g}.jsonl"), "--metrics", "iv,if",
             "--out", report],
            [report], self._check_report)

    def _train_op(self, steps: int) -> ops.Op:
        model = self.path("model.json")
        return ops.Op(
            "train",
            ["train", "--data", self.path("data.jsonl"), "--out", model,
             "--steps", str(steps), "--seed", MODEL_SEED] + TRAIN_FLAGS,
            [model, model + ".loss.csv"],
            lambda op: self._check_train(op, steps))

    # -- output checks -----------------------------------------------------

    def _check_data(self, op: ops.Op, pairs: int) -> dict:
        actors, reactors = ops.read_motion_file(op.outputs[0], pairs)
        if op.outputs[0] == self.actor_data:
            self.held_actors, self.held_reactors = ops.held_out(actors), ops.held_out(reactors)
        return {}

    def _check_train(self, op: ops.Op, steps: int) -> dict:
        ops.read_model(op.outputs[0])
        losses = ops.read_loss_csv(op.outputs[1], steps)
        # the flow-matching term: the interaction term of far-apart bodies
        # swings with the seed far more than the training quality does
        tail = losses[-max(1, int(steps * LOSS_TAIL)):, 0]
        return {"steps": steps, "fm_loss_final": float(tail.mean())}

    def _check_sample(self, op: ops.Op) -> dict:
        actors, reactors = ops.read_motion_file(op.outputs[0], self.w.actors)
        return {"actors": self.w.actors,
                "fidelity_rms": ops.fidelity_rms(actors, reactors, self.held_actors,
                                                 self.held_reactors)}

    def _check_report(self, op: ops.Op) -> dict:
        report = ops.read_report(op.outputs[0], self.w.actors, FRAMES)
        return {"frames": int(report["f_total"]), "overlapping_frames": int(report["f_pene"]),
                "iv_cm3": report["iv_cm3"]}


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def _first(results, label, key):
    return next((r.facts[key] for r in results if r.label == label and not r.failed), None)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(results: list[ops.OpResult], scaled: bool = True) -> tuple[dict, dict]:
    """Metric values and the number of samples behind each timing median.

    With ``scaled``, operations are timed in host-speed-scaled seconds,
    except evals that found overlapping frames: their voxel sweeps run over
    arrays larger than the caches, which the reference loop does not track,
    and scaling them widened the spread.
    """
    ok = [r for r in results if not r.failed]
    values, counts = {}, {}

    def secs(r):
        return r.seconds if not scaled or r.facts.get("overlapping_frames") else r.scaled_seconds

    def timed(name, samples):
        values[name], counts[name] = _median(samples), len(samples)

    setups: dict[str, float] = {}
    for r in results:
        rep = r.op_id.split("/")[1]
        if rep.startswith("setup"):
            setups[rep] = setups.get(rep, 0.0) + secs(r)
    timed("setup_s", list(setups.values()))
    timed("train_steps_per_s", [r.facts["steps"] / secs(r) for r in ok if r.label == "train"])
    values["train_fm_loss_final"] = _first(ok, "train", "fm_loss_final")
    for g in GUIDANCE:
        timed(f"sample_per_s.{g}",
              [r.facts["actors"] / secs(r) for r in ok if r.label == f"sample.{g}"])
    # the unguided output only: how much a guided output still overlaps
    # depends on guidance quality, which would leak into eval speed
    timed("eval_frames_per_s", [r.facts["frames"] / secs(r) for r in ok if r.label == "eval.none"])
    for g in GUIDANCE:
        values[f"fidelity_rms.{g}"] = _first(ok, f"sample.{g}", "fidelity_rms")
    return values, counts


def iv_by_guidance(results: list[ops.OpResult]) -> dict:
    return {g: _first(results, f"eval.{g}", "iv_cm3") for g in GUIDANCE}


def guidance_claim(iv: dict) -> str:
    """Empty when guided IV is no higher than unguided IV, else the reason."""
    if None in iv.values():
        return "no eval report for every guidance mode"
    if any(iv[g] > iv["none"] for g in ("vanilla", "improved")):
        return f"guided IV above unguided: {iv}"
    return ""
