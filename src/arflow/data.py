"""Synthetic paired action-reaction dataset and motion file I/O.

Three scripted two-body scenarios provide labeled (action, reaction) pairs:

* ``push_retreat`` — the actor closes in and shoves; the reactor backs away
  along the approach line and leans back, too slowly to always avoid
  contact in near-contact configurations.
* ``wave_mirror``  — the actor swings an arm sinusoidally; the reactor
  mirrors the swing at the same frames.
* ``kick_dodge``   — the actor lunges with a sharp limb swing; the reactor
  steps sideways, perpendicular to the approach line.

Every reactor frame depends only on actor frames up to the same index, so
the responses are learnable by a causal model.  The ``contact_fraction``
share of samples starts within interaction range (guidance has measurable
effect there); the rest starts several meters apart, far enough that the
bodies can never touch.

Motion files are line-delimited JSON; see README "Motion interchange file".
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import InvalidConfig, SchemaError

SCENARIOS = ("push_retreat", "wave_mirror", "kick_dodge")
FILE_VERSION = 1
DEFAULT_FPS = 20.0
DEFAULT_FRAMES = 16
DEFAULT_JOINTS = 5
DEFAULT_PAIRS = 2000
TEST_FRACTION = 0.1


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    frames: int = DEFAULT_FRAMES
    joints: int = DEFAULT_JOINTS
    noise: float = 0.02
    contact_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InvalidConfig(f"scenario must be one of {SCENARIOS}")
        if self.frames < 2:
            raise InvalidConfig("frames must be >= 2")
        if self.joints < 3:
            raise InvalidConfig("need at least 3 joints (root, torso, limb)")
        if not 0.0 <= self.contact_fraction <= 1.0:
            raise InvalidConfig("contact_fraction must be in [0, 1]")
        if not 0.0 <= self.noise < np.inf:
            raise InvalidConfig("noise must be finite and >= 0")


@dataclass
class InteractionSample:
    actor: np.ndarray
    reactor: np.ndarray
    label: int
    seed_used: tuple[int, int, int]


def default_skeleton(joints: int = DEFAULT_JOINTS) -> geo.Skeleton:
    """Capsule body used by the synthetic scenarios.

    ``joints = 5`` builds a torso-head-arm tree; other joint counts fall
    back to a simple chain with interpolated radii.
    """
    if joints == 5:
        return geo.Skeleton(
            parents=(-1, 0, 1, 1, 3),
            offsets=np.array([[0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.30],
                              [0.0, 0.0, 0.25],
                              [0.05, 0.0, 0.28],
                              [0.28, 0.0, 0.0]]),
            radii=np.array([0.12, 0.09, 0.06, 0.05]),
        )
    if joints < 2:
        raise InvalidConfig("need at least 2 joints for a capsule body")
    offsets = np.zeros((joints, 3))
    offsets[1:, 2] = 0.25
    return geo.Skeleton(
        parents=tuple([-1] + list(range(joints - 1))),
        offsets=offsets,
        radii=np.linspace(0.12, 0.05, joints - 1),
    )


# ---------------------------------------------------------------------------
# Pose construction helpers
# ---------------------------------------------------------------------------

def _rotation_about(axis: np.ndarray, angle) -> np.ndarray:
    """Rotation(s) about ``axis``: (3, 3) for a scalar angle, (H, 3, 3) for H angles."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    angle = np.asarray(angle, dtype=np.float64)[..., None, None]
    kx = np.array([[0.0, -axis[2], axis[1]],
                   [axis[2], 0.0, -axis[0]],
                   [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


def _yaw_facing(direction: np.ndarray) -> np.ndarray:
    """Rotation about z mapping the local +x axis onto a horizontal direction."""
    return _rotation_about(np.array([0.0, 0.0, 1.0]),
                           float(np.arctan2(direction[1], direction[0])))


_CHEST, _SHOULDER, _LIMB = "chest", "shoulder", "limb"


def _pose_joints(skel: geo.Skeleton) -> dict[str, int]:
    k = skel.joint_count
    return {_CHEST: 1, _SHOULDER: k - 2, _LIMB: k - 1}


def _build_motion(skel: geo.Skeleton, root_pos: np.ndarray, facing: np.ndarray,
                  joint_angles: dict[int, tuple[np.ndarray, np.ndarray]]
                  ) -> np.ndarray:
    """Assemble an (H, D) motion from root positions, a facing direction,
    and per-joint (axis, angle-series) rotations; other joints stay at
    identity."""
    k = skel.joint_count
    motion = np.zeros((root_pos.shape[0], skel.motion_dim))
    motion[:, : 6 * (k + 1)] = np.tile(geo.IDENTITY_ROT6D, k + 1)
    motion[:, 6 * k: 6 * k + 6] = geo.rot6d_encode(_yaw_facing(facing))
    motion[:, 6 * k + 6:] = root_pos
    for j, (axis, series) in joint_angles.items():
        motion[:, 6 * j: 6 * j + 6] = geo.rot6d_encode(_rotation_about(axis, series))
    return motion


def _bump(tau: np.ndarray, center: float = 0.5, width: float = 0.18) -> np.ndarray:
    return np.exp(-(((tau - center) / width) ** 2))


# ---------------------------------------------------------------------------
# Scenario scripts
# ---------------------------------------------------------------------------

_ARM_REST = np.pi / 2  # arms hang down; raising swings them toward the other body
_Y_AXIS = np.array([0.0, 1.0, 0.0])


def _scenario_frame(cfg: ScenarioConfig, rng: np.random.Generator,
                    near_range: tuple[float, float]):
    """Geometry shared by all scenarios: where the two bodies start."""
    near = rng.random() < cfg.contact_fraction
    angle = rng.uniform(0.0, 2.0 * np.pi)
    d = np.array([np.cos(angle), np.sin(angle), 0.0])   # reactor -> actor
    e = np.array([-d[1], d[0], 0.0])                    # horizontal perpendicular
    r0 = np.array([0.0, 0.0, 0.9]) + np.concatenate([rng.uniform(-0.05, 0.05, 2),
                                                     [0.0]])
    sep = rng.uniform(*near_range) if near else rng.uniform(3.5, 4.5)
    a0 = r0 + sep * d
    tau = np.linspace(0.0, 1.0, cfg.frames)
    return near, d, e, r0, a0, sep, tau


def _noise_series(rng: np.random.Generator, cfg: ScenarioConfig, h: int) -> np.ndarray:
    return rng.normal(scale=cfg.noise, size=h)


def _push_retreat(cfg: ScenarioConfig, rng: np.random.Generator):
    near, d, e, r0, a0, sep, tau = _scenario_frame(cfg, rng, (0.45, 0.65))
    skel = default_skeleton(cfg.joints)
    jid = _pose_joints(skel)
    h = cfg.frames

    amp = sep + rng.uniform(0.0, 0.1) if near else rng.uniform(0.5, 1.0)
    raise_arm = rng.uniform(0.9, 1.4) * _bump(tau, center=rng.uniform(0.5, 0.7),
                                              width=0.3)
    actor_pos = a0[None, :] - (amp * tau)[:, None] * d[None, :]
    actor = _build_motion(skel, actor_pos, -d, {
        jid[_SHOULDER]: (_Y_AXIS, _ARM_REST - raise_arm),
        jid[_LIMB]: (_Y_AXIS, 0.3 * raise_arm),
    })

    k_push = rng.uniform(0.45, 0.6)
    lean_k = rng.uniform(0.2, 0.4)
    closure = amp * tau                       # how far the actor has closed in
    reactor_pos = r0[None, :] - (k_push * closure)[:, None] * d[None, :]
    reactor = _build_motion(skel, reactor_pos, d, {
        jid[_CHEST]: (e, lean_k * closure / max(amp, 1e-9)
                      + _noise_series(rng, cfg, h)),
        jid[_SHOULDER]: (_Y_AXIS, _ARM_REST + _noise_series(rng, cfg, h)),
        jid[_LIMB]: (_Y_AXIS, _noise_series(rng, cfg, h)),
    })
    return actor, reactor


def _wave_mirror(cfg: ScenarioConfig, rng: np.random.Generator):
    near, d, e, r0, a0, sep, tau = _scenario_frame(cfg, rng, (0.60, 0.80))
    skel = default_skeleton(cfg.joints)
    jid = _pose_joints(skel)
    h = cfg.frames

    amp = rng.uniform(1.0, 1.5)
    freq = rng.integers(1, 3)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    raise_arm = amp * (0.5 + 0.5 * np.sin(2.0 * np.pi * freq * tau + phase))
    sway = 0.03 * np.sin(2.0 * np.pi * tau + phase)

    actor_pos = a0[None, :] + sway[:, None] * e[None, :]
    actor = _build_motion(skel, actor_pos, -d, {
        jid[_SHOULDER]: (_Y_AXIS, _ARM_REST - raise_arm),
        jid[_LIMB]: (_Y_AXIS, 0.25 * raise_arm),
    })

    reactor_pos = np.tile(r0, (h, 1))
    reactor = _build_motion(skel, reactor_pos, d, {
        jid[_SHOULDER]: (_Y_AXIS, _ARM_REST - raise_arm + _noise_series(rng, cfg, h)),
        jid[_LIMB]: (_Y_AXIS, 0.25 * raise_arm + _noise_series(rng, cfg, h)),
        jid[_CHEST]: (e, _noise_series(rng, cfg, h)),
    })
    return actor, reactor


def _kick_dodge(cfg: ScenarioConfig, rng: np.random.Generator):
    near, d, e, r0, a0, sep, tau = _scenario_frame(cfg, rng, (0.5, 0.7))
    skel = default_skeleton(cfg.joints)
    jid = _pose_joints(skel)
    h = cfg.frames

    lunge_amp = sep - rng.uniform(0.05, 0.25) if near else rng.uniform(0.5, 0.8)
    bump = _bump(tau, center=rng.uniform(0.45, 0.55))
    kick = rng.uniform(1.0, 1.5) * bump
    actor_pos = a0[None, :] - (lunge_amp * bump)[:, None] * d[None, :]
    actor = _build_motion(skel, actor_pos, -d, {
        jid[_SHOULDER]: (_Y_AXIS, _ARM_REST - kick),
        jid[_LIMB]: (_Y_AXIS, 0.4 * kick),
    })

    dodge_amp = rng.uniform(0.25, 0.45)
    side = 1.0 if rng.random() < 0.5 else -1.0
    # dodge trails the kick by a couple of frames and stays displaced; the
    # lagged cumulative max is still causal in the actor frames
    lag = int(rng.integers(2, 4))
    delayed = np.concatenate([np.zeros(lag), bump[:-lag]]) if lag else bump
    follow = np.maximum.accumulate(delayed)
    reactor_pos = r0[None, :] + (side * dodge_amp * follow)[:, None] * e[None, :]
    reactor = _build_motion(skel, reactor_pos, d, {
        jid[_CHEST]: (d, side * 0.2 * follow + _noise_series(rng, cfg, h)),
        jid[_SHOULDER]: (_Y_AXIS, _ARM_REST + _noise_series(rng, cfg, h)),
        jid[_LIMB]: (_Y_AXIS, _noise_series(rng, cfg, h)),
    })
    return actor, reactor


_SCRIPTS = {"push_retreat": _push_retreat,
            "wave_mirror": _wave_mirror,
            "kick_dodge": _kick_dodge}


def generate_mixed(count: int, frames: int = DEFAULT_FRAMES,
                   joints: int = DEFAULT_JOINTS, noise: float = 0.02,
                   contact_fraction: float = 0.5, seed: int = 0,
                   scenario: str = "all") -> list[InteractionSample]:
    """Seeded samples round-robin over the scenarios, or of the one named.

    Each sample only depends on its key ``(seed, label, index within label)``.
    """
    if count < 1:
        raise InvalidConfig("count must be >= 1")
    names = SCENARIOS if scenario == "all" else (scenario,)
    cfgs = [ScenarioConfig(s, frames, joints, noise, contact_fraction, seed)
            for s in names]
    samples = []
    for i in range(count):
        cfg = cfgs[i % len(cfgs)]
        key = (seed, SCENARIOS.index(cfg.scenario), i // len(cfgs))
        actor, reactor = _SCRIPTS[cfg.scenario](cfg, np.random.default_rng(key))
        samples.append(InteractionSample(actor, reactor, key[1], key))
    return samples


def equal_shape_chunks(arrays, size: int) -> list[list[int]]:
    """Indices of ``arrays`` grouped by shape, groups in order of first
    appearance, cut into chunks of at most ``size`` indices in input order."""
    groups: dict[tuple, list[int]] = {}
    for i, a in enumerate(arrays):
        groups.setdefault(np.shape(a), []).append(i)
    return [g[start:start + size] for g in groups.values()
            for start in range(0, len(g), size)]


def train_test_split(samples: Sequence) -> tuple[Sequence, Sequence]:
    """Deterministic 90/10 split by index: of samples, or of the range of
    record indices :func:`load_samples` selects from."""
    cut = int(round(len(samples) * (1.0 - TEST_FRACTION)))
    return samples[:cut], samples[cut:]


# ---------------------------------------------------------------------------
# Motion file I/O (line-delimited JSON; schema in README)
# ---------------------------------------------------------------------------

def _person_record(skel: geo.Skeleton, motion: np.ndarray, fps: float) -> dict:
    k = skel.joint_count
    frames = []
    for row in motion:
        frames.append({
            "rot6d": row[: 6 * k].reshape(k, 6).tolist(),
            "root_rot6d": row[6 * k: 6 * k + 6].tolist(),
            "trans": row[6 * k + 6:].tolist(),
        })
    return {
        "version": FILE_VERSION,
        "fps": fps,
        "skeleton": {
            "parents": list(skel.parents),
            "offsets": skel.offsets.tolist(),
            "radii": skel.radii.tolist(),
        },
        "frames": frames,
    }


def _numbers(values, line: int, has_bools: bool) -> np.ndarray:
    """``values`` as an array, rejected unless it holds JSON numbers only.

    One dtype-kind check over the whole array: strings, nulls and objects
    give a non-numeric dtype instead of being parsed or coerced.  numpy
    promotes a boolean among numbers to a number, so when the record's
    line holds a ``true`` or ``false`` (``has_bools``) the elements are
    also checked one by one.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise SchemaError(f"non-numeric values (dtype {arr.dtype})", line=line)
    if has_bools and any(type(v) is bool for v in np.asarray(values, dtype=object).flat):
        raise SchemaError("boolean among numeric values", line=line)
    return arr


def _person_motion(rec: dict, line: int, has_bools: bool,
                   first: tuple[dict, geo.Skeleton] | None
                   ) -> tuple[geo.Skeleton, np.ndarray]:
    """A person record's skeleton and motion.

    ``first`` holds the first record's raw skeleton block and ``Skeleton``.
    An equal block reuses it, but Python equates ``True`` and ``1.0`` with
    1: reuse needs a line without booleans, and parents must be integers.
    """
    try:
        sk = rec["skeleton"]
        parents = sk["parents"]
        if type(parents) is not list or any(type(p) is not int for p in parents):
            raise SchemaError("skeleton parents are not a list of integers", line=line)
        if first is not None and not has_bools and sk == first[0]:
            skel = first[1]
        else:
            skel = geo.Skeleton(tuple(parents),
                                _numbers(sk["offsets"], line, has_bools),
                                _numbers(sk["radii"], line, has_bools))
        frames = rec["frames"]
        h = len(frames)
        # one parse per field over all frames; ragged frames raise ValueError
        motion = np.concatenate([
            _numbers([f[key] for f in frames], line, has_bools).reshape(h, -1)
            for key in ("rot6d", "root_rot6d", "trans")], axis=1, dtype=np.float64)
    except (KeyError, TypeError, ValueError, InvalidConfig) as err:
        raise SchemaError(f"bad person record ({err})", line=line) from err
    if first is not None and skel is not first[1] and (
            skel.parents != first[1].parents
            or not np.array_equal(skel.offsets, first[1].offsets)
            or not np.array_equal(skel.radii, first[1].radii)):
        raise SchemaError("skeleton differs from first record", line=line)
    if motion.shape[1] != skel.motion_dim:
        raise SchemaError("frame width does not match skeleton", line=line)
    if not np.all(np.isfinite(motion)):
        raise SchemaError("non-finite motion values", line=line)
    return skel, motion


@contextlib.contextmanager
def atomic_open(path: str):
    """Text handle on a temporary file next to ``path``.

    A clean exit moves the file onto ``path`` with ``os.replace``; an
    exception removes it, so readers see the old file or the whole new one.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_samples(path: str, samples: list[InteractionSample], skel: geo.Skeleton,
                 fps: float = DEFAULT_FPS) -> None:
    """Write samples as one JSON record per line (atomic, diffable)."""
    if not 0.0 < fps < np.inf:
        raise InvalidConfig(f"fps must be positive and finite, got {fps}")
    with atomic_open(path) as fh:
        for s in samples:
            rec = {
                "version": FILE_VERSION,
                "label": int(s.label),
                "seed": list(s.seed_used),
                "actor": _person_record(skel, s.actor, fps),
                "reactor": _person_record(skel, s.reactor, fps),
            }
            fh.write(json.dumps(rec) + "\n")


def load_samples(path: str, split: str = "all", limit: int = 0
                 ) -> tuple[list[InteractionSample], geo.Skeleton | None]:
    """Read the records of ``split`` ("train", "test" or "all"), only the
    first ``limit`` of them when ``limit`` > 0; returns (samples, skeleton).

    Only the selected records are decoded and validated.  The skeleton is
    None only when nothing is selected.  Raises ``SchemaError`` with the
    offending file line number on malformed or inconsistent records.
    """
    samples: list[InteractionSample] = []
    first: tuple[dict, geo.Skeleton] | None = None
    # bytes: json.loads decodes each line, so bad UTF-8 is reported with its line
    with open(path, "rb") as fh:
        # a first pass counts the records, a second decodes the selected ones
        count = sum(not line.isspace() for line in fh)
        train, test = train_test_split(range(count))
        wanted = {"train": train, "test": test, "all": range(count)}[split][:limit or None]
        fh.seek(0)
        records = ((no, line) for no, line in enumerate(fh, start=1) if not line.isspace())
        for line_no, line in itertools.islice(records, wanted.start, wanted.stop):
            try:
                rec = json.loads(line)
            except ValueError as err:  # JSONDecodeError or UnicodeDecodeError
                raise SchemaError(f"invalid JSON ({err})", line=line_no) from err
            if not isinstance(rec, dict):
                raise SchemaError("record is not a JSON object", line=line_no)
            if type(rec.get("version")) is not int or rec["version"] != FILE_VERSION:
                raise SchemaError("missing or unsupported version", line=line_no)
            label = rec.get("label")
            if type(label) is not int:
                raise SchemaError("missing or non-integer label", line=line_no)
            seed = rec.get("seed", [])
            if type(seed) is not list or any(type(v) is not int for v in seed):
                raise SchemaError("seed is not a list of integers", line=line_no)
            try:
                actor_rec, reactor_rec = rec["actor"], rec["reactor"]
            except KeyError as err:
                raise SchemaError(f"missing field ({err})",
                                  line=line_no) from err
            # a valid record holds no JSON boolean: only a line with one
            # pays for the per-element check
            has_bools = b"true" in line or b"false" in line
            skel, actor = _person_motion(actor_rec, line_no, has_bools, first)
            first = first or (actor_rec["skeleton"], skel)
            _, reactor = _person_motion(reactor_rec, line_no, has_bools, first)
            if actor.shape[0] != reactor.shape[0]:
                raise SchemaError("actor and reactor frame counts differ",
                                  line=line_no)
            samples.append(InteractionSample(actor, reactor, label, tuple(seed)))
    return samples, first[1] if first else None
