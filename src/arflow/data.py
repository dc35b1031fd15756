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

import itertools
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import cache
from . import geometry as geo
from .errors import InvalidConfig, SchemaError

SCENARIOS = ("push_retreat", "wave_mirror", "kick_dodge")
FILE_VERSION = 1
DEFAULT_FPS = 20.0
DEFAULT_FRAMES = 16
DEFAULT_JOINTS = 5
DEFAULT_PAIRS = 2000
# standard deviation, in radians, of the reactor's joint-angle noise
NOISE = 0.02
# most pairs, frames per motion and joints per body of one generation;
# checked before any draw
MAX_PAIRS = 10 ** 6
MAX_FRAMES = 10 ** 4
MAX_JOINTS = 100
TEST_FRACTION = 0.1


@dataclass(frozen=True)
class ScenarioConfig:
    frames: int = DEFAULT_FRAMES
    joints: int = DEFAULT_JOINTS
    contact_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.frames <= MAX_FRAMES:
            raise InvalidConfig(f"frames must be in [2, {MAX_FRAMES}], got {self.frames}")
        if not 3 <= self.joints <= MAX_JOINTS:  # at least root, torso, limb
            raise InvalidConfig(f"joints must be in [3, {MAX_JOINTS}], got {self.joints}")
        if not 0.0 <= self.contact_fraction <= 1.0:
            raise InvalidConfig("contact_fraction must be in [0, 1]")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass
class InteractionSample:
    actor: np.ndarray
    reactor: np.ndarray
    label: int
    seed_used: tuple[int, int, int]
    fps: float = DEFAULT_FPS


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

_Y_AXIS = np.array([0.0, 1.0, 0.0])
_Z_AXIS = np.array([0.0, 0.0, 1.0])


def _unit_rows(axes: np.ndarray) -> np.ndarray:
    """Each row of (P, 3) ``axes`` divided by its own 1-D ``np.linalg.norm``.

    A batched ``norm(axis=-1)`` sums in another order and can differ in the
    last bit, so the norm is taken one row at a time.
    """
    return np.stack([a / np.linalg.norm(a) for a in axes])


def _rotation_about(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rotations by ``angle`` (any shape S) about unit ``axis``, whose shape
    broadcasts to S + (3,): (3,) for one axis, (P, 1, 3) for one per pair
    of (P, H) angles.  Returns S + (3, 3)."""
    x, y, z = axis[..., 0], axis[..., 1], axis[..., 2]
    zero = np.zeros_like(x)
    kx = np.stack([zero, -z, y, z, zero, -x, -y, x, zero],
                  axis=-1).reshape(axis.shape[:-1] + (3, 3))
    angle = angle[..., None, None]
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


def _rot6d_about(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """6D blocks of :func:`_rotation_about`: rotations by construction, not re-checked."""
    m = _rotation_about(axis, angle)
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


_CHEST, _SHOULDER, _LIMB = "chest", "shoulder", "limb"


def _pose_joints(skel: geo.Skeleton) -> dict[str, int]:
    k = skel.joint_count
    return {_CHEST: 1, _SHOULDER: k - 2, _LIMB: k - 1}


def _build_motions(skel: geo.Skeleton, root_pos: np.ndarray, facing: np.ndarray,
                   joint_angles: dict[str, tuple[np.ndarray, np.ndarray]]
                   ) -> np.ndarray:
    """Assemble (P, H, D) motions from root positions (P, H, 3), facing
    directions (P, 3), and per-joint (unit axis, (P, H) angle series)
    rotations; other joints stay at identity.

    ``joint_angles`` is keyed by pose joint name.  On a skeleton where two
    names share a joint (3 joints: chest and shoulder), the later entry
    sets it.
    """
    k = skel.joint_count
    jid = _pose_joints(skel)
    motion = np.zeros(root_pos.shape[:2] + (skel.motion_dim,))
    motion[..., : 6 * (k + 1)] = np.tile(geo.IDENTITY_ROT6D, k + 1)
    yaw = np.arctan2(facing[:, 1], facing[:, 0])
    motion[..., 6 * k: 6 * k + 6] = _rot6d_about(_Z_AXIS, yaw)[:, None]
    motion[..., 6 * k + 6:] = root_pos
    for name, (axis, series) in joint_angles.items():
        j = jid[name]
        motion[..., 6 * j: 6 * j + 6] = _rot6d_about(axis, series)
    return motion


def _bump(tau: np.ndarray, center, width: float = 0.18) -> np.ndarray:
    return np.exp(-(((tau - center) / width) ** 2))


# ---------------------------------------------------------------------------
# Scenario scripts
#
# Each scenario has a draw step and a build step.  The draw step takes one
# pair's generator and returns its scalars and noise series; the build step
# takes those draws stacked over all pairs of the scenario (scalars (P,),
# series (P, H)) and returns the (P, H, D) actors and reactors.  Every
# operation of the build acts on each pair's values alone, so a pair's
# motions depend only on its draws, whatever pairs share the batch.
# ---------------------------------------------------------------------------

_ARM_REST = np.pi / 2  # arms hang down; raising swings them toward the other body


def _frame_draws(cfg: ScenarioConfig, rng: np.random.Generator,
                 near_range: tuple[float, float]) -> dict:
    """Draws shared by all scenarios: where the two bodies start."""
    near = rng.random() < cfg.contact_fraction
    angle = rng.uniform(0.0, 2.0 * np.pi)
    root_xy = rng.uniform(-0.05, 0.05, 2)
    sep = rng.uniform(*near_range) if near else rng.uniform(3.5, 4.5)
    return {"near": near, "angle": angle, "root_xy": root_xy, "sep": sep}


def _frame(cfg: ScenarioConfig, v: dict):
    """Start geometry of stacked frame draws: the reactor -> actor direction
    ``d``, its horizontal perpendicular ``e``, the two start positions, and
    the normalized time ``tau``."""
    zero = np.zeros_like(v["angle"])
    d = np.stack([np.cos(v["angle"]), np.sin(v["angle"]), zero], axis=-1)
    e = np.stack([-d[:, 1], d[:, 0], zero], axis=-1)
    r0 = np.array([0.0, 0.0, 0.9]) + np.concatenate([v["root_xy"], zero[:, None]], axis=1)
    a0 = r0 + v["sep"][:, None] * d
    tau = np.linspace(0.0, 1.0, cfg.frames)
    return d, e, r0, a0, tau


def _noise_series(rng: np.random.Generator, cfg: ScenarioConfig) -> np.ndarray:
    return rng.normal(scale=NOISE, size=cfg.frames)


def _push_retreat_draws(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    v = _frame_draws(cfg, rng, (0.45, 0.65))
    v["amp"] = v["sep"] + rng.uniform(0.0, 0.1) if v["near"] else rng.uniform(0.5, 1.0)
    v["raise_amp"] = rng.uniform(0.9, 1.4)
    v["raise_center"] = rng.uniform(0.5, 0.7)
    v["k_push"] = rng.uniform(0.45, 0.6)
    v["lean_k"] = rng.uniform(0.2, 0.4)
    for name in (_CHEST, _SHOULDER, _LIMB):
        v["noise_" + name] = _noise_series(rng, cfg)
    return v


def _push_retreat(cfg: ScenarioConfig, skel: geo.Skeleton, v: dict):
    d, e, r0, a0, tau = _frame(cfg, v)
    amp = v["amp"][:, None]
    raise_arm = v["raise_amp"][:, None] * _bump(tau, center=v["raise_center"][:, None],
                                                width=0.3)
    closure = amp * tau                       # how far the actor has closed in
    actor_pos = a0[:, None] - closure[..., None] * d[:, None]
    actor = _build_motions(skel, actor_pos, -d, {
        _SHOULDER: (_Y_AXIS, _ARM_REST - raise_arm),
        _LIMB: (_Y_AXIS, 0.3 * raise_arm),
    })

    reactor_pos = r0[:, None] - (v["k_push"][:, None] * closure)[..., None] * d[:, None]
    reactor = _build_motions(skel, reactor_pos, d, {
        _CHEST: (_unit_rows(e)[:, None], v["lean_k"][:, None] * closure
                 / np.maximum(amp, 1e-9) + v["noise_chest"]),
        _SHOULDER: (_Y_AXIS, _ARM_REST + v["noise_shoulder"]),
        _LIMB: (_Y_AXIS, v["noise_limb"]),
    })
    return actor, reactor


def _wave_mirror_draws(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    v = _frame_draws(cfg, rng, (0.60, 0.80))
    v["amp"] = rng.uniform(1.0, 1.5)
    v["freq"] = rng.integers(1, 3)
    v["phase"] = rng.uniform(0.0, 2.0 * np.pi)
    for name in (_SHOULDER, _LIMB, _CHEST):
        v["noise_" + name] = _noise_series(rng, cfg)
    return v


def _wave_mirror(cfg: ScenarioConfig, skel: geo.Skeleton, v: dict):
    d, e, r0, a0, tau = _frame(cfg, v)
    phase = v["phase"][:, None]
    raise_arm = v["amp"][:, None] * (
        0.5 + 0.5 * np.sin((2.0 * np.pi * v["freq"])[:, None] * tau + phase))
    sway = 0.03 * np.sin(2.0 * np.pi * tau + phase)

    actor_pos = a0[:, None] + sway[..., None] * e[:, None]
    actor = _build_motions(skel, actor_pos, -d, {
        _SHOULDER: (_Y_AXIS, _ARM_REST - raise_arm),
        _LIMB: (_Y_AXIS, 0.25 * raise_arm),
    })

    reactor_pos = np.broadcast_to(r0[:, None], actor_pos.shape)
    reactor = _build_motions(skel, reactor_pos, d, {
        _SHOULDER: (_Y_AXIS, _ARM_REST - raise_arm + v["noise_shoulder"]),
        _LIMB: (_Y_AXIS, 0.25 * raise_arm + v["noise_limb"]),
        _CHEST: (_unit_rows(e)[:, None], v["noise_chest"]),
    })
    return actor, reactor


def _kick_dodge_draws(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    v = _frame_draws(cfg, rng, (0.5, 0.7))
    v["lunge_amp"] = (v["sep"] - rng.uniform(0.05, 0.25) if v["near"]
                      else rng.uniform(0.5, 0.8))
    v["kick_center"] = rng.uniform(0.45, 0.55)
    v["kick_amp"] = rng.uniform(1.0, 1.5)
    v["dodge_amp"] = rng.uniform(0.25, 0.45)
    v["side"] = 1.0 if rng.random() < 0.5 else -1.0
    v["lag"] = int(rng.integers(2, 4))
    for name in (_CHEST, _SHOULDER, _LIMB):
        v["noise_" + name] = _noise_series(rng, cfg)
    return v


def _kick_dodge(cfg: ScenarioConfig, skel: geo.Skeleton, v: dict):
    d, e, r0, a0, tau = _frame(cfg, v)
    bump = _bump(tau, center=v["kick_center"][:, None])
    kick = v["kick_amp"][:, None] * bump
    actor_pos = a0[:, None] - (v["lunge_amp"][:, None] * bump)[..., None] * d[:, None]
    actor = _build_motions(skel, actor_pos, -d, {
        _SHOULDER: (_Y_AXIS, _ARM_REST - kick),
        _LIMB: (_Y_AXIS, 0.4 * kick),
    })

    # dodge trails the kick by ``lag`` frames and stays displaced; the
    # lagged cumulative max is still causal in the actor frames
    src = np.arange(cfg.frames) - v["lag"][:, None]
    delayed = np.where(src >= 0, np.take_along_axis(bump, np.maximum(src, 0), axis=1), 0.0)
    follow = np.maximum.accumulate(delayed, axis=1)
    side = v["side"][:, None]
    reactor_pos = r0[:, None] + (side * v["dodge_amp"][:, None] * follow)[..., None] * e[:, None]
    reactor = _build_motions(skel, reactor_pos, d, {
        _CHEST: (_unit_rows(d)[:, None], side * 0.2 * follow + v["noise_chest"]),
        _SHOULDER: (_Y_AXIS, _ARM_REST + v["noise_shoulder"]),
        _LIMB: (_Y_AXIS, v["noise_limb"]),
    })
    return actor, reactor


# (per-pair draw step, batched build step) of each scenario, by label
_SCRIPTS = ((_push_retreat_draws, _push_retreat),
            (_wave_mirror_draws, _wave_mirror),
            (_kick_dodge_draws, _kick_dodge))


def generate_mixed(count: int, frames: int = DEFAULT_FRAMES,
                   joints: int = DEFAULT_JOINTS, contact_fraction: float = 0.5,
                   seed: int = 0) -> list[InteractionSample]:
    """Seeded samples dealt round-robin over the scenarios, each recorded
    at ``DEFAULT_FPS``.

    Each sample only depends on its key ``(seed, label, index within label)``:
    one draw step per pair from ``np.random.default_rng(key)``, then one
    build over all pairs of its scenario.  Every option is checked before
    the first draw.
    """
    if not 1 <= count <= MAX_PAIRS:
        raise InvalidConfig(f"count of pairs must be in [1, {MAX_PAIRS}], got {count}")
    cfg = ScenarioConfig(frames, joints, contact_fraction, seed)
    skel = default_skeleton(joints)
    samples: list[InteractionSample] = [None] * count
    for label, (draw, build) in enumerate(_SCRIPTS[:count]):
        slots = range(label, count, len(_SCRIPTS))
        keys = [(seed, label, n) for n in range(len(slots))]
        draws = [draw(cfg, np.random.default_rng(key)) for key in keys]
        stacked = {name: np.array([v[name] for v in draws]) for name in draws[0]}
        actors, reactors = build(cfg, skel, stacked)
        for i, key, actor, reactor in zip(slots, keys, actors, reactors):
            samples[i] = InteractionSample(actor, reactor, label, key)
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

def _skeleton_block(skel: geo.Skeleton) -> dict:
    return {"parents": list(skel.parents), "offsets": skel.offsets.tolist(),
            "radii": skel.radii.tolist()}


def _person_record(skel: geo.Skeleton, motion: np.ndarray, fps: float) -> dict:
    k = skel.joint_count
    rot6d = motion[:, : 6 * k].reshape(len(motion), k, 6).tolist()
    frames = [{"rot6d": rot, "root_rot6d": root, "trans": trans}
              for rot, root, trans in zip(rot6d, motion[:, 6 * k: 6 * k + 6].tolist(),
                                          motion[:, 6 * k + 6:].tolist())]
    return {"version": FILE_VERSION, "fps": fps, "skeleton": _skeleton_block(skel),
            "frames": frames}


def _numbers(values, has_bools: bool) -> np.ndarray:
    """``values`` of a motion or model file as an array; ``ValueError``
    unless it holds JSON numbers only.  Strings, nulls and objects give a
    non-numeric dtype instead of being parsed or coerced.  numpy promotes a
    boolean among numbers to 0 or 1, so when the document may hold one
    (``has_bools``) and the array a 0 or 1, the elements are checked too."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"non-numeric values (dtype {arr.dtype})")
    if (has_bools and ((arr == 0) | (arr == 1)).any()
            and any(type(v) is bool for v in np.asarray(values, dtype=object).flat)):
        raise ValueError("boolean among numeric values")
    return arr


def _parents(value) -> tuple:
    """Skeleton parents as decoded: ``TypeError`` unless a list of integers."""
    if type(value) is not list or any(type(p) is not int for p in value):
        raise TypeError("skeleton parents are not a list of integers")
    return tuple(value)


def _record_fault(label, seed, fps, actor, reactor, motion_dim: int) -> str | None:
    """Why a sample cannot be a motion-file record, or None: the one rule
    that :func:`save_samples` checks before writing and :func:`load_samples`
    after decoding.  Label and seeds are ints, ``fps`` is a positive finite
    int or float (a bool is neither), actor and reactor are (H >= 1,
    ``motion_dim``) finite numbers."""
    if type(label) is not int or type(seed) not in (list, tuple) or any(
            type(v) is not int for v in seed):
        return f"label must be an int and seed a list of ints, got {label!r} and {seed!r}"
    # an exact comparison: an integer too large for a float fails it too
    if (isinstance(fps, bool) or not isinstance(fps, (int, float))
            or not 0.0 < fps <= sys.float_info.max):
        return f"fps is not a positive finite number: {fps!r}"
    shape = np.shape(actor)[:1] + (motion_dim,)
    for who, motion in (("actor", actor), ("reactor", reactor)):
        motion = np.asarray(motion)
        if (motion.dtype.kind not in "iuf" or motion.shape != shape or not motion.size
                or not np.isfinite(motion).all()):
            return f"{who} of shape {motion.shape} is not {shape} finite numbers"
    return None


def _person_motion(rec: dict, who: str, line: int, has_bools: bool,
                   first: tuple[dict, geo.Skeleton] | None
                   ) -> tuple[geo.Skeleton, np.ndarray, object]:
    """Skeleton, motion and ``fps`` value of person ``who`` of ``rec``, as decoded.

    ``first`` holds the first record's raw skeleton block and ``Skeleton``.
    An equal block reuses it, but Python equates ``True`` and ``1.0`` with
    1: reuse needs a line without booleans, and parents must be integers.
    """
    try:
        rec = rec[who]
        sk = rec["skeleton"]
        parents = _parents(sk["parents"])
        if first is not None and not has_bools and sk == first[0]:
            skel = first[1]
        else:
            skel = geo.Skeleton(parents, _numbers(sk["offsets"], has_bools),
                                _numbers(sk["radii"], has_bools))
        frames = rec["frames"]
        h = len(frames)
        # one parse per field over all frames; ragged frames raise ValueError
        motion = np.concatenate([
            _numbers([f[key] for f in frames], has_bools).reshape(h, -1)
            for key in ("rot6d", "root_rot6d", "trans")], axis=1, dtype=np.float64)
    except (KeyError, TypeError, ValueError, InvalidConfig) as err:
        raise SchemaError(f"bad {who} record ({err})", line=line) from err
    if first is not None and skel is not first[1] and (
            skel.parents != first[1].parents
            or not np.array_equal(skel.offsets, first[1].offsets)
            or not np.array_equal(skel.radii, first[1].radii)):
        raise SchemaError("skeleton differs from first record", line=line)
    return skel, motion, rec.get("fps")


def save_samples(path: str, samples: list[InteractionSample], skel: geo.Skeleton,
                 digests: dict[str, str] | None = None) -> None:
    """Write samples as one JSON record per line (atomic, diffable), then
    their binary cache ``path + ".f8"``; a sample that breaks
    :func:`_record_fault` raises ``InvalidConfig`` before either is written.
    ``digests[path]`` receives the file's SHA-256 when a dict is given."""
    for n, s in enumerate(samples):
        if fault := _record_fault(s.label, s.seed_used, s.fps, s.actor, s.reactor,
                                  skel.motion_dim):
            raise InvalidConfig(f"sample {n}: {fault}")
    digests = {} if digests is None else digests
    with cache.atomic_open(path, digests) as fh:
        for s in samples:
            fh.write(json.dumps({"version": FILE_VERSION, "label": s.label,
                                 "seed": list(s.seed_used),
                                 "actor": _person_record(skel, s.actor, s.fps),
                                 "reactor": _person_record(skel, s.reactor, s.fps)}) + "\n")
    meta = {"skeleton": _skeleton_block(skel),
            "records": [[s.label, list(s.seed_used), s.fps, len(s.actor)] for s in samples]}
    cache.write(path, digests[path], meta, (m for s in samples for m in (s.actor, s.reactor)))


def _selected(count: int, split: str, limit: int) -> range:
    """Indices of the records of ``split`` among ``count``, the first ``limit`` when > 0."""
    train, test = train_test_split(range(count))
    return {"train": train, "test": test, "all": range(count)}[split][:limit or None]


def _cached_samples(path: str, split: str, limit: int, digests: dict[str, str] | None):
    """What :func:`load_samples` returns, from the binary cache of ``path``;
    None when the cache cannot stand in for the file.  The decoded records
    pass the reader's rules: the skeleton's and :func:`_record_fault`."""
    def layout(meta):
        sk, records = meta["skeleton"], meta["records"]
        skel = geo.Skeleton(_parents(sk["parents"]), _numbers(sk["offsets"], True),
                            _numbers(sk["radii"], True))
        frames = [h for _, _, _, h in records]
        if any(type(h) is not int or h < 1 for h in frames):
            raise ValueError("frame counts are not positive integers")
        ends = list(itertools.accumulate((2 * h * skel.motion_dim for h in frames), initial=0))
        wanted = _selected(len(records), split, limit)
        return ((skel, records[wanted.start:wanted.stop]), ends[-1],
                ends[wanted.start], ends[wanted.stop])

    found = cache.read(path, layout, digests)
    if found is None:
        return None
    (skel, records), values = found
    d = skel.motion_dim
    samples, start = [], 0
    for label, seed, fps, h in records:
        actor, reactor = values[start:start + 2 * h * d].reshape(2, h, d)
        start += 2 * h * d
        if _record_fault(label, seed, fps, actor, reactor, d):
            return None
        samples.append(InteractionSample(actor, reactor, label, tuple(seed), float(fps)))
    return samples, skel if samples else None


def load_samples(path: str, split: str = "all", limit: int = 0,
                 digests: dict[str, str] | None = None
                 ) -> tuple[list[InteractionSample], geo.Skeleton | None]:
    """Read the records of ``split`` ("train", "test" or "all"), only the
    first ``limit`` of them when ``limit`` > 0; returns (samples, skeleton).

    A valid binary cache ``path + ".f8"`` (see :mod:`arflow.cache`) gives
    the same samples without parsing the file; when the cache lookup hashes
    the file, ``digests[path]`` receives its SHA-256.  Otherwise only the
    selected records are decoded and validated.  The skeleton is None only
    when nothing is selected.  Raises ``InvalidConfig`` on another split or
    a negative limit, and ``SchemaError`` with the offending file line
    number on malformed or inconsistent records.
    """
    if split not in ("train", "test", "all"):
        raise InvalidConfig(f"split must be train, test or all, got {split!r}")
    if limit < 0:
        raise InvalidConfig(f"limit must be >= 0, got {limit}")
    if (found := _cached_samples(path, split, limit, digests)) is not None:
        return found
    samples: list[InteractionSample] = []
    first: tuple[dict, geo.Skeleton] | None = None
    # bytes: json.loads decodes each line, so bad UTF-8 is reported with its line
    with open(path, "rb") as fh:
        # a first pass counts the records, a second decodes the selected ones
        wanted = _selected(sum(not line.isspace() for line in fh), split, limit)
        fh.seek(0)
        records = ((no, line) for no, line in enumerate(fh, start=1) if not line.isspace())
        for line_no, line in itertools.islice(records, wanted.start, wanted.stop):
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as err:  # bad JSON or UTF-8; too deep
                raise SchemaError(f"invalid JSON ({err})", line=line_no) from err
            if (not isinstance(rec, dict) or type(rec.get("version")) is not int
                    or rec["version"] != FILE_VERSION):
                raise SchemaError(f"not a JSON object of version {FILE_VERSION}", line=line_no)
            # a valid record holds no JSON boolean: only a line with one
            # pays for the per-element check
            has_bools = b"true" in line or b"false" in line
            skel, actor, fps = _person_motion(rec, "actor", line_no, has_bools, first)
            first = first or (rec["actor"]["skeleton"], skel)
            _, reactor, reactor_fps = _person_motion(rec, "reactor", line_no, has_bools, first)
            label, seed = rec.get("label"), rec.get("seed", [])
            if fault := _record_fault(label, seed, fps, actor, reactor, skel.motion_dim):
                raise SchemaError(fault, line=line_no)
            # a valid fps equal to a bool is 1 (Python equates True with 1)
            if reactor_fps != fps or isinstance(reactor_fps, bool):
                raise SchemaError(f"actor and reactor differ in frame count or fps "
                                  f"({fps!r}, {reactor_fps!r})", line=line_no)
            samples.append(InteractionSample(actor, reactor, label, tuple(seed), float(fps)))
    return samples, first[1] if first else None
