"""The reach test: frames whose bodies cannot touch skip FK, and nothing changes.

``geometry.reach_box`` bounds where FK can place a frame's joints, and
``geometry.apart`` finds the frames whose boxes lie apart.  The IV/IF
accumulation and the guidance terms give those frames their exact values
(volume 0; loss terms zeta, gradient 0) without FK, so every output must
equal the full path's (``oracles.full_path``) bit for bit, errors
included.  The cases put the second body's root around the bound, turn
the roots, point the chains at each other, and for the guidance decode
in-flight 6D blocks with short or near-parallel columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arflow import autodiff as ad
from arflow import data as dt
from arflow import geometry as geo
from arflow import metrics as mx
from arflow import sampler as smp
from arflow.errors import ArflowError, DegenerateRotation, GridTooLarge, InvalidConfig

from oracles import full_path
from test_geometry import chain_skeleton, pose_row, random_rotation, rz
from test_sampler import context, still_actor
from voxel_oracle import window_intersection_volume

SETTINGS = settings(deadline=None, max_examples=60, database=None)
# relative moves of the second root about the bound: inside, on it, outside
NUDGES = [-0.3, -1e-3, -1e-9, 0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.3]


def outcome(fn):
    """What a call returns, as bytes, or the type and text of its error."""
    try:
        value = fn()
    except ArflowError as err:
        return type(err), str(err)
    return np.asarray(value, dtype=np.float64).tobytes()


def both_paths(fn):
    with full_path():
        full = outcome(fn)
    return outcome(fn), full


@st.composite
def skeletons(draw):
    if draw(st.booleans()):
        return dt.default_skeleton()
    return chain_skeleton(draw(st.integers(2, 4)), offset=(draw(st.floats(0.2, 0.6)), 0.0, 0.0),
                          radius=draw(st.floats(0.04, 0.15)))


@st.composite
def poses(draw, skel, h, trans, facing):
    """(h, D) frames at the roots ``trans`` (h, 3): identity joints turned by
    ``facing`` about z, or random joint and root rotations."""
    k = skel.joint_count
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    turn = draw(st.sampled_from(["facing", "random"]))
    rows = []
    for t in trans:
        if turn == "facing":
            rows.append(pose_row(skel, root_rot=rz(facing), trans=t))
        else:
            rows.append(pose_row(skel, [random_rotation(rng) for _ in range(k)],
                                 random_rotation(rng), t))
    return np.stack(rows)


def direction(draw):
    """A unit vector along an axis, or a diagonal one."""
    if draw(st.booleans()):
        u = np.zeros(3)
        u[draw(st.integers(0, 2))] = draw(st.sampled_from([-1.0, 1.0]))
        return u
    u = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) + [1e-3, 0.0, 0.0]
    return u / np.linalg.norm(u)


@st.composite
def eval_pairs(draw):
    """(actor, reactor) pairs of 1-3 frames whose roots lie about the
    distance at which the two bodies' reach boxes stop overlapping."""
    skel = draw(skeletons())
    bound = 2.0 * (skel.reach + skel.radii.max())
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        h = draw(st.integers(1, 3))
        u = direction(draw)
        origin = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(3)])
        trans_a = origin + np.zeros((h, 3))
        trans_b = trans_a + u * bound * (1.0 + np.array([draw(st.sampled_from(NUDGES))
                                                         for _ in range(h)]))[:, None]
        angle = float(np.arctan2(u[1], u[0]))
        pairs.append((draw(poses(skel, h, trans_a, angle)),
                      draw(poses(skel, h, trans_b, angle + np.pi))))
    return skel, pairs, draw(st.sampled_from([0.03, 0.05]))


@SETTINGS
@given(eval_pairs())
def test_penetration_stats_equal_the_full_path_and_the_voxel_oracle(case):
    skel, pairs, vs = case
    reach, full = both_paths(lambda: mx.penetration_stats(pairs, skel, vs))
    assert reach == full
    volume, f_pene = 0.0, 0
    for actor, reactor in pairs:
        caps_a, caps_b = geo.motion_capsules(skel, actor), geo.motion_capsules(skel, reactor)
        for f in range(len(actor)):
            vol = window_intersection_volume(
                geo.CapsuleSet(caps_a.seg_a[f], caps_a.seg_b[f], caps_a.radius),
                geo.CapsuleSet(caps_b.seg_a[f], caps_b.seg_b[f], caps_b.radius), vs)
            volume += vol
            f_pene += vol > 0.0
    assert mx.penetration_stats(pairs, skel, vs) == (volume, f_pene,
                                                      sum(len(a) for a, _ in pairs))


def in_flight(draw, rows, skel):
    """``rows`` with each 6D block as a prediction may have it: scaled or
    skewed, and in half the frames also with short or near-parallel columns."""
    rows = rows.copy()
    blocks = rows[:, : 6 * (skel.joint_count + 1)].reshape(len(rows), -1, 6)
    for f in range(blocks.shape[0]):
        kinds = ["unit", "scaled", "skew"]
        if draw(st.booleans()):
            kinds += ["short", "parallel"]
        for j in range(blocks.shape[1]):
            kind = draw(st.sampled_from(kinds))
            a, b = blocks[f, j, :3], blocks[f, j, 3:]
            if kind == "scaled":
                blocks[f, j] *= draw(st.floats(0.2, 5.0))
            elif kind == "short":
                blocks[f, j, draw(st.sampled_from([slice(0, 3), slice(3, 6)]))] *= \
                    draw(st.sampled_from([1e-2, 1e-5, 1e-7, 1e-9]))
            elif kind == "parallel":
                blocks[f, j, 3:] = a + draw(st.sampled_from([1e-2, 1e-5, 1e-9])) * b
            elif kind == "skew":
                blocks[f, j, 3:] = b + draw(st.floats(-3.0, 3.0)) * a
    rows[:, : blocks.size // len(rows)] = blocks.reshape(len(rows), -1)
    return rows


@st.composite
def guidance_cases(draw):
    """A (B, H) batch of reactions about the distance ``reach + zeta`` from
    the box of each actor frame, whose body may use another skeleton."""
    skel = draw(skeletons())
    actor_skel = draw(skeletons())
    zeta = draw(st.sampled_from([0.05, 0.5]))
    b, h = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    actors, reactions = [], []
    for _ in range(b):
        u = direction(draw)
        trans = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(3)]) + np.zeros((h, 3))
        angle = float(np.arctan2(u[1], u[0]))
        actor = draw(poses(actor_skel, h, trans, angle))
        lo, hi = geo.motion_capsules(actor_skel, actor).aabb()
        # the actor box's half-extent along u, plus the reaction's reach and zeta
        half = np.abs(u) @ ((hi - lo) / 2.0).T
        center = (lo + hi) / 2.0
        dist = half + (skel.reach + zeta) * (1.0 + np.array(
            [draw(st.sampled_from(NUDGES)) for _ in range(h)]))
        rows = draw(poses(skel, h, center + u * dist[:, None], angle + np.pi))
        actors.append(actor)
        reactions.append(in_flight(draw, rows, skel))
    actors = np.stack(actors)
    caps = geo.motion_capsules(actor_skel, actors.reshape(b * h, -1))
    return smp.GuidanceContext(skel, actors, caps), np.stack(reactions), zeta


@SETTINGS
@given(guidance_cases())
def test_guidance_terms_equal_the_full_path(case):
    ctx, reaction, zeta = case
    for term in (smp.penetration_loss, smp.penetration_grad):
        reach, full = both_paths(lambda: term(reaction, ctx, zeta))
        assert reach == full


def test_reach_boxes_hold_every_joint_of_in_flight_frames():
    # the tolerant decode of rigid blocks stretches no chain past the box
    rng = np.random.default_rng(5)
    skel = dt.default_skeleton()
    k = skel.joint_count
    rows = np.stack([pose_row(skel, [random_rotation(rng) for _ in range(k)],
                              random_rotation(rng), rng.normal(size=3)) for _ in range(200)])
    blocks = rows[:, : 6 * (k + 1)].reshape(200, k + 1, 6)
    blocks *= rng.uniform(0.04, 3.0, (200, k + 1, 1))
    rows[:, : 6 * (k + 1)] = blocks.reshape(200, -1)
    lo, hi = geo.reach_box(skel, rows, geo._rot6d_dots(skel, rows))
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    pos = geo.fk_positions_t(skel, ad.constant(rows))[0].data
    assert np.all((lo[:, None] <= pos) & (pos <= hi[:, None]))


def turned_to(c):
    """A rotation matrix whose first column is the unit vector ``c``."""
    h = np.eye(3)[np.argmin(np.abs(c))]
    y = h - (h @ c) * c
    y /= np.linalg.norm(y)
    return np.column_stack([c, y, np.cross(c, y)])


@pytest.mark.parametrize("block, beyond", [
    # a short first column and a second nearly along it: stretches by a third
    ([3e-6, 0.0, 0.0, np.cos(0.05), np.sin(0.05), 0.0], 0.1),
    # rigid, at the limits of both conditions: stretches by about 1.4e-8
    ([1.08e-3 ** 0.5, 0.0, 0.0, np.cos(np.arcsin((1.01 * 2.0 ** -10) ** 0.5)),
      (1.01 * 2.0 ** -10) ** 0.5, 0.0], 5e-9),
], ids=["bent", "rigid"])
def test_guidance_beside_a_stretched_chain_equals_the_full_path(block, beyond):
    # the root orientation's decode stretches the chain along +x toward a
    # sphere whose box lies zeta + beyond past the plain reach: the tip
    # comes within zeta, so only the widened reach and the margin (rigid)
    # or the rigidity condition (bent) keep the frame in reach
    zeta = 0.5
    skel = chain_skeleton(3, offset=(0.5, 0.0, 0.0))
    block = np.array(block)
    u, _, vt = np.linalg.svd(geo.decode_rot6d_t(ad.constant(block)).data)
    turn = turned_to(u[:, 0]).T
    row = pose_row(skel, [turned_to(vt[0]), np.eye(3), np.eye(3)])
    row[18:24] = np.concatenate([turn @ block[:3], turn @ block[3:]])
    tip = geo.fk_positions_t(skel, ad.constant(row[None]))[0].data[0, -1]
    assert tip[0] > skel.reach + beyond
    sphere = chain_skeleton(2, offset=(0.0, 0.0, 1e-3))
    ctx = context(skel, sphere, still_actor(sphere, 1, (skel.reach + zeta + beyond + 0.1,
                                                       0.0, 0.0)))
    assert ctx.box[0][0, 0] - skel.reach > zeta
    with full_path():
        assert smp.penetration_grad(row[None, None], ctx, zeta).any()
    for term in (smp.penetration_loss, smp.penetration_grad):
        reach, full = both_paths(lambda: term(row[None, None], ctx, zeta))
        assert reach == full


@pytest.mark.parametrize("scale, strict", [(1e-2, True), (1e-9, False)],
                         ids=["short", "tiny"])
def test_reach_box_distrusts_blocks_the_tolerant_decode_bends(scale, strict):
    # exact norms decode the short column, and _check_rot6d refuses the tiny one
    skel = chain_skeleton(3)
    row = pose_row(skel)
    row[6:9] *= scale      # joint 1's first column
    dots = geo._rot6d_dots(skel, row[None])
    lo, hi = geo.reach_box(skel, row[None], dots)
    assert np.all(lo == -np.inf) and np.all(hi == np.inf)
    assert np.all(np.isfinite(geo.reach_box(skel, row[None], dots, eps=0.0)[0])) == strict


# ---------------------------------------------------------------------------
# Boundaries on far-apart frames: each error stays what the full path raises
# ---------------------------------------------------------------------------

def far_pairs(skel, h=3):
    return [(still_actor(skel, h), still_actor(skel, h, (20.0, 0.0, 0.0)))
            for _ in range(2)]


@pytest.mark.parametrize("side", [0, 1])
def test_nan_rotation_in_a_far_frame_raises_invalid_config(side):
    skel = dt.default_skeleton()
    pairs = far_pairs(skel)
    motion = pairs[1][side]
    motion[1, 6 * skel.joint_count] = np.nan      # the root orientation
    with pytest.raises(InvalidConfig, match="finite"):
        mx.penetration_stats(pairs, skel, 0.02)
    assert len(set(both_paths(lambda: mx.penetration_stats(pairs, skel, 0.02)))) == 1


def test_far_eval_measures_each_block_once_and_runs_no_fk(monkeypatch):
    # two chunks of all-far pairs: one pass over the 6D blocks per side and
    # chunk feeds both the strict check and the reach test
    skel = dt.default_skeleton()
    pairs = far_pairs(skel) * 40
    passes = []
    measure = geo._rot6d_dots

    def counted(skeleton, motion):
        passes.append(len(motion))
        return measure(skeleton, motion)

    def never(*args, **kwargs):
        raise AssertionError("no frame is in reach")

    monkeypatch.setattr(geo, "_rot6d_dots", counted)
    monkeypatch.setattr(geo, "fk_positions_t", never)
    monkeypatch.setattr(geo, "intersection_volumes", never)
    assert mx.penetration_stats(pairs, skel, 0.02) == (0.0, 0, 240)
    assert passes == [3 * mx.EVAL_CHUNK] * 2 + [3 * (80 - mx.EVAL_CHUNK)] * 2


def test_degenerate_rotation_in_a_far_frame_raises():
    skel = dt.default_skeleton()
    pairs = far_pairs(skel)
    pairs[1][1][2, 6:9] = 0.0      # joint 1's first column
    with pytest.raises(DegenerateRotation):
        mx.penetration_stats(pairs, skel, 0.02)


@pytest.mark.parametrize("nan_side, error", [(0, InvalidConfig), (1, DegenerateRotation)])
def test_actor_errors_come_before_the_reactors(nan_side, error):
    # the order of the full path: the actors' blocks, the actors' bodies,
    # then the reactors' blocks and bodies
    skel = dt.default_skeleton()
    pairs = far_pairs(skel)
    pairs[0][nan_side][1, -3:] = np.nan     # a root: that frame goes the full way
    pairs[1][1 - nan_side][2, 6:9] = 0.0    # joint 1's first column
    with pytest.raises(error):
        mx.penetration_stats(pairs, skel, 0.02)


def test_far_frame_at_1e15_m_raises_grid_too_large():
    skel = dt.default_skeleton()
    pairs = far_pairs(skel)
    pairs[1][1][1, -3:] = [1e15, 0.0, 0.0]
    with pytest.raises(GridTooLarge):
        mx.penetration_stats(pairs, skel, 0.02)
    reach, full = both_paths(lambda: mx.penetration_stats(pairs, skel, 0.02))
    assert reach == full


def test_nan_reaction_in_a_far_frame_gives_the_full_paths_nan():
    skel = chain_skeleton(3)
    actor = still_actor(skel, 2)
    ctx = context(skel, skel, actor)
    reaction = still_actor(skel, 2, (20.0, 0.0, 0.0))[None]
    reaction[0, 1, 0] = np.nan
    for term in (smp.penetration_loss, smp.penetration_grad):
        reach, full = both_paths(lambda: term(reaction, ctx, 0.5))
        assert reach == full
    assert np.isnan(smp.penetration_loss(reaction, ctx, 0.5))


# ---------------------------------------------------------------------------
# Mechanism: far frames go through neither FK nor the SDF
# ---------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """Frames passed to the tape FK and to the SDF, one entry per call."""
    calls = {"fk": [], "sdf": []}
    fk, sdf = geo.fk_positions_t, geo.sdf_and_gradient

    def counting_fk(skel, motion, *args, **kwargs):
        calls["fk"].append(motion.shape[0])
        return fk(skel, motion, *args, **kwargs)

    def counting_sdf(points, body):
        calls["sdf"].append(body.seg_a.shape[0])
        return sdf(points, body)

    monkeypatch.setattr(geo, "fk_positions_t", counting_fk)
    monkeypatch.setattr(geo, "sdf_and_gradient", counting_sdf)
    return calls


def test_penetration_stats_takes_only_near_frames_through_fk(counted):
    skel = dt.default_skeleton()
    near = still_actor(skel, 2, (0.1, 0.0, 0.0))
    far = still_actor(skel, 3, (4.0, 0.0, 0.0))
    pairs = [(still_actor(skel, 5), np.concatenate([near, far])), *far_pairs(skel)]
    stats = mx.penetration_stats(pairs, skel, 0.02)
    assert stats.f_total == 11 and stats.f_pene == 2
    assert counted["fk"] == [2, 2]      # actor and reactor, the two near frames
    counted["fk"].clear()
    mx.penetration_stats(far_pairs(skel), skel, 0.02)
    assert counted["fk"] == []


def test_penetration_grad_takes_only_near_frames_through_fk_and_sdf(counted):
    skel = dt.default_skeleton()
    actor = still_actor(skel, 4)
    ctx = smp.GuidanceContext.from_actor(skel, np.stack([actor, actor]))
    reaction = np.stack([still_actor(skel, 4, (4.0, 0.0, 0.0)) for _ in range(2)])
    reaction[1, 2, -3:] = [0.3, 0.0, 0.0]
    counted["fk"].clear()
    grad = smp.penetration_grad(reaction, ctx, 0.5)
    assert counted == {"fk": [1], "sdf": [1]}
    assert np.all(grad[0] == 0.0) and np.all(grad[1, [0, 1, 3]] == 0.0)
    assert grad[1, 2].any()
    counted["fk"].clear()
    counted["sdf"].clear()
    reaction[1, 2, -3:] = [4.0, 0.0, 0.0]
    assert not smp.penetration_grad(reaction, ctx, 0.5).any()
    assert smp.penetration_loss(reaction, ctx, 0.5) == -(2 * 4 * skel.joint_count * 0.5)
    assert counted == {"fk": [], "sdf": []}
