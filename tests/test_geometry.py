import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arflow import autodiff as ad
from arflow import geometry as geo
from arflow.errors import (
    DegenerateRotation,
    GridTooLarge,
    InvalidConfig,
)

from oracles import check_rot6d, decode, rot6d, rotations
from voxel_oracle import (
    GridMismatch,
    capsule_sdfs,
    full_grid_intersection_volume,
    intersection_volume_frame,
    shared_bounds,
    voxelize,
    window_intersection_volume,
)


def chain_skeleton(k=3, offset=(0.0, 0.0, 1.0), radius=0.1):
    return geo.Skeleton(
        parents=tuple([-1] + list(range(k - 1))),
        offsets=np.tile(np.asarray(offset, dtype=float), (k, 1)),
        radii=np.full(k - 1, radius),
    )


def pose_row(skel, joint_rots=None, root_rot=None, trans=(0.0, 0.0, 0.0)):
    """One motion row: K joint rotations and the root orientation as 3x3
    matrices (identity when omitted), then the root translation."""
    k = skel.joint_count
    rots = np.tile(np.eye(3), (k + 1, 1, 1))
    if joint_rots is not None:
        rots[:k] = joint_rots
    if root_rot is not None:
        rots[k] = root_rot
    return np.concatenate([rot6d(rots).reshape(-1), np.asarray(trans, dtype=float)])


def forward_kinematics(skel, row):
    """Reference FK of one motion row, one matrix product at a time: (K, 3)."""
    k = skel.joint_count
    rots = rotations(row[:6 * (k + 1)].reshape(k + 1, 6))
    world_rot = np.empty((k, 3, 3))
    pos = np.empty((k, 3))
    world_rot[0] = rots[k] @ rots[0]
    pos[0] = row[-3:]
    for j in range(1, k):
        p = skel.parents[j]
        pos[j] = pos[p] + world_rot[p] @ skel.offsets[j]
        world_rot[j] = world_rot[p] @ rots[j]
    return pos


def fk_row(skel, row):
    """Production FK of one row: (K, 3)."""
    return geo.motion_joint_positions(skel, row[None])[0]


def rz(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# ---------------------------------------------------------------------------
# 6D rotations: the decode of every FK is ``decode_rot6d_t``; the strict
# entry ``motion_joint_positions`` checks the blocks and decodes at eps=0
# ---------------------------------------------------------------------------

def test_decode_identity():
    assert np.allclose(rotations([1, 0, 0, 0, 1, 0]), np.eye(3), atol=1e-12)


def test_decode_quarter_turn_about_z():
    # hand Gram-Schmidt: columns (0,1,0), (-1,0,0), cross -> (0,0,1)
    m = rotations([0, 1, 0, -1, 0, 0])
    assert np.allclose(m, rz(np.pi / 2), atol=1e-12)


def test_decode_normalizes_and_orthogonalizes():
    m = rotations([2, 0, 0, 1, 1, 0])
    assert np.allclose(m, np.eye(3), atol=1e-12)


def test_decode_is_special_orthogonal():
    rng = np.random.default_rng(7)
    r = rng.normal(size=(50, 6))
    m = rotations(r)
    assert np.allclose(np.einsum("nji,njk->nik", m, m), np.eye(3), atol=1e-9)
    assert np.allclose(np.linalg.det(m), 1.0, atol=1e-9)


def test_decode_of_short_valid_columns_is_orthonormal():
    # column norms of 1e-7 pass the strict checks; a smoothed decode
    # (eps=1e-12 inside the norms) would bend these blocks far from rotations
    rng = np.random.default_rng(17)
    m = np.stack([np.eye(3)] + [random_rotation(rng) for _ in range(3)])
    short = 1e-7 * rot6d(m)
    assert np.array_equal(short[0], [1e-7, 0, 0, 0, 1e-7, 0])
    got = rotations(short)
    assert np.allclose(np.einsum("nji,njk->nik", got, got), np.eye(3), atol=1e-12)
    assert np.allclose(got, m, atol=1e-12)
    skel = chain_skeleton(3, offset=(0.3, 0.1, 0.5))
    row = pose_row(skel, m[:3], m[3], trans=(0.1, 0.2, 0.3))
    scaled = row.copy()
    scaled[:-3] *= 1e-7
    assert np.allclose(fk_row(skel, scaled), fk_row(skel, row), atol=1e-12)


@pytest.mark.parametrize("bad", [
    [0, 0, 0, 0, 1, 0],           # zero first column
    [1, 0, 0, 1e-12, 0, 0],       # zero second column
    [1, 0, 0, 2, 0, 0],           # parallel columns
    [1, 0, 0, -3, 0, 0],          # anti-parallel columns
    [1e200, 0, 0, 0, 1e200, 0],   # squared column norms overflow
    [1, 0, 0, 0, 1e160, 0],       # second column's squared norm overflows
])
def test_decode_degenerate(bad):
    # the strict FK checks every block of a motion before decoding; a
    # RuntimeWarning from the check would fail the test too
    skel = chain_skeleton(3)
    motion = np.tile(pose_row(skel), (2, 1))
    motion[1, 6:12] = bad
    with pytest.raises(DegenerateRotation):
        geo.motion_joint_positions(skel, motion)


def test_motion_with_a_huge_block_is_degenerate():
    # the exact decode of such a block divides by inf and returns zeros
    skel = chain_skeleton(3)
    motion = np.tile(pose_row(skel), (2, 1))
    motion[1, 6:12] = [1e200, 0, 0, 0, 1e200, 0]
    with pytest.raises(DegenerateRotation, match="too long"):
        geo.motion_joint_positions(skel, motion)


def block_cases():
    """Named (N, 6) stacks of 6D blocks on both sides of each rule of the
    strict check, none on a threshold: random blocks; blocks scaled to
    1e-12..1e-6 (tiny), to 1e-200..1e-150 (squares underflow) and to
    1e150..1e200 (squares overflow); and near-parallel ones, ``b = ±s a``
    turned by 1e-7..1e-2 rad (the limit is about 1.4e-4 rad)."""
    rng = np.random.default_rng(33)
    normal = rng.normal(size=(400, 6))
    scaled = {name: normal * 10.0 ** rng.uniform(lo, hi, (400, 1))
              for name, lo, hi in [("tiny", -12, -6), ("underflowing", -200, -150),
                                   ("huge", 150, 200)]}
    one_column = normal.copy()
    one_column[:, rng.integers(0, 2, 400) * 3] *= 1e200
    a = normal[:, :3]
    perp = np.cross(a, rng.normal(size=(400, 3)))
    perp *= (np.linalg.norm(a, axis=1) / np.linalg.norm(perp, axis=1))[:, None]
    angle = 10.0 ** rng.uniform(-7, -2, (400, 1))
    sign = rng.choice([-1.0, 1.0], (400, 1)) * rng.uniform(0.5, 2.0, (400, 1))
    parallel = np.concatenate([a, sign * (np.cos(angle) * a + np.sin(angle) * perp)], axis=1)
    cases = {"random": normal, **scaled, "one column 1e200": one_column,
             "near-parallel": parallel}
    # the precedence of the rules over blocks of several kinds
    cases["huge, near-parallel"] = np.concatenate([parallel, scaled["huge"]])
    cases["all"] = np.concatenate(list(cases.values()))
    return cases


# the verdicts each stack of ``block_cases`` must reach
ZERO, LONG, PARALLEL = ("6D block has a near-zero column",
                        "6D block has a column too long to normalize",
                        "6D block has near-parallel columns")
BLOCK_VERDICTS = {"random": {None}, "tiny": {None, ZERO}, "underflowing": {ZERO},
                  "huge": {None, LONG}, "one column 1e200": {LONG},
                  "near-parallel": {None, PARALLEL},
                  "huge, near-parallel": {None, LONG, PARALLEL},
                  "all": {None, ZERO, LONG, PARALLEL}}


def strict_verdict(check):
    """The message of the ``DegenerateRotation`` that ``check()`` raises, or None."""
    try:
        check()
    except DegenerateRotation as err:
        return str(err)
    return None


@pytest.mark.parametrize("name", list(BLOCK_VERDICTS))
def test_strict_check_matches_the_norm_oracle(name):
    # one verdict per block, then the precedence over all blocks at once
    blocks = block_cases()[name]
    skel = chain_skeleton(1)
    # a one-joint skeleton: the block under test, then an identity root
    rows = np.concatenate([blocks, np.tile(geo.IDENTITY_ROT6D, (len(blocks), 1)),
                           np.zeros((len(blocks), 3))], axis=1)

    def package(motion):
        return strict_verdict(lambda: geo._check_rot6d(*geo._rot6d_dots(skel, motion)))

    verdicts = [package(row[None]) for row in rows]
    assert verdicts == [strict_verdict(lambda: check_rot6d(block)) for block in blocks]
    assert package(rows) == strict_verdict(lambda: check_rot6d(blocks))
    assert set(verdicts) == BLOCK_VERDICTS[name]


def test_encode_identity_and_quarter_turn():
    # the tests' encode writes the layout the decode reads
    assert np.array_equal(rot6d(np.eye(3)), geo.IDENTITY_ROT6D)
    assert np.allclose(rot6d(rz(np.pi / 2)), [0, 1, 0, -1, 0, 0], atol=1e-12)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = random_rotation(rng)
        assert np.allclose(rotations(rot6d(m)), m, rtol=0, atol=1e-9)


def test_decode_tape_matches_strict():
    # the default eps of in-flight predictions against exact norms
    rng = np.random.default_rng(3)
    r = rng.normal(size=(20, 6))
    got = geo.decode_rot6d_t(ad.constant(r)).data
    assert np.allclose(got, rotations(r), atol=1e-10)


def _decode_blocks():
    rng = np.random.default_rng(23)
    col = rng.normal(size=(40, 3))
    turned = np.stack([random_rotation(rng) for _ in range(20)])
    return {
        "random": rng.normal(size=(3, 40, 6)),
        "short": 1e-7 * rng.normal(size=(40, 6)),
        "near-parallel": np.concatenate([col, 2.0 * col + 1e-9 * rng.normal(size=(40, 3))],
                                        axis=-1),
        "huge": 1e150 * rng.normal(size=(40, 6)),
        "turned": rot6d(turned @ rz(0.3)),
    }


@pytest.mark.parametrize("eps", [1e-12, 0.0])
@pytest.mark.parametrize("kind", list(_decode_blocks()))
def test_decode_node_is_bit_equal_to_the_composed_chain(kind, eps):
    # the one-node decode repeats the composed ops' arithmetic, so strict FK
    # and every artifact built on it keep their bits
    r = _decode_blocks()[kind]
    got = geo.decode_rot6d_t(ad.constant(r), eps=eps).data
    assert np.array_equal(got, decode(r, eps))


# ---------------------------------------------------------------------------
# Forward kinematics
# ---------------------------------------------------------------------------

def test_fk_identity_chain():
    skel = chain_skeleton(3)
    pos = fk_row(skel, pose_row(skel))
    assert np.allclose(pos, [[0, 0, 0], [0, 0, 1], [0, 0, 2]], atol=1e-12)


def test_fk_translation_equivariance():
    skel = chain_skeleton(4)
    base = fk_row(skel, pose_row(skel))
    moved = fk_row(skel, pose_row(skel, trans=(5.0, 0.0, 0.0)))
    assert np.allclose(moved, base + np.array([5.0, 0.0, 0.0]), rtol=0, atol=1e-12)


def test_fk_root_rotation_turns_bone():
    skel = geo.Skeleton((-1, 0), np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([0.1]))
    pos = fk_row(skel, pose_row(skel, root_rot=rz(np.pi / 2)))
    assert np.allclose(pos[1], pos[0] + np.array([0.0, 1.0, 0.0]), atol=1e-12)


def test_fk_rotation_equivariance():
    rng = np.random.default_rng(5)
    skel = chain_skeleton(4, offset=(0.3, 0.1, 0.5))
    joint_rots = [random_rotation(rng) for _ in range(4)]
    trans = rng.normal(size=3)
    base = fk_row(skel, pose_row(skel, joint_rots, trans=trans))
    r = random_rotation(rng)
    rotated = fk_row(skel, pose_row(skel, joint_rots, root_rot=r, trans=r @ trans))
    assert np.allclose(rotated, base @ r.T, rtol=0, atol=1e-10)


def test_motion_fk_matches_per_frame():
    rng = np.random.default_rng(9)
    skel = chain_skeleton(5, offset=(0.2, 0.0, 0.4))
    motion = np.stack([pose_row(skel, [random_rotation(rng) for _ in range(5)],
                                random_rotation(rng), rng.normal(size=3))
                       for _ in range(6)])
    batched = geo.motion_joint_positions(skel, motion)
    for h, row in enumerate(motion):
        assert np.allclose(batched[h], forward_kinematics(skel, row), atol=1e-12)


def test_fk_tape_matches_numpy():
    rng = np.random.default_rng(13)
    skel = chain_skeleton(4, offset=(0.3, 0.2, 0.1))
    motion = rng.normal(size=(5, skel.motion_dim))
    pos_t, rots_t = geo.fk_positions_t(skel, ad.constant(motion))
    assert np.allclose(pos_t.data, geo.motion_joint_positions(skel, motion), atol=1e-9)
    k = skel.joint_count
    rots = rotations(motion[:, :6 * (k + 1)].reshape(5, k + 1, 6))
    assert np.allclose(rots_t.data, rots, atol=1e-9)


# ---------------------------------------------------------------------------
# Capsules and SDF
# ---------------------------------------------------------------------------

def test_body_capsules_basic():
    skel = chain_skeleton(2)
    bodies = geo.motion_capsules(skel, pose_row(skel)[None])
    caps = geo.CapsuleSet(bodies.seg_a[0], bodies.seg_b[0], bodies.radius)
    assert caps.seg_a.shape == (1, 3)
    assert np.allclose(caps.seg_a[0], [0, 0, 0])
    assert np.allclose(caps.seg_b[0], [0, 0, 1])
    assert caps.radius[0] == pytest.approx(0.1)


def test_body_capsules_count_and_translation():
    skel = chain_skeleton(5)
    motion = np.stack([pose_row(skel), pose_row(skel, trans=(1.0, 2.0, 3.0))])
    bodies = geo.motion_capsules(skel, motion)
    caps, moved = (geo.CapsuleSet(bodies.seg_a[f], bodies.seg_b[f], bodies.radius)
                   for f in (0, 1))
    assert caps.seg_a.shape == (4, 3)
    assert np.allclose(moved.seg_a, caps.seg_a + np.array([1.0, 2.0, 3.0]))
    assert np.allclose(moved.seg_b, caps.seg_b + np.array([1.0, 2.0, 3.0]))


def one_capsule(a=(0, 0, 0), b=(1, 0, 0), r=0.1):
    return geo.CapsuleSet(np.array([a], float), np.array([b], float), np.array([r]))


def test_sdf_on_surface_and_axis():
    body = one_capsule()
    sdf, _ = geo.sdf_and_gradient([[0.5, 0.1, 0.0], [0.5, 0.0, 0.0]], body)
    assert sdf[0] == pytest.approx(0.0, abs=1e-12)
    assert sdf[1] == pytest.approx(-0.1, abs=1e-12)


def test_sdf_two_capsules_hand_value():
    body = geo.CapsuleSet(
        np.array([[0.0, 0, 0], [10.0, 0, 0]]),
        np.array([[1.0, 0, 0], [11.0, 0, 0]]),
        np.array([0.1, 0.1]),
    )
    # point 0.5 above the near capsule's axis end: distance 0.5, minus radius
    sdf, _ = geo.sdf_and_gradient([1.0, 0.5, 0.0], body)
    assert sdf[0] == pytest.approx(0.4, abs=1e-12)


def test_sdf_gradient_above_midpoint():
    body = one_capsule()
    _, g = geo.sdf_and_gradient([0.5, 0.0, 0.7], body)
    assert np.allclose(g, [0.0, 0.0, 1.0], atol=1e-12)


def test_sdf_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    body = geo.CapsuleSet(
        rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), np.array([0.2, 0.3, 0.15]))
    h = 1e-6
    checked = 0
    for _ in range(100):
        p = rng.normal(scale=1.5, size=3)
        sdfs = capsule_sdfs(p.reshape(1, 3), body)[0]
        order = np.sort(sdfs)
        if len(order) > 1 and order[1] - order[0] < 1e-3:
            continue  # too close to a capsule-switch kink for FD
        sdf, g = geo.sdf_and_gradient(p, body)
        if abs(sdf[0]) < 1e-3:
            continue
        sdf_pm, _ = geo.sdf_and_gradient(
            p + h * np.concatenate([np.eye(3), -np.eye(3)]), body)
        fd = (sdf_pm[:3] - sdf_pm[3:]) / (2 * h)
        assert np.linalg.norm(fd - g) / np.linalg.norm(fd) < 1e-5
        checked += 1
    assert checked >= 50


def test_sdf_gradient_radial_invariance():
    body = one_capsule()
    p = np.array([0.5, 0.6, 0.3])
    a, d, dd = geo._segments(body.seg_a, body.seg_b)
    offset, _ = geo._capsule_distance(p, a[:, 0], d[:, 0], dd[0])
    nearest = p - np.array(offset)
    _, (g1, g2) = geo.sdf_and_gradient([p, nearest + 3.0 * (p - nearest)], body)
    assert np.allclose(g1, g2, atol=1e-12)


def test_sdf_gradient_tie_rule_on_axis():
    body = one_capsule(a=(0, 0, 0), b=(0, 0, 1), r=0.1)
    _, g = geo.sdf_and_gradient([0.0, 0.0, 0.5], body)
    assert np.allclose(g, [1.0, 0.0, 0.0], atol=1e-12)  # +x projected


def test_sdf_per_frame_bodies_match_single_bodies():
    # frame f's points against frame f's body, tie points included
    rng = np.random.default_rng(24)
    seg_a = rng.normal(size=(6, 3, 3))
    seg_b = rng.normal(size=(6, 3, 3))
    radii = np.array([0.2, 0.1, 0.3])
    points = rng.normal(size=(6, 4, 3))
    points[2, 1] = 0.5 * (seg_a[2, 0] + seg_b[2, 0])  # on an axis
    sdf, grad = geo.sdf_and_gradient(points, geo.CapsuleSet(seg_a, seg_b, radii))
    assert sdf.shape == (6, 4) and grad.shape == (6, 4, 3)
    for f in range(6):
        one = geo.CapsuleSet(seg_a[f], seg_b[f], radii)
        sdf_f, grad_f = geo.sdf_and_gradient(points[f], one)
        assert np.array_equal(sdf[f], sdf_f) and np.array_equal(grad[f], grad_f)


def test_motion_capsules_match_single_frame_bodies():
    rng = np.random.default_rng(25)
    skel = chain_skeleton(4, offset=(0.1, 0.2, 0.3))
    k = skel.joint_count
    rots = np.stack([random_rotation(rng) for _ in range(5 * (k + 1))])
    motion = np.concatenate([rot6d(rots).reshape(5, -1),
                             rng.normal(size=(5, 3))], axis=1)
    bodies = geo.motion_capsules(skel, motion)
    assert bodies.seg_a.shape == (5, k - 1, 3)
    parents = list(skel.parents[1:])
    for f, row in enumerate(motion):
        pos = forward_kinematics(skel, row)
        assert np.allclose(bodies.seg_a[f], pos[parents], atol=1e-12)
        assert np.allclose(bodies.seg_b[f], pos[1:], atol=1e-12)
    with pytest.raises(InvalidConfig):
        geo.CapsuleSet(np.zeros((2, 3)), np.zeros((3, 3)), np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_capsule_set_rejects_non_finite_endpoints(bad):
    # a NaN body used to read as "no penetration": IV 0.0 and a NaN SDF
    for end in range(2):
        ends = [np.zeros((2, 3)), np.full((2, 3), 0.5)]
        ends[end][1, 2] = bad
        with pytest.raises(InvalidConfig, match="finite"):
            geo.CapsuleSet(ends[0], ends[1], np.full(2, 0.1))


def test_voxel_size_needs_a_finite_volume():
    # a voxel of 1e308 m used to overflow its cube: OverflowError, exit 1
    geo.check_voxel_size(geo.MAX_VOXEL_SIZE)
    assert np.isfinite(geo.MAX_VOXEL_SIZE ** 3)
    for voxel in (np.nextafter(geo.MAX_VOXEL_SIZE, np.inf), 1e103, 1e308):
        with pytest.raises(InvalidConfig, match="finite volume"):
            geo.check_voxel_size(voxel)


@pytest.mark.parametrize("column", [0, -1])  # a rotation slot, the root translation
def test_nan_motion_has_no_capsules(column):
    # every body the IV sweep and the guidance SDF see comes from here
    skel = chain_skeleton(3)
    motion = np.tile(pose_row(skel), (3, 1))
    motion[1, column] = np.nan
    with pytest.raises(InvalidConfig, match="finite"):
        geo.motion_capsules(skel, motion)


def test_sdf_is_lipschitz():
    rng = np.random.default_rng(31)
    body = geo.CapsuleSet(
        rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), np.full(4, 0.2))
    p = rng.normal(scale=2.0, size=(200, 3))
    q = rng.normal(scale=2.0, size=(200, 3))
    sp = capsule_sdfs(p, body).min(axis=1)
    sq = capsule_sdfs(q, body).min(axis=1)
    assert np.all(np.abs(sp - sq) <= np.linalg.norm(p - q, axis=1) + 1e-12)


# ---------------------------------------------------------------------------
# Voxelization
# ---------------------------------------------------------------------------

def capsule_volume(length, r):
    return np.pi * r ** 2 * length + 4.0 / 3.0 * np.pi * r ** 3


def test_voxel_volume_close_to_analytic():
    r, length = 0.1, 0.6
    body = one_capsule(a=(0, 0, 0), b=(length, 0, 0), r=r)
    grid = voxelize(body, voxel_size=r / 10.0)
    expected = capsule_volume(length, r)
    assert abs(grid.volume - expected) / expected < 0.05
    assert grid.volume == grid.occupied_count * grid.voxel_size ** 3


def test_voxel_refinement_converges():
    r, length = 0.1, 0.4
    body = one_capsule(a=(0, 0, 0), b=(length, 0, 0), r=r)
    expected = capsule_volume(length, r)
    errs = [abs(voxelize(body, vs).volume - expected)
            for vs in (r / 2.0, r / 4.0, r / 8.0)]
    assert errs[2] < errs[0]
    assert errs[2] / expected < 0.05


def test_voxel_centers_can_all_miss_a_thin_body():
    body = one_capsule(a=(0.0, 0.0, 0.0), b=(0.05, 0.0, 0.0), r=0.01)
    grid = voxelize(body, voxel_size=1.0, bounds=(np.full(3, -5.0), np.full(3, 5.0)))
    assert grid.occupied_count == 0


def test_voxel_additivity_of_disjoint_bodies():
    r = 0.1
    a = one_capsule(a=(0, 0, 0), b=(0.5, 0, 0), r=r)
    b = one_capsule(a=(10, 0, 0), b=(10.5, 0, 0), r=r)
    both = geo.CapsuleSet(np.vstack([a.seg_a, b.seg_a]),
                          np.vstack([a.seg_b, b.seg_b]),
                          np.concatenate([a.radius, b.radius]))
    vs = r / 8.0
    v_both = voxelize(both, vs).volume
    v_sum = voxelize(a, vs).volume + voxelize(b, vs).volume
    assert abs(v_both - v_sum) <= 2 * vs ** 3


def test_voxel_bounds_enclose_body():
    body = one_capsule()
    grid = voxelize(body, 0.05)
    lo, hi = body.aabb()
    assert np.all(grid.origin <= lo)
    assert np.all(grid.origin + np.array(grid.dims) * grid.voxel_size >= hi)


def test_voxelize_grid_too_large():
    with pytest.raises(GridTooLarge):
        voxelize(one_capsule(), voxel_size=1e-5, max_voxels=10 ** 6)


def test_voxelize_rejects_non_enclosing_bounds():
    with pytest.raises(InvalidConfig):
        voxelize(one_capsule(), 0.05, bounds=(np.zeros(3), np.full(3, 0.2)))


# ---------------------------------------------------------------------------
# Intersection volume
# ---------------------------------------------------------------------------

def test_intersection_identical_grids():
    body = one_capsule()
    g = voxelize(body, 0.02)
    assert intersection_volume_frame(g, g) == pytest.approx(g.volume)


def test_intersection_disjoint_and_symmetry():
    a = one_capsule(a=(0, 0, 0), b=(0.4, 0, 0), r=0.1)
    b = one_capsule(a=(3, 0, 0), b=(3.4, 0, 0), r=0.1)
    vs = 0.02
    bounds = shared_bounds(a, b, vs)
    ga = voxelize(a, vs, bounds)
    gb = voxelize(b, vs, bounds)
    assert intersection_volume_frame(ga, gb) == 0.0
    assert (intersection_volume_frame(ga, gb)
            == intersection_volume_frame(gb, ga))


def test_intersection_grid_mismatch():
    a = one_capsule()
    with pytest.raises(GridMismatch):
        intersection_volume_frame(voxelize(a, 0.02), voxelize(a, 0.04))


def test_intersection_offset_capsules_vs_monte_carlo():
    r = 0.1
    a = one_capsule(a=(0, 0, 0), b=(0.4, 0, 0), r=r)
    b = one_capsule(a=(0, r, 0), b=(0.4, r, 0), r=r)
    vs = 0.01
    bounds = shared_bounds(a, b, vs)
    vol = intersection_volume_frame(voxelize(a, vs, bounds),
                                    voxelize(b, vs, bounds))
    # Monte-Carlo oracle over the overlap bounding box, 10^6 samples
    rng = np.random.default_rng(123)
    lo = np.array([-r, 0.0, -r])
    hi = np.array([0.4 + r, r + r, r])
    pts = rng.uniform(lo, hi, size=(10 ** 6, 3))
    inside = ((capsule_sdfs(pts, a).min(axis=1) < 0)
              & (capsule_sdfs(pts, b).min(axis=1) < 0))
    mc = inside.mean() * np.prod(hi - lo)
    assert vol > 0
    assert abs(vol - mc) / mc < 0.05


def test_fast_intersection_matches_full_grid():
    rng = np.random.default_rng(77)
    for _ in range(5):
        a = geo.CapsuleSet(rng.uniform(-0.4, 0.4, (3, 3)),
                           rng.uniform(-0.4, 0.4, (3, 3)),
                           rng.uniform(0.05, 0.15, 3))
        b = geo.CapsuleSet(rng.uniform(-0.4, 0.4, (3, 3)) + 0.15,
                           rng.uniform(-0.4, 0.4, (3, 3)) + 0.15,
                           rng.uniform(0.05, 0.15, 3))
        vs = 0.02
        bounds = shared_bounds(a, b, vs)
        full = intersection_volume_frame(voxelize(a, vs, bounds),
                                         voxelize(b, vs, bounds))
        assert geo.capsule_intersection_volume(a, b, vs) == full


def test_superposed_bodies_intersection_equals_volume():
    body = one_capsule(a=(0, 0, 0), b=(0.3, 0, 0), r=0.08)
    vs = 0.02
    bounds = shared_bounds(body, body, vs)
    g = voxelize(body, vs, bounds)
    assert geo.capsule_intersection_volume(body, body, vs) == g.volume


# dyadic coordinates, radii and voxel sizes make the grid arithmetic exact:
# voxel centers then land exactly on capsule surfaces, and capsule boxes on
# the faces of the overlap window
DYADIC = 1.0 / 16.0


@st.composite
def capsule_bodies(draw, dyadic: bool):
    n = draw(st.integers(1, 4))
    if dyadic:
        coord = st.integers(-8, 8).map(lambda k: k * DYADIC)
        radius = st.integers(1, 5).map(lambda k: k * DYADIC)
    else:
        coord = st.floats(-0.4, 0.4)
        radius = st.floats(0.01, 0.2)
    seg_a = np.array([[draw(coord) for _ in range(3)] for _ in range(n)])
    seg_b = np.array([[draw(coord) for _ in range(3)] for _ in range(n)])
    zero_length = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    seg_b[zero_length] = seg_a[zero_length]
    return geo.CapsuleSet(seg_a, seg_b, np.array([draw(radius) for _ in range(n)]))


@st.composite
def capsule_pairs(draw):
    """Two bodies and a voxel size: unrelated, identical, or the second a
    copy of the first moved along one axis, by whole voxels or until the two
    boxes touch."""
    dyadic = draw(st.booleans())
    if dyadic:
        vs = draw(st.sampled_from([DYADIC, 2 * DYADIC, 4 * DYADIC]))
    else:
        vs = draw(st.floats(0.03, 0.1))
    a = draw(capsule_bodies(dyadic))
    kind = draw(st.sampled_from(["random", "identical", "shifted", "touching"]))
    if kind == "random":
        b = draw(capsule_bodies(dyadic))
    elif kind == "identical":
        b = a
    else:
        axis = draw(st.integers(0, 2))
        lo, hi = a.aabb()
        step = hi[axis] - lo[axis] if kind == "touching" else vs * draw(st.integers(-6, 6))
        shift = np.zeros(3)
        shift[axis] = step
        b = geo.CapsuleSet(a.seg_a + shift, a.seg_b + shift, a.radius)
    return a, b, vs


@settings(deadline=None, max_examples=120, database=None)
@given(capsule_pairs())
def test_intersection_volume_equals_full_grid_oracle(case):
    a, b, vs = case
    full = full_grid_intersection_volume(a, b, vs)
    assert window_intersection_volume(a, b, vs) == full
    assert geo.capsule_intersection_volume(a, b, vs) == full
    assert geo.capsule_intersection_volume(b, a, vs) == full


def test_sdf_distances_equal_the_sweeps_bit_for_bit():
    # the guidance SDF of one-capsule bodies against the capsule kernel as
    # the voxel sweep calls it: on three broadcast grid axes, and on scattered
    # points as three columns; single and per-frame bodies
    rng = np.random.default_rng(43)
    seg_a = rng.uniform(-0.3, 0.3, (2, 6, 3))
    seg_b = rng.uniform(-0.3, 0.3, (2, 6, 3))
    seg_b[:, 1] = seg_a[:, 1]                      # zero length
    seg_b[:, 2] = seg_a[:, 2] + [0.0, 0.0, 0.25]   # axis-parallel
    radius = rng.uniform(0.02, 0.2, 6)
    axes = [rng.uniform(-0.5, 0.5, n) for n in (7, 5, 9)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    scattered = rng.uniform(-0.5, 0.5, (2, 500, 3))
    a, d, dd = geo._segments(seg_a, seg_b)
    for c in range(6):
        frames = geo.CapsuleSet(seg_a[:, c:c + 1], seg_b[:, c:c + 1], radius[c:c + 1])
        per_frame, _ = geo.sdf_and_gradient(scattered, frames)
        for f in range(2):
            axis = (a[:, f, c], d[:, f, c], dd[f, c])
            _, on_grid = geo._capsule_distance(
                (axes[0][:, None, None], axes[1][None, :, None], axes[2][None, None, :]),
                *axis)
            _, on_points = geo._capsule_distance(scattered[f].T, *axis)
            body = geo.CapsuleSet(seg_a[f, c:c + 1], seg_b[f, c:c + 1], radius[c:c + 1])
            single, _ = geo.sdf_and_gradient(grid, body)
            assert np.array_equal(single, (on_grid - radius[c]).ravel())
            assert np.array_equal(per_frame[f], on_points - radius[c])
            assert np.array_equal(capsule_sdfs(grid, body)[:, 0], single)


@st.composite
def mixed_capsule_bodies(draw):
    """Free, zero-length and axis-parallel capsules with arbitrary floats."""
    n = draw(st.integers(1, 4))
    coord = st.floats(-0.15, 0.15)
    seg_a = np.array([[draw(coord) for _ in range(3)] for _ in range(n)])
    seg_b = seg_a.copy()
    for c in range(n):
        kind = draw(st.sampled_from(["free", "point", 0, 1, 2]))
        if kind == "free":
            seg_b[c] = [draw(coord) for _ in range(3)]
        elif kind != "point":
            seg_b[c, kind] = draw(coord)
    return geo.CapsuleSet(seg_a, seg_b, np.array([draw(st.floats(0.01, 0.08))
                                                   for _ in range(n)]))


@settings(deadline=None, max_examples=40, database=None)
@given(mixed_capsule_bodies(), mixed_capsule_bodies(),
       st.sampled_from([0.013, 0.0071]), st.floats(-0.1, 0.1))
def test_intersection_volume_exact_on_non_dyadic_grids(a, b, vs, shift):
    b = geo.CapsuleSet(b.seg_a + shift, b.seg_b + shift, b.radius)
    full = full_grid_intersection_volume(a, b, vs)
    assert geo.capsule_intersection_volume(a, b, vs) == full
    assert geo.capsule_intersection_volume(b, a, vs) == full


@pytest.mark.parametrize("chunk", [5, 37])
def test_intersection_volume_chunked_sweep_is_exact(chunk, monkeypatch):
    # a small chunk cuts every window into groups of at most a chunk of
    # voxels, and the kernel's centers into runs; the count must not change,
    # and no kernel call may take more than a chunk of centers.  The last
    # case puts six centers exactly on a sphere, so the kernel must test them
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(4):
        a = geo.CapsuleSet(rng.uniform(-0.2, 0.2, (3, 3)), rng.uniform(-0.2, 0.2, (3, 3)),
                           rng.uniform(0.04, 0.1, 3))
        b = geo.CapsuleSet(rng.uniform(-0.2, 0.2, (3, 3)) + 0.05,
                           rng.uniform(-0.2, 0.2, (3, 3)) + 0.05, rng.uniform(0.04, 0.1, 3))
        cases.append((a, b, 0.023))
    cases.append((one_capsule(a=(0, 0, 0), b=(0, 0, 0), r=0.25),
                  one_capsule(a=(0, 0, 0), b=(0.5, 0, 0), r=0.3125), 0.125))
    expected = [geo.capsule_intersection_volume(a, b, vs) for a, b, vs in cases]
    assert all(vol > 0.0 for vol in expected)

    sizes, groups = [], []
    kernel, occupancy = geo._capsule_distance, geo._occupancy

    def recording_kernel(p, *axis):
        sizes.append(np.broadcast(*p).size)
        return kernel(p, *axis)

    def recording_occupancy(model, win, cols, length, voxel_size):
        groups.append(length)
        return occupancy(model, win, cols, length, voxel_size)

    monkeypatch.setattr(geo, "_CHUNK", chunk)
    for (a, b, vs), vol in zip(cases, expected):
        assert window_intersection_volume(a, b, vs) == vol
    monkeypatch.setattr(geo, "_capsule_distance", recording_kernel)
    monkeypatch.setattr(geo, "_occupancy", recording_occupancy)
    for (a, b, vs), vol in zip(cases, expected):
        assert geo.capsule_intersection_volume(a, b, vs) == vol
    assert sizes and max(sizes) <= chunk
    # one occupancy per body and group: every frame splits into several
    # groups, none over a chunk of voxels
    assert max(groups) <= chunk and len(groups) > 2 * 2 * len(cases)


def test_intersection_volume_counts_no_center_on_a_surface():
    # the grid origin is -0.4375 on every axis, so the centers are the
    # multiples of 0.125; the six at distance 0.25 from the sphere's center
    # lie exactly on its surface, inside the capsule, and do not count
    sphere = one_capsule(a=(0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0), r=0.25)
    capsule = one_capsule(a=(0.0, 0.0, 0.0), b=(0.5, 0.0, 0.0), r=0.3125)
    vs = 0.125
    assert geo.sdf_and_gradient([0.25, 0.0, 0.0], sphere)[0][0] == 0.0
    assert geo.sdf_and_gradient([0.25, 0.0, 0.0], capsule)[0][0] < 0.0
    inside = 27 * vs ** 3   # integer points (i, j, k) with i² + j² + k² < 4
    assert full_grid_intersection_volume(sphere, capsule, vs) == inside
    assert geo.capsule_intersection_volume(sphere, capsule, vs) == inside
    assert geo.capsule_intersection_volume(capsule, sphere, vs) == inside


def test_intersection_volume_of_an_axis_whose_square_underflows():
    # |d|² underflows to 0, so the kernel measures from ``a``: the capsule is
    # the sphere of radius 0.03125 inside the larger sphere, 54 centers
    sphere = one_capsule(a=(0, 0, 0), b=(0, 0, 0), r=0.0625)
    capsule = one_capsule(a=(0, 0, 0), b=(0, 0, 1.45e-205), r=0.03125)
    vs = 0.013
    assert geo._segments(capsule.seg_a, capsule.seg_b)[2][0] == 1.0
    full = full_grid_intersection_volume(sphere, capsule, vs)
    assert full == 54 * vs ** 3
    assert geo.capsule_intersection_volume(sphere, capsule, vs) == full
    assert geo.capsule_intersection_volume(capsule, sphere, vs) == full


def test_intersection_volume_of_a_vertical_side_through_a_column():
    # the sphere puts the grid origin at -0.5625 in x and y, so the columns
    # stand at multiples of 0.125; the columns at distance 0.25 from the z
    # axis run exactly along the vertical capsule's side, outside it
    capsule = one_capsule(a=(0, 0, -0.25), b=(0, 0, 0.25), r=0.25)
    sphere = one_capsule(a=(0, 0, 0), b=(0, 0, 0), r=0.4375)
    vs = 0.125
    side = [[0.25, 0.0, z] for z in (-0.1875, 0.0625, 0.1875)]
    assert np.all(geo.sdf_and_gradient(side, capsule)[0] == 0.0)
    full = full_grid_intersection_volume(capsule, sphere, vs)
    assert full > 0.0
    assert geo.capsule_intersection_volume(capsule, sphere, vs) == full
    assert geo.capsule_intersection_volume(sphere, capsule, vs) == full


@pytest.mark.parametrize("vs", [0.0625, 0.013])
def test_intersection_volume_of_a_horizontal_capsule(vs):
    # dz = 0: the axis parameter does not change along a column
    level = one_capsule(a=(-0.2, 0.05, 0.1), b=(0.3, -0.1, 0.1), r=0.09)
    along_x = one_capsule(a=(-0.25, 0.0, 0.0), b=(0.25, 0.0, 0.0), r=0.125)
    other = geo.CapsuleSet([[0.0, 0.0, 0.0], [0.05, -0.02, -0.1]],
                           [[0.1, 0.1, 0.2], [0.05, -0.02, 0.3]], [0.08, 0.06])
    for a in (level, along_x):
        full = full_grid_intersection_volume(a, other, vs)
        assert full > 0.0
        assert geo.capsule_intersection_volume(a, other, vs) == full
        assert geo.capsule_intersection_volume(other, a, vs) == full


@pytest.mark.parametrize("offset", [1e6, -1e6])
def test_intersection_volume_far_from_the_origin(offset):
    # rounding grows with the coordinates; the margins grow with them
    rng = np.random.default_rng(5)
    shift = np.array([1.0, -1.0, 0.5]) * offset
    for vs in (0.02, 0.0071):
        a = geo.CapsuleSet(rng.uniform(-0.15, 0.15, (3, 3)) + shift,
                           rng.uniform(-0.15, 0.15, (3, 3)) + shift, rng.uniform(0.04, 0.1, 3))
        b = geo.CapsuleSet(rng.uniform(-0.15, 0.15, (3, 3)) + shift,
                           rng.uniform(-0.15, 0.15, (3, 3)) + shift, rng.uniform(0.04, 0.1, 3))
        full = full_grid_intersection_volume(a, b, vs)
        assert full > 0.0
        assert geo.capsule_intersection_volume(a, b, vs) == full
        assert geo.capsule_intersection_volume(b, a, vs) == full


@pytest.mark.parametrize("offset", [1e15, -1e17])
def test_intersection_volume_refuses_coordinates_that_swallow_the_radius(offset):
    # at 1e15 m a box loses a 0.05 m radius to rounding, and the sweep would
    # read 0 where the full grid counts voxels; it raises before the box test
    body = one_capsule(a=(offset, 0, 0), b=(offset, 0, 0), r=0.05)
    far = one_capsule(a=(offset, 9, 0), b=(offset, 9, 0), r=0.05)
    for other in (body, far):
        with pytest.raises(GridTooLarge, match="2\\^40"):
            geo.capsule_intersection_volume(body, other, 0.02)
    frames = geo.CapsuleSet(np.zeros((2, 1, 3)), np.zeros((2, 1, 3)), [0.05])
    frames.seg_a[1] = frames.seg_b[1] = [offset, 0, 0]
    with pytest.raises(GridTooLarge):
        geo.intersection_volumes(frames, frames, 0.02)


def test_intersection_volume_grid_too_large(monkeypatch):
    body = one_capsule()
    far = one_capsule(a=(5, 0, 0), b=(6, 0, 0))
    assert geo.capsule_intersection_volume(body, body, 0.05) > 0.0
    monkeypatch.setattr(geo, "MAX_VOXELS", 383)  # the overlap window holds 384
    with pytest.raises(GridTooLarge):
        geo.capsule_intersection_volume(body, body, 0.05)
    # disjoint boxes exit before the cap is consulted
    assert geo.capsule_intersection_volume(body, far, 0.05) == 0.0


@pytest.mark.parametrize("voxel_size", [3e-8, 1e-300])
def test_intersection_volume_voxel_cap_does_not_wrap(voxel_size):
    # about 7e22 voxels, a count that wraps in int64, and a voxel below
    # 2^-40 of the coordinate scale: both refused, neither an empty window
    body = one_capsule(a=(0, 0, 0), b=(1, 0, 0), r=0.5)
    with pytest.raises(GridTooLarge):
        geo.capsule_intersection_volume(body, body, voxel_size)


def test_intersection_volume_grid_past_2_53_voxels_on_an_axis():
    # a 1e200 m radius near the origin passes the scale check, but its grid
    # holds about 1e202 voxels along each axis
    body = one_capsule(r=1e200)
    with pytest.raises(GridTooLarge, match="2\\^53"):
        geo.capsule_intersection_volume(body, body, 0.02)


@pytest.mark.parametrize("voxel_size", [0.0, -0.02, float("nan"), float("inf")])
def test_intersection_volume_rejects_bad_voxel_size(voxel_size):
    body = one_capsule()
    with pytest.raises(InvalidConfig):
        geo.capsule_intersection_volume(body, body, voxel_size)
