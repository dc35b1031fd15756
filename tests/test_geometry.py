import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arflow import geometry as geo
from arflow.errors import (
    DegenerateRotation,
    GridTooLarge,
    InvalidConfig,
    NotARotation,
)

from voxel_oracle import (
    GridMismatch,
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
    return np.concatenate([geo.rot6d_encode(rots).reshape(-1),
                           np.asarray(trans, dtype=float)])


def forward_kinematics(skel, row):
    """Reference FK of one motion row, one matrix product at a time: (K, 3)."""
    k = skel.joint_count
    rots = geo.rot6d_decode(row[:6 * (k + 1)].reshape(k + 1, 6))
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
# 6D rotations
# ---------------------------------------------------------------------------

def test_decode_identity():
    assert np.allclose(geo.rot6d_decode([1, 0, 0, 0, 1, 0]), np.eye(3), atol=1e-12)


def test_decode_quarter_turn_about_z():
    # hand Gram-Schmidt: columns (0,1,0), (-1,0,0), cross -> (0,0,1)
    m = geo.rot6d_decode([0, 1, 0, -1, 0, 0])
    assert np.allclose(m, rz(np.pi / 2), atol=1e-12)


def test_decode_normalizes_and_orthogonalizes():
    m = geo.rot6d_decode([2, 0, 0, 1, 1, 0])
    assert np.allclose(m, np.eye(3), atol=1e-12)


def test_decode_is_special_orthogonal():
    rng = np.random.default_rng(7)
    r = rng.normal(size=(50, 6))
    m = geo.rot6d_decode(r)
    assert np.allclose(np.einsum("nji,njk->nik", m, m), np.eye(3), atol=1e-9)
    assert np.allclose(np.linalg.det(m), 1.0, atol=1e-9)


@pytest.mark.parametrize("bad", [
    [0, 0, 0, 0, 1, 0],           # zero first column
    [1, 0, 0, 1e-12, 0, 0],       # zero second column
    [1, 0, 0, 2, 0, 0],           # parallel columns
    [1, 0, 0, -3, 0, 0],          # anti-parallel columns
])
def test_decode_degenerate(bad):
    with pytest.raises(DegenerateRotation):
        geo.rot6d_decode(bad)


def test_encode_identity_and_quarter_turn():
    assert np.allclose(geo.rot6d_encode(np.eye(3)), [1, 0, 0, 0, 1, 0])
    assert np.allclose(geo.rot6d_encode(rz(np.pi / 2)), [0, 1, 0, -1, 0, 0],
                       atol=1e-12)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = random_rotation(rng)
        assert np.allclose(geo.rot6d_decode(geo.rot6d_encode(m)), m, atol=1e-9)


def test_encode_rejects_non_rotation():
    with pytest.raises(NotARotation):
        geo.rot6d_encode(2.0 * np.eye(3))
    with pytest.raises(NotARotation):
        geo.rot6d_encode(np.diag([1.0, 1.0, -1.0]))
    for value in (np.nan, np.inf):
        with pytest.raises(NotARotation):
            geo.rot6d_encode(np.full((3, 3), value))
        m = np.tile(np.eye(3), (2, 1, 1))
        m[1, 0, 0] = value
        with pytest.raises(NotARotation):
            geo.rot6d_encode(m)


def test_decode_tape_matches_strict():
    from arflow import autodiff as ad
    rng = np.random.default_rng(3)
    r = rng.normal(size=(20, 6))
    got = geo.decode_rot6d_t(ad.constant(r)).data
    assert np.allclose(got, geo.rot6d_decode(r), atol=1e-10)


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
    assert np.allclose(moved, base + np.array([5.0, 0.0, 0.0]), atol=1e-12)


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
    assert np.allclose(rotated, base @ r.T, atol=1e-10)


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
    from arflow import autodiff as ad
    rng = np.random.default_rng(13)
    skel = chain_skeleton(4, offset=(0.3, 0.2, 0.1))
    motion = rng.normal(size=(5, skel.motion_dim))
    pos_t, rots_t = geo.fk_positions_t(skel, ad.constant(motion))
    assert np.allclose(pos_t.data, geo.motion_joint_positions(skel, motion), atol=1e-9)
    k = skel.joint_count
    rots = geo.rot6d_decode(motion[:, :6 * (k + 1)].reshape(5, k + 1, 6))
    assert np.allclose(rots_t.data, rots, atol=1e-9)


# ---------------------------------------------------------------------------
# Capsules and SDF
# ---------------------------------------------------------------------------

def test_body_capsules_basic():
    skel = chain_skeleton(2)
    caps = geo.motion_capsules(skel, pose_row(skel)[None]).frame(0)
    assert len(caps) == 1
    assert np.allclose(caps.seg_a[0], [0, 0, 0])
    assert np.allclose(caps.seg_b[0], [0, 0, 1])
    assert caps.radius[0] == pytest.approx(0.1)


def test_body_capsules_count_and_translation():
    skel = chain_skeleton(5)
    motion = np.stack([pose_row(skel), pose_row(skel, trans=(1.0, 2.0, 3.0))])
    bodies = geo.motion_capsules(skel, motion)
    caps, moved = bodies.frame(0), bodies.frame(1)
    assert len(caps) == 4
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
        sdfs = geo._capsule_sdfs(p.reshape(1, 3), body)[0]
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
    nearest = geo._segment_closest(p.reshape(1, 3), body.seg_a, body.seg_b)[0, 0]
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
    motion = np.concatenate([geo.rot6d_encode(rots).reshape(5, -1),
                             rng.normal(size=(5, 3))], axis=1)
    bodies = geo.motion_capsules(skel, motion)
    assert bodies.seg_a.shape == (5, k - 1, 3)
    parents = list(skel.parents[1:])
    for f, row in enumerate(motion):
        pos = forward_kinematics(skel, row)
        assert np.allclose(bodies.frame(f).seg_a, pos[parents], atol=1e-12)
        assert np.allclose(bodies.frame(f).seg_b, pos[1:], atol=1e-12)
    with pytest.raises(InvalidConfig):
        geo.CapsuleSet(np.zeros((2, 3)), np.zeros((3, 3)), np.ones(2))


def test_sdf_is_lipschitz():
    rng = np.random.default_rng(31)
    body = geo.CapsuleSet(
        rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), np.full(4, 0.2))
    p = rng.normal(scale=2.0, size=(200, 3))
    q = rng.normal(scale=2.0, size=(200, 3))
    sp = geo._capsule_sdfs(p, body).min(axis=1)
    sq = geo._capsule_sdfs(q, body).min(axis=1)
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
    inside = ((geo._capsule_sdfs(pts, a).min(axis=1) < 0)
              & (geo._capsule_sdfs(pts, b).min(axis=1) < 0))
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


def test_intersection_volume_grid_too_large(monkeypatch):
    body = one_capsule()
    far = one_capsule(a=(5, 0, 0), b=(6, 0, 0))
    assert geo.capsule_intersection_volume(body, body, 0.05) > 0.0
    monkeypatch.setattr(geo, "MAX_VOXELS", 383)  # the overlap window holds 384
    with pytest.raises(GridTooLarge):
        geo.capsule_intersection_volume(body, body, 0.05)
    # disjoint boxes exit before the cap is consulted
    assert geo.capsule_intersection_volume(body, far, 0.05) == 0.0


@pytest.mark.parametrize("voxel_size", [0.0, -0.02, float("nan"), float("inf")])
def test_intersection_volume_rejects_bad_voxel_size(voxel_size):
    body = one_capsule()
    with pytest.raises(InvalidConfig):
        geo.capsule_intersection_volume(body, body, voxel_size)
