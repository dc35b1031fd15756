import numpy as np
import pytest

from arflow import autodiff as ad
from arflow import flowpath as fp
from arflow import geometry as geo
from arflow.errors import DegenerateRotation, DimensionMismatch, SingularTime

from oracles import interaction_loss, rotations
from test_geometry import chain_skeleton, pose_row, random_rotation


def rand_pair(rng, shape=(8, 15)):
    return rng.normal(size=shape), rng.normal(size=shape)


# ---------------------------------------------------------------------------
# interpolate / target_velocity
# ---------------------------------------------------------------------------

def test_interpolate_endpoints():
    rng = np.random.default_rng(0)
    x0, x1 = rand_pair(rng)
    assert np.array_equal(fp.interpolate(x0, x1, 0.0, 0.1), x0)
    assert np.allclose(fp.interpolate(x0, x1, 1.0, 0.0), x1, rtol=0, atol=1e-15)


def test_interpolate_scalar_hand_value():
    got = fp.interpolate(np.array([[2.0]]), np.array([[4.0]]), 0.5, 0.1)
    assert got[0, 0] == pytest.approx(3.1, abs=1e-15)


def test_interpolate_at_one_keeps_sigma_coupling():
    rng = np.random.default_rng(1)
    x0, x1 = rand_pair(rng)
    s = 0.07
    assert np.allclose(fp.interpolate(x0, x1, 1.0, s), x1 + s * x0, rtol=0, atol=1e-15)


def test_target_velocity():
    rng = np.random.default_rng(2)
    x0, x1 = rand_pair(rng)
    assert np.allclose(fp.target_velocity(x0, x0, 0.0), 0.0)
    assert fp.target_velocity(np.array([[2.0]]), np.array([[4.0]]), 0.0)[0, 0] == 2.0
    assert fp.target_velocity(np.array([[2.0]]), np.array([[4.0]]), 0.1)[0, 0] \
        == pytest.approx(2.2, abs=1e-15)


def test_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        fp.interpolate(np.zeros((2, 3)), np.zeros((3, 2)), 0.5, 0.0)


# ---------------------------------------------------------------------------
# v <-> x1 transforms
# ---------------------------------------------------------------------------

def test_v_from_x1_recovers_path_velocity():
    rng = np.random.default_rng(3)
    for t in (0.0, 0.25, 0.6, 0.99):
        for s in (0.0, 1e-4, 0.1):
            x0, x1 = rand_pair(rng)
            x_t = fp.interpolate(x0, x1, t, s)
            v = fp.v_from_x1(x1, x_t, t, s)
            assert np.allclose(v, fp.target_velocity(x0, x1, s), rtol=0, atol=1e-12)


def test_v_from_x1_hand_value_and_t0():
    got = fp.v_from_x1(np.array([[4.0]]), np.array([[3.1]]), 0.5, 0.1)
    assert got[0, 0] == pytest.approx(2.2, abs=1e-12)
    rng = np.random.default_rng(4)
    x1h, xt = rand_pair(rng)
    assert np.allclose(fp.v_from_x1(x1h, xt, 0.0, 0.0), x1h - xt, atol=1e-15)


def test_v_from_x1_singular_guard():
    with pytest.raises(SingularTime):
        fp.v_from_x1(np.zeros((1, 1)), np.zeros((1, 1)), 1.0, 0.0)


def test_x1_from_v_round_trip():
    rng = np.random.default_rng(5)
    for t in (0.0, 0.3, 0.75):
        y, xt = rand_pair(rng)
        v = fp.v_from_x1(y, xt, t, 0.05)
        assert np.allclose(fp.x1_from_v(v, xt, t, 0.05), y, rtol=0, atol=1e-12)


def test_x1_from_v_hand_values():
    assert np.allclose(fp.x1_from_v(np.zeros((2, 2)), np.ones((2, 2)), 0.7, 0.0),
                       np.ones((2, 2)))
    got = fp.x1_from_v(np.array([[2.2]]), np.array([[3.1]]), 0.5, 0.1)
    assert got[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_x1_from_v_tape_matches():
    rng = np.random.default_rng(6)
    v, xt = rand_pair(rng)
    got = fp.x1_from_v_t(ad.constant(v), ad.constant(xt), 0.4, 0.01).data
    assert np.allclose(got, fp.x1_from_v(v, xt, 0.4, 0.01), atol=1e-14)


# ---------------------------------------------------------------------------
# x0_hat
# ---------------------------------------------------------------------------

def test_x0_hat_recovers_path_start():
    rng = np.random.default_rng(7)
    x0, x1 = rand_pair(rng)
    x_t = fp.interpolate(x0, x1, 0.3, 1e-4)
    assert np.allclose(fp.x0_hat(x1, x_t, 0.3, 1e-4), x0, rtol=0, atol=1e-12)


def test_x0_hat_t0_and_hand_value():
    rng = np.random.default_rng(8)
    x1h, xt = rand_pair(rng)
    assert np.allclose(fp.x0_hat(x1h, xt, 0.0, 0.0), xt, atol=1e-15)
    got = fp.x0_hat(np.array([[4.0]]), np.array([[3.1]]), 0.5, 0.1)
    assert got[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_x0_hat_two_forms_agree():
    rng = np.random.default_rng(9)
    for t in (0.0, 0.2, 0.5, 0.9):
        for s in (0.0, 1e-4, 0.2):
            x1h, xt = rand_pair(rng)
            a = fp.x0_hat(x1h, xt, t, s)
            b = fp.x0_hat_expanded(x1h, xt, t, s)
            assert np.max(np.abs(a - b)) < 1e-12


def test_one_step_update_equals_reinterpolation():
    # core sampling-form equivalence: the closed-form Euler update equals
    # interpolate(x0_hat(x1_hat, x_tn, tn), x1_hat, tn1)
    rng = np.random.default_rng(10)
    for tn, tn1 in ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)):
        for s in (0.0, 1e-4, 0.1):
            x1h, xtn = rand_pair(rng)
            denom = 1.0 - (1.0 - s) * tn
            step = ((1.0 - (1.0 - s) * tn1) / denom * xtn
                    + (tn1 - tn) / denom * x1h)
            again = fp.interpolate(fp.x0_hat(x1h, xtn, tn, s), x1h, tn1, s)
            assert np.max(np.abs(step - again)) < 1e-12


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def random_motion(rng, skel, h=4):
    k = skel.joint_count
    return np.stack([pose_row(skel, [random_rotation(rng) for _ in range(k)],
                              random_rotation(rng), rng.normal(size=3))
                     for _ in range(h)])


def test_interaction_loss_zero_on_equal():
    rng = np.random.default_rng(13)
    skel = chain_skeleton(3)
    x0 = random_motion(rng, skel)
    gt = random_motion(rng, skel)
    assert interaction_loss(gt, gt, x0, skel) == 0.0
    # invariance of the zero under a different actor
    other = random_motion(rng, skel)
    assert interaction_loss(gt, gt, other, skel) == 0.0


def test_interaction_loss_pure_translation():
    rng = np.random.default_rng(14)
    skel = chain_skeleton(4)
    x0 = random_motion(rng, skel)
    gt = random_motion(rng, skel)
    v = np.array([0.3, -0.2, 0.5])
    pred = gt.copy()
    pred[:, -3:] += v
    k = skel.joint_count
    expected = (k + 1) * float(v @ v)  # K joints shift + root translation term
    assert interaction_loss(pred, gt, x0, skel) == pytest.approx(expected, rel=1e-12)


def test_interaction_loss_tape_matches_and_differentiates():
    rng = np.random.default_rng(15)
    skel = chain_skeleton(3)
    gt = random_motion(rng, skel)
    pred = random_motion(rng, skel)
    leaf = ad.leaf(pred)
    loss_t = fp.interaction_loss_t(leaf, fp.interaction_targets(skel, gt), skel)
    # the actor terms of the relative form cancel: any actor gives the same
    # loss, here one with a turned root and one with identity rotations
    x0 = random_motion(rng, skel)
    assert not np.allclose(rotations(x0[:, 18:24]), np.eye(3))
    still = np.tile(pose_row(skel, trans=(2.0, -1.0, 0.5)), (len(gt), 1))
    for actor in (x0, still):
        assert loss_t.data == pytest.approx(interaction_loss(pred, gt, actor, skel),
                                            rel=1e-10)
    loss_t.backward()
    # central finite differences on a few coordinates
    h = 1e-6
    flat = pred.reshape(-1)
    for idx in rng.choice(flat.size, size=8, replace=False):
        orig = flat[idx]
        flat[idx] = orig + h
        hi = interaction_loss(pred, gt, x0, skel)
        flat[idx] = orig - h
        lo = interaction_loss(pred, gt, x0, skel)
        flat[idx] = orig
        fd = (hi - lo) / (2 * h)
        got = leaf.grad.reshape(-1)[idx]
        assert abs(fd - got) / max(abs(fd), 1e-8) < 1e-4


def test_interaction_targets_of_a_frame_stack_equal_per_sample_calls():
    rng = np.random.default_rng(16)
    skel = chain_skeleton(4)
    motions = [random_motion(rng, skel, 5) for _ in range(6)]
    table = fp.interaction_targets(skel, np.concatenate(motions))
    rows = np.array([4, 1, 4])  # repeats, out of order, as a batch draws them
    frames = (rows[:, None] * 5 + np.arange(5)).ravel()
    want = [fp.interaction_targets(skel, motions[i]) for i in rows]
    for field, name in enumerate(("pos", "rot")):
        stacked = np.concatenate([w[field] for w in want])
        assert table[field][frames].tobytes() == stacked.tobytes(), name


def test_interaction_targets_decode_each_block_once(monkeypatch):
    rng = np.random.default_rng(17)
    skel = chain_skeleton(3)
    gt = random_motion(rng, skel, 6)
    calls = []
    decode = geo.decode_rot6d_t
    monkeypatch.setattr(geo, "decode_rot6d_t",
                        lambda r, eps=1e-12: calls.append(r.shape) or decode(r, eps))
    pos, rot = fp.interaction_targets(skel, gt)
    assert calls == [(6, 4, 6)]
    assert rot.tobytes() == rotations(gt[:, :24].reshape(6, 4, 6)).tobytes()
    assert pos.tobytes() == geo.motion_joint_positions(skel, gt).tobytes()
    assert np.array_equal(pos[:, 0], gt[:, 24:])


def test_interaction_targets_reject_a_huge_block():
    skel = chain_skeleton(3)
    gt = np.tile(pose_row(skel), (2, 1))
    gt[0, 18:24] = [1e200, 0, 0, 0, 1e200, 0]
    with pytest.raises(DegenerateRotation):
        fp.interaction_targets(skel, gt)
