import numpy as np
import pytest

from arflow import data as dt
from arflow import flowpath as fp
from arflow import geometry as geo
from arflow import model as mdl
from arflow import sampler as smp
from arflow.errors import (
    DimensionMismatch,
    InvalidConfig,
    NonFiniteSample,
)

from oracles import velocity_walk
from test_geometry import chain_skeleton, pose_row
from test_flowpath import random_motion


def still_actor(skel, h, at=(0.0, 0.0, 0.0)):
    """Actor standing still at a point, identity pose."""
    return np.tile(pose_row(skel, trans=at), (h, 1))


def reactor_at(skel, h, at):
    """A batch of one reactor standing still at a point: (1, h, D)."""
    return still_actor(skel, h, at)[None]


def context(skel, actor_skel, actor):
    """Guidance context of one (H, D) actor, posed on its own skeleton, as a
    batch of one."""
    return smp.GuidanceContext(skel, actor[None], geo.motion_capsules(actor_skel, actor))


def oracle(x1_true):
    return lambda x, t: x1_true


def nonlinear_predictor(seed, shape):
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=0.3, size=shape)

    def predictor(x, t):
        return np.tanh(x + a) * (1.0 + 0.5 * t)

    return predictor


# ---------------------------------------------------------------------------
# penetration loss / grad
# ---------------------------------------------------------------------------

def test_penetration_loss_saturates_when_far():
    skel = chain_skeleton(3)
    h, zeta = 4, 0.5
    ctx = smp.GuidanceContext.from_actor(skel, still_actor(skel, h)[None])
    reaction = reactor_at(skel, h, (10.0, 0.0, 0.0))
    loss = smp.penetration_loss(reaction, ctx, zeta)
    assert loss == pytest.approx(-(3 * h * zeta), abs=1e-12)
    assert np.all(smp.penetration_grad(reaction, ctx, zeta) == 0.0)


def test_penetration_loss_single_penetrating_joint():
    # actor: one horizontal capsule of radius 0.2 along x at the origin
    skel_a = geo.Skeleton((-1, 0), np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                          np.array([0.2]))
    actor = still_actor(skel_a, 1)
    # reactor: vertical chain whose root sits 0.1 above the actor axis
    skel_r = chain_skeleton(3)
    ctx = context(skel_r, skel_a, actor)
    reaction = reactor_at(skel_r, 1, (0.5, 0.0, 0.1))
    # joint 0 at z=0.1 -> sdf -0.1; joints at z=1.1, 2.1 -> saturated
    zeta = 0.5
    k = skel_r.joint_count
    loss = smp.penetration_loss(reaction, ctx, zeta)
    assert loss == pytest.approx(0.1 - (k * 1 - 1) * zeta, abs=1e-9)


def test_penetration_loss_monotone_in_depth():
    skel = chain_skeleton(2)
    actor_skel = geo.Skeleton((-1, 0), np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                              np.array([0.3]))
    ctx = context(skel, actor_skel, still_actor(actor_skel, 1))
    zeta = 0.5
    losses = []
    for z in (0.05, 0.15, 0.3, 0.5, 0.81):
        losses.append(smp.penetration_loss(reactor_at(skel, 1, (0.5, 0.0, z)),
                                           ctx, zeta))
    assert all(a > b for a, b in zip(losses, losses[1:]))
    # beyond sdf = zeta the loss stops changing
    far1 = smp.penetration_loss(reactor_at(skel, 1, (0.5, 0.0, 2.0)), ctx, zeta)
    far2 = smp.penetration_loss(reactor_at(skel, 1, (0.5, 0.0, 3.0)), ctx, zeta)
    assert far1 == far2


def penetrating_scene(seed=0, h=3, k=3):
    """Reactor posed randomly, overlapping a capsule actor; returns (ctx, reaction),
    both batches of one."""
    rng = np.random.default_rng(seed)
    skel = chain_skeleton(k, offset=(0.25, 0.1, 0.3))
    actor_skel = geo.Skeleton(
        (-1, 0, 1), np.array([[0.0, 0, 0], [0.6, 0, 0], [0.0, 0.6, 0]]),
        np.array([0.25, 0.2]))
    ctx = context(skel, actor_skel, still_actor(actor_skel, h))
    reaction = random_motion(rng, skel, h)[None]
    reaction[0, :, -3:] = rng.normal(scale=0.15, size=(h, 3))  # root near the actor
    return ctx, reaction


def test_penetration_grad_matches_finite_differences():
    ctx, reaction = penetrating_scene(seed=3)
    zeta = 0.5
    grad = smp.penetration_grad(reaction, ctx, zeta)
    assert smp.penetration_loss(reaction, ctx, zeta) > -reaction.shape[1] * ctx.skel.joint_count * zeta
    rng = np.random.default_rng(11)
    flat = reaction.reshape(-1)
    gflat = grad.reshape(-1)
    h = 1e-6
    checked = 0
    while checked < 50:
        idx = int(rng.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + h
        hi = smp.penetration_loss(reaction, ctx, zeta)
        flat[idx] = orig - h
        lo = smp.penetration_loss(reaction, ctx, zeta)
        flat[idx] = orig
        fd = (hi - lo) / (2 * h)
        if abs(fd) < 1e-6:
            continue
        assert abs(fd - gflat[idx]) / abs(fd) < 1e-4
        checked += 1


def test_penetration_grad_translation_direction():
    # one penetrating joint: translation block of the gradient is the
    # negated SDF direction at that joint
    skel = chain_skeleton(2)
    actor_skel = geo.Skeleton((-1, 0), np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                              np.array([0.3]))
    ctx = context(skel, actor_skel, still_actor(actor_skel, 1))
    reaction = reactor_at(skel, 1, (0.5, 0.1, 0.2))
    pos = geo.motion_joint_positions(skel, reaction[0])
    caps = ctx.capsules
    _, sdf_dir = geo.sdf_and_gradient(pos[0, 0], geo.CapsuleSet(caps.seg_a[0], caps.seg_b[0],
                                                                 caps.radius))
    grad = smp.penetration_grad(reaction, ctx, zeta=0.5)
    assert np.allclose(grad[0, 0, -3:], -sdf_dir, atol=1e-12)


@pytest.mark.parametrize("zeta", [0.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("term", [smp.penetration_loss, smp.penetration_grad],
                         ids=["loss", "grad"])
def test_penetration_terms_reject_bad_zeta(term, zeta):
    # refused as SamplerConfig refuses them, on a pair in contact
    skel = chain_skeleton(2)
    ctx = smp.GuidanceContext.from_actor(skel, still_actor(skel, 1)[None])
    with pytest.raises(InvalidConfig, match="zeta"):
        term(reactor_at(skel, 1, (0.05, 0.0, 0.1)), ctx, zeta)


def test_penetration_frame_count_mismatch():
    skel = chain_skeleton(2)
    ctx = smp.GuidanceContext.from_actor(skel, still_actor(skel, 4)[None])
    with pytest.raises(DimensionMismatch):
        smp.penetration_loss(reactor_at(skel, 3, (0.0, 0.0, 0.0)), ctx, 0.5)


# ---------------------------------------------------------------------------
# unguided Euler
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("steps", [2, 5, 100])
def test_oracle_predictor_exact(steps):
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(6, 11))[None]
    x1 = rng.normal(size=(6, 11))[None]
    cfg = smp.SamplerConfig(steps=steps, sigma_min=0.0)
    out = smp.sample(oracle(x1), x0, cfg)
    assert np.max(np.abs(out - x1)) < 1e-12


def test_oracle_predictor_sigma_coupling():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(4, 7))[None]
    x1 = rng.normal(size=(4, 7))[None]
    s = 0.03
    cfg = smp.SamplerConfig(steps=5, sigma_min=s)
    out = smp.sample(oracle(x1), x0, cfg)
    assert np.max(np.abs(out - (x1 + s * x0))) < 1e-12


def test_v_mode_equals_x1_mode():
    # reprojection walks the same path as the velocity form
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(5, 9))[None]
    predictor = nonlinear_predictor(7, x0.shape)
    for s in (0.0, 1e-4, 0.05):
        a = smp.sample(predictor, x0, smp.SamplerConfig(steps=5, sigma_min=s))
        b = velocity_walk(predictor, x0, 5, s)
        assert np.max(np.abs(a - b)) < 1e-10


# ---------------------------------------------------------------------------
# guidance reductions
# ---------------------------------------------------------------------------

def test_vanilla_lambda_zero_is_euler_bit_exact():
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(4, 8))[None]
    predictor = nonlinear_predictor(9, x0.shape)
    cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, guidance="vanilla",
                            lambda_pene=0.0)
    a = smp.sample(predictor, x0, cfg)
    b = smp.sample(predictor, x0, smp.SamplerConfig(steps=5, sigma_min=1e-4))
    assert np.array_equal(a, b)


def test_improved_lambda0_w1_is_euler():
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(4, 8))[None]
    predictor = nonlinear_predictor(11, x0.shape)
    cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, guidance="improved",
                            lambda_pene=0.0, w=1.0)
    a = smp.sample(predictor, x0, cfg)
    b = smp.sample(predictor, x0, smp.SamplerConfig(steps=5, sigma_min=1e-4))
    assert np.max(np.abs(a - b)) < 1e-12


def test_improved_lambda0_w1_beta0_is_unguided_bit_exact():
    # one step function: with nothing to correct or blend, improved guidance
    # takes the very operations of the unguided step
    rng = np.random.default_rng(24)
    x0 = rng.normal(size=(2, 4, 8))
    predictor = nonlinear_predictor(25, x0.shape)
    for s in (0.0, 1e-4, 0.05):
        a = smp.sample(predictor, x0, smp.SamplerConfig(
            steps=5, sigma_min=s, guidance="improved", lambda_pene=0.0, w=1.0, beta=0.0))
        b = smp.sample(predictor, x0, smp.SamplerConfig(steps=5, sigma_min=s))
        assert np.array_equal(a, b)


def test_unguided_step_is_reinterpolation_bit_exact():
    # an x1-mode unguided step recovers the path start and re-interpolates
    rng = np.random.default_rng(26)
    x0 = rng.normal(size=(2, 4, 8))
    predictor = nonlinear_predictor(27, x0.shape)
    for s in (0.0, 1e-4, 0.05):
        out = smp.sample(predictor, x0, smp.SamplerConfig(steps=5, sigma_min=s))
        x = x0
        grid = smp.time_grid(5)
        for tn, tn1 in zip(grid[:-1], grid[1:]):
            x1_hat = predictor(x, float(tn))
            x = fp.interpolate(fp.x0_hat(x1_hat, x, float(tn), s), x1_hat, float(tn1), s)
        assert np.array_equal(out, x)


def test_saturated_scene_guidance_is_noop():
    skel = chain_skeleton(2)
    h = 3
    ctx = smp.GuidanceContext.from_actor(skel, still_actor(skel, h)[None])
    x0 = reactor_at(skel, h, (20.0, 0.0, 0.0))
    x1 = reactor_at(skel, h, (21.0, 0.0, 0.0))
    for guidance in ("vanilla", "improved"):
        cfg = smp.SamplerConfig(steps=5, sigma_min=0.0, guidance=guidance,
                                lambda_pene=2.0, w=1.0)
        out = smp.sample(oracle(x1), x0, cfg, ctx=ctx)
        ref = smp.sample(oracle(x1), x0, smp.SamplerConfig(steps=5,
                                                           sigma_min=0.0))
        assert np.max(np.abs(out - ref)) < 1e-12


def test_vanilla_guidance_reduces_penetration():
    ctx, gt_penetrating = penetrating_scene(seed=13)
    h = gt_penetrating.shape[1]
    skel = ctx.skel
    x0 = reactor_at(skel, h, (1.5, 0.8, 0.2))
    cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, guidance="vanilla",
                            lambda_pene=2.0)
    unguided = smp.sample(oracle(gt_penetrating), x0,
                          smp.SamplerConfig(steps=5, sigma_min=1e-4))
    guided = smp.sample(oracle(gt_penetrating), x0, cfg, ctx=ctx)
    assert (smp.penetration_loss(guided, ctx, cfg.zeta)
            < smp.penetration_loss(unguided, ctx, cfg.zeta))


def test_improved_guidance_reduces_penetration():
    ctx, gt_penetrating = penetrating_scene(seed=14)
    h = gt_penetrating.shape[1]
    x0 = reactor_at(ctx.skel, h, (1.5, 0.8, 0.2))
    cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, guidance="improved",
                            lambda_pene=2.0, w=0.7)
    unguided = smp.sample(oracle(gt_penetrating), x0,
                          smp.SamplerConfig(steps=5, sigma_min=1e-4))
    guided = smp.sample(oracle(gt_penetrating), x0, cfg, ctx=ctx)
    assert (smp.penetration_loss(guided, ctx, cfg.zeta)
            < smp.penetration_loss(unguided, ctx, cfg.zeta))


def test_improved_oracle_exact_path_independent_of_w():
    rng = np.random.default_rng(15)
    x0 = rng.normal(size=(4, 8))[None]
    x1 = rng.normal(size=(4, 8))[None]
    outs = []
    for w in (0.0, 0.3, 1.0):
        cfg = smp.SamplerConfig(steps=5, sigma_min=0.0, guidance="improved",
                                lambda_pene=0.0, w=w)
        outs.append(smp.sample(oracle(x1), x0, cfg))
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-12
    assert np.max(np.abs(outs[0] - outs[2])) < 1e-12


# ---------------------------------------------------------------------------
# guidance under the exact predictor: the update algebra alone
# ---------------------------------------------------------------------------

EXACT = dict(steps=5, sigma_min=0.0, zeta=0.5, w=0.7)


@pytest.fixture(scope="module")
def contact_pairs():
    """Actions, true reactions and the actors' guidance context of the 60
    pairs of ``generate_mixed(60, contact_fraction=1.0, seed=7)``."""
    samples = dt.generate_mixed(60, contact_fraction=1.0, seed=7)
    x0 = np.stack([s.actor for s in samples])
    x1 = np.stack([s.reactor for s in samples])
    return x0, x1, smp.GuidanceContext.from_actor(dt.default_skeleton(), x0)


@pytest.mark.parametrize("lam", [0.02, 2.0])
def test_exact_predictor_guidance_keeps_only_the_last_gradient(lam, contact_pairs):
    # each step re-interpolates toward the exact endpoint and so undoes the
    # guidance of the earlier ones: both modes end at x1 - lam * grad(x1)
    x0, x1, ctx = contact_pairs
    vanilla, improved = (
        smp.sample(oracle(x1), x0,
                   smp.SamplerConfig(guidance=g, lambda_pene=lam, **EXACT), ctx)
        for g in ("vanilla", "improved"))
    assert np.array_equal(vanilla, improved)
    want = x1 - lam * smp.penetration_grad(x1, ctx, EXACT["zeta"])
    assert np.max(np.abs(vanilla - want)) <= 1e-12


def test_exact_predictor_recovered_start_error_recurrences(contact_pairs):
    # e_n = x0_hat - x0 at the state each step starts from, with the same
    # gradient g = grad(x1) at every step:
    #   vanilla:  e_{n+1} = e_n - lam g / (1 - t_{n+1})
    #   improved: e_{n+1} = w e_n - t_{n+1} lam g / (1 - t_{n+1})
    x0, x1, ctx = contact_pairs
    lam, w = 0.02, EXACT["w"]
    g = smp.penetration_grad(x1, ctx, EXACT["zeta"])
    grid = smp.time_grid(EXACT["steps"]).tolist()
    rms = {}
    for guidance in ("vanilla", "improved"):
        seen = []

        def predictor(x, t):
            seen.append((t, x.copy()))
            return x1

        smp.sample(predictor, x0,
                   smp.SamplerConfig(guidance=guidance, lambda_pene=lam, **EXACT), ctx)
        assert [t for t, _ in seen] == grid[:-1]
        e = [fp.x0_hat(x1, x, t, 0.0) - x0 for t, x in seen]
        assert not e[0].any()
        for n, t1 in enumerate(grid[1:-1]):
            step = lam * g / (1.0 - t1)
            want = e[n] - step if guidance == "vanilla" else w * e[n] - t1 * step
            assert np.max(np.abs(e[n + 1] - want)) <= 1e-10
        rms[guidance] = [float(np.sqrt(np.mean(en * en))) for en in e[1:]]
    # improved stays 4x to 1.9x closer to the action's path
    assert rms["vanilla"] == pytest.approx([0.018, 0.045, 0.100], abs=5e-4)
    assert rms["improved"] == pytest.approx([0.0045, 0.017, 0.052], abs=5e-4)


# ---------------------------------------------------------------------------
# stochastic sampling
# ---------------------------------------------------------------------------

def test_beta_zero_ignores_seed_stream():
    rng = np.random.default_rng(16)
    x0 = rng.normal(size=(4, 8))[None]
    predictor = nonlinear_predictor(17, x0.shape)
    base = dict(steps=5, sigma_min=1e-4, guidance="improved", lambda_pene=0.0,
                w=0.6, beta=0.0)
    a = smp.sample(predictor, x0, smp.SamplerConfig(seed=5, **base))
    for seed, index in ((5, 1), (6, 0), (9, 4)):
        b = smp.sample(predictor, x0, smp.SamplerConfig(seed=seed, **base),
                       sample_index=[index])
        assert np.array_equal(a, b)


def test_stochastic_seed_determinism_and_diversity():
    rng = np.random.default_rng(18)
    x0 = rng.normal(size=(4, 8))[None]
    predictor = nonlinear_predictor(19, x0.shape)
    base = dict(steps=5, sigma_min=1e-4, guidance="none", beta=0.02)
    a1 = smp.sample(predictor, x0, smp.SamplerConfig(seed=1, **base))
    a2 = smp.sample(predictor, x0, smp.SamplerConfig(seed=1, **base))
    b = smp.sample(predictor, x0, smp.SamplerConfig(seed=2, **base))
    assert np.array_equal(a1, a2)
    assert np.max(np.abs(a1 - b)) > 0.0
    # distinct per-sample streams from the same seed
    c = smp.sample(predictor, x0, smp.SamplerConfig(seed=1, **base),
                   sample_index=[1])
    assert np.max(np.abs(a1 - c)) > 0.0


def test_stochastic_beta_one_uses_random_direction():
    # at beta = 1 the interpolation direction is replaced by the random one
    rng = np.random.default_rng(20)
    x0 = rng.normal(size=(3, 6))
    x1 = rng.normal(size=(3, 6))
    s = 0.01
    cfg = smp.SamplerConfig(steps=3, sigma_min=s, guidance="none", beta=1.0,
                            seed=7)
    out = smp.sample(oracle(x1[None]), x0[None], cfg, sample_index=[3])[0]
    # replicate the two updates by hand with the derived stream
    gen = np.random.default_rng((7, 3))
    x = x0.copy()
    for tn, tn1 in ((0.0, 0.5), (0.5, 1.0)):
        x0_rec = fp.x0_hat(x1, x, tn, s)
        d_base = x0_rec - x1
        d_rand = gen.standard_normal(size=d_base.shape)
        d_rand *= (np.linalg.norm(d_base, axis=-1, keepdims=True)
                   / np.linalg.norm(d_rand, axis=-1, keepdims=True))
        x = x1 + (1.0 - tn1) * d_rand + s * tn1 * x0_rec
    assert np.allclose(out, x, atol=1e-12)


def test_sampler_config_rejects_stochastic_vanilla():
    with pytest.raises(InvalidConfig):
        smp.SamplerConfig(guidance="vanilla", beta=0.5)


@pytest.mark.parametrize("guidance", ["vanilla", "improved"])
def test_guided_sampling_needs_context(guidance):
    cfg = smp.SamplerConfig(guidance=guidance, lambda_pene=1.0)
    with pytest.raises(InvalidConfig):
        smp.sample(oracle(np.zeros((1, 2, 4))), np.zeros((1, 2, 4)), cfg)


def test_guidance_rejects_a_nan_actor():
    # the actor SDF of a NaN body used to be NaN
    skel = chain_skeleton(3)
    actor = still_actor(skel, 3)
    actor[2, -1] = np.nan
    with pytest.raises(InvalidConfig, match="finite"):
        smp.GuidanceContext.from_actor(skel, actor[None])


def test_predictor_shape_mismatch_rejected():
    cfg = smp.SamplerConfig(guidance="improved", lambda_pene=0.0)
    with pytest.raises(DimensionMismatch):
        smp.sample(oracle(np.zeros((1, 3, 4))), np.zeros((1, 2, 4)), cfg)


def test_sampler_config_validation():
    with pytest.raises(InvalidConfig):
        smp.SamplerConfig(steps=1)
    with pytest.raises(InvalidConfig):
        smp.SamplerConfig(guidance="both")
    with pytest.raises(InvalidConfig):
        smp.SamplerConfig(w=1.5)
    for kw in (dict(lambda_pene=np.inf), dict(lambda_pene=np.nan), dict(zeta=np.nan),
               dict(zeta=np.inf), dict(sigma_min=-5.0), dict(sigma_min=1.0),
               dict(sigma_min=np.nan)):
        with pytest.raises(InvalidConfig):
            smp.SamplerConfig(guidance="improved", **kw)


def test_sampler_config_steps_have_an_upper_limit():
    # a grid of 10^29 points used to fail in numpy's linspace, exit 1
    assert smp.SamplerConfig(steps=smp.MAX_STEPS).steps == smp.MAX_STEPS
    for steps in (smp.MAX_STEPS + 1, 10 ** 29):
        with pytest.raises(InvalidConfig, match="steps"):
            smp.SamplerConfig(steps=steps)


@pytest.mark.parametrize("guidance,lam,guided", [("none", 2.0, False),
                                                 ("vanilla", 0.0, False),
                                                 ("improved", 0.0, False),
                                                 ("vanilla", 0.02, True),
                                                 ("improved", 2.0, True)])
def test_sampler_config_decides_guidance(guidance, lam, guided):
    assert smp.SamplerConfig(guidance=guidance, lambda_pene=lam).guided is guided


def test_non_finite_prediction_raises():
    cfg = smp.SamplerConfig(steps=3)
    with pytest.raises(NonFiniteSample):
        smp.sample(oracle(np.full((1, 2, 4), np.inf)), np.zeros((1, 2, 4)), cfg)


@pytest.mark.parametrize("guidance, beta", [("vanilla", 0.0), ("improved", 0.0),
                                            ("improved", 0.3)])
@pytest.mark.parametrize("steps", [2, 5])
def test_guidance_overflow_raises_at_its_step(guidance, beta, steps):
    # a finite weight whose guided step overflows float64: the step is
    # named, not the predictor at the next step or the record at save time
    ctx, reaction = penetrating_scene(seed=13)
    x0 = reactor_at(ctx.skel, reaction.shape[1], (1.5, 0.8, 0.2))
    cfg = smp.SamplerConfig(steps=steps, guidance=guidance, lambda_pene=1e308, beta=beta)
    with pytest.raises(NonFiniteSample, match=f"after the step from t=0 \\({guidance} "):
        smp.sample(oracle(reaction), x0, cfg, ctx=ctx)


# ---------------------------------------------------------------------------
# batched sampling
# ---------------------------------------------------------------------------

def batch_scene(b=6, h=4, seed=21):
    """Overlapping actors and a small predictor whose output projection has
    a healthy scale (its rotations stay decodable)."""
    rng = np.random.default_rng(seed)
    skel = chain_skeleton(3, offset=(0.25, 0.1, 0.3))
    actors = np.stack([random_motion(rng, skel, h) for _ in range(b)])
    actors[..., -3:] = rng.normal(scale=0.15, size=(b, h, 3))
    cfg = mdl.PredictorConfig(frame_dim=skel.motion_dim, max_frames=h, layers=1,
                              width=16, heads=2, sigma_min=1e-4)
    params = mdl.init_params(cfg, seed=seed)
    params.arrays["out_proj_w"] = rng.normal(
        scale=1.0 / np.sqrt(cfg.width), size=params.arrays["out_proj_w"].shape)
    return skel, actors, mdl.as_x1_predictor(params)


BATCH_CONFIGS = [
    dict(guidance="none"),
    dict(guidance="vanilla", lambda_pene=2.0),
    dict(guidance="improved", lambda_pene=2.0, w=0.7),
    dict(guidance="improved", lambda_pene=2.0, w=0.7, beta=0.3),
    dict(guidance="none", beta=0.5),
]


def run_batch(predictor, skel, actors, cfg, indices):
    ctx = smp.GuidanceContext.from_actor(skel, actors)
    return smp.sample(predictor, actors, cfg, ctx, sample_index=indices)


@pytest.mark.parametrize("kw", BATCH_CONFIGS)
def test_batch_matches_single_calls(kw):
    skel, actors, predictor = batch_scene()
    cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, seed=3, **kw)
    indices = [4, 0, 9, 2, 7, 1]
    out = run_batch(predictor, skel, actors, cfg, indices)
    for i in range(len(actors)):
        one = slice(i, i + 1)
        single = run_batch(predictor, skel, actors[one], cfg, indices[one])
        assert np.max(np.abs(out[i] - single[0])) <= 1e-12
    if cfg.guidance != "none":
        unguided = run_batch(predictor, skel, actors,
                             smp.SamplerConfig(steps=5, sigma_min=1e-4, seed=3,
                                               beta=cfg.beta), indices)
        assert np.max(np.abs(out - unguided)) > 1e-6  # guidance was active


@pytest.mark.parametrize("kw", BATCH_CONFIGS)
def test_batch_output_independent_of_size_and_order(kw):
    skel, actors, predictor = batch_scene()
    cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, seed=3, **kw)
    indices = list(range(len(actors)))
    out = run_batch(predictor, skel, actors, cfg, indices)
    rev = run_batch(predictor, skel, actors[::-1], cfg, indices[::-1])
    assert np.max(np.abs(out - rev[::-1])) <= 1e-12
    part = run_batch(predictor, skel, actors[2:4], cfg, indices[2:4])
    assert np.max(np.abs(out[2:4] - part)) <= 1e-12


def test_batch_of_one_equals_single_call():
    # a batch of one runs on stream index 0 unless told otherwise
    skel, actors, predictor = batch_scene(b=1)
    for kw in BATCH_CONFIGS:
        cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, seed=3, **kw)
        one = run_batch(predictor, skel, actors, cfg, [0])
        batch = run_batch(predictor, skel, actors, cfg, None)
        assert batch.shape == one.shape == actors.shape
        assert np.array_equal(batch, one)


def test_batch_stochastic_streams_per_sample():
    # each sample draws from its own (seed, sample_index) stream, in batch
    # order, and each frame of its random direction is norm-matched to the
    # same frame of its own projection
    rng = np.random.default_rng(22)
    x0 = rng.normal(size=(3, 3, 6))
    x1 = rng.normal(size=(3, 3, 6))
    x1[1] *= 10.0  # per-sample norms differ widely
    x1[:, 2] *= 0.1  # and per-frame norms
    s, indices = 0.01, [5, 0, 9]
    cfg = smp.SamplerConfig(steps=3, sigma_min=s, guidance="none", beta=0.4,
                            seed=7)
    out = smp.sample(oracle(x1), x0, cfg, sample_index=indices)
    for i, index in enumerate(indices):
        gen = np.random.default_rng((7, index))
        x = x0[i].copy()
        for tn, tn1 in ((0.0, 0.5), (0.5, 1.0)):
            x0_rec = fp.x0_hat(x1[i], x, tn, s)
            d_base = x0_rec - x1[i]
            d_rand = gen.standard_normal(size=d_base.shape)
            d_rand *= (np.linalg.norm(d_base, axis=-1, keepdims=True)
                       / np.linalg.norm(d_rand, axis=-1, keepdims=True))
            d_mix = d_base + 0.4 * (d_rand - d_base)
            x = x1[i] + (1.0 - tn1) * d_mix + s * tn1 * x0_rec
        assert np.array_equal(out[i], x)


@pytest.mark.parametrize("kw", BATCH_CONFIGS)
def test_causal_predictor_reaction_ignores_later_actor_frames(kw):
    # with a causal predictor, reaction frame h depends on actor frames <= h
    # only: guidance and the random direction act frame by frame
    skel, actors, predictor = batch_scene()
    cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, seed=3, **kw)
    indices = list(range(len(actors)))
    out = run_batch(predictor, skel, actors, cfg, indices)
    rng = np.random.default_rng(23)
    h = actors.shape[1]
    for cut in range(1, h):
        moved = actors.copy()
        moved[:, cut:] = np.stack([random_motion(rng, skel, h - cut) for _ in actors])
        again = run_batch(predictor, skel, moved, cfg, indices)
        assert np.max(np.abs(again[:, cut:] - out[:, cut:])) > 1e-6
        assert np.max(np.abs(again[:, :cut] - out[:, :cut])) <= 1e-12


def test_batch_reduction_identities_bit_exact():
    skel, actors, predictor = batch_scene()
    euler = smp.sample(predictor, actors, smp.SamplerConfig(steps=5, sigma_min=1e-4))
    ctx = smp.GuidanceContext.from_actor(skel, actors)
    vanilla0 = smp.sample(predictor, actors,
                          smp.SamplerConfig(steps=5, sigma_min=1e-4,
                                            guidance="vanilla", lambda_pene=0.0),
                          ctx)
    assert np.array_equal(euler, vanilla0)
    base = dict(steps=5, sigma_min=1e-4, guidance="improved", lambda_pene=2.0,
                w=0.6, beta=0.0)
    a = smp.sample(predictor, actors, smp.SamplerConfig(seed=5, **base), ctx)
    b = smp.sample(predictor, actors, smp.SamplerConfig(seed=6, **base), ctx,
                   sample_index=range(10, 16))
    assert np.array_equal(a, b)


def test_batched_penetration_grad_matches_per_sample():
    skel, actors, _ = batch_scene()
    rng = np.random.default_rng(23)
    reactions = np.stack([random_motion(rng, skel, actors.shape[1])
                          for _ in range(len(actors))])
    reactions[..., -3:] = actors[..., -3:] + rng.normal(scale=0.1,
                                                        size=actors[..., -3:].shape)
    ctx = smp.GuidanceContext.from_actor(skel, actors)
    grad = smp.penetration_grad(reactions, ctx, 0.5)
    assert np.any(grad != 0.0)
    loss = 0.0
    for i in range(len(actors)):
        one = slice(i, i + 1)
        ctx_i = smp.GuidanceContext.from_actor(skel, actors[one])
        single = smp.penetration_grad(reactions[one], ctx_i, 0.5)
        assert np.max(np.abs(grad[i] - single[0])) <= 1e-12
        loss += smp.penetration_loss(reactions[one], ctx_i, 0.5)
    assert smp.penetration_loss(reactions, ctx, 0.5) == pytest.approx(loss, abs=1e-9)


def test_batch_shape_checks():
    skel, actors, predictor = batch_scene(b=3)
    cfg = smp.SamplerConfig(steps=3, guidance="vanilla", lambda_pene=1.0)
    single_ctx = smp.GuidanceContext.from_actor(skel, actors[:1])
    with pytest.raises(DimensionMismatch):
        smp.sample(predictor, actors, cfg, single_ctx)
    with pytest.raises(DimensionMismatch, match=r"\(B, H, D\)"):  # one (H, D) motion
        smp.sample(predictor, actors[0], smp.SamplerConfig(steps=3))
    with pytest.raises(DimensionMismatch):
        smp.GuidanceContext(skel, actors, single_ctx.capsules)
    with pytest.raises(DimensionMismatch):
        smp.sample(predictor, actors, smp.SamplerConfig(steps=3), sample_index=[0, 1])
