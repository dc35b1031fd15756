"""Self-contained oracle suite behind the ``verify`` command.

Every check builds its own seeded random instances and exercises one
documented identity or contract: the flow-algebra dualities, the sampler
reductions, the finite-difference gradient agreements, causality, and seed
determinism.  Checks call the public module functions through their module
namespaces, so a corrupted function is caught no matter how it was patched
in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import flowpath as fp
from . import geometry as geo
from . import model as mdl
from . import sampler as smp


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def __post_init__(self):
        self.ok = bool(self.ok)


def _motions(rng, n=1, h=6, d=15):
    return [rng.normal(size=(h, d)) for _ in range(n)]


def _nonlinear_predictor(rng, shape):
    a = rng.normal(scale=0.3, size=shape)
    return lambda x, t, c: np.tanh(x + a) * (1.0 + 0.5 * t)


def check_interpolation_endpoints(rng) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        x0, x1 = _motions(rng, 2)
        s = float(rng.uniform(0.0, 0.2))
        worst = max(worst,
                    np.max(np.abs(fp.interpolate(x0, x1, 0.0, s) - x0)),
                    np.max(np.abs(fp.interpolate(x0, x1, 1.0, s) - (x1 + s * x0))))
    return CheckResult("interpolation-endpoints", worst < 1e-12,
                       f"max abs err {worst:.2e}")


def check_x1_v_duality(rng) -> CheckResult:
    worst = 0.0
    for _ in range(1000):
        y, xt = _motions(rng, 2, h=4, d=9)
        t = float(rng.uniform(0.0, 0.95))
        s = float(rng.uniform(0.0, 0.2))
        v = fp.v_from_x1(y, xt, t, s)
        worst = max(worst, np.max(np.abs(fp.x1_from_v(v, xt, t, s) - y)))
    return CheckResult("x1-v-duality", worst < 1e-10, f"max abs err {worst:.2e}")


def check_path_velocity(rng) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        x0, x1 = _motions(rng, 2)
        t = float(rng.uniform(0.0, 0.95))
        s = float(rng.uniform(0.0, 0.2))
        x_t = fp.interpolate(x0, x1, t, s)
        worst = max(worst, np.max(np.abs(fp.v_from_x1(x1, x_t, t, s)
                                         - fp.target_velocity(x0, x1, s))))
    return CheckResult("path-velocity-consistency", worst < 1e-10,
                       f"max abs err {worst:.2e}")


def check_x0_recovery(rng) -> CheckResult:
    worst_forms = 0.0
    worst_rec = 0.0
    for _ in range(500):
        x0, x1 = _motions(rng, 2)
        t = float(rng.uniform(0.0, 0.95))
        s = float(rng.uniform(0.0, 0.2))
        x_t = fp.interpolate(x0, x1, t, s)
        worst_rec = max(worst_rec, np.max(np.abs(fp.x0_hat(x1, x_t, t, s) - x0)))
        y, xt = _motions(rng, 2)
        worst_forms = max(worst_forms,
                          np.max(np.abs(fp.x0_hat(y, xt, t, s)
                                        - fp.x0_hat_expanded(y, xt, t, s))))
    ok = worst_forms < 1e-12 and worst_rec < 1e-10
    return CheckResult("x0-recovery-forms", ok,
                       f"forms {worst_forms:.2e}, recovery {worst_rec:.2e}")


def check_step_reinterpolation(rng) -> CheckResult:
    worst = 0.0
    for _ in range(1000):
        y, xtn = _motions(rng, 2, h=4, d=9)
        n = int(rng.integers(2, 101))
        i = int(rng.integers(0, n - 1))
        grid = smp.time_grid(n)
        tn, tn1 = float(grid[i]), float(grid[i + 1])
        s = float(rng.uniform(0.0, 0.2))
        denom = 1.0 - (1.0 - s) * tn
        step = ((1.0 - (1.0 - s) * tn1) / denom * xtn + (tn1 - tn) / denom * y)
        again = fp.interpolate(fp.x0_hat(y, xtn, tn, s), y, tn1, s)
        worst = max(worst, np.max(np.abs(step - again)))
    return CheckResult("euler-step-reinterpolation", worst < 1e-10,
                       f"max abs err {worst:.2e}")


def check_mode_duality(rng) -> CheckResult:
    x0 = rng.normal(size=(1, 5, 9))
    predictor = _nonlinear_predictor(rng, x0.shape)
    worst = 0.0
    for s in (0.0, 1e-4, 0.05):
        a = smp.sample(predictor, x0,
                       smp.SamplerConfig(steps=5, sigma_min=s, mode="x1"))
        b = smp.sample(predictor, x0,
                       smp.SamplerConfig(steps=5, sigma_min=s, mode="v"))
        worst = max(worst, np.max(np.abs(a - b)))
    return CheckResult("sampling-mode-duality", worst < 1e-10,
                       f"max abs err {worst:.2e}")


def check_oracle_exactness(rng) -> CheckResult:
    x0, x1 = np.stack(_motions(rng, 2))[:, None]
    worst = 0.0
    for n in (2, 5, 100):
        out = smp.sample(lambda x, t, c: x1, x0,
                         smp.SamplerConfig(steps=n, sigma_min=0.0))
        worst = max(worst, np.max(np.abs(out - x1)))
    s = 0.03
    out = smp.sample(lambda x, t, c: x1, x0,
                     smp.SamplerConfig(steps=5, sigma_min=s))
    worst = max(worst, np.max(np.abs(out - (x1 + s * x0))))
    return CheckResult("oracle-exactness", worst < 1e-12, f"max abs err {worst:.2e}")


def check_guidance_reductions(rng) -> CheckResult:
    x0 = rng.normal(size=(1, 4, 9))
    predictor = _nonlinear_predictor(rng, x0.shape)
    euler = smp.sample(predictor, x0, smp.SamplerConfig(steps=5, sigma_min=1e-4))
    van = smp.sample(
        predictor, x0, smp.SamplerConfig(steps=5, sigma_min=1e-4,
                                         guidance="vanilla", lambda_pene=0.0))
    imp_cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, guidance="improved",
                                lambda_pene=0.0, w=1.0)
    imp = smp.sample(predictor, x0, imp_cfg)
    # at beta = 0 the (seed, sample_index) stream must not be consulted
    other = smp.sample(predictor, x0, replace(imp_cfg, seed=imp_cfg.seed + 1),
                       sample_index=[3])
    err_v = np.max(np.abs(van - euler))
    err_i = np.max(np.abs(imp - euler))
    bit_equal = np.array_equal(other, imp)
    ok = err_v == 0.0 and err_i < 1e-12 and bit_equal
    return CheckResult("guidance-reductions", ok,
                       f"vanilla {err_v:.1e}, improved {err_i:.1e}, "
                       f"beta-0 seed-independent {bit_equal}")


def check_rot6d_round_trip(rng) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        m = geo.rot6d_decode(rng.normal(size=6))
        worst = max(worst, np.max(np.abs(geo.rot6d_decode(geo.rot6d_encode(m)) - m)))
    return CheckResult("rot6d-round-trip", worst < 1e-9, f"max abs err {worst:.2e}")


def check_fk_equivariance(rng) -> CheckResult:
    skel = geo.Skeleton((-1, 0, 1, 2), rng.normal(scale=0.3, size=(4, 3)),
                        np.full(3, 0.1))
    # frames: a random pose, the pose shifted, the pose turned about the
    # origin (columns 24:30 hold the root orientation)
    motion = np.tile(np.r_[np.tile(geo.IDENTITY_ROT6D, 5), 0.0, 0.0, 0.0], (3, 1))
    for j in range(4):
        motion[:, 6 * j: 6 * j + 6] = geo.rot6d_encode(
            geo.rot6d_decode(rng.normal(size=6)))
    motion[:, -3:] = rng.normal(size=3)
    shift = rng.normal(size=3)
    motion[1, -3:] += shift
    r = geo.rot6d_decode(rng.normal(size=6))
    motion[2, 24:30] = geo.rot6d_encode(r @ geo.rot6d_decode(motion[0, 24:30]))
    motion[2, -3:] = r @ motion[0, -3:]
    base, moved, rotated = geo.motion_joint_positions(skel, motion)
    err_t = np.max(np.abs(moved - base - shift))
    err_r = np.max(np.abs(rotated - base @ r.T))
    ok = err_t < 1e-12 and err_r < 1e-9
    return CheckResult("fk-equivariance", ok, f"shift {err_t:.1e}, rot {err_r:.1e}")


def check_sdf_gradient_fd(rng) -> CheckResult:
    body = geo.CapsuleSet(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)),
                          np.array([0.2, 0.25, 0.15]))
    h = 1e-6
    checked, worst = 0, 0.0
    while checked < 40:
        p = rng.normal(scale=1.5, size=3)
        sdfs = np.sort(geo._capsule_sdfs(p.reshape(1, 3), body)[0])
        if sdfs[1] - sdfs[0] < 1e-3 or abs(sdfs[0]) < 1e-3:
            continue
        g = geo.sdf_and_gradient(p, body)[1][0]
        # the six central-difference points in one query: +h e_i, then -h e_i
        sdf, _ = geo.sdf_and_gradient(p + h * np.concatenate([np.eye(3), -np.eye(3)]),
                                      body)
        fd = (sdf[:3] - sdf[3:]) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - g) / np.linalg.norm(fd))
        checked += 1
    return CheckResult("sdf-gradient-fd", worst < 1e-5, f"max rel err {worst:.2e}")


def _penetrating_scene(rng):
    skel = geo.Skeleton((-1, 0, 1), np.array([[0.0, 0, 0], [0.25, 0.1, 0.3],
                                              [0.25, 0.1, 0.3]]),
                        np.array([0.1, 0.1]))
    actor_skel = geo.Skeleton((-1, 0, 1),
                              np.array([[0.0, 0, 0], [0.6, 0, 0], [0.0, 0.6, 0]]),
                              np.array([0.25, 0.2]))
    actor = np.tile(np.r_[np.tile(geo.IDENTITY_ROT6D, 4), 0.0, 0.0, 0.0], (3, 1))
    ctx = smp.GuidanceContext(skel, actor[None], geo.motion_capsules(actor_skel, actor))
    reaction = rng.normal(scale=0.5, size=(1, 3, skel.motion_dim))
    reaction[..., -3:] = rng.normal(scale=0.15, size=(1, 3, 3))
    return ctx, reaction


def check_penetration_grad_fd(rng) -> CheckResult:
    ctx, reaction = _penetrating_scene(rng)
    zeta = 0.5
    grad = smp.penetration_grad(reaction, ctx, zeta).reshape(-1)
    flat = reaction.reshape(-1)
    h = 1e-6
    checked, worst = 0, 0.0
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
        worst = max(worst, abs(fd - grad[idx]) / abs(fd))
        checked += 1
    return CheckResult("penetration-grad-fd", worst < 1e-4, f"max rel err {worst:.2e}")


def check_predictor_grad_fd(rng) -> CheckResult:
    skel = geo.Skeleton((-1, 0), np.array([[0.0, 0, 0], [0.0, 0, 1.0]]),
                        np.array([0.1]))
    cfg = mdl.PredictorConfig(frame_dim=skel.motion_dim, max_frames=3, layers=1,
                              width=8, heads=2, cond_vocab=2)
    params = mdl.init_params(cfg, seed=int(rng.integers(1 << 30)))
    # keep predicted rotation blocks away from the decode singularity
    params.arrays["out_proj_w"] = rng.normal(
        scale=1.0 / np.sqrt(cfg.width), size=params.arrays["out_proj_w"].shape)
    tcfg = mdl.TrainConfig(steps=1, batch_size=2, sigma_min=1e-4, seed=0)
    pairs = [(rng.normal(size=(3, cfg.frame_dim)), rng.normal(size=(3, cfg.frame_dim)))
             for _ in range(2)]
    x0, x1 = (np.stack(m) for m in zip(*pairs))
    ts = np.array([0.2, 0.7])
    conds = [0, 1]
    _, _, _, grads = mdl.grad_loss(params, x0, x1, conds, skel, tcfg, ts=ts)
    names = sorted(params.arrays)
    h = 1e-5
    checked, worst = 0, 0.0
    while checked < 20:
        name = names[int(rng.integers(len(names)))]
        arr = params.arrays[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        hi = mdl.loss_value(params, x0, x1, conds, skel, tcfg, ts=ts)
        arr[idx] = orig - h
        lo = mdl.loss_value(params, x0, x1, conds, skel, tcfg, ts=ts)
        arr[idx] = orig
        fd = (hi - lo) / (2 * h)
        if abs(fd) < 1e-7:
            continue
        worst = max(worst, abs(grads[name][idx] - fd) / abs(fd))
        checked += 1
    return CheckResult("predictor-grad-fd", worst < 1e-4, f"max rel err {worst:.2e}")


def check_causal_mask(rng) -> CheckResult:
    cfg = mdl.PredictorConfig(frame_dim=10, max_frames=6, layers=2, width=16,
                              heads=2, causal=True)
    params = mdl.init_params(cfg, seed=int(rng.integers(1 << 30)))
    x = rng.normal(size=(1, 6, 10))
    base = mdl.predict(params, x, 0.4)
    worst = 0.0
    for h in range(5):
        perturbed = x.copy()
        perturbed[:, h + 1:] += rng.normal(size=perturbed[:, h + 1:].shape)
        out = mdl.predict(params, perturbed, 0.4)
        worst = max(worst, np.max(np.abs(out[:, : h + 1] - base[:, : h + 1])))
    return CheckResult("causal-mask", worst < 1e-10, f"max abs leak {worst:.2e}")


def check_seed_determinism(rng) -> CheckResult:
    x0 = rng.normal(size=(1, 4, 9))
    predictor = _nonlinear_predictor(rng, x0.shape)
    cfg = smp.SamplerConfig(steps=5, sigma_min=1e-4, guidance="none", beta=0.02,
                            seed=11)
    a = smp.sample(predictor, x0, cfg, sample_index=[2])
    b = smp.sample(predictor, x0, cfg, sample_index=[2])
    sampler_ok = np.array_equal(a, b)
    skel = geo.Skeleton((-1, 0), np.array([[0.0, 0, 0], [0.0, 0, 1.0]]),
                        np.array([0.1]))
    cfg2 = mdl.PredictorConfig(frame_dim=skel.motion_dim, max_frames=2, layers=1,
                               width=8, heads=2)
    data = [(rng.normal(size=(2, cfg2.frame_dim)), rng.normal(size=(2, cfg2.frame_dim)),
             None) for _ in range(3)]
    tcfg = mdl.TrainConfig(steps=10, batch_size=2, seed=5)
    _, h1 = mdl.train(data, skel, cfg2, tcfg)
    _, h2 = mdl.train(data, skel, cfg2, tcfg)
    train_ok = h1 == h2
    return CheckResult("seed-determinism", sampler_ok and train_ok,
                       f"sampler {sampler_ok}, train {train_ok}")


ALL_CHECKS = (
    check_interpolation_endpoints,
    check_x1_v_duality,
    check_path_velocity,
    check_x0_recovery,
    check_step_reinterpolation,
    check_mode_duality,
    check_oracle_exactness,
    check_guidance_reductions,
    check_rot6d_round_trip,
    check_fk_equivariance,
    check_sdf_gradient_fd,
    check_penetration_grad_fd,
    check_predictor_grad_fd,
    check_causal_mask,
    check_seed_determinism,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    results = []
    for index, check in enumerate(ALL_CHECKS):
        rng = np.random.default_rng((seed, index))
        try:
            results.append(check(rng))
        except Exception as err:  # a crash is a failure, not an abort
            results.append(CheckResult(check.__name__.removeprefix("check_")
                                       .replace("_", "-"), False,
                                       f"raised {type(err).__name__}: {err}"))
    return results
