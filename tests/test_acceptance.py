"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
The trained-model criteria share one session fixture (2 layers, width 64,
10k steps on the default 2,000-pair dataset); its training time counts
toward the guidance-efficacy budget below.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from arflow import cli
from arflow import data as dt
from arflow import flowpath as fp
from arflow import geometry as geo
from arflow import metrics as mx
from arflow import model as mdl
from arflow import sampler as smp

from test_geometry import pose_row
from voxel_oracle import shared_bounds, voxelize


def report(num, name, ok, detail, seconds, budget):
    status = "PASS" if ok and seconds < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} "
          f"({detail}; {seconds:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert seconds < budget, f"criterion {num} exceeded budget: {seconds:.1f}s"


# ---------------------------------------------------------------------------
# 1. algebraic equivalence suite
# ---------------------------------------------------------------------------

def test_criterion_01_algebraic_equivalence():
    started = time.time()
    rng = np.random.default_rng(1001)
    worst_step = worst_round = 0.0
    for _ in range(1000):
        y = rng.normal(size=(4, 9))
        xtn = rng.normal(size=(4, 9))
        n = int(rng.integers(2, 101))
        i = int(rng.integers(0, n - 1))
        grid = smp.time_grid(n)
        tn, tn1 = float(grid[i]), float(grid[i + 1])
        s = float(rng.uniform(0.0, 0.2))
        denom = 1.0 - (1.0 - s) * tn
        step = ((1.0 - (1.0 - s) * tn1) / denom * xtn + (tn1 - tn) / denom * y)
        worst_step = max(worst_step, np.max(np.abs(
            step - fp.interpolate(fp.x0_hat(y, xtn, tn, s), y, tn1, s))))
        v = fp.v_from_x1(y, xtn, tn, s)
        worst_round = max(worst_round,
                          np.max(np.abs(fp.x1_from_v(v, xtn, tn, s) - y)))
    worst_mode = 0.0
    for k in range(100):
        x0 = rng.normal(size=(4, 9))
        a = rng.normal(scale=0.3, size=x0.shape)
        predictor = lambda x, t, c: np.tanh(x + a) * (1.0 + 0.5 * t)
        s = float(rng.uniform(0.0, 0.1))
        xa = smp.sample(predictor, x0[None],
                        smp.SamplerConfig(steps=5, sigma_min=s, mode="x1"))
        xb = smp.sample(predictor, x0[None],
                        smp.SamplerConfig(steps=5, sigma_min=s, mode="v"))
        worst_mode = max(worst_mode, np.max(np.abs(xa - xb)))
    ok = worst_step < 1e-10 and worst_round < 1e-10 and worst_mode < 1e-10
    report(1, "algebraic-equivalence", ok,
           f"step {worst_step:.1e}, roundtrip {worst_round:.1e}, "
           f"mode {worst_mode:.1e}", time.time() - started, 5.0)


# ---------------------------------------------------------------------------
# 2. oracle-predictor exactness
# ---------------------------------------------------------------------------

def test_criterion_02_oracle_exactness():
    started = time.time()
    rng = np.random.default_rng(1002)
    x0 = rng.normal(size=(8, 13))
    x1 = rng.normal(size=(8, 13))
    worst = 0.0
    for n in (2, 5, 100):
        out = smp.sample(lambda x, t, c: x1[None], x0[None],
                         smp.SamplerConfig(steps=n, sigma_min=0.0))
        worst = max(worst, np.max(np.abs(out - x1)))
    s = 0.05
    for n in (2, 5, 100):
        out = smp.sample(lambda x, t, c: x1[None], x0[None],
                         smp.SamplerConfig(steps=n, sigma_min=s))
        worst = max(worst, np.max(np.abs(out - (x1 + s * x0))))
    report(2, "oracle-exactness", worst < 1e-12, f"max abs err {worst:.1e}",
           time.time() - started, 1.0)


# ---------------------------------------------------------------------------
# 3. guidance reduction chain
# ---------------------------------------------------------------------------

def test_criterion_03_reduction_chain():
    started = time.time()
    rng = np.random.default_rng(1003)
    worst_improved = worst_vanilla = 0.0
    bit_equal = True
    for _ in range(50):
        x0 = rng.normal(size=(6, 11))
        a = rng.normal(scale=0.3, size=x0.shape)
        predictor = lambda x, t, c: np.tanh(x + a) * (1.0 + 0.5 * t)
        s = float(rng.uniform(0.0, 0.1))
        euler = smp.sample(predictor, x0[None],
                           smp.SamplerConfig(steps=5, sigma_min=s))
        vanilla = smp.sample(
            predictor, x0[None], smp.SamplerConfig(steps=5, sigma_min=s,
                                                   guidance="vanilla", lambda_pene=0.0))
        icfg = smp.SamplerConfig(steps=5, sigma_min=s, guidance="improved",
                                 lambda_pene=0.0, w=1.0, seed=3)
        improved = smp.sample(predictor, x0[None], icfg)
        # beta = 0 never consults the (seed, sample_index) stream
        reseeded = smp.sample(predictor, x0[None], replace(icfg, seed=4),
                              sample_index=[7])
        worst_vanilla = max(worst_vanilla, np.max(np.abs(vanilla - euler)))
        worst_improved = max(worst_improved, np.max(np.abs(improved - euler)))
        bit_equal = bit_equal and np.array_equal(reseeded, improved)
    ok = worst_vanilla < 1e-12 and worst_improved < 1e-12 and bit_equal
    report(3, "reduction-chain", ok,
           f"vanilla {worst_vanilla:.1e}, improved {worst_improved:.1e}, "
           f"beta0-seed-independent {bit_equal}", time.time() - started, 5.0)


# ---------------------------------------------------------------------------
# 4. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_04_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(1004)

    # penetration gradient vs central differences
    skel = geo.Skeleton((-1, 0, 1), np.array([[0.0, 0, 0], [0.25, 0.1, 0.3],
                                              [0.25, 0.1, 0.3]]),
                        np.array([0.1, 0.1]))
    actor_skel = geo.Skeleton((-1, 0, 1),
                              np.array([[0.0, 0, 0], [0.6, 0, 0], [0.0, 0.6, 0]]),
                              np.array([0.25, 0.2]))
    actor = np.tile(pose_row(actor_skel), (3, 1))
    ctx = smp.GuidanceContext(skel, actor[None], geo.motion_capsules(actor_skel, actor))
    reaction = rng.normal(scale=0.5, size=(3, skel.motion_dim))
    reaction[:, -3:] = rng.normal(scale=0.15, size=(3, 3))
    zeta = 0.5
    grad = smp.penetration_grad(reaction[None], ctx, zeta).reshape(-1)
    flat = reaction.reshape(-1)
    h = 1e-6
    checked_p, worst_p = 0, 0.0
    while checked_p < 50:
        idx = int(rng.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + h
        hi = smp.penetration_loss(reaction[None], ctx, zeta)
        flat[idx] = orig - h
        lo = smp.penetration_loss(reaction[None], ctx, zeta)
        flat[idx] = orig
        fd = (hi - lo) / (2 * h)
        if abs(fd) < 1e-6:
            continue
        worst_p = max(worst_p, abs(fd - grad[idx]) / abs(fd))
        checked_p += 1

    # training gradient vs central differences on a width-8 one-layer model;
    # a healthy-scale output projection keeps predicted rotation blocks away
    # from the decode singularity (the criterion wants non-degenerate cases)
    skel2 = geo.Skeleton((-1, 0), np.array([[0.0, 0, 0], [0.0, 0, 1.0]]),
                         np.array([0.1]))
    cfg = mdl.PredictorConfig(frame_dim=skel2.motion_dim, max_frames=3, layers=1,
                              width=8, heads=2, cond_vocab=2)
    params = mdl.init_params(cfg, seed=11)
    params.arrays["out_proj_w"] = rng.normal(
        scale=1.0 / np.sqrt(cfg.width), size=params.arrays["out_proj_w"].shape)
    tcfg = mdl.TrainConfig(steps=1, batch_size=2, sigma_min=1e-4, seed=0)
    batch = [(rng.normal(size=(3, cfg.frame_dim)),
              rng.normal(size=(3, cfg.frame_dim)), i % 2) for i in range(2)]
    ts = np.array([0.17, 0.71])
    conds = [0, 1]
    x0, x1 = (np.stack([b[i] for b in batch]) for i in (0, 1))
    _, _, _, grads = mdl.grad_loss(params, x0, x1, conds, skel2, tcfg, ts=ts)
    names = sorted(params.arrays)
    h = 1e-5
    checked_g, worst_g = 0, 0.0
    while checked_g < 50:
        name = names[int(rng.integers(len(names)))]
        arr = params.arrays[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        hi = mdl.loss_value(params, x0, x1, conds, skel2, tcfg, ts=ts)
        arr[idx] = orig - h
        lo = mdl.loss_value(params, x0, x1, conds, skel2, tcfg, ts=ts)
        arr[idx] = orig
        fd = (hi - lo) / (2 * h)
        if abs(fd) < 1e-7:
            continue
        worst_g = max(worst_g, abs(grads[name][idx] - fd) / abs(fd))
        checked_g += 1

    ok = worst_p < 1e-4 and worst_g < 1e-4
    report(4, "gradient-correctness", ok,
           f"penetration {worst_p:.1e} ({checked_p} coords), "
           f"training {worst_g:.1e} ({checked_g} coords)",
           time.time() - started, 30.0)


# ---------------------------------------------------------------------------
# 5. guidance efficacy on the near-contact suite
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_05_guidance_efficacy(trained_setup):
    started = time.time()
    skel = trained_setup["skel"]
    tcfg = trained_setup["train_cfg"]
    predictor = mdl.as_x1_predictor(trained_setup["params"], tcfg.sigma_min)
    suite = dt.generate_mixed(200, frames=16, contact_fraction=1.0, seed=99)
    actors = np.stack([s.actor for s in suite])

    results = {}
    for name, cfg in [
        ("unguided", smp.SamplerConfig(steps=5, sigma_min=tcfg.sigma_min)),
        ("vanilla", smp.SamplerConfig(steps=5, sigma_min=tcfg.sigma_min,
                                      guidance="vanilla", lambda_pene=2.0,
                                      zeta=0.5)),
        ("improved", smp.SamplerConfig(steps=5, sigma_min=tcfg.sigma_min,
                                       guidance="improved", lambda_pene=2.0,
                                       zeta=0.5, w=0.7)),
    ]:
        ctx = (smp.GuidanceContext.from_actor(skel, actors)
               if cfg.guidance != "none" else None)
        pairs = list(zip(actors, smp.sample(predictor, actors, cfg, None, ctx)))
        stats = mx.penetration_stats(pairs, skel, 0.02)
        results[name] = (stats.iv_cm3, stats.if_frac)

    iv_u, if_u = results["unguided"]
    iv_v, if_v = results["vanilla"]
    iv_i, if_i = results["improved"]
    ordering = iv_i <= iv_v <= iv_u and if_i <= if_v <= if_u
    reduction = 1.0 - iv_i / iv_u if iv_u > 0 else 0.0
    ok = iv_u > 0 and ordering and reduction >= 0.40
    elapsed = time.time() - started + trained_setup["train_seconds"]
    report(5, "guidance-efficacy", ok,
           f"IV unguided {iv_u:.1f} / vanilla {iv_v:.1f} / improved {iv_i:.1f} "
           f"cm3, IF {if_u:.3f}/{if_v:.3f}/{if_i:.3f}, "
           f"reduction {reduction * 100:.0f}% (incl. training time)",
           elapsed, 600.0)


# ---------------------------------------------------------------------------
# 6. trainability smoke test
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_06_trainability(trained_setup):
    started = time.time()
    history = trained_setup["history"]
    initial_fm = history[0][0]
    final_epoch = float(np.mean([h[0] for h in history[-500:]]))
    loss_ok = final_epoch < 0.1 * initial_fm

    tcfg = trained_setup["train_cfg"]
    predictor = mdl.as_x1_predictor(trained_setup["params"], tcfg.sigma_min)
    cfg = smp.SamplerConfig(steps=5, sigma_min=tcfg.sigma_min)
    errs, base = [], []
    for s in trained_setup["test"]:
        out = smp.sample(predictor, s.actor[None], cfg, None)[0]
        errs.append(np.sqrt(np.mean((out - s.reactor) ** 2)))
        base.append(np.sqrt(np.mean((s.actor - s.reactor) ** 2)))
    ratio = float(np.mean(errs) / np.mean(base))
    ok = loss_ok and ratio < 0.5
    report(6, "trainability", ok,
           f"fm {initial_fm:.4f} -> {final_epoch:.4f} "
           f"({final_epoch / initial_fm * 100:.1f}%), endpoint ratio {ratio:.3f}",
           time.time() - started, 900.0)


# ---------------------------------------------------------------------------
# 7. metric unit tests
# ---------------------------------------------------------------------------

def test_criterion_07_metric_units():
    started = time.time()
    rng = np.random.default_rng(1007)

    x = rng.normal(size=(300, 8))
    fid_self = mx.fid(x, x)

    a = rng.normal(loc=0.0, scale=1.0, size=(20000, 1))
    b = rng.normal(loc=3.0, scale=1.0, size=(20000, 1))
    closed = float((a.mean() - b.mean()) ** 2 + (a.std(ddof=1) - b.std(ddof=1)) ** 2)
    fid_gap = abs(mx.fid(a, b) - closed) / closed

    skel = dt.default_skeleton()
    motion = pose_row(skel, trans=(0.0, 0.0, 0.9))[None]
    caps = geo.motion_capsules(skel, motion).frame(0)
    vs = 0.02
    body_volume = voxelize(caps, vs, shared_bounds(caps, caps, vs)).volume
    iv_super = mx.penetration_stats([(motion, motion.copy())], skel, vs).iv_cm3
    superposed_exact = iv_super == pytest.approx(body_volume * mx.M3_TO_CM3)

    r, length = 0.1, 0.6
    capsule = geo.CapsuleSet(np.array([[0.0, 0, 0]]),
                             np.array([[length, 0, 0]]), np.array([r]))
    analytic = np.pi * r ** 2 * length + 4.0 / 3.0 * np.pi * r ** 3
    vox_err = abs(voxelize(capsule, r / 10.0).volume - analytic) / analytic

    chain = dt.default_skeleton()
    def at(p):
        return np.tile(pose_row(chain, trans=p), (3, 1))
    overlapping = (at((0, 0, 0.9)), at((0.05, 0, 0.9)))
    fixtures = [overlapping] + [(at((0, 0, 0.9)), at((4.0 + i, 0, 0.9)))
                                for i in range(3)]
    if_frac = mx.penetration_stats(fixtures, chain, vs).if_frac

    ok = (fid_self < 1e-6 and fid_gap < 0.05 and superposed_exact
          and vox_err < 0.05 and if_frac == 3 / 12)
    report(7, "metric-units", ok,
           f"fid(X,X) {fid_self:.1e}, gaussian gap {fid_gap * 100:.1f}%, "
           f"superposed exact {superposed_exact}, capsule vox err "
           f"{vox_err * 100:.1f}%, IF {if_frac:.4f}",
           time.time() - started, 30.0)


# ---------------------------------------------------------------------------
# 8. causality
# ---------------------------------------------------------------------------

def test_criterion_08_causality():
    started = time.time()
    rng = np.random.default_rng(1008)
    cfg = mdl.PredictorConfig(frame_dim=12, max_frames=8, layers=2, width=32,
                              heads=2, causal=True, cond_vocab=2)
    params = mdl.init_params(cfg, seed=3)
    worst = 0.0
    for trial in range(5):
        x = rng.normal(size=(8, 12))
        base = mdl.predict(params, x[None], 0.3, [trial % 2])[0]
        for h in range(7):
            perturbed = x.copy()
            perturbed[h + 1:] += rng.normal(size=perturbed[h + 1:].shape)
            out = mdl.predict(params, perturbed[None], 0.3, [trial % 2])[0]
            worst = max(worst, np.max(np.abs(out[: h + 1] - base[: h + 1])))
    report(8, "causality", worst < 1e-10, f"max leak {worst:.1e}",
           time.time() - started, 5.0)


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_09_cli_determinism(tmp_path):
    started = time.time()

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    data = tmp_path / "data.jsonl"
    model = tmp_path / "model.json"
    out = tmp_path / "samples.jsonl"
    commands = {
        "gen-data": (data, ["gen-data", "--pairs", "24", "--frames", "6",
                            "--seed", "13", "--out", str(data)]),
        "train": (model, ["train", "--data", str(data), "--out", str(model),
                          "--steps", "40", "--batch", "4", "--width", "16",
                          "--layers", "1", "--seed", "5"]),
        "sample": (out, ["sample", "--model", str(model), "--data", str(data),
                         "--out", str(out), "--beta", "0.02", "--seed", "9",
                         "--split", "all", "--limit", "6"]),
    }
    sums: dict[str, list[str]] = {name: [] for name in commands}
    for _ in range(2):  # rerun every command with identical flags
        for name, (artifact, argv) in commands.items():
            assert cli.main(argv) == 0
            sums[name].append(sha(artifact))
    ok = all(v[0] == v[1] for v in sums.values())
    detail = ", ".join(f"{k} {'==' if v[0] == v[1] else '!='}"
                       for k, v in sums.items())
    report(9, "cli-determinism", ok, f"checksum reruns: {detail}",
           time.time() - started, 120.0)


# ---------------------------------------------------------------------------
# 10. stochastic diversity
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_stochastic_diversity(trained_setup):
    started = time.time()
    skel = trained_setup["skel"]
    tcfg = trained_setup["train_cfg"]
    predictor = mdl.as_x1_predictor(trained_setup["params"], tcfg.sigma_min)
    actors = [s.actor for s in trained_setup["test"][:10]]

    variances = []
    for beta in (0.01, 0.02, 0.05):
        spreads = []
        for actor in actors:
            outs = []
            for seed in range(20):
                cfg = smp.SamplerConfig(steps=5, sigma_min=tcfg.sigma_min,
                                        guidance="none", beta=beta, seed=seed)
                outs.append(smp.sample(predictor, actor[None], cfg)[0])
            spreads.append(float(np.var(np.stack(outs), axis=0).mean()))
        variances.append(float(np.mean(spreads)))
    ok = variances[0] < variances[1] < variances[2]
    report(10, "stochastic-diversity", ok,
           "variance " + " < ".join(f"{v:.2e}" for v in variances),
           time.time() - started, 300.0)