"""Sampling: one Euler walk with optional guidance and stochastic mixing.

A predictor here is any callable ``(x_t, t, c) -> x1_hat`` returning the
endpoint estimate for a (B, H, D) batch of states, ``c`` a length-B
sequence of condition ids or None (see :func:`arflow.model.as_x1_predictor`).
:func:`sample` walks the uniform time grid ``t_n = (n - 1) / (N - 1)`` and
is pure given its inputs and seed.

Guidance evaluates the penetration gradient at the endpoint estimate, never
through the network.  Vanilla guidance subtracts the scaled gradient from
the stepped state; improved guidance corrects the endpoint first, blends
the recovered path start with the true action through the weight factor,
and re-interpolates back onto the path.  Stochastic sampling (beta > 0)
mixes the projection direction with a norm-matched random direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import flowpath as fp
from . import geometry as geo
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    NonFiniteSample,
    ShapeMismatch,
)

GUIDANCE_MODES = ("none", "vanilla", "improved")


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 5
    sigma_min: float = fp.SIGMA_MIN_DEFAULT
    mode: str = "x1"            # Euler update route: "x1" or "v"
    guidance: str = "none"      # "none" | "vanilla" | "improved"
    lambda_pene: float = 2.0
    zeta: float = 0.5
    w: float = 0.7
    beta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 2:
            raise InvalidConfig("steps must be >= 2 (grid endpoints 0 and 1)")
        if self.mode not in ("x1", "v"):
            raise InvalidConfig("mode must be 'x1' or 'v'")
        if self.guidance not in GUIDANCE_MODES:
            raise InvalidConfig(f"guidance must be one of {GUIDANCE_MODES}")
        if not 0.0 <= self.sigma_min < 1.0:
            raise InvalidConfig("sigma_min must be in [0, 1)")
        if not (0.0 <= self.lambda_pene < np.inf and 0.0 < self.zeta < np.inf):
            raise InvalidConfig("lambda_pene must be >= 0, zeta > 0, both finite")
        if not 0.0 <= self.w <= 1.0 or not 0.0 <= self.beta <= 1.0:
            raise InvalidConfig("w and beta must lie in [0, 1]")
        if self.guidance == "vanilla" and self.beta > 0.0:
            raise InvalidConfig("stochastic sampling composes with improved or none")

    @property
    def guided(self) -> bool:  # whether sampling takes the penetration gradient
        return self.guidance != "none" and self.lambda_pene > 0.0


def time_grid(steps: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, steps)


@dataclass
class GuidanceContext:
    """Per-frame actor geometry the penetration terms are evaluated against.

    ``actor`` is the (B, H, D) batch of actors :func:`sample` drives;
    ``capsules`` holds one actor body per frame, flattened to ``B * H``.  A
    reaction must have the actor's leading axes.
    """

    skel: geo.Skeleton
    actor: np.ndarray
    capsules: geo.CapsuleSet

    def __post_init__(self):
        frames = int(np.prod(np.shape(self.actor)[:-1]))
        if self.capsules.seg_a.shape[:-2] != (frames,):
            raise DimensionMismatch(
                f"capsules of shape {self.capsules.seg_a.shape} for an actor of "
                f"shape {np.shape(self.actor)}")

    @classmethod
    def from_actor(cls, skel: geo.Skeleton, actor: np.ndarray) -> "GuidanceContext":
        actor = np.asarray(actor, dtype=np.float64)
        frames = actor.reshape(-1, actor.shape[-1])
        return cls(skel, actor, geo.motion_capsules(skel, frames))


def _check_reaction(ctx: GuidanceContext, reaction: np.ndarray) -> np.ndarray:
    reaction = np.asarray(reaction, dtype=np.float64)
    if reaction.shape != ctx.actor.shape[:-1] + (ctx.skel.motion_dim,):
        raise DimensionMismatch(
            f"reaction of shape {reaction.shape} for an actor of shape "
            f"{ctx.actor.shape} needs {ctx.skel.motion_dim} values per frame")
    return reaction


def _joint_sdfs(ctx: GuidanceContext, reaction: np.ndarray, for_grad: bool):
    """Per-joint SDF values and unit gradients against the per-frame actor.

    One tape FK over all frames, via the tolerant decode, so the loss value
    and the gradient share one forward computation and the
    finite-difference relationship between the two is exact.  Returns
    ``(sdf (F, K), grad (F, K, 3), positions node, leaf)`` over the
    ``F = B * H`` flattened frames.
    """
    flat = reaction.reshape(-1, reaction.shape[-1])
    leaf = ad.leaf(flat) if for_grad else ad.constant(flat)
    pos, _ = geo.fk_positions_t(ctx.skel, leaf)
    sdf, grad = geo.sdf_and_gradient(pos.data, ctx.capsules)
    return sdf, grad, pos, leaf


def penetration_loss(reaction: np.ndarray, ctx: GuidanceContext,
                     zeta: float) -> float:
    """Sum over joints and frames of -min(actor SDF at the joint, zeta).

    Fully separated bodies saturate every term at -zeta; each penetrating
    joint adds its (positive) penetration depth.  A batch sums over samples.
    """
    if zeta <= 0.0:
        raise InvalidConfig("zeta must be positive")
    reaction = _check_reaction(ctx, reaction)
    sdf, _, _, _ = _joint_sdfs(ctx, reaction, for_grad=False)
    return float(-np.minimum(sdf, zeta).sum())


def penetration_grad(reaction: np.ndarray, ctx: GuidanceContext,
                     zeta: float) -> np.ndarray:
    """Gradient of :func:`penetration_loss` w.r.t. every motion coordinate.

    Chains the analytic SDF gradient through forward kinematics and the 6D
    decode in one backward over all frames; saturated joints (SDF >= zeta)
    contribute nothing.
    """
    if zeta <= 0.0:
        raise InvalidConfig("zeta must be positive")
    reaction = _check_reaction(ctx, reaction)
    sdf, sdf_grad, pos, leaf = _joint_sdfs(ctx, reaction, for_grad=True)
    seed = np.where((sdf < zeta)[..., None], -sdf_grad, 0.0)
    if not seed.any():
        return np.zeros_like(reaction)
    pos.backward(seed)
    return leaf.grad.reshape(reaction.shape)


def _euler_step(x: np.ndarray, x1_hat: np.ndarray, tn: float, tn1: float,
                cfg: SamplerConfig) -> np.ndarray:
    if cfg.mode == "v":
        v = fp.v_from_x1(x1_hat, x, tn, cfg.sigma_min)
        return x + (tn1 - tn) * v
    denom = 1.0 - (1.0 - cfg.sigma_min) * tn
    return ((1.0 - (1.0 - cfg.sigma_min) * tn1) / denom * x
            + (tn1 - tn) / denom * x1_hat)


def _reprojection_step(x: np.ndarray, x1_hat: np.ndarray, x0: np.ndarray,
                       grad: np.ndarray | None, tn: float, tn1: float,
                       cfg: SamplerConfig,
                       rngs: list[np.random.Generator] | None) -> np.ndarray:
    """Recover the path start, correct and blend (improved), re-interpolate.

    ``rngs`` is given only when beta > 0, one generator per sample of the
    (B, H, D) batch; each draws its sample's random direction, norm-matched
    to that sample's projection direction and mixed in by beta.  With
    lambda_pene = 0, w = 1 and beta = 0 this reduces to the Euler step
    (path-start recovery and re-interpolation compose to it).
    """
    x0_rec = fp.x0_hat(x1_hat, x, tn, cfg.sigma_min)
    x1_corr = x1_hat - cfg.lambda_pene * grad if grad is not None else x1_hat
    if cfg.guidance == "improved":
        x0_star = cfg.w * x0_rec + (1.0 - cfg.w) * x0
    else:
        x0_star = x0_rec
    if rngs is None:
        return fp.interpolate(x0_star, x1_corr, tn1, cfg.sigma_min)
    d_base = x0_star - x1_corr
    d_rand = np.empty_like(d_base)
    for gen, base, rand in zip(rngs, d_base, d_rand):
        rand[...] = gen.standard_normal(size=base.shape)
        rand_norm = np.linalg.norm(rand)
        if rand_norm > 0.0:
            rand *= np.linalg.norm(base) / rand_norm
    d_mix = d_base + cfg.beta * (d_rand - d_base)
    return x1_corr + (1.0 - tn1) * d_mix + cfg.sigma_min * tn1 * x0_star


def sample(predictor, x0: np.ndarray, cfg: SamplerConfig, c=None,
           ctx: GuidanceContext | None = None, sample_index=None) -> np.ndarray:
    """Integrate a (B, H, D) batch of actions along the uniform time grid.

    ``c`` is a length-B sequence of condition ids (None entries take the
    null token) or None, and ``sample_index`` a length-B sequence (default
    ``range(B)``).  The predictor gets (B, H, D) states and ``c``; guidance
    needs ``ctx`` built from the same (B, H, D) actors.

    Each step calls the predictor once.  With guidance none or vanilla and
    beta = 0 the state takes the Euler step; vanilla then subtracts the
    scaled penetration gradient taken at the endpoint estimate.  With
    improved guidance or beta > 0 the state is re-projected instead (see
    :func:`_reprojection_step`).  Each sample's random stream is derived
    from (cfg.seed, its sample_index), so a sample's output does not depend
    on the batch it runs in; the streams are only consulted when beta > 0.
    Raises ``NonFiniteSample`` when the predictor returns NaN or Inf.
    """
    if cfg.guided and ctx is None:
        raise InvalidConfig("guided sampling needs a GuidanceContext")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 3:
        raise DimensionMismatch(f"x0 must be a (B, H, D) batch, got {x0.shape}")
    indices = list(range(len(x0)) if sample_index is None else sample_index)
    if len(indices) != len(x0):
        raise DimensionMismatch(
            f"{len(indices)} sample indices for a batch of {len(x0)}")
    reproject = cfg.guidance == "improved" or cfg.beta > 0.0
    rngs = ([np.random.default_rng((cfg.seed, i)) for i in indices]
            if cfg.beta > 0.0 else None)
    x = np.array(x0)
    grid = time_grid(cfg.steps)
    for n in range(cfg.steps - 1):
        tn, tn1 = float(grid[n]), float(grid[n + 1])
        x1_hat = predictor(x, tn, c)
        if x1_hat.shape != x.shape:
            raise ShapeMismatch(
                f"predictor returned {x1_hat.shape}, expected {x.shape}")
        if not np.isfinite(x1_hat).all():
            raise NonFiniteSample(f"predictor output is not finite at t={tn:g}")
        grad = penetration_grad(x1_hat, ctx, cfg.zeta) if cfg.guided else None
        if reproject:
            x = _reprojection_step(x, x1_hat, x0, grad, tn, tn1, cfg, rngs)
        else:
            x = _euler_step(x, x1_hat, tn, tn1, cfg)
            if cfg.guided:
                x = x - cfg.lambda_pene * grad
    return x
