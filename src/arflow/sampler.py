"""Sampling: one Euler walk with optional guidance and stochastic mixing.

A predictor here is any callable ``(x_t, t, c) -> x1_hat`` returning the
endpoint estimate for the current state (see
:func:`arflow.model.as_x1_predictor`).  :func:`sample` walks the uniform
time grid ``t_n = (n - 1) / (N - 1)`` and is pure given its inputs and seed.

Guidance evaluates the penetration gradient at the endpoint estimate, never
through the network.  Vanilla guidance subtracts the scaled gradient from
the stepped state; improved guidance corrects the endpoint first, blends
the recovered path start with the true action through the weight factor,
and re-interpolates back onto the path.  Stochastic sampling (beta > 0)
mixes the projection direction with a norm-matched random direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import flowpath as fp
from . import geometry as geo
from .errors import DimensionMismatch, InvalidConfig, ShapeMismatch

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
        if self.lambda_pene < 0.0 or self.zeta <= 0.0:
            raise InvalidConfig("lambda_pene must be >= 0 and zeta > 0")
        if not 0.0 <= self.w <= 1.0 or not 0.0 <= self.beta <= 1.0:
            raise InvalidConfig("w and beta must lie in [0, 1]")
        if self.guidance == "vanilla" and self.beta > 0.0:
            raise InvalidConfig("stochastic sampling composes with improved or none")


def time_grid(steps: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, steps)


@dataclass
class GuidanceContext:
    """Per-frame actor geometry the penetration terms are evaluated against."""

    skel: geo.Skeleton
    actor: np.ndarray
    capsules: list[geo.CapsuleSet] = field(default_factory=list)

    @classmethod
    def from_actor(cls, skel: geo.Skeleton, actor: np.ndarray) -> "GuidanceContext":
        actor = np.asarray(actor, dtype=np.float64)
        return cls(skel, actor, geo.motion_capsules(skel, actor))

    @property
    def frames(self) -> int:
        return len(self.capsules)


def _reaction_positions(skel: geo.Skeleton, reaction: np.ndarray,
                        for_grad: bool) -> tuple[np.ndarray, ad.Tensor | None, ad.Tensor | None]:
    """FK positions of an in-flight reaction via the tolerant tape decode.

    The same forward computation serves the loss value and the gradient, so
    the finite-difference relationship between the two is exact.
    """
    leaf = ad.leaf(reaction) if for_grad else ad.constant(reaction)
    pos, _ = geo.fk_positions_t(skel, leaf)
    return pos.data, (pos if for_grad else None), (leaf if for_grad else None)


def _joint_sdfs(ctx: GuidanceContext, positions: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-joint SDF values and unit gradients against the per-frame actor."""
    h, k, _ = positions.shape
    sdf = np.empty((h, k))
    grad = np.empty((h, k, 3))
    for i, caps in enumerate(ctx.capsules):
        sdf[i], grad[i] = geo.sdf_and_gradient(positions[i], caps)
    return sdf, grad


def _check_reaction(ctx: GuidanceContext, reaction: np.ndarray) -> np.ndarray:
    reaction = np.asarray(reaction, dtype=np.float64)
    if reaction.ndim != 2 or reaction.shape[1] != ctx.skel.motion_dim:
        raise DimensionMismatch(
            f"reaction must be (H, {ctx.skel.motion_dim}), got {reaction.shape}")
    if reaction.shape[0] != ctx.frames:
        raise DimensionMismatch(
            f"reaction has {reaction.shape[0]} frames, context has {ctx.frames}")
    return reaction


def penetration_loss(reaction: np.ndarray, ctx: GuidanceContext,
                     zeta: float) -> float:
    """Sum over joints and frames of -min(actor SDF at the joint, zeta).

    Fully separated bodies saturate every term at -zeta; each penetrating
    joint adds its (positive) penetration depth.
    """
    if zeta <= 0.0:
        raise InvalidConfig("zeta must be positive")
    reaction = _check_reaction(ctx, reaction)
    positions, _, _ = _reaction_positions(ctx.skel, reaction, for_grad=False)
    sdf, _ = _joint_sdfs(ctx, positions)
    return float(-np.minimum(sdf, zeta).sum())


def penetration_grad(reaction: np.ndarray, ctx: GuidanceContext,
                     zeta: float) -> np.ndarray:
    """Gradient of :func:`penetration_loss` w.r.t. every motion coordinate.

    Chains the analytic SDF gradient through forward kinematics and the 6D
    decode; saturated joints (SDF >= zeta) contribute nothing.
    """
    if zeta <= 0.0:
        raise InvalidConfig("zeta must be positive")
    reaction = _check_reaction(ctx, reaction)
    positions, pos_node, leaf = _reaction_positions(ctx.skel, reaction, for_grad=True)
    sdf, sdf_grad = _joint_sdfs(ctx, positions)
    seed = np.where((sdf < zeta)[..., None], -sdf_grad, 0.0)
    if not seed.any():
        return np.zeros_like(reaction)
    pos_node.backward(seed)
    return leaf.grad


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
                       rng: np.random.Generator | None) -> np.ndarray:
    """Recover the path start, correct and blend (improved), re-interpolate.

    ``rng`` is given only when beta > 0; it draws the random direction that
    is norm-matched to the projection direction and mixed in by beta.  With
    lambda_pene = 0, w = 1 and beta = 0 this reduces to the Euler step
    (path-start recovery and re-interpolation compose to it).
    """
    x0_rec = fp.x0_hat(x1_hat, x, tn, cfg.sigma_min)
    x1_corr = x1_hat - cfg.lambda_pene * grad if grad is not None else x1_hat
    if cfg.guidance == "improved":
        x0_star = cfg.w * x0_rec + (1.0 - cfg.w) * x0
    else:
        x0_star = x0_rec
    if rng is None:
        return fp.interpolate(x0_star, x1_corr, tn1, cfg.sigma_min)
    d_base = x0_star - x1_corr
    d_rand = rng.standard_normal(size=d_base.shape)
    base_norm = np.linalg.norm(d_base)
    rand_norm = np.linalg.norm(d_rand)
    if rand_norm > 0.0:
        d_rand *= base_norm / rand_norm
    d_mix = d_base + cfg.beta * (d_rand - d_base)
    return x1_corr + (1.0 - tn1) * d_mix + cfg.sigma_min * tn1 * x0_star


def sample(predictor, x0: np.ndarray, cfg: SamplerConfig, c: int | None = None,
           ctx: GuidanceContext | None = None, sample_index: int = 0) -> np.ndarray:
    """Integrate from the action to the reaction along the uniform time grid.

    Each step calls the predictor once.  With guidance none or vanilla and
    beta = 0 the state takes the Euler step; vanilla then subtracts the
    scaled penetration gradient taken at the endpoint estimate.  With
    improved guidance or beta > 0 the state is re-projected instead (see
    :func:`_reprojection_step`).  The random stream is derived from
    (cfg.seed, sample_index), so concurrent samples are reproducible, and it
    is only consulted when beta > 0.
    """
    guided = cfg.guidance != "none" and cfg.lambda_pene != 0.0
    if guided and ctx is None:
        raise InvalidConfig("guided sampling needs a GuidanceContext")
    reproject = cfg.guidance == "improved" or cfg.beta > 0.0
    rng = np.random.default_rng((cfg.seed, sample_index)) if cfg.beta > 0.0 else None
    x0 = np.asarray(x0, dtype=np.float64)
    x = np.array(x0)
    grid = time_grid(cfg.steps)
    for n in range(cfg.steps - 1):
        tn, tn1 = float(grid[n]), float(grid[n + 1])
        x1_hat = predictor(x, tn, c)
        if x1_hat.shape != x.shape:
            raise ShapeMismatch(
                f"predictor returned {x1_hat.shape}, expected {x.shape}")
        grad = penetration_grad(x1_hat, ctx, cfg.zeta) if guided else None
        if reproject:
            x = _reprojection_step(x, x1_hat, x0, grad, tn, tn1, cfg, rng)
        else:
            x = _euler_step(x, x1_hat, tn, tn1, cfg)
            if guided:
                x = x - cfg.lambda_pene * grad
    return x
