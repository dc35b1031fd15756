"""Sampling: one Euler walk with optional guidance and stochastic mixing.

A predictor here is any callable ``(x_t, t) -> x1_hat`` returning the
endpoint estimate for a (B, H, D) batch of states (see
:func:`arflow.model.as_x1_predictor`); it sees the action only through the
state, whose walk starts at the action.
:func:`sample` walks the uniform time grid ``t_n = (n - 1) / (N - 1)`` and
is pure given its inputs and seed.

Every step recovers the path start from the endpoint estimate and
re-interpolates it at the next time (the Euler step of the path).
Guidance takes the penetration gradient at the endpoint estimate, never
through the network: vanilla subtracts it from the new state; improved
corrects the endpoint and blends the recovered start with the true action
by the weight factor.  Stochastic sampling (beta > 0) mixes the projection
direction with a norm-matched random direction.
The penetration terms index the frames in reach and take them through
one tape FK; the other frames get their exact values without FK or SDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import flowpath as fp
from . import geometry as geo
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    NonFiniteSample,
)

GUIDANCE_MODES = ("none", "vanilla", "improved")
MAX_STEPS = 10 ** 6  # most timesteps of one sampling grid


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 5
    sigma_min: float = fp.SIGMA_MIN_DEFAULT
    guidance: str = "none"      # "none" | "vanilla" | "improved"
    lambda_pene: float = 2.0
    zeta: float = 0.5
    w: float = 0.7
    beta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.steps <= MAX_STEPS:
            raise InvalidConfig(f"steps must be in [2, {MAX_STEPS}], got {self.steps}")
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
        if self.seed < 0:  # checked at any beta, though only beta > 0 draws from it
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")

    @property
    def guided(self) -> bool:  # whether sampling takes the penetration gradient
        return self.guidance != "none" and self.lambda_pene > 0.0


def time_grid(steps: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, steps)


@dataclass
class GuidanceContext:
    """Per-frame actor geometry the penetration terms are evaluated against.

    ``actor`` is the (B, H, D) batch of actors :func:`sample` drives;
    ``capsules`` holds one actor body per frame, flattened to ``B * H``,
    and ``box`` their per-frame boxes, taken once for the reach test.  A
    reaction must have the actor's leading axes.
    """

    skel: geo.Skeleton
    actor: np.ndarray
    capsules: geo.CapsuleSet
    box: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        frames = int(np.prod(np.shape(self.actor)[:-1]))
        if self.capsules.seg_a.shape[:-2] != (frames,):
            raise DimensionMismatch(
                f"capsules of shape {self.capsules.seg_a.shape} for an actor of "
                f"shape {np.shape(self.actor)}")
        self.box = self.capsules.aabb()

    @classmethod
    def from_actor(cls, skel: geo.Skeleton, actor: np.ndarray) -> "GuidanceContext":
        actor = np.asarray(actor, dtype=np.float64)
        frames = actor.reshape(-1, actor.shape[-1])
        return cls(skel, actor, geo.motion_capsules(skel, frames))


def _joint_sdfs(ctx: GuidanceContext, reaction: np.ndarray, zeta: float):
    """Per-joint SDF values and unit gradients against the per-frame actor,
    over the ``F = B * H`` flattened frames whose joints may come within
    ``zeta`` of it; ``InvalidConfig`` unless ``zeta`` is positive and finite.

    A frame whose reaction box (:func:`geometry.reach_box`) lies more than
    ``zeta`` from the actor frame's box along some axis, by the margin of
    :func:`geometry.apart`, has every joint's SDF provably at least
    ``zeta``: its loss terms are exactly ``zeta`` and its gradient exactly
    zero, so it goes through neither FK nor the SDF.  One tape FK covers
    the other frames, via the tolerant decode, so the loss value and the
    gradient share one forward computation and the finite-difference
    relationship between the two is exact.  Returns the index ``frames`` of
    the F' frames in reach, ``sdf (F', K)``, ``grad (F', K, 3)``, the
    positions node and the leaf; both are ``None`` when no frame is in reach.
    """
    if not 0.0 < zeta < np.inf:
        raise InvalidConfig(f"zeta must be positive and finite, got {zeta}")
    reaction = np.asarray(reaction, dtype=np.float64)
    if reaction.shape != ctx.actor.shape[:-1] + (ctx.skel.motion_dim,):
        raise DimensionMismatch(
            f"reaction of shape {reaction.shape} for an actor of shape "
            f"{ctx.actor.shape} needs {ctx.skel.motion_dim} values per frame")
    flat = reaction.reshape(-1, reaction.shape[-1])
    box = geo.reach_box(ctx.skel, flat, geo._rot6d_dots(ctx.skel, flat))
    frames = np.flatnonzero(~geo.apart(*ctx.box, *box, zeta, ctx.capsules.radius.min()))
    if not len(frames):
        k = ctx.skel.joint_count
        return frames, np.zeros((0, k)), np.zeros((0, k, 3)), None, None
    body = geo.CapsuleSet(ctx.capsules.seg_a[frames], ctx.capsules.seg_b[frames],
                          ctx.capsules.radius)
    leaf = ad.leaf(flat[frames])
    pos, _ = geo.fk_positions_t(ctx.skel, leaf)
    sdf, grad = geo.sdf_and_gradient(pos.data, body)
    return frames, sdf, grad, pos, leaf


def _every_frame(frames, values: np.ndarray, reaction, fill: float) -> np.ndarray:
    """``values`` of the ``frames`` in reach laid out over every frame of
    ``reaction``, ``fill`` elsewhere."""
    out = np.full((int(np.prod(np.shape(reaction)[:-1])),) + values.shape[1:], fill)
    out[frames] = values
    return out


def penetration_loss(reaction: np.ndarray, ctx: GuidanceContext,
                     zeta: float) -> float:
    """Sum over joints and frames of -min(actor SDF at the joint, zeta).

    Fully separated bodies saturate every term at -zeta; each penetrating
    joint adds its (positive) penetration depth.  A batch sums over samples.
    """
    frames, sdf, _, _, _ = _joint_sdfs(ctx, reaction, zeta)
    return float(-_every_frame(frames, np.minimum(sdf, zeta), reaction, zeta).sum())


def penetration_grad(reaction: np.ndarray, ctx: GuidanceContext,
                     zeta: float) -> np.ndarray:
    """Gradient of :func:`penetration_loss` w.r.t. every motion coordinate.

    Chains the analytic SDF gradient through forward kinematics and the 6D
    decode in one backward over the frames in reach; saturated joints
    (SDF >= zeta) contribute nothing, and a frame out of reach exactly zero.
    """
    frames, sdf, sdf_grad, pos, leaf = _joint_sdfs(ctx, reaction, zeta)
    seed = np.where((sdf < zeta)[..., None], -sdf_grad, 0.0)
    if not seed.any():
        return np.zeros(np.shape(reaction))
    pos.backward(seed)
    return _every_frame(frames, leaf.grad, reaction, 0.0).reshape(np.shape(reaction))


def _step(x: np.ndarray, x1_hat: np.ndarray, x0: np.ndarray,
          grad: np.ndarray | None, tn: float, tn1: float, cfg: SamplerConfig,
          rngs: list[np.random.Generator] | None) -> np.ndarray:
    """Move the state from ``tn`` to ``tn1``, for every guidance mode.

    Recover the path start from the endpoint estimate (``improved`` first
    corrects the endpoint and blends the start with the true action by
    ``w``) and re-interpolate at ``tn1``: uncorrected, the Euler step.
    With ``rngs`` (beta > 0, one generator per sample) each frame of the
    projection direction is mixed with a random direction norm-matched to
    it over D, so no frame's step depends on another frame.  ``vanilla``
    subtracts the scaled gradient from the new state.
    """
    x0_rec = fp.x0_hat(x1_hat, x, tn, cfg.sigma_min)
    if cfg.guidance == "improved":
        if grad is not None:
            x1_hat = x1_hat - cfg.lambda_pene * grad
        x0_rec = cfg.w * x0_rec + (1.0 - cfg.w) * x0
    if rngs is None:
        x_next = fp.interpolate(x0_rec, x1_hat, tn1, cfg.sigma_min)
    else:
        d_base = x0_rec - x1_hat
        d_rand = np.stack([gen.standard_normal(size=base.shape)
                           for gen, base in zip(rngs, d_base)])
        rand_norm = np.linalg.norm(d_rand, axis=-1, keepdims=True)
        d_rand *= np.divide(np.linalg.norm(d_base, axis=-1, keepdims=True), rand_norm,
                            out=np.ones_like(rand_norm), where=rand_norm > 0.0)
        d_mix = d_base + cfg.beta * (d_rand - d_base)
        x_next = x1_hat + (1.0 - tn1) * d_mix + cfg.sigma_min * tn1 * x0_rec
    if cfg.guidance == "vanilla" and grad is not None:
        x_next = x_next - cfg.lambda_pene * grad
    return x_next


def sample(predictor, x0: np.ndarray, cfg: SamplerConfig,
           ctx: GuidanceContext | None = None, sample_index=None) -> np.ndarray:
    """Integrate a (B, H, D) batch of actions along the uniform time grid.

    ``sample_index`` is a length-B sequence (default ``range(B)``).  The
    predictor gets (B, H, D) states; guidance needs ``ctx`` built from the
    same (B, H, D) actors.

    Each step calls the predictor once and moves the state with
    :func:`_step`, the one step of every guidance mode.  Each sample's
    random stream is derived from (cfg.seed, its sample_index), so a
    sample's output does not depend on the batch it runs in; it is only
    consulted when beta > 0.
    Raises ``NonFiniteSample`` when the predictor returns NaN or Inf, or
    when a step leaves the state non-finite (a guidance step too large
    for float64), naming the step's time and the guidance mode.
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
    rngs = ([np.random.default_rng((cfg.seed, i)) for i in indices]
            if cfg.beta > 0.0 else None)
    x = np.array(x0)
    grid = time_grid(cfg.steps)
    for n in range(cfg.steps - 1):
        tn, tn1 = float(grid[n]), float(grid[n + 1])
        x1_hat = predictor(x, tn)
        if x1_hat.shape != x.shape:
            raise DimensionMismatch(
                f"predictor returned {x1_hat.shape}, expected {x.shape}")
        if not np.isfinite(x1_hat).all():
            raise NonFiniteSample(f"predictor output is not finite at t={tn:g}")
        grad = penetration_grad(x1_hat, ctx, cfg.zeta) if cfg.guided else None
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            x = _step(x, x1_hat, x0, grad, tn, tn1, cfg, rngs)
        if not np.isfinite(x).all():
            raise NonFiniteSample(f"state is not finite after the step from t={tn:g} "
                                  f"({cfg.guidance} guidance)")
    return x
