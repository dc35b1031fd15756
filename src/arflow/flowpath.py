"""Closed-form flow algebra: interpolation, velocity transforms, losses.

Every function here is an exact element-wise formula on (H, D) motion
arrays.  The linear path between an action ``x0`` and a reaction ``x1`` is

    x_t = t * x1 + (1 - (1 - sigma_min) * t) * x0

with a small residual coupling ``sigma_min`` to ``x0`` at t = 1.  The
velocity of that path, the conversions between endpoint prediction and
velocity prediction, and the recovery of the path start from an endpoint
estimate are all closed forms in (x_t, t, sigma_min).
The interaction loss takes its targets as the plain ``(pos, rot)`` arrays
of the ground truth's strict FK, one row per frame.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from .errors import DimensionMismatch, SingularTime

SIGMA_MIN_DEFAULT = 1e-4
_SINGULAR_GUARD = 1e-9


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return a, b


def _denom(t: float, sigma_min: float) -> float:
    d = 1.0 - (1.0 - sigma_min) * t
    if d <= _SINGULAR_GUARD:
        raise SingularTime(f"1 - (1 - sigma_min) * t = {d:.3e} at t = {t}")
    return d


def interpolate(x0: np.ndarray, x1: np.ndarray, t, sigma_min: float) -> np.ndarray:
    """Point on the linear path at time t; t = 0 gives x0 exactly.  ``t`` may
    be per-sample times that broadcast against ``x0``."""
    x0, x1 = _check_pair(x0, x1)
    return t * x1 + (1.0 - (1.0 - sigma_min) * t) * x0


def target_velocity(x0: np.ndarray, x1: np.ndarray, sigma_min: float) -> np.ndarray:
    """Path velocity x1 - (1 - sigma_min) * x0; constant in t."""
    x0, x1 = _check_pair(x0, x1)
    return x1 - (1.0 - sigma_min) * x0


def v_from_x1(x1_hat: np.ndarray, x_t: np.ndarray, t: float, sigma_min: float) -> np.ndarray:
    """Velocity implied by an endpoint estimate at state (x_t, t)."""
    x1_hat, x_t = _check_pair(x1_hat, x_t)
    return (x1_hat - (1.0 - sigma_min) * x_t) / _denom(t, sigma_min)


def x1_from_v(v: np.ndarray, x_t: np.ndarray, t: float, sigma_min: float) -> np.ndarray:
    """Endpoint estimate implied by a velocity; exact inverse of v_from_x1."""
    v, x_t = _check_pair(v, x_t)
    return (1.0 - sigma_min) * x_t + (1.0 - (1.0 - sigma_min) * t) * v


def x1_from_v_t(v: ad.Tensor, x_t: ad.Tensor, t, sigma_min: float) -> ad.Tensor:
    """Tape variant of :func:`x1_from_v`; ``t`` may be per-sample times that
    broadcast against ``v``."""
    return v * (1.0 - (1.0 - sigma_min) * t) + x_t * (1.0 - sigma_min)


def x0_hat(x1_hat: np.ndarray, x_t: np.ndarray, t: float, sigma_min: float) -> np.ndarray:
    """Path start recovered from an endpoint estimate: (x_t - t*x1_hat) / denom."""
    x1_hat, x_t = _check_pair(x1_hat, x_t)
    return (x_t - t * x1_hat) / _denom(t, sigma_min)


def x0_hat_expanded(x1_hat: np.ndarray, x_t: np.ndarray, t: float,
                    sigma_min: float) -> np.ndarray:
    """Equivalent expanded form of :func:`x0_hat`:

        x1_hat + (x_t - (1 + sigma_min * t) * x1_hat) / denom

    Kept alongside the compact form so their equality is testable.
    """
    x1_hat, x_t = _check_pair(x1_hat, x_t)
    return x1_hat + (x_t - (1.0 + sigma_min * t) * x1_hat) / _denom(t, sigma_min)


def interaction_targets(skel: geo.Skeleton, gt_x1: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Interaction-loss targets ``(pos (N, K, 3), rot (N, K + 1, 3, 3))`` of
    the (N, D) frame rows of a ground-truth reaction ``gt_x1``, from one
    strict FK pass (``DegenerateRotation`` on a degenerate 6D block).  A
    frame's rows do not depend on the other frames of the stack, so a batch
    indexes both arrays by its frames.  Actor terms cancel in the loss."""
    return geo._strict_fk(skel, gt_x1)


def interaction_loss_t(pred_x1: ad.Tensor, targets: tuple[np.ndarray, np.ndarray],
                       skel: geo.Skeleton) -> ad.Tensor:
    """Interaction loss of predicted reaction frames, on the tape.

    ``targets`` is the :func:`interaction_targets` pair of the frames.
    Three terms, each (1/H) * sum of squared differences between ground
    truth and prediction: per-joint FK positions, per-slot rotation matrices
    (K joint rotations plus the root orientation), and root translations,
    which FK places at joint 0.
    It equals the actor-relative form (``tests/oracles.interaction_loss``):
    actor terms cancel in (g - a) - (p - a), and |(G - P) A^T| = |G - P|
    for an orthonormal actor rotation A.
    """
    h = pred_x1.shape[0]
    gt_pos, gt_rot = targets
    pos, rot = geo.fk_positions_t(skel, pred_x1)
    d_pos = ad.constant(gt_pos) - pos
    d_rot = ad.constant(gt_rot) - rot
    d_trans = d_pos[:, 0]
    total = (d_pos * d_pos).sum() + (d_rot * d_rot).sum() + (d_trans * d_trans).sum()
    return total * (1.0 / h)
