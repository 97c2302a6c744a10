"""Analytic gradients of the box losses, with a finite-difference checker.

All gradients are taken with respect to the predicted box's corner
coordinates (xmin, ymin, xmax, ymax); the target box is a constant.

Conventions at non-smooth points:
  - Huber branch boundary |z| = delta uses the linear branch, delta*sign(z).
  - Intersection ties (a predicted edge exactly on the matching target edge)
    use the closed >= / <= comparisons below, i.e. the predicted edge is
    treated as binding.
  - Zero intersection area is a plateau: the IoU-loss gradient is exactly
    (0, 0, 0, 0) there.

The finite-difference checker skips sample points near any of these kinks,
since a central difference straddling a kink measures the average of two
one-sided slopes rather than either convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box, BoxBatch, area, intersection_dims, iou
from .losses import _LOSSES, HuberParams, LossKind, _blend, _blend_weight

__all__ = [
    "GradVector",
    "GradCheckConfig",
    "GradCheckResult",
    "grad_huber",
    "grad_squared",
    "grad_iou_loss",
    "grad_smooth_iou",
    "finite_diff_check",
]

_COORD_NAMES = ("xmin", "ymin", "xmax", "ymax")

# gradcheck's sampler draws each geometric case by construction, unlike fit's
# OverlapRegime, which filters perturbed pairs only by IoU > 0 or IoU = 0.
REGIMES = ("mixed", "partial", "nested", "shifted", "disjoint")


@dataclass(frozen=True)
class GradVector:
    """Partial derivatives with respect to the predicted corner coordinates."""

    d_xmin: float
    d_ymin: float
    d_xmax: float
    d_ymax: float

    def components(self) -> tuple[float, float, float, float]:
        return (self.d_xmin, self.d_ymin, self.d_xmax, self.d_ymax)


_ZERO = GradVector(0.0, 0.0, 0.0, 0.0)


def _huber_slope(z: float, delta: float) -> float:
    if abs(z) < delta:
        return z
    return math.copysign(delta, z)


def grad_huber(pred: Box, target: Box, params: HuberParams = HuberParams()) -> GradVector:
    """Componentwise z_i inside |z_i| < delta, else delta*sign(z_i)."""
    zs = [p - t for p, t in zip(pred.corners(), target.corners())]
    return GradVector(*(_huber_slope(z, params.delta) for z in zs))


def grad_squared(pred: Box, target: Box) -> GradVector:
    return GradVector(*(p - t for p, t in zip(pred.corners(), target.corners())))


def grad_iou_loss(pred: Box, target: Box) -> GradVector:
    """Quotient-rule gradient of 1 - IoU.

    With I the intersection area and U the union area,

        d(1 - I/U)/dp = -(U * dI/dp - I * dU/dp) / U**2,
        dU/dp = dArea(pred)/dp - dI/dp.

    When the intersection area is zero the loss sits on its plateau and the
    gradient is exactly zero in every component.
    """
    iw, ih = intersection_dims(pred, target)
    if iw <= 0.0 or ih <= 0.0:
        return _ZERO

    inter = iw * ih
    union = area(pred) + area(target) - inter

    # Intersection width/height respond only to the binding predicted edge.
    diw_dxmin = -1.0 if pred.xmin >= target.xmin else 0.0
    diw_dxmax = 1.0 if pred.xmax <= target.xmax else 0.0
    dih_dymin = -1.0 if pred.ymin >= target.ymin else 0.0
    dih_dymax = 1.0 if pred.ymax <= target.ymax else 0.0

    di = (ih * diw_dxmin, iw * dih_dymin, ih * diw_dxmax, iw * dih_dymax)

    w = pred.xmax - pred.xmin
    h = pred.ymax - pred.ymin
    darea = (-h, -w, h, w)

    out = []
    for di_p, da_p in zip(di, darea):
        du_p = da_p - di_p
        out.append(-(union * di_p - inter * du_p) / (union * union))
    return GradVector(*out)


# Per-pair gradient components of each kind at the batch's blend weight lam,
# which only the smooth kind reads. Entries look the gradient functions up
# when called, so replacing a module attribute reaches them.
_PAIR_GRAD = {
    LossKind.HUBER: lambda p, t, lam, params: grad_huber(p, t, params).components(),
    LossKind.SQUARED: lambda p, t, lam, params: grad_squared(p, t).components(),
    LossKind.IOU: lambda p, t, lam, params: grad_iou_loss(p, t).components(),
    LossKind.SMOOTH_IOU: lambda p, t, lam, params: _blend(
        lam, grad_iou_loss(p, t).components(), grad_huber(p, t, params).components()
    ),
}


def grad_smooth_iou(
    batch: BoxBatch, k: int, params: HuberParams = HuberParams()
) -> GradVector:
    """Gradient of the k-th example's blended loss, holding lam constant.

    lam is the batch mean IoU, a number recomputed from the batch rather than
    differentiated through; the gradient is lam * grad_iou + (1 - lam) *
    grad_huber with that frozen weight. An all-disjoint batch therefore
    reproduces grad_huber bitwise.
    """
    if not 0 <= k < len(batch):
        raise IndexError(f"example index {k} out of range for batch of {len(batch)}")
    lam = _blend_weight([iou(p, t) for p, t in batch.pairs()])
    grad = _PAIR_GRAD[LossKind.SMOOTH_IOU]
    return GradVector(*grad(batch.predicted[k], batch.target[k], lam, params))


@dataclass(frozen=True)
class GradCheckConfig:
    """Sampler settings for the finite-difference checker."""

    num_samples: int = 1000
    regime: str = "mixed"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")


@dataclass(frozen=True)
class GradCheckResult:
    max_relative_error: float
    num_points_checked: int
    num_skipped_near_kink: int


def _sample_pair(rng: np.random.Generator, regime: str) -> tuple[Box, Box]:
    """Draw one (pred, target) pair in the given overlap regime."""
    if regime == "mixed":
        regime = REGIMES[1 + int(rng.integers(0, 4))]

    w = float(rng.uniform(6.0, 24.0))
    h = float(rng.uniform(6.0, 24.0))
    cx = float(rng.uniform(30.0, 70.0))
    cy = float(rng.uniform(30.0, 70.0))
    target = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)

    if regime == "nested":
        pw = w * float(rng.uniform(0.3, 0.7))
        ph = h * float(rng.uniform(0.3, 0.7))
        dx = float(rng.uniform(-0.4, 0.4)) * (w - pw) / 2
        dy = float(rng.uniform(-0.4, 0.4)) * (h - ph) / 2
    elif regime == "shifted":
        pw, ph = w, h
        dx = float(rng.uniform(0.15, 1.5)) * w * float(rng.choice((-1.0, 1.0)))
        dy = float(rng.uniform(0.15, 1.5)) * h * float(rng.choice((-1.0, 1.0)))
    elif regime == "partial":
        pw = w * float(math.exp(rng.normal(0.0, 0.15)))
        ph = h * float(math.exp(rng.normal(0.0, 0.15)))
        dx = float(rng.uniform(0.25, 0.75)) * (w + pw) / 2 * float(rng.choice((-1.0, 1.0)))
        dy = float(rng.uniform(0.25, 0.75)) * (h + ph) / 2 * float(rng.choice((-1.0, 1.0)))
    elif regime == "disjoint":
        pw = w * float(math.exp(rng.normal(0.0, 0.15)))
        ph = h * float(math.exp(rng.normal(0.0, 0.15)))
        # Separate by at least 10% of the half-sum along one axis, so the
        # pair sits strictly inside the plateau.
        dx = float(rng.uniform(-0.3, 0.3)) * w
        dy = float(rng.uniform(-0.3, 0.3)) * h
        gap = 1.1 + float(rng.uniform(0.0, 2.0))
        if int(rng.integers(0, 2)) == 0:
            dx = gap * (w + pw) / 2 * float(rng.choice((-1.0, 1.0)))
        else:
            dy = gap * (h + ph) / 2 * float(rng.choice((-1.0, 1.0)))
    else:
        raise ValueError(f"unknown regime {regime!r}")

    px, py = cx + dx, cy + dy
    pred = Box(px - pw / 2, py - ph / 2, px + pw / 2, py + ph / 2)
    return pred, target


def _near_kink(pred: Box, target: Box, delta: float, margin: float) -> bool:
    """True when any coordinate sits within `margin` of a non-smooth point."""
    for p, t in zip(pred.corners(), target.corners()):
        z = p - t
        if abs(abs(z) - delta) <= margin:
            return True
        if abs(z) <= margin:
            return True
    iw = min(pred.xmax, target.xmax) - max(pred.xmin, target.xmin)
    ih = min(pred.ymax, target.ymax) - max(pred.ymin, target.ymin)
    if abs(iw) <= margin or abs(ih) <= margin:
        return True
    return False


def _nudged(box: Box, index: int, amount: float) -> Box:
    corners = list(box.corners())
    corners[index] += amount
    return Box(*corners)


def finite_diff_check(
    kind: LossKind,
    config: GradCheckConfig = GradCheckConfig(),
    tolerance: float = 1e-4,
    step: float = 1e-5,
    params: HuberParams = HuberParams(),
) -> GradCheckResult:
    """Compare analytic gradients against central differences of the loss.

    Random pairs are drawn in the configured regime; points within 10 * step
    of a kink are skipped and counted separately. For the smooth kind the
    differenced function holds lam frozen at its unperturbed value, matching
    the gradient's constant-lam convention. Errors are relative:
    |analytic - numeric| / max(1, |numeric|).
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"step must lie in [1e-7, 1e-3], got {step}")
    if not math.isfinite(tolerance) or tolerance <= 0:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    kind = LossKind(kind)
    grad, losses = _PAIR_GRAD[kind], _LOSSES[kind]

    rng = np.random.default_rng(config.seed)
    margin = 10.0 * step
    checked = 0
    skipped = 0
    max_err = 0.0

    for _ in range(config.num_samples):
        pred, target = _sample_pair(rng, config.regime)
        if _near_kink(pred, target, params.delta, margin):
            skipped += 1
            continue

        # A single pair is a batch of one, so the smooth kind's lam is its IoU.
        lam = iou(pred, target)
        analytic = grad(pred, target, lam, params)
        # The pred nudged by +step and by -step along each coordinate in turn.
        pairs = [(_nudged(pred, i, s), target) for i in range(4) for s in (step, -step)]
        f = losses(pairs, (iou(p, t) for p, t in pairs), lam, params)

        for i, component in enumerate(analytic):
            numeric = (f[2 * i] - f[2 * i + 1]) / (2.0 * step)
            err = abs(component - numeric) / max(1.0, abs(numeric))
            if err > max_err:
                max_err = err
        checked += 1

    return GradCheckResult(
        max_relative_error=max_err,
        num_points_checked=checked,
        num_skipped_near_kink=skipped,
    )
