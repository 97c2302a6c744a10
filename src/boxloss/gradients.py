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
import numbers
from dataclasses import dataclass

import numpy as np

from .boxes import _IEEE, Box, BoxBatch, _corner_row, _signed_overlap, iou_array
from .boxes import _normal, _sign, _uniform, overlap_array
# Unused here; bench/worker.py's traced run replaces iou on this module by name.
from .boxes import iou  # noqa: F401
from .losses import _LOSSES, HuberParams, LossKind, _blend, _blend_weight

__all__ = [
    "REGIMES",
    "GradVector",
    "GradCheckConfig",
    "GradCheckResult",
    "grad_huber",
    "grad_squared",
    "grad_iou_loss",
    "grad_smooth_iou",
    "finite_diff_check",
]

# gradcheck's sampler draws each geometric case by construction, unlike fit's
# OverlapRegime, which filters perturbed pairs only by IoU > 0 or IoU = 0.
REGIMES = ("mixed", "partial", "nested", "shifted", "disjoint")

# finite_diff_check samples, kink-filters and evaluates pairs in batches of
# this many, so its memory does not grow with num_samples.
_CHECK_CHUNK = 4096


@dataclass(frozen=True)
class GradVector:
    """Partial derivatives with respect to the predicted corner coordinates."""

    d_xmin: float
    d_ymin: float
    d_xmax: float
    d_ymax: float

    def components(self) -> tuple[float, float, float, float]:
        return (self.d_xmin, self.d_ymin, self.d_xmax, self.d_ymax)


@_IEEE
def grad_huber(pred: Box, target: Box, params: HuberParams = HuberParams()) -> GradVector:
    """Componentwise z_i inside |z_i| < delta, else delta*sign(z_i)."""
    grad = _grad_huber_rows(_corner_row(pred), _corner_row(target), params.delta)
    return GradVector(*grad[0].tolist())


@_IEEE
def grad_squared(pred: Box, target: Box) -> GradVector:
    return GradVector(*_grad_squared_rows(_corner_row(pred), _corner_row(target))[0].tolist())


@_IEEE
def grad_iou_loss(pred: Box, target: Box) -> GradVector:
    """Quotient-rule gradient of 1 - IoU.

    With I the intersection area and U the union area,

        d(1 - I/U)/dp = -(U * dI/dp - I * dU/dp) / U**2,
        dU/dp = dArea(pred)/dp - dI/dp.

    When the intersection area is zero the loss sits on its plateau and the
    gradient is exactly zero in every component.
    """
    return GradVector(*_grad_iou_rows(_corner_row(pred), _corner_row(target))[0].tolist())


def _grad_huber_rows(pred: np.ndarray, target: np.ndarray, delta: float) -> np.ndarray:
    z = pred - target
    return np.where(np.abs(z) < delta, z, np.copysign(delta, z))


def _grad_squared_rows(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return pred - target


def _grad_iou_rows(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Quotient-rule gradient of 1 - IoU per row of two (K, 4) corner arrays,
    with the module's tie conventions and an exact zero row on the plateau."""
    iw, ih, inter, union = overlap_array(pred, target)
    w = pred[:, 2] - pred[:, 0]
    h = pred[:, 3] - pred[:, 1]
    # Intersection width/height respond only to the binding predicted edge.
    binding = np.concatenate(
        (
            np.where(pred[:, :2] >= target[:, :2], -1.0, 0.0),
            np.where(pred[:, 2:] <= target[:, 2:], 1.0, 0.0),
        ),
        axis=1,
    )
    di = np.stack((ih, iw, ih, iw), axis=1) * binding
    du = np.stack((-h, -w, h, w), axis=1) - di
    u = union[:, None]
    grad = -(u * di - inter[:, None] * du) / (u * u)
    plateau = (iw <= 0.0) | (ih <= 0.0)
    return np.where(plateau[:, None], 0.0, grad)


# Per-pair gradients of each kind as a (K, 4) array over (K, 4) predicted and
# target corners at the blend weight lam, a scalar or a (K, 1) array. Callers
# hand every kind the lam computed from the IoUs; only the smooth kind reads
# it, and losses._FIXED_LAM is only the lam a LossReport reports. grad_huber,
# grad_squared and grad_iou_loss are one-row calls of these rows;
# tests/reference.py is the independent single-pair reference they are
# checked against bitwise.
_PAIR_GRAD = {
    LossKind.HUBER: lambda p, t, lam, params: _grad_huber_rows(p, t, params.delta),
    LossKind.SQUARED: lambda p, t, lam, params: _grad_squared_rows(p, t),
    LossKind.IOU: lambda p, t, lam, params: _grad_iou_rows(p, t),
    LossKind.SMOOTH_IOU: lambda p, t, lam, params: _blend(
        lam, _grad_iou_rows(p, t), _grad_huber_rows(p, t, params.delta)
    ),
}


@_IEEE
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
    pred, target = batch.arrays()
    lam = _blend_weight(iou_array(pred, target))
    grad = _PAIR_GRAD[LossKind.SMOOTH_IOU](pred[k : k + 1], target[k : k + 1], lam, params)
    return GradVector(*grad[0].tolist())


@dataclass(frozen=True)
class GradCheckConfig:
    """Sampler settings for the finite-difference checker."""

    num_samples: int = 1000
    regime: str = "mixed"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")


@dataclass(frozen=True)
class GradCheckResult:
    max_relative_error: float
    num_points_checked: int
    num_skipped_near_kink: int


def _sample_pair(rng: np.random.Generator, regime: str) -> tuple[float, ...]:
    """Draw one pair in the given overlap regime: the predicted box's four
    corners, then the target's."""
    if regime == "mixed":
        regime = REGIMES[1 + int(rng.integers(0, 4))]

    w = _uniform(rng, 6.0, 24.0)
    h = _uniform(rng, 6.0, 24.0)
    cx = _uniform(rng, 30.0, 70.0)
    cy = _uniform(rng, 30.0, 70.0)

    if regime == "nested":
        pw = w * _uniform(rng, 0.3, 0.7)
        ph = h * _uniform(rng, 0.3, 0.7)
        dx = _uniform(rng, -0.4, 0.4) * (w - pw) / 2
        dy = _uniform(rng, -0.4, 0.4) * (h - ph) / 2
    elif regime == "shifted":
        pw, ph = w, h
        dx = _uniform(rng, 0.15, 1.5) * w * _sign(rng)
        dy = _uniform(rng, 0.15, 1.5) * h * _sign(rng)
    elif regime == "partial":
        pw = w * math.exp(_normal(rng, 0.15))
        ph = h * math.exp(_normal(rng, 0.15))
        dx = _uniform(rng, 0.25, 0.75) * (w + pw) / 2 * _sign(rng)
        dy = _uniform(rng, 0.25, 0.75) * (h + ph) / 2 * _sign(rng)
    elif regime == "disjoint":
        pw = w * math.exp(_normal(rng, 0.15))
        ph = h * math.exp(_normal(rng, 0.15))
        # Separate by at least 10% of the half-sum along one axis, so the
        # pair sits strictly inside the plateau.
        dx = _uniform(rng, -0.3, 0.3) * w
        dy = _uniform(rng, -0.3, 0.3) * h
        gap = 1.1 + _uniform(rng, 0.0, 2.0)
        if int(rng.integers(0, 2)) == 0:
            dx = gap * (w + pw) / 2 * _sign(rng)
        else:
            dy = gap * (h + ph) / 2 * _sign(rng)
    else:
        raise ValueError(f"unknown regime {regime!r}")

    px, py = cx + dx, cy + dy
    pred = (px - pw / 2, py - ph / 2, px + pw / 2, py + ph / 2)
    return pred + (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _near_kink(pred: np.ndarray, target: np.ndarray, delta: float, margin: float) -> np.ndarray:
    """(N,) mask of the pairs, given as (N, 4) corner arrays, with any
    coordinate within `margin` of a non-smooth point."""
    z = np.abs(pred - target)
    iw, ih = _signed_overlap(pred, target)
    near = (np.abs(z - delta) <= margin) | (z <= margin)
    return near.any(axis=1) | (np.abs(iw) <= margin) | (np.abs(ih) <= margin)


def _max_error(
    kind: LossKind,
    pred: np.ndarray,
    target: np.ndarray,
    step: float,
    params: HuberParams,
    max_err: float,
) -> float:
    """max_err raised to the largest relative error over N sample pairs, given
    as (N, 4) corner arrays; a nan error never counts, as in err > max_err."""
    # A single pair is a batch of one, so the smooth kind's lam is its IoU.
    lam = iou_array(pred, target)
    analytic = _PAIR_GRAD[kind](pred, target, lam[:, None], params)
    # Rows 8n + 2i and 8n + 2i + 1 nudge sample n's coordinate i by +step and
    # by -step; each keeps its sample's frozen lam.
    nudged = np.repeat(pred, 8, axis=0).reshape(-1, 4, 2, 4)
    for i in range(4):
        nudged[:, i, 0, i] += step
        nudged[:, i, 1, i] += -step
    nudged = nudged.reshape(-1, 4)
    targets = np.repeat(target, 8, axis=0)
    f = _LOSSES[kind](
        nudged, targets, iou_array(nudged, targets), np.repeat(lam, 8), params
    ).reshape(-1, 4, 2)
    numeric = (f[:, :, 0] - f[:, :, 1]) / (2.0 * step)
    size = np.abs(numeric)
    err = np.abs(analytic - numeric) / np.where(size > 1.0, size, 1.0)
    return float(np.fmax.reduce(err, axis=None, initial=max_err))


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
    |analytic - numeric| / max(1, |numeric|). This is the one-kind case of
    _check_kinds, which checks several kinds on one drawn sample set.
    """
    return _check_kinds([kind], config, tolerance, step, params)[0]


@_IEEE
def _check_kinds(
    kinds: list[LossKind],
    config: GradCheckConfig,
    tolerance: float,
    step: float,
    params: HuberParams = HuberParams(),
) -> list[GradCheckResult]:
    """finite_diff_check of each kind, in the order given, on one sample set:
    the pairs are drawn and kink-filtered once, so every kind sees exactly
    the pairs it would see on its own."""
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"step must lie in [1e-7, 1e-3], got {step}")
    if not math.isfinite(tolerance) or tolerance <= 0:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    kinds = [LossKind(kind) for kind in kinds]

    rng = np.random.default_rng(config.seed)
    margin = 10.0 * step

    checked = 0
    max_errs = [0.0] * len(kinds)
    for start in range(0, config.num_samples, _CHECK_CHUNK):
        size = min(_CHECK_CHUNK, config.num_samples - start)
        rows = np.array([_sample_pair(rng, config.regime) for _ in range(size)])
        rows = rows[~_near_kink(rows[:, :4], rows[:, 4:], params.delta, margin)]
        max_errs = [
            _max_error(kind, rows[:, :4], rows[:, 4:], step, params, err)
            for kind, err in zip(kinds, max_errs)
        ]
        checked += len(rows)

    return [
        GradCheckResult(
            max_relative_error=err,
            num_points_checked=checked,
            num_skipped_near_kink=config.num_samples - checked,
        )
        for err in max_errs
    ]
