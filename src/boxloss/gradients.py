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

from dataclasses import dataclass

import numpy as np

from .boxes import _IEEE, Box, BoxBatch, _check_choice, _check_counts, _check_numbers, _corner_row
from .boxes import _check_positive, _exp, _overlap_iou, _signed_overlap, iou_array, overlap_array
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
# Row 2i of the nudge table is +e_i and row 2i + 1 is -e_i: step times it,
# added to a predicted row, gives its 8 central-difference points.
_NUDGE = np.kron(np.eye(4), [[1.0], [-1.0]])


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
    p, t = _corner_row(pred), _corner_row(target)
    return GradVector(*_grad_iou_rows(p, t, overlap_array(p, t))[0].tolist())


def _grad_huber_rows(pred: np.ndarray, target: np.ndarray, delta: float) -> np.ndarray:
    z = pred - target
    return np.where(np.abs(z) < delta, z, np.copysign(delta, z))


def _grad_squared_rows(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return pred - target


def _grad_iou_rows(pred: np.ndarray, target: np.ndarray, overlap) -> np.ndarray:
    """Quotient-rule gradient of 1 - IoU per row of two (K, 4) corner arrays,
    given their overlap_array terms, with the module's tie conventions and an
    exact zero row on the plateau."""
    iw, ih, inter, union = overlap
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
# target corners, given the pairs' overlap_array terms, which the rows never
# recompute, and the blend weight lam, a scalar or a (K, 1) array. Callers
# hand every kind the lam computed from the IoUs; only the smooth kind reads
# it, and losses._FIXED_LAM is only the lam a LossReport reports. grad_huber,
# grad_squared and grad_iou_loss are one-row calls of these rows;
# tests/reference.py is the independent single-pair reference they are
# checked against bitwise.
_PAIR_GRAD = {
    LossKind.HUBER: lambda p, t, overlap, lam, params: _grad_huber_rows(p, t, params.delta),
    LossKind.SQUARED: lambda p, t, overlap, lam, params: _grad_squared_rows(p, t),
    LossKind.IOU: lambda p, t, overlap, lam, params: _grad_iou_rows(p, t, overlap),
    LossKind.SMOOTH_IOU: lambda p, t, overlap, lam, params: _blend(
        lam, _grad_iou_rows(p, t, overlap), _grad_huber_rows(p, t, params.delta)
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
    _check_counts(k=(k, -np.inf))
    if not 0 <= k < len(batch):
        raise IndexError(f"example index {k} out of range for batch of {len(batch)}")
    pred, target = batch.arrays()
    overlap = overlap_array(pred, target)
    lam = _blend_weight(_overlap_iou(overlap))
    grad = _PAIR_GRAD[LossKind.SMOOTH_IOU](pred, target, overlap, lam, params)
    return GradVector(*grad[k].tolist())


@dataclass(frozen=True)
class GradCheckConfig:
    """Sampler settings for the finite-difference checker."""

    num_samples: int = 1000
    regime: str = "mixed"
    seed: int = 0

    def __post_init__(self) -> None:
        _check_counts(num_samples=(self.num_samples, 1), seed=(self.seed, 0))
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")


@dataclass(frozen=True)
class GradCheckResult:
    max_relative_error: float
    num_points_checked: int
    num_skipped_near_kink: int
    passed: bool


def _sample_pairs(u: np.ndarray, z: np.ndarray, regime: str) -> np.ndarray:
    """n pairs in the given regime as (n, 8) rows, the predicted box's corners
    then the target's, from (n, 10) uniforms u in [0, 1) and (n, 2) standard
    normals z; each row reads only its own draws.

    u's columns are the target's w, h, cx and cy, the mixed regime's pick
    floor(4u) among REGIMES[1:], and five for the regime's own uniforms, with
    its signs and disjoint's axis taken as u < 0.5. z's are the log-normal
    size jitters of partial and disjoint."""
    w, h = 6.0 + 18.0 * u[:, 0], 6.0 + 18.0 * u[:, 1]
    cx, cy = 30.0 + 40.0 * u[:, 2], 30.0 + 40.0 * u[:, 3]
    a, b, c, d, e = u[:, 5:].T
    jw, jh = np.stack((w, h)) * _exp(0.15 * z.T)
    half_w, half_h = (w + jw) / 2, (h + jh) / 2
    nw, nh = w * (0.3 + 0.4 * a), h * (0.3 + 0.4 * b)
    sign_c, sign_d = np.where(c < 0.5, -1.0, 1.0), np.where(d < 0.5, -1.0, 1.0)
    # Disjoint pairs are apart by at least 10% of the half-sum along one axis,
    # so they sit strictly inside the plateau.
    gap = (1.1 + 2.0 * c) * np.where(e < 0.5, -1.0, 1.0)
    along_x = d < 0.5

    # Every row's (pw, ph, dx, dy) in each regime, in the order of REGIMES[1:].
    partial = (jw, jh, (0.25 + 0.5 * a) * half_w * sign_c, (0.25 + 0.5 * b) * half_h * sign_d)
    nested = (nw, nh, (-0.4 + 0.8 * c) * (w - nw) / 2, (-0.4 + 0.8 * d) * (h - nh) / 2)
    shifted = (w, h, (0.15 + 1.35 * a) * w * sign_c, (0.15 + 1.35 * b) * h * sign_d)
    disjoint = (
        jw,
        jh,
        np.where(along_x, gap * half_w, (-0.3 + 0.6 * a) * w),
        np.where(along_x, (-0.3 + 0.6 * b) * h, gap * half_h),
    )
    if regime == "mixed":
        pick = (4.0 * u[:, 4]).astype(np.intp)
    else:
        pick = np.full(len(u), REGIMES.index(regime) - 1)
    shapes = np.array((partial, nested, shifted, disjoint))
    pw, ph, dx, dy = shapes[pick, :, np.arange(len(u))].T

    px, py = cx + dx, cy + dy
    pred = (px - pw / 2, py - ph / 2, px + pw / 2, py + ph / 2)
    return np.stack(pred + (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), axis=1)


def _near_kink(pred: np.ndarray, target: np.ndarray, delta: float, margin: float) -> np.ndarray:
    """(N,) mask of the pairs, given as (N, 4) corner arrays, with any
    coordinate within `margin` of a non-smooth point."""
    z = np.abs(pred - target)
    iw, ih = _signed_overlap(pred, target)
    near = (np.abs(z - delta) <= margin) | (z <= margin)
    return near.any(axis=1) | (np.abs(iw) <= margin) | (np.abs(ih) <= margin)


def _max_errors(
    kinds: list[LossKind], pred: np.ndarray, target: np.ndarray, step: float, params: HuberParams
) -> list[float]:
    """Each kind's largest relative error over N sample pairs, given as
    (N, 4) corner arrays, or 0.0 for none; a nan error makes it nan. The
    nudged pairs are built once for every kind."""
    # One overlap for lam and every kind's gradient rows. A single pair is a
    # batch of one, so the smooth kind's lam is its IoU.
    overlap = overlap_array(pred, target)
    lam = _overlap_iou(overlap)
    # Rows 8n to 8n + 7 are sample n's nudges, in _NUDGE's order; each keeps
    # its sample's frozen lam.
    nudged = (pred[:, None, :] + step * _NUDGE).reshape(-1, 4)
    targets = np.repeat(target, 8, axis=0)
    nudged_ious, nudged_lam = iou_array(nudged, targets), np.repeat(lam, 8)

    out = []
    for kind in kinds:
        analytic = _PAIR_GRAD[kind](pred, target, overlap, lam[:, None], params)
        terms, combine = _LOSSES[kind]
        f = combine(nudged_ious, nudged_lam, terms(nudged, targets, params)).reshape(-1, 4, 2)
        numeric = (f[:, :, 0] - f[:, :, 1]) / (2.0 * step)
        size = np.abs(numeric)
        err = np.abs(analytic - numeric) / np.where(size > 1.0, size, 1.0)
        out.append(float(np.maximum.reduce(err, axis=None, initial=0.0)))
    return out


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
    |analytic - numeric| / max(1, |numeric|). The result has passed when
    max_relative_error <= tolerance, so a nan error fails. This is the
    one-kind case of _check_kinds, which checks several kinds on one drawn
    sample set.
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
    the pairs are drawn, kink-filtered and nudged once, so every kind sees
    exactly the pairs it would see on its own.

    Each chunk's pairs come from one call on each of two generators spawned
    from the seed, n rows of ten uniforms and n of two Gaussians, so the
    first n samples do not depend on num_samples or on the chunk size. A nan
    error in any chunk makes the kind's maximum nan, whatever the order."""
    _check_numbers(step=step)
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"step must lie in [1e-7, 1e-3], got {step}")
    _check_positive(tolerance=tolerance)
    kinds = [_check_choice("kind", kind, LossKind) for kind in kinds]

    rng_u, rng_z = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))
    margin = 10.0 * step

    checked, chunk_errs = 0, []
    for start in range(0, config.num_samples, _CHECK_CHUNK):
        size = min(_CHECK_CHUNK, config.num_samples - start)
        u, z = rng_u.random((size, 10)), rng_z.standard_normal((size, 2))
        rows = _sample_pairs(u, z, config.regime)
        rows = rows[~_near_kink(rows[:, :4], rows[:, 4:], params.delta, margin)]
        chunk_errs.append(_max_errors(kinds, rows[:, :4], rows[:, 4:], step, params))
        checked += len(rows)

    return [
        GradCheckResult(
            max_relative_error=float(worst),
            num_points_checked=checked,
            num_skipped_near_kink=config.num_samples - checked,
            passed=bool(worst <= tolerance),
        )
        for worst in np.maximum.reduce(chunk_errs, axis=0)
    ]
