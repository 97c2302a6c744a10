"""Independent references for the library's fast paths.

Single-pair losses and gradients written out in scalar Python, one
coordinate at a time, independently of the (K, 4) array kernel in `boxloss`.
`tests/test_arrays.py` checks the kernel rows, and the public single-pair
functions that call them, against these bitwise. The kink conventions are
the library's: the Huber boundary |z| = delta takes the linear branch, a
predicted edge exactly on the target's edge is binding, and the IoU-loss
gradient is the exact zero vector where the intersection is empty.

The two samplers, gradcheck's `_sample_pair` and fit's `generate_dataset`,
written with numpy's own `Generator.uniform`, `.normal` and `.choice` calls.
`tests/test_draws.py` checks that the library's samplers, which draw through
`boxloss.boxes._uniform`, `_normal` and `_sign`, give the same values bit for
bit and leave the generator at the same point.
"""

import math

import numpy as np

from boxloss import (
    Box,
    BoxBatch,
    FitConfig,
    GradVector,
    HuberParams,
    InfeasibleDatasetError,
    area,
    intersection_dims,
    iou,
)
from boxloss.boxes import _IEEE
from boxloss.fitting import _MAX_ATTEMPTS, _regime_accepts
from boxloss.gradients import REGIMES


def huber_scalar(z: float, params: HuberParams = HuberParams()) -> float:
    """0.5*z**2 when |z| < delta, else delta*|z| - 0.5*delta**2.

    Both branches evaluate to 0.5*delta**2 at |z| = delta, so the function is
    continuous there.
    """
    delta = params.delta
    if abs(z) < delta:
        return 0.5 * z * z
    return delta * abs(z) - 0.5 * delta * delta


def huber_box(pred: Box, target: Box, params: HuberParams = HuberParams()) -> float:
    """Per-coordinate Huber terms summed (not averaged) over the four corners."""
    total = 0.0
    for p, t in zip(pred.corners(), target.corners()):
        total += huber_scalar(p - t, params)
    return total


def squared_box(pred: Box, target: Box) -> float:
    """Summed 0.5 * (pred_i - target_i)**2 over the four corner coordinates."""
    total = 0.0
    for p, t in zip(pred.corners(), target.corners()):
        d = p - t
        total += 0.5 * d * d
    return total


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


@_IEEE
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

    num = [-(union * di_p - inter * (da_p - di_p)) for di_p, da_p in zip(di, darea)]
    # IEEE division, like the array row, where union * union underflows to 0.
    return GradVector(*(np.array(num) / (union * union)).tolist())


def _sample_pair(rng: np.random.Generator, regime: str) -> tuple[float, ...]:
    """Draw one pair in the given overlap regime: the predicted box's four
    corners, then the target's."""
    if regime == "mixed":
        regime = REGIMES[1 + int(rng.integers(0, 4))]

    w = float(rng.uniform(6.0, 24.0))
    h = float(rng.uniform(6.0, 24.0))
    cx = float(rng.uniform(30.0, 70.0))
    cy = float(rng.uniform(30.0, 70.0))

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
    pred = (px - pw / 2, py - ph / 2, px + pw / 2, py + ph / 2)
    return pred + (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def generate_dataset(config: FitConfig) -> BoxBatch:
    """Draw targets inside the frame and predictions as perturbed copies.

    Target widths and heights are uniform in the size range, centers uniform
    wherever the box fits in the frame. Predictions translate the center by
    a Gaussian in units of the target size and jitter the size log-normally;
    draws that violate the overlap regime are rejected and resampled, and a
    pair that exhausts its attempts raises InfeasibleDatasetError.
    """
    rng = np.random.default_rng(config.seed)
    frame = config.frame
    predicted: list[Box] = []
    targets: list[Box] = []

    for _ in range(config.num_pairs):
        w = float(rng.uniform(config.target_size_min, config.target_size_max))
        h = float(rng.uniform(config.target_size_min, config.target_size_max))
        cx = float(rng.uniform(frame.xmin + w / 2, frame.xmax - w / 2))
        cy = float(rng.uniform(frame.ymin + h / 2, frame.ymax - h / 2))
        target = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)

        for _attempt in range(_MAX_ATTEMPTS):
            try:
                pw = w * float(math.exp(rng.normal(0.0, config.scale_sigma)))
                ph = h * float(math.exp(rng.normal(0.0, config.scale_sigma)))
            except OverflowError:
                raise ValueError(
                    f"scale_sigma={config.scale_sigma!r} drew a size factor that overflows"
                ) from None
            dx = float(rng.normal(0.0, config.translation_sigma * w))
            dy = float(rng.normal(0.0, config.translation_sigma * h))
            pred = Box(
                cx + dx - pw / 2, cy + dy - ph / 2, cx + dx + pw / 2, cy + dy + ph / 2
            )
            if _regime_accepts(config.regime, iou(pred, target)):
                break
        else:
            raise InfeasibleDatasetError(
                f"could not satisfy regime {config.regime.value!r} within "
                f"{_MAX_ATTEMPTS} attempts; widen the perturbation or relax the regime"
            )
        predicted.append(pred)
        targets.append(target)

    return BoxBatch(tuple(predicted), tuple(targets))
