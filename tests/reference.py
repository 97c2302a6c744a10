"""Independent references for the library's fast paths.

Single-pair losses and gradients written out in scalar Python, one
coordinate at a time, independently of the (K, 4) array kernel in `boxloss`.
`tests/test_arrays.py` checks the kernel rows, and the public single-pair
functions that call them, against these bitwise. The kink conventions are
the library's: the Huber boundary |z| = delta takes the linear branch, a
predicted edge exactly on the target's edge is binding, and the IoU-loss
gradient is the exact zero vector where the intersection is empty.

fit's sampler `generate_dataset`, written with numpy's own
`Generator.uniform` and `.normal` calls. `tests/test_draws.py` checks that the
library's, which draws blocks through `boxloss.boxes._uniform_from` and
`_normal_from`, gives the same values bit for bit and leaves the generator at
the same point.

`fit`'s loop as it was before its steps recomputed only the moved IoU rows:
every state re-evaluated over the full dataset, on the `Box`-built dataset of
`generate_dataset` below, with every mean an explicit left-to-right
`functools.reduce`. `tests/test_fitting.py` checks that the library's `fit`
gives the same `FitResult` bit for bit.
"""

import functools
import math
import operator

import numpy as np

from boxloss import (
    Box,
    BoxBatch,
    FitConfig,
    FitResult,
    GradVector,
    HuberParams,
    InfeasibleDatasetError,
    area,
    intersection_dims,
    iou,
)
from boxloss.boxes import _IEEE, iou_array
from boxloss.fitting import _MAX_ATTEMPTS, _RMSPROP_EPS, OptimizerKind, _regime_accepts
from boxloss.gradients import _PAIR_GRAD
from boxloss.losses import _LOSSES


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


def _mean(values: np.ndarray) -> float:
    """Mean summed left to right from 0.0, as Python 3.11's sum does."""
    return functools.reduce(operator.add, values.tolist(), 0.0) / len(values)


@_IEEE
def fit(config: FitConfig) -> FitResult:
    """Descend on the predicted boxes' corner coordinates, re-evaluating every
    state over the full dataset."""
    params, targets = generate_dataset(config).arrays()
    state = np.zeros_like(params)
    huber = HuberParams(config.delta)
    grad, losses = _PAIR_GRAD[config.loss_kind], _LOSSES[config.loss_kind]
    lr = config.learning_rate
    rho = config.momentum_or_decay
    k = config.num_pairs

    order = np.random.default_rng(config.seed).permutation(k)
    offsets = np.arange(config.batch_size)

    def evaluate() -> tuple[np.ndarray, float, float]:
        ious = iou_array(params, targets)
        mean_iou = _mean(ious)
        loss = losses(params, targets, ious, mean_iou, huber)
        return ious, _mean(loss), mean_iou

    ious, loss, mean_iou = evaluate()
    loss_traj = [loss]
    iou_traj = [mean_iou]
    diverged = False
    cursor = 0
    for _ in range(config.steps):
        idx = order[(cursor + offsets) % k]
        cursor = (cursor + config.batch_size) % k

        batch, batch_targets = params[idx], targets[idx]
        g = grad(batch, batch_targets, _mean(ious[idx]), huber)
        if config.optimizer is OptimizerKind.RMSPROP_LIKE:
            batch_state = rho * state[idx] + (1.0 - rho) * g * g
            moved = batch - lr * g / (np.sqrt(batch_state) + _RMSPROP_EPS)
        else:
            batch_state = rho * state[idx] + g
            moved = batch - lr * batch_state
        for lo, hi in ((0, 2), (1, 3)):
            inverted = moved[:, hi] < moved[:, lo]
            mid = 0.5 * (moved[inverted, lo] + moved[inverted, hi])
            moved[inverted, lo] = mid
            moved[inverted, hi] = mid
        state[idx] = batch_state
        params[idx] = moved

        ious, loss, mean_iou = evaluate()
        if not (np.isfinite(moved).all() and math.isfinite(loss)):
            params[idx] = batch
            diverged = True
            break
        loss_traj.append(loss)
        iou_traj.append(mean_iou)

    pad = config.steps + 1 - len(loss_traj)
    loss_traj += loss_traj[-1:] * pad
    iou_traj += iou_traj[-1:] * pad
    return FitResult(
        mean_iou_initial=iou_traj[0],
        mean_iou_final=iou_traj[-1],
        loss_trajectory=tuple(loss_traj),
        iou_trajectory=tuple(iou_traj),
        diverged=diverged,
        final_predicted=tuple(Box(*row) for row in params.tolist()),
    )
