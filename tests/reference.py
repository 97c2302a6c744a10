"""Independent references for the library's fast paths.

Single-pair IoU, losses and gradients written out in scalar Python, one
coordinate at a time, independently of the (K, 4) array kernel in `boxloss`.
`tests/test_arrays.py` checks the kernel rows, and the public single-pair
functions that call them, against these bitwise. The conventions are the
library's: two degenerate boxes have IoU 0, a -0.0 overlap clamps to +0.0,
the Huber boundary |z| = delta takes the linear branch, a predicted edge
exactly on the target's edge is binding, and the IoU-loss gradient is the
exact zero vector where the intersection is empty.

fit's dataset, `draw_dataset`, one pair and one Python float at a time,
with `math.exp` and this module's `iou`, on the same draws as the library's
array code. `tests/test_draws.py` checks that `generate_dataset` gives the
same boxes bit for bit.

`fit`'s loop as it was before it kept its rows in the shuffled order and
cached their overlap, IoU and loss terms: each minibatch gathered by index,
and every state re-evaluated over the full dataset in dataset order, on the
`Box`-built dataset of the library's `generate_dataset`, with every mean an
explicit left-to-right `functools.reduce`. `tests/test_fitting.py` checks
that the library's `fit` gives the same `FitResult` bit for bit.
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
    generate_dataset,
)
from boxloss.boxes import _IEEE, iou_array, overlap_array
from boxloss.fitting import _MAX_ATTEMPTS, _RMSPROP_EPS, OptimizerKind
from boxloss.gradients import _PAIR_GRAD
from boxloss.losses import _LOSSES


def area(b: Box) -> float:
    return (b.xmax - b.xmin) * (b.ymax - b.ymin)


def intersection_dims(a: Box, b: Box) -> tuple[float, float]:
    """Overlap width and height, clamped at zero; max(0.0, -0.0) is 0.0."""
    iw = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    ih = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    return (max(0.0, iw), max(0.0, ih))


def iou(a: Box, b: Box) -> float:
    """Intersection over union, clamped to [0, 1]; two degenerate boxes give 0."""
    iw, ih = intersection_dims(a, b)
    inter = iw * ih
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


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


def draw_dataset(config: FitConfig) -> BoxBatch:
    """fit's dataset drawn one pair at a time in scalar Python, on the same
    generators and draws as the library's array code: the targets' w, h, cx
    and cy from one random((K, 4)) call on the first generator spawned from
    the seed, and each round's size jitters and center shifts from one
    standard_normal((P, 4)) call on the second for the P pairs still
    pending, in pair order. Only the valid path is written out."""
    rng_u, rng_z = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))
    frame = config.frame
    lo, hi = float(config.target_size_min), float(config.target_size_max)
    keeps = {
        "overlapping": lambda v: v > 0.0,
        "disjoint": lambda v: v == 0.0,
        "mixed": lambda v: True,
    }[config.regime.value]

    drawn = []
    for u_w, u_h, u_x, u_y in rng_u.random((config.num_pairs, 4)).tolist():
        w = lo + (hi - lo) * u_w
        h = lo + (hi - lo) * u_h
        cx = frame.xmin + w / 2 + ((frame.xmax - w / 2) - (frame.xmin + w / 2)) * u_x
        cy = frame.ymin + h / 2 + ((frame.ymax - h / 2) - (frame.ymin + h / 2)) * u_y
        drawn.append((w, h, cx, cy))
    targets = [Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2) for w, h, cx, cy in drawn]

    predicted: list = [None] * config.num_pairs
    pending = list(range(config.num_pairs))
    for _round in range(_MAX_ATTEMPTS):
        rejected = []
        for i, z in zip(pending, rng_z.standard_normal((len(pending), 4)).tolist()):
            w, h, cx, cy = drawn[i]
            pw = w * math.exp(config.scale_sigma * z[0])
            ph = h * math.exp(config.scale_sigma * z[1])
            px = cx + config.translation_sigma * w * z[2]
            py = cy + config.translation_sigma * h * z[3]
            pred = Box(px - pw / 2, py - ph / 2, px + pw / 2, py + ph / 2)
            if keeps(iou(pred, targets[i])):
                predicted[i] = pred
            else:
                rejected.append(i)
        pending = rejected
        if not pending:
            return BoxBatch(tuple(predicted), tuple(targets))
    raise InfeasibleDatasetError(config)


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
    grad, (loss_terms, combine) = _PAIR_GRAD[config.loss_kind], _LOSSES[config.loss_kind]
    lr = config.learning_rate
    rho = config.momentum_or_decay
    k = config.num_pairs

    order = np.random.default_rng(config.seed).permutation(k)
    offsets = np.arange(config.batch_size)

    def evaluate() -> tuple[np.ndarray, float, float]:
        ious = iou_array(params, targets)
        mean_iou = _mean(ious)
        loss = combine(ious, mean_iou, loss_terms(params, targets, huber))
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
        overlap = overlap_array(batch, batch_targets)
        g = grad(batch, batch_targets, overlap, _mean(ious[idx]), huber)
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
        final_corners=tuple(Box(*row).corners() for row in params.tolist()),
    )
