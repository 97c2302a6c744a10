"""Localization losses over box pairs: Huber, squared, IoU, and smooth IoU.

The smooth IoU loss blends the IoU loss and the Huber loss per batch:

    loss_k = lam * (1 - IoU_k) + (1 - lam) * Huber_k

where lam is the mean IoU of the batch. Poorly localized batches (lam near 0)
are driven by the Huber term, which keeps a useful gradient on the IoU
plateau; well localized batches (lam near 1) are driven by the IoU term,
which directly optimizes the evaluation metric. lam is treated as a constant
of the batch, never differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .boxes import _IEEE, Box, BoxBatch, _check_choice, _check_positive, _corner_row, iou, iou_array

__all__ = [
    "LossKind",
    "HuberParams",
    "LossReport",
    "huber_scalar",
    "huber_box",
    "squared_box",
    "iou_loss",
    "smooth_iou_batch",
    "loss_batch",
]


class LossKind(str, Enum):
    HUBER = "huber"
    SQUARED = "squared"
    IOU = "iou"
    SMOOTH_IOU = "smooth_iou"


@dataclass(frozen=True)
class HuberParams:
    """Huber threshold: quadratic inside |z| < delta, linear beyond."""

    delta: float = 1.0

    def __post_init__(self) -> None:
        _check_positive(delta=self.delta)


def _huber_terms(z, delta: float):
    """Elementwise 0.5*z*z when |z| < delta, else delta*|z| - 0.5*delta*delta."""
    a = np.abs(z)
    return np.where(a < delta, 0.5 * z * z, delta * a - 0.5 * delta * delta)


@_IEEE
def huber_scalar(z: float, params: HuberParams = HuberParams()) -> float:
    """0.5*z**2 when |z| < delta, else delta*|z| - 0.5*delta**2.

    Both branches evaluate to 0.5*delta**2 at |z| = delta, so the function is
    continuous there.
    """
    return float(_huber_terms(z, params.delta))


@_IEEE
def huber_box(pred: Box, target: Box, params: HuberParams = HuberParams()) -> float:
    """Per-coordinate Huber terms summed (not averaged) over the four corners."""
    return float(_huber_rows(_corner_row(pred), _corner_row(target), params)[0])


@_IEEE
def squared_box(pred: Box, target: Box) -> float:
    """Summed 0.5 * (pred_i - target_i)**2 over the four corner coordinates."""
    return float(_squared_rows(_corner_row(pred), _corner_row(target))[0])


def iou_loss(pred: Box, target: Box) -> float:
    """1 - IoU. Exactly 1, with exactly zero gradient, for disjoint pairs."""
    return 1.0 - iou(pred, target)


@dataclass(frozen=True)
class LossReport:
    """Per-example and reduced loss values for one batch.

    lam is the blend weight: the batch mean IoU for the smooth kind, and a
    reporting convention of 0 (huber, squared) or 1 (iou) otherwise.
    Instances are immutable; reports from concurrent evaluations never share
    mutable state.
    """

    per_example_loss: tuple[float, ...]
    per_example_iou: tuple[float, ...]
    lam: float
    reduced_loss: float


def _blend(lam, a, b):
    """lam * a + (1 - lam) * b, elementwise over arrays; for finite terms,
    lam == 0 gives b and lam == 1 gives a bitwise."""
    return lam * a + (1.0 - lam) * b


def _mean(values: np.ndarray) -> float:
    """Arithmetic mean of a non-empty 1-D array, summed strictly left to
    right: not pairwise like numpy's sum, nor compensated like Python's sum
    since 3.12. The leading 0.0 + turns an all -0.0 sum into +0.0, so the
    bits are those of Python 3.11's sum(values.tolist()) / len(values)."""
    return (0.0 + float(np.add.accumulate(values)[-1])) / len(values)


def _corner_sum(terms: np.ndarray) -> np.ndarray:
    """Per-row sum of (K, 4) coordinate terms, left to right."""
    return terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]


def _huber_rows(pred: np.ndarray, target: np.ndarray, params: HuberParams) -> np.ndarray:
    return _corner_sum(_huber_terms(pred - target, params.delta))


def _squared_rows(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    d = pred - target
    return _corner_sum(0.5 * d * d)


# Each kind's per-example losses over (K, 4) predicted and target corners as
# two rows: terms(p, t, params), the (K,) lam-free Huber or squared terms
# (zeros for the IoU kind), and combine(ious, lam, terms), the losses from the
# pairs' IoUs, the blend weight lam, a scalar or a (K,) array, and the terms.
# Callers hand every kind the lam computed from the IoUs; only the smooth kind
# reads it. huber_box and squared_box are one-row calls of the term rows;
# tests/reference.py is the single-pair reference they are checked against.
_LOSSES = {
    LossKind.HUBER: (_huber_rows, lambda ious, lam, terms: terms),
    LossKind.SQUARED: (lambda p, t, params: _squared_rows(p, t), lambda ious, lam, terms: terms),
    LossKind.IOU: (lambda p, t, params: np.zeros(len(p)), lambda ious, lam, terms: 1.0 - ious),
    LossKind.SMOOTH_IOU: (_huber_rows, lambda ious, lam, terms: _blend(lam, 1.0 - ious, terms)),
}

# The lam LossReport reports for the kinds that do not blend; no row reads it.
_FIXED_LAM = {LossKind.HUBER: 0.0, LossKind.SQUARED: 0.0, LossKind.IOU: 1.0}


def smooth_iou_batch(batch: BoxBatch, params: HuberParams = HuberParams()) -> LossReport:
    """Blended batch loss: lam * (1 - IoU_k) + (1 - lam) * Huber_k.

    lam is the arithmetic mean of the per-example IoUs and is shared by every
    example in the batch. The arithmetic is arranged so the limits are exact:
    an all-disjoint batch (lam == 0) reproduces the Huber losses bitwise, and
    an all-identical batch (lam == 1) gives exact zeros.
    """
    return loss_batch(batch, LossKind.SMOOTH_IOU, params)


@_IEEE
def loss_batch(
    batch: BoxBatch, kind: LossKind, params: HuberParams = HuberParams()
) -> LossReport:
    """Evaluate one loss kind over a batch; per_example_iou is always populated."""
    kind = _check_choice("kind", kind, LossKind)
    pred, target = batch.arrays()
    ious = iou_array(pred, target)
    lam = _mean(ious) if kind is LossKind.SMOOTH_IOU else _FIXED_LAM[kind]
    terms, combine = _LOSSES[kind]
    losses = combine(ious, lam, terms(pred, target, params))
    return LossReport(
        per_example_loss=tuple(losses.tolist()),
        per_example_iou=tuple(ious.tolist()),
        lam=lam,
        reduced_loss=_mean(losses),
    )
