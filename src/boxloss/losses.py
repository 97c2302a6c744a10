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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .boxes import Box, BoxBatch, iou

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
        if not math.isfinite(self.delta) or self.delta <= 0:
            raise ValueError(f"delta must be finite and positive, got {self.delta!r}")


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


def _blend(lam: float, a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Elementwise lam * a + (1 - lam) * b; for finite terms, lam == 0 gives
    b and lam == 1 gives a bitwise."""
    return [lam * x + (1.0 - lam) * y for x, y in zip(a, b)]


def _blend_weight(ious: Sequence[float]) -> float:
    """The smooth kind's lam: the arithmetic mean of the batch's IoUs."""
    return sum(ious) / len(ious)


# Per-example losses of each kind over a batch's (pred, target) pairs, given
# their IoUs and the batch's blend weight lam, which only the smooth kind reads.
# Only the IoU-based kinds read the IoUs, once, so they may come from a generator.
_LOSSES = {
    LossKind.HUBER: lambda pairs, ious, lam, params: [
        huber_box(p, t, params) for p, t in pairs
    ],
    LossKind.SQUARED: lambda pairs, ious, lam, params: [
        squared_box(p, t) for p, t in pairs
    ],
    LossKind.IOU: lambda pairs, ious, lam, params: [1.0 - i for i in ious],
    LossKind.SMOOTH_IOU: lambda pairs, ious, lam, params: _blend(
        lam, [1.0 - i for i in ious], [huber_box(p, t, params) for p, t in pairs]
    ),
}

# The lam reported by the kinds that do not blend.
_FIXED_LAM = {LossKind.HUBER: 0.0, LossKind.SQUARED: 0.0, LossKind.IOU: 1.0}


def smooth_iou_batch(batch: BoxBatch, params: HuberParams = HuberParams()) -> LossReport:
    """Blended batch loss: lam * (1 - IoU_k) + (1 - lam) * Huber_k.

    lam is the arithmetic mean of the per-example IoUs and is shared by every
    example in the batch. The arithmetic is arranged so the limits are exact:
    an all-disjoint batch (lam == 0) reproduces the Huber losses bitwise, and
    an all-identical batch (lam == 1) gives exact zeros.
    """
    return loss_batch(batch, LossKind.SMOOTH_IOU, params)


def loss_batch(
    batch: BoxBatch, kind: LossKind, params: HuberParams = HuberParams()
) -> LossReport:
    """Evaluate one loss kind over a batch; per_example_iou is always populated."""
    kind = LossKind(kind)
    ious = tuple(iou(p, t) for p, t in batch.pairs())
    lam = _blend_weight(ious) if kind is LossKind.SMOOTH_IOU else _FIXED_LAM[kind]
    losses = tuple(_LOSSES[kind](tuple(batch.pairs()), ious, lam, params))
    return LossReport(
        per_example_loss=losses,
        per_example_iou=ious,
        lam=lam,
        reduced_loss=sum(losses) / len(batch),
    )
