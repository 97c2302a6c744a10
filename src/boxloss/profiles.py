"""One-dimensional loss profiles: slide a box past a target and record losses.

The default configuration slides a 20x20 box horizontally across a fixed
20x20 target centered at (40, 40), sampling every half unit of x in [0, 80].
The IoU-based losses are flat at 1 until the boxes touch at x_center = 20,
fall to 0 at perfect alignment, and return to the plateau at 60; the profile
makes the plateau and the non-convexity of 1 - IoU directly visible, next to
the convex Huber and squared curves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .boxes import _IEEE, Box, iou_array
# Unused here; bench/worker.py's traced run replaces iou on this module by name.
from .boxes import iou  # noqa: F401
from .losses import _LOSSES, HuberParams, LossKind

__all__ = [
    "SweepConfig",
    "SweepRow",
    "DEFAULT_DELTAS",
    "sweep",
    "sweep_mismatch",
    "delta_study",
    "convexity_violations",
]

DEFAULT_DELTAS = (1.0, 1.25, 1.5, 1.75, 2.0)


@dataclass(frozen=True)
class SweepConfig:
    target: Box = Box(30.0, 30.0, 50.0, 50.0)
    pred_width: float = 20.0
    pred_height: float = 20.0
    y_center: float = 40.0
    x_center_start: float = 0.0
    x_center_end: float = 80.0
    num_samples: int = 161
    delta: float = 1.0

    def __post_init__(self) -> None:
        if self.pred_width <= 0 or self.pred_height <= 0:
            raise ValueError("pred_width and pred_height must be positive")
        if self.x_center_end <= self.x_center_start:
            raise ValueError("x_center_end must exceed x_center_start")
        if self.num_samples < 2:
            raise ValueError(f"num_samples must be >= 2, got {self.num_samples}")
        # After the range check, so a non-number still fails it with the
        # TypeError that rerun reports as a value of the wrong type.
        if not isinstance(self.num_samples, numbers.Integral):
            raise ValueError(f"num_samples must be an integer, got {self.num_samples!r}")
        HuberParams(self.delta)


@dataclass(frozen=True)
class SweepRow:
    x_center: float
    huber: float
    squared: float
    iou_loss: float
    smooth_iou: float
    iou: float


_ROW_COLUMNS = tuple(f.name for f in fields(SweepRow) if f.name != "x_center")


def _grid(start: float, end: float, n: int) -> list[float]:
    step = (end - start) / (n - 1)
    xs = [start + i * step for i in range(n)]
    xs[-1] = end
    return xs


def sweep(config: SweepConfig = SweepConfig()) -> list[SweepRow]:
    """Evaluate every loss on the sliding box, one row per grid x_center.

    Rows come out sorted by x_center. The smooth column is computed as a
    batch of size one, so its blend weight at each row is that row's IoU.
    """
    return sweep_mismatch(config)


@_IEEE
def sweep_mismatch(config: SweepConfig = SweepConfig(), scale: float = 1.0) -> list[SweepRow]:
    """Sweep with the sliding box's width and height multiplied by `scale`.

    scale = 1 reduces to sweep exactly. A smaller box nested inside the
    target at perfect center alignment has IoU equal to scale**2, so the IoU
    column tops out below 1 for any scale != 1.
    """
    if scale <= 0 or not math.isfinite(scale):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    pred_w = scale * config.pred_width
    pred_h = scale * config.pred_height
    xs = _grid(config.x_center_start, config.x_center_end, config.num_samples)
    y_lo, y_hi = config.y_center - pred_h / 2, config.y_center + pred_h / 2
    pred = np.array([(x - pred_w / 2, y_lo, x + pred_w / 2, y_hi) for x in xs])
    if not np.isfinite(pred).all():
        raise ValueError("every sliding box corner must be finite")
    target = np.tile(config.target.corners(), (len(xs), 1))
    params = HuberParams(config.delta)
    v = iou_array(pred, target)
    # Each row is a batch of one, so every kind's lam is the row's IoU. The
    # loss columns follow LossKind's order: huber, squared, iou, smooth_iou.
    losses = [_LOSSES[kind](pred, target, v, v, params).tolist() for kind in LossKind]
    return [SweepRow(*row) for row in zip(xs, *losses, v.tolist())]


def delta_study(
    config: SweepConfig = SweepConfig(), deltas: tuple[float, ...] = DEFAULT_DELTAS
) -> dict[float, list[SweepRow]]:
    """Run the sweep once per Huber threshold; keys are the thresholds.

    Only the huber and smooth_iou columns respond to delta; the squared and
    IoU columns are identical across the study.
    """
    if len(deltas) == 0:
        raise ValueError("deltas must be non-empty")
    return {d: sweep(replace(config, delta=d)) for d in deltas}


@_IEEE
def convexity_violations(rows: list[SweepRow], column: str) -> np.ndarray:
    """Exhaustively scan grid triples i < j < k for convexity violations.

    For each triple, the interpolation weight t satisfies
    x_j = t * x_i + (1 - t) * x_k; a violation means
    f(x_j) > t * f(x_i) + (1 - t) * f(x_k) + 1e-9. Returns an (M, 3) int32
    array of violating triples, columns i, j, k, ordered by i, then k, then
    j; 12 bytes per triple. A convex column, or fewer than 3 rows, gives a
    (0, 3) array; the IoU-loss plateau produces violations. Each i is one
    broadcast over its (k, j) triangle.
    """
    if column not in _ROW_COLUMNS:
        raise ValueError(f"unknown column {column!r}, expected one of {_ROW_COLUMNS}")
    n = len(rows)
    xs = np.array([r.x_center for r in rows])
    ys = np.array([getattr(r, column) for r in rows])
    # Cell (a, b) of i's block is k = i + 2 + a, j = i + 1 + b; j < k is b <= a.
    # The masks of the i with a violation are kept and counted first, so the
    # result is allocated once and filled in place, not joined from blocks.
    below = np.tri(max(n - 2, 0), dtype=bool)
    masks = {}
    for i in range(n - 2):
        x_k, y_k = xs[i + 2 :, None], ys[i + 2 :, None]
        t = (x_k - xs[i + 1 : -1]) / (x_k - xs[i])
        bound = t * ys[i] + (1.0 - t) * y_k
        mask = below[i:, i:] & (ys[i + 1 : -1] > bound + 1e-9)
        if mask.any():
            masks[i] = mask
    triples = np.empty((sum(map(np.count_nonzero, masks.values())), 3), dtype=np.int32)
    end = 0
    for i, mask in masks.items():
        a, b = np.nonzero(mask)
        start, end = end, end + a.size
        triples[start:end, 0] = i
        triples[start:end, 1] = b + (i + 1)
        triples[start:end, 2] = a + (i + 2)
    return triples
