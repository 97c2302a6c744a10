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
from dataclasses import dataclass, replace

import numpy as np

from .boxes import Box, BoxBatch, iou
from .losses import HuberParams, huber_box, smooth_iou_batch, squared_box

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

_ROW_COLUMNS = ("huber", "squared", "iou_loss", "smooth_iou", "iou")


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
        if self.delta <= 0 or not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite and positive, got {self.delta}")


@dataclass(frozen=True)
class SweepRow:
    x_center: float
    huber: float
    squared: float
    iou_loss: float
    smooth_iou: float
    iou: float


def _grid(start: float, end: float, n: int) -> list[float]:
    step = (end - start) / (n - 1)
    xs = [start + i * step for i in range(n)]
    xs[-1] = end
    return xs


def _row(config: SweepConfig, x_center: float, pred_w: float, pred_h: float) -> SweepRow:
    pred = Box(
        x_center - pred_w / 2,
        config.y_center - pred_h / 2,
        x_center + pred_w / 2,
        config.y_center + pred_h / 2,
    )
    params = HuberParams(config.delta)
    v = iou(pred, config.target)
    smooth = smooth_iou_batch(BoxBatch((pred,), (config.target,)), params).reduced_loss
    return SweepRow(
        x_center=x_center,
        huber=huber_box(pred, config.target, params),
        squared=squared_box(pred, config.target),
        iou_loss=1.0 - v,
        smooth_iou=smooth,
        iou=v,
    )


def sweep(config: SweepConfig = SweepConfig()) -> list[SweepRow]:
    """Evaluate every loss on the sliding box, one row per grid x_center.

    Rows come out sorted by x_center. The smooth column is computed as a
    batch of size one, so its blend weight at each row is that row's IoU.
    """
    return sweep_mismatch(config)


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
    return [
        _row(config, x, pred_w, pred_h)
        for x in _grid(config.x_center_start, config.x_center_end, config.num_samples)
    ]


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


def convexity_violations(rows: list[SweepRow], column: str) -> list[tuple[int, int, int]]:
    """Exhaustively scan grid triples i < j < k for convexity violations.

    For each triple, the interpolation weight t satisfies
    x_j = t * x_i + (1 - t) * x_k; a violation means
    f(x_j) > t * f(x_i) + (1 - t) * f(x_k) + 1e-9. A convex column returns
    an empty list; the IoU-loss plateau produces violations.
    """
    if column not in _ROW_COLUMNS:
        raise ValueError(f"unknown column {column!r}, expected one of {_ROW_COLUMNS}")
    if len(rows) < 3:
        return []
    xs = np.array([r.x_center for r in rows])
    ys = np.array([getattr(r, column) for r in rows])
    out: list[tuple[int, int, int]] = []
    n = len(rows)
    for i in range(n - 2):
        for k in range(i + 2, n):
            js = np.arange(i + 1, k)
            t = (xs[k] - xs[js]) / (xs[k] - xs[i])
            bound = t * ys[i] + (1.0 - t) * ys[k]
            bad = js[ys[js] > bound + 1e-9]
            out.extend((i, int(j), k) for j in bad)
    return out
