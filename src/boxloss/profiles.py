"""One-dimensional loss profiles: slide a box past a target and record losses.

The default configuration slides a 20x20 box horizontally across a fixed
20x20 target centered at (40, 40), sampling every half unit of x in [0, 80].
The IoU-based losses are flat at 1 until the boxes touch at x_center = 20,
fall to 0 at perfect alignment, and return to the plateau at 60; the profile
makes the plateau and the non-convexity of 1 - IoU directly visible, next to
the convex Huber and squared curves.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .boxes import _IEEE, Box, _check_corners, _check_counts, _check_numbers, _check_positive
from .boxes import _check_boxes, _store_finite, iou_array
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
    delta: float = HuberParams.delta

    def __post_init__(self) -> None:
        _check_counts(num_samples=(self.num_samples, 2))
        _check_boxes(target=self.target)
        _check_numbers(**{f.name: getattr(self, f.name) for f in fields(self) if f.type == "float"})
        _store_finite(self, "y_center", "x_center_start", "x_center_end")
        _check_positive(pred_width=self.pred_width, pred_height=self.pred_height)
        if self.x_center_end <= self.x_center_start:
            raise ValueError("x_center_end must exceed x_center_start")
        if not np.isfinite(self.x_center_end - self.x_center_start):
            raise ValueError("x_center_end - x_center_start must be finite")
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
    _check_positive(scale=scale)
    pred_w = scale * config.pred_width
    pred_h = scale * config.pred_height
    start, end, n = config.x_center_start, config.x_center_end, config.num_samples
    xs = start + np.arange(n) * ((end - start) / (n - 1))
    xs[-1] = end
    if not (xs[1:] > xs[:-1]).all():
        raise ValueError(
            f"x_center_start={start!r} and x_center_end={end!r} are too close "
            f"for num_samples={n} distinct grid points"
        )
    y = np.full(n, config.y_center)
    corners = (xs - pred_w / 2, y - pred_h / 2, xs + pred_w / 2, y + pred_h / 2)
    pred = _check_corners(np.stack(corners, axis=1))
    target = np.tile(config.target.corners(), (n, 1))
    params = HuberParams(config.delta)
    v = iou_array(pred, target)
    # Each row is a batch of one, so every kind's lam is the row's IoU. The
    # loss columns follow LossKind's order: huber, squared, iou, smooth_iou.
    rows = (_LOSSES[kind] for kind in LossKind)
    losses = [combine(v, v, terms(pred, target, params)).tolist() for terms, combine in rows]
    return [SweepRow(*row) for row in zip(xs.tolist(), *losses, v.tolist())]


def _check_deltas(deltas) -> None:
    """Refuse a threshold given twice: a study keys its sweeps by threshold,
    and the CLI names its files by it, so the repeat would be lost."""
    for i, d in enumerate(deltas):
        _check_numbers(delta=d)
        if d in deltas[:i]:
            raise ValueError(f"delta {float(d)!r} is repeated in deltas")


def delta_study(
    config: SweepConfig = SweepConfig(), deltas: tuple[float, ...] = DEFAULT_DELTAS
) -> dict[float, list[SweepRow]]:
    """Run the sweep once per Huber threshold; keys are the thresholds.

    Only the huber and smooth_iou columns respond to delta; the squared and
    IoU columns are identical across the study. A threshold listed twice
    raises ValueError.
    """
    if len(deltas) == 0:
        raise ValueError("deltas must be non-empty")
    _check_deltas(deltas)
    return {d: sweep(replace(config, delta=d)) for d in deltas}


@_IEEE
def convexity_violations(rows: list[SweepRow], column: str) -> np.ndarray:
    """Exhaustively scan grid triples i < j < k for convexity violations.

    For each triple, the interpolation weight t satisfies
    x_j = t * x_i + (1 - t) * x_k; a violation means
    f(x_j) > t * f(x_i) + (1 - t) * f(x_k) + 1e-9. Returns an (M, 3) int32
    array of violating triples, columns i, j, k, in lexicographic order: by
    i, then j, then k; 12 bytes per triple. A convex column, or fewer than 3
    rows, gives a (0, 3) array; the IoU-loss plateau produces violations.
    Each i reads the suffix of pairs with j > i of one j-major table of every
    pair j < k, 40 bytes per pair, so no cell outside j < k is computed and
    the triangle is chosen by index, whatever the order of x. The iou column
    at n = 401 peaks at 77 MB.
    """
    if column not in _ROW_COLUMNS:
        raise ValueError(f"unknown column {column!r}, expected one of {_ROW_COLUMNS}")
    n = len(rows)
    xs = np.array([r.x_center for r in rows])
    ys = np.array([getattr(r, column) for r in rows])
    # Pairs come in np.triu_indices order, so those with j > i are the suffix
    # from o = sum(n - 1 - j for j <= i), already in (j, k) order. The masks
    # with a violation are kept, so the result is allocated once.
    j, k = np.triu_indices(n, 1)
    gap, xk, yk, yj = xs[k] - xs[j], xs[k], ys[k], ys[j]
    j, k = j.astype(np.int32), k.astype(np.int32)
    masks, total, o = {}, 0, 0
    for i in range(n - 2):
        o += n - 1 - i
        t = gap[o:] / (xk[o:] - xs[i])
        # t * y_i + (1 - t) * y_k + 1e-9, bit for bit, on t's own temporaries.
        bound = 1.0 - t
        bound *= yk[o:]
        t *= ys[i]
        bound += t
        bound += 1e-9
        mask = yj[o:] > bound
        count = np.count_nonzero(mask)
        if count:
            masks[i] = mask, count
            total += count
    triples = np.empty((total, 3), dtype=np.int32)
    end = 0
    for i, (mask, count) in masks.items():
        start, end = end, end + count
        triples[start:end, 0] = i
        triples[start:end, 1] = j[-mask.size :][mask]
        triples[start:end, 2] = k[-mask.size :][mask]
    return triples
