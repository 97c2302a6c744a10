"""Axis-aligned box geometry: representations, transforms, areas, and IoU."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

__all__ = [
    "Box",
    "BoxYXHW",
    "BoxBatch",
    "transform",
    "to_yxhw",
    "area",
    "intersection_dims",
    "iou",
    "iou_pixel_oracle",
]

# Hard ceiling on oracle grid cells per axis, so a careless frame cannot
# allocate unbounded memory.
_MAX_ORACLE_CELLS = 50_000_000

# Python float semantics for the array kernels: overflow and invalid
# operations give inf or nan silently, for the callers to detect, instead of
# raising numpy RuntimeWarnings. The public entry points enter it once per
# call; the kernels they reach (overlap_array, iou_array and the loss and
# gradient rows) assume their caller has. Use it only as a decorator, which
# is reentrant and thread-safe; one errstate cannot be entered twice as a
# `with`.
_IEEE = np.errstate(all="ignore")


def _check_counts(**counts: tuple[object, float]) -> None:
    """The one check of counts and seeds, given as name=(value, minimum):
    each value must be an integer, not a bool, which would count as 0 or 1,
    and at least its minimum."""
    for name, (value, minimum) in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_choice(name: str, value, choices: type[Enum]) -> Enum:
    """The one check of an enum setting: `value` converted to a member of
    `choices`, or a ValueError naming the setting and every allowed value."""
    try:
        return choices(value)
    except ValueError:
        allowed = ", ".join(repr(member.value) for member in choices)
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}") from None


def _check_numbers(**values) -> None:
    """The one check of float settings: each value must be a real number,
    not a bool, which would count as 0.0 or 1.0, and one that float() can
    convert, unlike an integer past the largest float."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None


def _check_positive(**values) -> None:
    """_check_numbers, then the one check of finite and positive settings."""
    _check_numbers(**values)
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_boxes(**values) -> None:
    """The one check of box settings: each value must be a Box, not its
    corners as a tuple, which has no width, height or corners()."""
    for name, value in values.items():
        if not isinstance(value, Box):
            raise ValueError(f"{name} must be a Box, got {value!r}")


def _store_finite(obj, *names: str) -> None:
    """The one check of box coordinates: each named field of the frozen
    `obj`, converted by float(), must be finite, and is stored as that float."""
    for name in names:
        value = float(getattr(obj, name))
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        object.__setattr__(obj, name, value)


def _check_corners(corners: np.ndarray) -> np.ndarray:
    """The one check of (K, 4) corner rows: the first row with a corner that
    is not finite goes through Box, which raises its own ValueError. Callers
    build rows that are never inverted, so Box fails only on that corner."""
    bad = ~np.isfinite(corners).all(axis=1)
    if bad.any():
        Box(*corners[bad.argmax()].tolist())
    return corners


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each value of x, in x's shape; inf everywhere if any value
    overflows. The samplers use it, not np.exp, whose last bits depend on the
    SIMD code numpy dispatches to."""
    try:
        return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    except OverflowError:
        return np.full(x.shape, math.inf)


@dataclass(frozen=True)
class Box:
    """Rectangle in corner form (xmin, ymin, xmax, ymax).

    Degenerate boxes (zero width or height) are allowed. Inverted boxes are
    rejected at construction so optimizer overshoot cannot slip through
    silently.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        _store_finite(self, "xmin", "ymin", "xmax", "ymax")
        if self.xmax < self.xmin:
            raise ValueError(f"inverted box: xmax={self.xmax} < xmin={self.xmin}")
        if self.ymax < self.ymin:
            raise ValueError(f"inverted box: ymax={self.ymax} < ymin={self.ymin}")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def corners(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    def shifted(self, dx: float, dy: float) -> "Box":
        return Box(self.xmin + dx, self.ymin + dy, self.xmax + dx, self.ymax + dy)

    def scaled(self, s: float) -> "Box":
        """Multiply every coordinate by s. Requires s > 0 to stay non-inverted."""
        _check_positive(s=s)
        return Box(self.xmin * s, self.ymin * s, self.xmax * s, self.ymax * s)


@dataclass(frozen=True)
class BoxYXHW:
    """Rectangle as (y1, x1, h, w): an origin corner plus non-negative extents."""

    y1: float
    x1: float
    h: float
    w: float

    def __post_init__(self) -> None:
        _store_finite(self, "y1", "x1", "h", "w")
        if self.h < 0:
            raise ValueError(f"negative height: {self.h}")
        if self.w < 0:
            raise ValueError(f"negative width: {self.w}")


@dataclass(frozen=True)
class BoxBatch:
    """Index-aligned predicted and target boxes, the unit the batch losses consume."""

    predicted: tuple[Box, ...]
    target: tuple[Box, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicted", tuple(self.predicted))
        object.__setattr__(self, "target", tuple(self.target))
        if len(self.predicted) != len(self.target):
            raise ValueError(
                f"mismatched batch: {len(self.predicted)} predicted vs "
                f"{len(self.target)} target boxes"
            )
        if len(self.predicted) == 0:
            raise ValueError("empty batch")

    def __len__(self) -> int:
        return len(self.predicted)

    def pairs(self) -> Iterator[tuple[Box, Box]]:
        return zip(self.predicted, self.target)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(K, 4) float64 corner arrays of the predicted and target boxes."""
        return (
            np.array([b.corners() for b in self.predicted]),
            np.array([b.corners() for b in self.target]),
        )


def transform(b: BoxYXHW) -> Box:
    """Convert from (y1, x1, h, w) to corner form.

    Negative extents are impossible here because BoxYXHW rejects them at
    construction.
    """
    return Box(xmin=b.x1, ymin=b.y1, xmax=b.x1 + b.w, ymax=b.y1 + b.h)


def to_yxhw(b: Box) -> BoxYXHW:
    """Inverse of transform: corner form back to (y1, x1, h, w)."""
    return BoxYXHW(y1=b.ymin, x1=b.xmin, h=b.ymax - b.ymin, w=b.xmax - b.xmin)


@_IEEE
def area(b: Box) -> float:
    """Width times height: the one-row call of the area rows."""
    return float(_area_rows(_corner_row(b))[0])


@_IEEE
def intersection_dims(a: Box, b: Box) -> tuple[float, float]:
    """Overlap width and height, clamped at zero: overlap_array's first two
    terms for the one pair."""
    iw, ih, _, _ = overlap_array(_corner_row(a), _corner_row(b))
    return float(iw[0]), float(ih[0])


@_IEEE
def iou(a: Box, b: Box) -> float:
    """Intersection over union, clamped to [0, 1]: the one-row call of
    iou_array; of two (K, 4) corner arrays, iou_array's rows.

    Every subexpression is symmetric in (a, b), so iou(a, b) == iou(b, a)
    exactly. Two degenerate boxes give 0 by convention.
    """
    if isinstance(a, np.ndarray):
        return iou_array(a, b)
    return float(iou_array(_corner_row(a), _corner_row(b))[0])


def overlap_array(
    pred: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (overlap width, overlap height, intersection, union) of two
    (K, 4) corner arrays: the one place the overlap is clamped at zero."""
    iw, ih = _signed_overlap(pred, target)
    # A -0.0 overlap clamps to +0.0; np.maximum keeps -0.0 in one argument order.
    iw = np.where(iw > 0.0, iw, 0.0)
    ih = np.where(ih > 0.0, ih, 0.0)
    inter = iw * ih
    union = _area_rows(pred) + _area_rows(target) - inter
    return iw, ih, inter, union


def _signed_overlap(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise overlap width and height of two (K, 4) corner arrays, not
    clamped: negative where the boxes are apart along that axis."""
    iw = np.minimum(pred[:, 2], target[:, 2]) - np.maximum(pred[:, 0], target[:, 0])
    ih = np.minimum(pred[:, 3], target[:, 3]) - np.maximum(pred[:, 1], target[:, 1])
    return iw, ih


def _area_rows(corners: np.ndarray) -> np.ndarray:
    return (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])


def _corner_row(b: Box) -> np.ndarray:
    """One box as a (1, 4) corner array: a single pair's input to the rows."""
    return np.array([b.corners()])


def iou_array(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Row-wise IoU of two (K, 4) corner arrays; iou is its one-row call."""
    return _overlap_iou(overlap_array(pred, target))


def _overlap_iou(overlap) -> np.ndarray:
    """The IoU rows of overlap_array's four terms, given as a tuple or as the
    rows of a (4, K) array."""
    _, _, inter, union = overlap
    ratio = inter / union
    # The one place the IoU rules are written: a union <= 0 or a nan ratio
    # gives 0, and the ratio is clamped to [0, 1].
    return np.where((union > 0.0) & (ratio > 0.0), np.minimum(ratio, 1.0), 0.0)


def _cell_centers(lo: float, hi: float, resolution: int) -> np.ndarray:
    # A zero extent gives one cell, at lo, so counts stay well defined.
    n = max(1, math.ceil((hi - lo) * resolution))
    if n > _MAX_ORACLE_CELLS:
        raise ValueError(
            f"oracle grid of {n} cells per axis exceeds the {_MAX_ORACLE_CELLS} limit; "
            "use a smaller frame or resolution"
        )
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step


def iou_pixel_oracle(a: Box, b: Box, resolution: int = 100) -> float:
    """Grid-rasterization IoU estimate, independent of the closed form.

    The tight frame around both boxes is covered with square cells at
    `resolution` cells per coordinate unit, and a cell counts toward a box
    when its center lies inside. Membership along each axis is tested
    separately; because the boxes are axis aligned, the per-axis counts
    multiply into exact 2-D raster counts, and the union count follows from
    finite-set inclusion-exclusion. Identical boxes give exactly 1, strictly
    separated boxes give exactly 0, and the general estimate converges at
    rate ~1/resolution.
    """
    _check_counts(resolution=(resolution, 1))
    xs = _cell_centers(min(a.xmin, b.xmin), max(a.xmax, b.xmax), resolution)
    ys = _cell_centers(min(a.ymin, b.ymin), max(a.ymax, b.ymax), resolution)

    in_ax = (xs >= a.xmin) & (xs <= a.xmax)
    in_bx = (xs >= b.xmin) & (xs <= b.xmax)
    in_ay = (ys >= a.ymin) & (ys <= a.ymax)
    in_by = (ys >= b.ymin) & (ys <= b.ymax)

    count_a = int(in_ax.sum()) * int(in_ay.sum())
    count_b = int(in_bx.sum()) * int(in_by.sum())
    count_both = int((in_ax & in_bx).sum()) * int((in_ay & in_by).sum())
    count_union = count_a + count_b - count_both
    if count_union == 0:
        return 0.0
    return count_both / count_union
