"""Axis-aligned box geometry: representations, transforms, areas, and IoU."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

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


# Scalar draws with the bits and stream advance of numpy's Generator.uniform,
# .normal and .choice, minus their per-call argument handling, for the
# samplers gradients._sample_pair and fitting.generate_dataset.


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi): numpy's random_uniform, low + range * next_double,
    on the bounds converted to float, with its refusal of a range that is
    negative or not finite. Pinned by tests/test_draws.py::test_uniform_is_numpys."""
    lo = float(lo)
    span = float(hi) - lo
    if not 0.0 <= span < math.inf:
        raise ValueError(f"uniform range [{lo!r}, {hi!r}] is negative or not finite")
    return lo + span * rng.random()


def _normal(rng: np.random.Generator, scale: float) -> float:
    """rng.normal(0.0, scale) for scale >= 0: numpy's random_normal,
    loc + scale * gauss with loc = 0.0. Pinned by
    tests/test_draws.py::test_normal_is_numpys."""
    return 0.0 + scale * rng.standard_normal()


def _sign(rng: np.random.Generator) -> float:
    """rng.choice((-1.0, 1.0)): Generator.choice without p draws
    integers(0, pop_size). Pinned by tests/test_draws.py::test_sign_is_numpys."""
    return (-1.0, 1.0)[rng.integers(0, 2)]


class _Corners(NamedTuple):
    """A box's corners as plain floats, unvalidated: a drawn record that iou,
    area and intersection_dims read like a Box."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float


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
        for name in ("xmin", "ymin", "xmax", "ymax"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
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
        if s <= 0:
            raise ValueError(f"scale factor must be positive, got {s}")
        return Box(self.xmin * s, self.ymin * s, self.xmax * s, self.ymax * s)


@dataclass(frozen=True)
class BoxYXHW:
    """Rectangle as (y1, x1, h, w): an origin corner plus non-negative extents."""

    y1: float
    x1: float
    h: float
    w: float

    def __post_init__(self) -> None:
        for name in ("y1", "x1", "h", "w"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
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


def area(b: Box) -> float:
    return (b.xmax - b.xmin) * (b.ymax - b.ymin)


def intersection_dims(a: Box, b: Box) -> tuple[float, float]:
    """Overlap width and height, clamped at zero."""
    iw = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    ih = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    return (max(0.0, iw), max(0.0, ih))


def iou(a: Box, b: Box) -> float:
    """Intersection over union, clamped to [0, 1].

    Every subexpression is symmetric in (a, b), so iou(a, b) == iou(b, a)
    exactly. Two degenerate boxes give 0 by convention.
    """
    iw, ih = intersection_dims(a, b)
    inter = iw * ih
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def overlap_array(
    pred: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (overlap width, overlap height, intersection, union) of two
    (K, 4) corner arrays, each bitwise equal to the scalar code's value."""
    iw, ih = _signed_overlap(pred, target)
    # max(0.0, x) in Python keeps 0.0 for x = -0.0, which np.maximum may not.
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
    """Row-wise iou of two (K, 4) corner arrays, bitwise equal to iou per pair."""
    _, _, inter, union = overlap_array(pred, target)
    ratio = inter / union
    # iou's guards: union <= 0 gives 0, and max(0.0, ratio) is 0 for a nan ratio.
    return np.where((union > 0.0) & (ratio > 0.0), np.minimum(ratio, 1.0), 0.0)


def _cell_centers(lo: float, hi: float, resolution: int) -> np.ndarray:
    if hi <= lo:
        # Degenerate extent: a single sample row keeps counts well defined.
        return np.array([lo])
    n = math.ceil((hi - lo) * resolution)
    n = max(1, n)
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
    if resolution <= 0:
        raise ValueError(f"resolution must be a positive integer, got {resolution}")
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
