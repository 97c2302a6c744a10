"""Synthetic box-regression harness: fit perturbed boxes back onto targets.

The harness generates a dataset of (predicted, target) pairs, then descends
on the raw corner coordinates of the predictions. Each pair's loss touches
only that pair's four coordinates, so per-pair gradients are applied block
by block; minibatches matter only through the smooth loss's blend weight,
which is recomputed from the current minibatch at every step and treated as
a constant during differentiation.
"""

from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator

import numpy as np

from .boxes import _IEEE, Box, BoxBatch, _Corners, _normal_from, _uniform_from, iou, iou_array
from .gradients import _PAIR_GRAD
from .losses import _LOSSES, HuberParams, LossKind, _blend_weight, _mean

# Unused here: fit runs on the array rows of _LOSSES and _PAIR_GRAD. The
# traced run of bench/worker.py replaces these names on this module.
from .gradients import grad_huber, grad_iou_loss  # noqa: F401
from .losses import loss_batch  # noqa: F401

__all__ = [
    "OverlapRegime",
    "OptimizerKind",
    "FitConfig",
    "FitResult",
    "ComparisonRow",
    "ComparisonResult",
    "InfeasibleDatasetError",
    "generate_dataset",
    "fit",
    "compare_losses",
]

# Per-pair cap on rejection resampling before the configuration is declared
# infeasible.
_MAX_ATTEMPTS = 1000

_RMSPROP_EPS = 1e-8


class OverlapRegime(str, Enum):
    """Which perturbed pairs generate_dataset keeps: IoU > 0, IoU = 0, or any;
    a filter on IoU, unlike gradcheck's geometric REGIMES."""

    OVERLAPPING = "overlapping"
    DISJOINT = "disjoint"
    MIXED = "mixed"


class OptimizerKind(str, Enum):
    PLAIN_GD = "plain_gd"
    RMSPROP_LIKE = "rmsprop_like"


class InfeasibleDatasetError(RuntimeError):
    """Raised when rejection resampling cannot satisfy the overlap regime."""


@dataclass(frozen=True)
class FitConfig:
    """Dataset, loss, and optimizer settings for one fitting run.

    translation_sigma is measured in units of the target's size per axis;
    scale_sigma is the log-normal sigma of the size jitter.
    momentum_or_decay is the momentum coefficient for plain_gd and the
    squared-gradient decay for rmsprop_like.
    """

    num_pairs: int = 50
    frame: Box = Box(0.0, 0.0, 100.0, 100.0)
    target_size_min: float = 5.0
    target_size_max: float = 20.0
    translation_sigma: float = 0.3
    scale_sigma: float = 0.1
    regime: OverlapRegime = OverlapRegime.MIXED
    loss_kind: LossKind = LossKind.SMOOTH_IOU
    delta: float = 1.0
    optimizer: OptimizerKind = OptimizerKind.RMSPROP_LIKE
    learning_rate: float = 0.05
    momentum_or_decay: float = 0.9
    steps: int = 500
    seed: int = 0
    batch_size: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "regime", OverlapRegime(self.regime))
        object.__setattr__(self, "loss_kind", LossKind(self.loss_kind))
        object.__setattr__(self, "optimizer", OptimizerKind(self.optimizer))
        for name in ("num_pairs", "steps", "seed", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.num_pairs < 1:
            raise ValueError(f"num_pairs must be >= 1, got {self.num_pairs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.target_size_min <= self.target_size_max:
            raise ValueError(
                f"target size range must satisfy 0 < min <= max, got "
                f"({self.target_size_min}, {self.target_size_max})"
            )
        if not (math.isfinite(self.frame.width) and math.isfinite(self.frame.height)):
            raise ValueError(
                f"frame width and height must be finite, got "
                f"{self.frame.width} x {self.frame.height}"
            )
        if self.target_size_max > min(self.frame.width, self.frame.height):
            raise ValueError("target_size_max exceeds the frame")
        # generate_dataset draws centers between these bounds, which can cross
        # by rounding when the size equals the frame's width or height.
        m, f = self.target_size_max, self.frame
        if f.xmin + m / 2 > f.xmax - m / 2 or f.ymin + m / 2 > f.ymax - m / 2:
            raise ValueError(
                f"target_size_max={m!r} leaves no room for a box center in frame "
                f"{f.corners()}"
            )
        sigmas = (self.translation_sigma, self.scale_sigma)
        if not all(math.isfinite(s) and s >= 0 for s in sigmas):
            raise ValueError(
                f"perturbation sigmas must be finite and non-negative, got {sigmas}"
            )
        HuberParams(self.delta)
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if not 0 <= self.momentum_or_decay < 1:
            raise ValueError(
                f"momentum_or_decay must lie in [0, 1), got {self.momentum_or_decay}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 1 <= self.batch_size <= self.num_pairs:
            raise ValueError(
                f"batch_size must lie in [1, num_pairs={self.num_pairs}], "
                f"got {self.batch_size}"
            )


@dataclass(frozen=True)
class FitResult:
    """Trajectories are recorded before the first step and after every step,
    so both have length steps + 1."""

    mean_iou_initial: float
    mean_iou_final: float
    loss_trajectory: tuple[float, ...]
    iou_trajectory: tuple[float, ...]
    diverged: bool
    final_predicted: tuple[Box, ...]


@dataclass(frozen=True)
class ComparisonRow:
    loss_kind: LossKind
    mean_final_iou: float
    stddev_final_iou: float
    mean_initial_iou: float


@dataclass(frozen=True)
class ComparisonResult:
    """Summary rows per loss kind, plus every underlying run keyed by
    (loss_kind, seed)."""

    rows: tuple[ComparisonRow, ...]
    runs: dict[tuple[LossKind, int], "FitResult"]


def _regime_accepts(regime: OverlapRegime, pair_iou: float) -> bool:
    if regime is OverlapRegime.DISJOINT:
        return pair_iou == 0.0
    if regime is OverlapRegime.OVERLAPPING:
        return pair_iou > 0.0
    return True


def generate_dataset(config: FitConfig) -> BoxBatch:
    """Draw targets inside the frame and predictions as perturbed copies.

    Target widths and heights are uniform in the size range, centers uniform
    wherever the box fits in the frame. Predictions translate the center by
    a Gaussian in units of the target size and jitter the size log-normally;
    draws that violate the overlap regime are rejected and resampled, and a
    pair that exhausts its attempts raises InfeasibleDatasetError. A draw
    whose box size or center shift is not finite raises ValueError naming
    scale_sigma or translation_sigma, and a target that rounds to zero width
    or height, far from the origin, raises ValueError naming the frame.
    """
    pairs = [(Box(*pred), Box(*target)) for pred, target in _draw_pairs(config)]
    return BoxBatch(*zip(*pairs))


def _checked(record: _Corners) -> _Corners:
    """A drawn record, passed through Box's checks only when its corners might
    not be finite, so a bad draw raises Box's own ValueError. Drawn boxes are
    never inverted: their extents are non-negative and rounding is monotone."""
    if not math.isfinite(sum(record)):
        Box(*record)
    return record


def _draw_pairs(config: FitConfig) -> Iterator[tuple[_Corners, _Corners]]:
    """generate_dataset's (predicted, target) corner records, drawn on floats
    without building a Box; fit reads them as arrays.

    The draws keep the order of one numpy call per scalar, in two block
    calls: a pair's w, h, cx and cy are one rng.random(4), and each attempt's
    two size jitters and two center shifts one rng.standard_normal(4). A
    target that the frame's float spacing rounds to zero width or height
    raises ValueError naming the frame."""
    rng = np.random.default_rng(config.seed)
    frame = config.frame

    for _ in range(config.num_pairs):
        u_w, u_h, u_x, u_y = rng.random(4).tolist()
        w = _uniform_from(u_w, config.target_size_min, config.target_size_max)
        h = _uniform_from(u_h, config.target_size_min, config.target_size_max)
        cx = _uniform_from(u_x, frame.xmin + w / 2, frame.xmax - w / 2)
        cy = _uniform_from(u_y, frame.ymin + h / 2, frame.ymax - h / 2)
        target = _checked(_Corners(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
        if not (target.xmin < target.xmax and target.ymin < target.ymax):
            raise ValueError(
                f"frame {frame.corners()} is too large for target sizes "
                f"[{config.target_size_min!r}, {config.target_size_max!r}]: a target "
                f"drawn at center ({cx!r}, {cy!r}) rounds to zero width or height"
            )

        for _attempt in range(_MAX_ATTEMPTS):
            z_w, z_h, z_x, z_y = rng.standard_normal(4).tolist()
            try:
                pw = w * math.exp(_normal_from(z_w, config.scale_sigma))
                ph = h * math.exp(_normal_from(z_h, config.scale_sigma))
            except OverflowError:
                pw = ph = math.inf
            if not (math.isfinite(pw) and math.isfinite(ph)):
                raise ValueError(
                    f"scale_sigma={config.scale_sigma!r} drew a box size that is not finite"
                )
            dx = _normal_from(z_x, config.translation_sigma * w)
            dy = _normal_from(z_y, config.translation_sigma * h)
            if not (math.isfinite(dx) and math.isfinite(dy)):
                raise ValueError(
                    f"translation_sigma={config.translation_sigma!r} drew a center shift "
                    "that is not finite"
                )
            pred = _checked(
                _Corners(cx + dx - pw / 2, cy + dy - ph / 2, cx + dx + pw / 2, cy + dy + ph / 2)
            )
            if _regime_accepts(config.regime, iou(pred, target)):
                break
        else:
            raise InfeasibleDatasetError(
                f"could not satisfy regime {config.regime.value!r} within "
                f"{_MAX_ATTEMPTS} attempts; widen the perturbation or relax the regime"
            )
        yield pred, target


@_IEEE
def fit(config: FitConfig) -> FitResult:
    """Descend on the predicted boxes' corner coordinates.

    Minibatches walk a seed-shuffled order with sequential wraparound. Raw
    per-pair gradients update each pair's own block of four coordinates;
    after every optimizer step, inverted boxes are projected back to
    validity. The dataset's IoUs are computed once, and each step recomputes
    only the rows its minibatch moved. Each state's configured loss and mean
    IoU are then evaluated over the full dataset, and the trajectories
    record them; every mean is summed left to right. A step's blend weight
    lam is its minibatch's mean IoU, read from the IoUs of the state the
    step starts from. If a coordinate or the loss turns non-finite, the step
    is rolled back, diverged is set, and the remaining trajectory repeats
    the last finite state; overflow is therefore not an error.
    """
    params, targets = map(np.array, zip(*_draw_pairs(config)))
    state = np.zeros_like(params)
    huber = HuberParams(config.delta)
    grad, losses = _PAIR_GRAD[config.loss_kind], _LOSSES[config.loss_kind]
    lr = config.learning_rate
    rho = config.momentum_or_decay
    k = config.num_pairs

    order = np.random.default_rng(config.seed).permutation(k)
    offsets = np.arange(config.batch_size)

    # Every kind's loss row gets the mean IoU as lam; only the smooth kind reads it.
    def evaluate() -> tuple[float, float]:
        mean_iou = _blend_weight(ious)
        return _mean(losses(params, targets, ious, mean_iou, huber)), mean_iou

    ious = iou_array(params, targets)
    loss, mean_iou = evaluate()
    loss_traj = [loss]
    iou_traj = [mean_iou]
    diverged = False
    cursor = 0
    for _ in range(config.steps):
        idx = order[(cursor + offsets) % k]
        cursor = (cursor + config.batch_size) % k

        batch, batch_targets = params[idx], targets[idx]
        g = grad(batch, batch_targets, _blend_weight(ious[idx]), huber)
        if config.optimizer is OptimizerKind.RMSPROP_LIKE:
            batch_state = rho * state[idx] + (1.0 - rho) * g * g
            moved = batch - lr * g / (np.sqrt(batch_state) + _RMSPROP_EPS)
        else:
            batch_state = rho * state[idx] + g
            moved = batch - lr * batch_state
        # Inverted coordinates collapse to their midpoint; degenerate is valid.
        for lo, hi in ((0, 2), (1, 3)):
            inverted = moved[:, hi] < moved[:, lo]
            mid = 0.5 * (moved[inverted, lo] + moved[inverted, hi])
            moved[inverted, lo] = mid
            moved[inverted, hi] = mid
        state[idx] = batch_state
        params[idx] = moved
        # idx has no repeats (batch_size <= num_pairs), and a rolled-back
        # step ends the loop, so no stale row is ever read.
        ious[idx] = iou_array(moved, batch_targets)

        loss, mean_iou = evaluate()
        if not (np.isfinite(moved).all() and math.isfinite(loss)):
            params[idx] = batch
            diverged = True
            break
        loss_traj.append(loss)
        iou_traj.append(mean_iou)

    # A diverged run's trajectories repeat its last finite state.
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


def compare_losses(
    config: FitConfig, kinds: list[LossKind], num_seeds: int = 20
) -> ComparisonResult:
    """Run matched fits for each loss kind over num_seeds consecutive seeds.

    Seed s uses config.seed + s, and the dataset depends only on the seed and
    the dataset settings, so every kind sees identical initial boxes at each
    seed. Rows report the population mean and standard deviation of the final
    mean IoU (a single seed reports stddev 0). A kind listed twice raises
    ValueError.
    """
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be >= 1, got {num_seeds}")
    if len(kinds) == 0:
        raise ValueError("kinds must be non-empty")
    kinds = [LossKind(kind) for kind in kinds]
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ValueError(f"loss kind {kind.value!r} is repeated")

    runs: dict[tuple[LossKind, int], FitResult] = {}
    rows: list[ComparisonRow] = []
    for kind in kinds:
        finals: list[float] = []
        initials: list[float] = []
        for s in range(num_seeds):
            seed = config.seed + s
            result = fit(replace(config, loss_kind=kind, seed=seed))
            runs[(kind, seed)] = result
            finals.append(result.mean_iou_final)
            initials.append(result.mean_iou_initial)
        rows.append(
            ComparisonRow(
                loss_kind=kind,
                mean_final_iou=statistics.fmean(finals),
                stddev_final_iou=statistics.pstdev(finals),
                mean_initial_iou=statistics.fmean(initials),
            )
        )
    return ComparisonResult(rows=tuple(rows), runs=runs)
