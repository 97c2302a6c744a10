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
import statistics
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .boxes import Box, BoxBatch, iou
# fit calls grad_huber and grad_iou_loss through _PAIR_GRAD; bench/worker.py's
# traced run also replaces them here by name.
from .gradients import _PAIR_GRAD, grad_huber, grad_iou_loss  # noqa: F401
from .losses import HuberParams, LossKind, _blend_weight, loss_batch

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
        if self.num_pairs < 1:
            raise ValueError(f"num_pairs must be >= 1, got {self.num_pairs}")
        if not 0 < self.target_size_min <= self.target_size_max:
            raise ValueError(
                f"target size range must satisfy 0 < min <= max, got "
                f"({self.target_size_min}, {self.target_size_max})"
            )
        if self.target_size_max > min(self.frame.width, self.frame.height):
            raise ValueError("target_size_max exceeds the frame")
        sigmas = (self.translation_sigma, self.scale_sigma)
        if not all(math.isfinite(s) and s >= 0 for s in sigmas):
            raise ValueError(
                f"perturbation sigmas must be finite and non-negative, got {sigmas}"
            )
        if self.delta <= 0 or not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
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
            pw = w * float(math.exp(rng.normal(0.0, config.scale_sigma)))
            ph = h * float(math.exp(rng.normal(0.0, config.scale_sigma)))
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


def _project_row(row: np.ndarray) -> None:
    # Inverted coordinates collapse to their midpoint; degenerate is valid.
    if row[2] < row[0]:
        mid = 0.5 * (row[0] + row[2])
        row[0] = mid
        row[2] = mid
    if row[3] < row[1]:
        mid = 0.5 * (row[1] + row[3])
        row[1] = mid
        row[3] = mid


def fit(config: FitConfig) -> FitResult:
    """Descend on the predicted boxes' corner coordinates.

    Minibatches walk a seed-shuffled order with sequential wraparound. Raw
    per-pair gradients update each pair's own block of four coordinates;
    after every optimizer step, inverted boxes are projected back to
    validity. The recorded trajectories evaluate the configured loss and the
    mean IoU over the full dataset. If a coordinate ever turns non-finite,
    the step is rolled back, diverged is set, and the remaining trajectory
    repeats the last finite state.
    """
    dataset = generate_dataset(config)
    targets = dataset.target
    k = config.num_pairs
    params = np.array([b.corners() for b in dataset.predicted], dtype=float)
    state = np.zeros_like(params)
    huber = HuberParams(config.delta)
    kind = config.loss_kind
    grad = _PAIR_GRAD[kind]
    lr = config.learning_rate
    rho = config.momentum_or_decay

    order = np.random.default_rng(config.seed).permutation(k)

    loss_traj: list[float] = []
    iou_traj: list[float] = []

    def record() -> None:
        boxes = tuple(Box(*row) for row in params)
        report = loss_batch(BoxBatch(boxes, targets), kind, huber)
        loss_traj.append(report.reduced_loss)
        iou_traj.append(sum(report.per_example_iou) / k)

    record()
    diverged = False
    cursor = 0
    for _ in range(config.steps):
        if diverged:
            record()
            continue

        idx = [int(order[(cursor + j) % k]) for j in range(config.batch_size)]
        cursor = (cursor + config.batch_size) % k

        preds = [Box(*params[i]) for i in idx]
        lam = 0.0
        if kind is LossKind.SMOOTH_IOU:
            lam = _blend_weight([iou(p, targets[i]) for p, i in zip(preds, idx)])

        previous = params.copy()
        # Overflow here is not an error: non-finite results are detected
        # below and trigger the rollback.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, pred in zip(idx, preds):
                g = np.array(grad(pred, targets[i], lam, huber))
                if config.optimizer is OptimizerKind.RMSPROP_LIKE:
                    state[i] = rho * state[i] + (1.0 - rho) * g * g
                    params[i] -= lr * g / (np.sqrt(state[i]) + _RMSPROP_EPS)
                else:
                    state[i] = rho * state[i] + g
                    params[i] -= lr * state[i]
                _project_row(params[i])

        bad = not np.isfinite(params).all()
        if not bad:
            record()
            if not math.isfinite(loss_traj[-1]):
                loss_traj.pop()
                iou_traj.pop()
                bad = True
        if bad:
            params = previous
            diverged = True
            record()

    return FitResult(
        mean_iou_initial=iou_traj[0],
        mean_iou_final=iou_traj[-1],
        loss_trajectory=tuple(loss_traj),
        iou_trajectory=tuple(iou_traj),
        diverged=diverged,
        final_predicted=tuple(Box(*row) for row in params),
    )


def compare_losses(
    config: FitConfig, kinds: list[LossKind], num_seeds: int = 20
) -> ComparisonResult:
    """Run matched fits for each loss kind over num_seeds consecutive seeds.

    Seed s uses config.seed + s, and the dataset depends only on the seed and
    the dataset settings, so every kind sees identical initial boxes at each
    seed. Rows report the population mean and standard deviation of the final
    mean IoU (a single seed reports stddev 0).
    """
    if num_seeds < 1:
        raise ValueError(f"num_seeds must be >= 1, got {num_seeds}")
    if len(kinds) == 0:
        raise ValueError("kinds must be non-empty")

    runs: dict[tuple[LossKind, int], FitResult] = {}
    rows: list[ComparisonRow] = []
    for kind in kinds:
        kind = LossKind(kind)
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
