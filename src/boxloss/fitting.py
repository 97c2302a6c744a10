"""Synthetic box-regression harness: fit perturbed boxes back onto targets.

The harness generates a dataset of (predicted, target) pairs, then descends
on the raw corner coordinates of the predictions. Each pair's loss touches
only that pair's four coordinates, so per-pair gradients are applied block
by block; minibatches matter only through the smooth loss's blend weight,
which is recomputed from the current minibatch at every step and treated as
a constant during differentiation.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .boxes import _IEEE, _check_boxes, _check_choice, _check_corners, _check_counts, _check_numbers
from .boxes import Box, BoxBatch, _check_positive, _exp, _overlap_iou, iou, iou_array, overlap_array
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
    delta: float = HuberParams.delta
    optimizer: OptimizerKind = OptimizerKind.RMSPROP_LIKE
    learning_rate: float = 0.05
    momentum_or_decay: float = 0.9
    steps: int = 500
    seed: int = 0
    batch_size: int = 16

    def __post_init__(self) -> None:
        for name, kind in (
            ("regime", OverlapRegime), ("loss_kind", LossKind), ("optimizer", OptimizerKind)
        ):
            object.__setattr__(self, name, _check_choice(name, getattr(self, name), kind))
        # batch_size's range, [1, num_pairs], is checked below.
        _check_counts(
            num_pairs=(self.num_pairs, 1),
            steps=(self.steps, 1),
            seed=(self.seed, 0),
            batch_size=(self.batch_size, -math.inf),
        )
        _check_numbers(**{f.name: getattr(self, f.name) for f in fields(self) if f.type == "float"})
        _check_boxes(frame=self.frame)
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
        _check_positive(learning_rate=self.learning_rate)
        if not 0 <= self.momentum_or_decay < 1:
            raise ValueError(
                f"momentum_or_decay must lie in [0, 1), got {self.momentum_or_decay}"
            )
        if not 1 <= self.batch_size <= self.num_pairs:
            raise ValueError(
                f"batch_size must lie in [1, num_pairs={self.num_pairs}], "
                f"got {self.batch_size}"
            )


@dataclass(frozen=True)
class FitResult:
    """Trajectories are recorded before the first step and after every step,
    so both have length steps + 1. final_corners holds each final prediction
    as an (xmin, ymin, xmax, ymax) tuple of floats; final_predicted builds
    them as Boxes on each read."""

    mean_iou_initial: float
    mean_iou_final: float
    loss_trajectory: tuple[float, ...]
    iou_trajectory: tuple[float, ...]
    diverged: bool
    final_corners: tuple[tuple[float, float, float, float], ...]

    @property
    def final_predicted(self) -> tuple[Box, ...]:
        return tuple(Box(*row) for row in self.final_corners)


@dataclass(frozen=True)
class ComparisonRow:
    loss_kind: LossKind
    mean_final_iou: float
    stddev_final_iou: float
    mean_initial_iou: float
    num_diverged: int


@dataclass(frozen=True)
class ComparisonResult:
    """Summary rows per loss kind, plus every underlying run keyed by
    (loss_kind, seed)."""

    rows: tuple[ComparisonRow, ...]
    runs: dict[tuple[LossKind, int], "FitResult"]


# Which drawn pairs each regime keeps, as a mask over the pairs' IoUs.
_KEEPS = {
    OverlapRegime.OVERLAPPING: lambda ious: ious > 0.0,
    OverlapRegime.DISJOINT: lambda ious: ious == 0.0,
    OverlapRegime.MIXED: lambda ious: np.full(ious.shape, True),
}


@_IEEE
def generate_dataset(config: FitConfig) -> BoxBatch:
    """Draw targets inside the frame and predictions as perturbed copies.

    Target widths and heights are uniform in the size range, centers uniform
    wherever the box fits in the frame. Predictions translate the center by
    a Gaussian in units of the target size and jitter the size log-normally;
    draws that violate the overlap regime are rejected and resampled, and a
    pair that exhausts its attempts raises InfeasibleDatasetError, after
    _MAX_ATTEMPTS rounds over every pending pair: an unmeetable regime costs
    time in proportion to num_pairs, unless it is refused up front. A draw
    whose box size or center shift is not finite raises ValueError naming
    scale_sigma or translation_sigma, a drawn corner that overflows raises
    Box's ValueError, and a target whose width or height rounds, far from the
    origin, to zero or off the size range raises ValueError naming the frame.
    """
    predicted, targets = _draw_pairs(config)
    return BoxBatch(*([Box(*row) for row in rows.tolist()] for rows in (predicted, targets)))


def _draw_pairs(config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """generate_dataset's predicted and target boxes as (K, 4) corner arrays.

    Two generators are spawned from the seed. The targets' w, h, cx and cy
    are one random((K, 4)) call on the first, each numpy's uniform draw
    low + (high - low) * u. Each rejection round draws one
    standard_normal((P, 4)) on the second for the P pairs still pending: two
    size jitters, whose factors are math.exp of sigma * z, and two center
    shifts, then keeps the pairs its regime accepts by their IoUs. A pair
    that no round accepts within _MAX_ATTEMPTS raises
    InfeasibleDatasetError."""
    rng_u, rng_z = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))
    frame, lo = config.frame, float(config.target_size_min)
    span = float(config.target_size_max) - lo
    u_w, u_h, u_x, u_y = rng_u.random((config.num_pairs, 4)).T
    w, h = lo + span * u_w, lo + span * u_h
    x_lo, y_lo = frame.xmin + w / 2, frame.ymin + h / 2
    cx = x_lo + ((frame.xmax - w / 2) - x_lo) * u_x
    cy = y_lo + ((frame.ymax - h / 2) - y_lo) * u_y
    targets = _check_corners(np.stack((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), axis=1))
    # Far from the origin, a side can round off the size range by over a millionth.
    sides, hi = targets[:, 2:] - targets[:, :2], float(config.target_size_max)
    off = ((sides < lo * (1 - 1e-6)) | (sides > hi * (1 + 1e-6))).any(axis=1)
    flat = (sides <= 0.0).any(axis=1)
    if off.any():
        i = (flat if flat.any() else off).argmax()
        w_i, h_i = sides[i].tolist()
        size = "zero width or height" if flat.any() else f"a {w_i!r} x {h_i!r} box"
        raise ValueError(
            f"frame {frame.corners()} is too large for target sizes "
            f"[{config.target_size_min!r}, {config.target_size_max!r}]: a target drawn "
            f"at center ({float(cx[i])!r}, {float(cy[i])!r}) rounds to {size}"
        )

    sizes, centers = np.stack((w, h), axis=1), np.stack((cx, cy), axis=1)
    if config.regime is OverlapRegime.DISJOINT and config.translation_sigma == 0:
        _refuse_shared_centers(config, sizes, centers, targets)
    keeps = _KEEPS[config.regime]
    predicted = np.empty_like(targets)
    pending = np.arange(config.num_pairs)
    for _round in range(_MAX_ATTEMPTS):
        z = rng_z.standard_normal((len(pending), 4))
        size = sizes[pending]
        drawn_size = size * _exp(config.scale_sigma * z[:, :2])
        if not np.isfinite(drawn_size).all():
            raise ValueError(
                f"scale_sigma={config.scale_sigma!r} drew a box size that is not finite"
            )
        shift = config.translation_sigma * size * z[:, 2:]
        if not np.isfinite(shift).all():
            raise ValueError(
                f"translation_sigma={config.translation_sigma!r} drew a center shift "
                "that is not finite"
            )
        middle = centers[pending] + shift
        drawn = np.concatenate((middle - drawn_size / 2, middle + drawn_size / 2), axis=1)
        drawn = _check_corners(drawn)
        # Called for the mixed regime too, whose mask ignores it: bench/worker.py
        # traces the draw by replacing iou here, and its smoke test counts these calls.
        kept = keeps(iou(drawn, targets[pending]))
        predicted[pending[kept]] = drawn[kept]
        pending = pending[~kept]
        if len(pending) == 0:
            return predicted, targets
    raise InfeasibleDatasetError(
        f"could not satisfy regime {config.regime.value!r} within "
        f"{_MAX_ATTEMPTS} attempts; widen the perturbation or relax the regime"
    )


def _refuse_shared_centers(config, sizes, centers, targets) -> None:
    """Raise InfeasibleDatasetError when some pair can never be disjoint.

    With no center shift a prediction shares its target's center, so its IoU
    is smallest at the extreme size factors exp(±scale_sigma * 38), beyond
    which a standard normal lies with chance below 1e-315: a pair whose four
    extreme predictions overlap its target overlaps it at every draw. Past
    exp(±700), which overflows, any side collapses anyway.
    """
    reach = min(config.scale_sigma * 38.0, 700.0)
    overlaps = np.full(len(sizes), True)
    for factors in itertools.product((math.exp(-reach), math.exp(reach)), repeat=2):
        half = sizes * factors / 2
        corners = np.hstack((centers - half, centers + half))
        overlaps &= iou_array(corners, targets) > 0.0
    if overlaps.any():
        raise InfeasibleDatasetError(
            f"regime 'disjoint' cannot be met with translation_sigma=0 and scale_sigma="
            f"{config.scale_sigma!r}: each prediction shares its target's center and overlaps it"
        )


@_IEEE
def fit(config: FitConfig) -> FitResult:
    """Descend on the predicted boxes' corner coordinates.

    Minibatches walk a seed-shuffled order with sequential wraparound. The
    pairs are permuted into that order once, so step s's minibatch is the
    slice [s*b mod K, s*b mod K + b) of the rows, indexed only where it wraps
    past K. Raw per-pair gradients update each pair's own four coordinates,
    and inverted boxes are then projected back to validity. Each row's
    overlap terms, IoU and lam-free loss terms are cached and recomputed only
    for the rows a step moves; the gradient rows read the cached overlap.
    Each state's loss and mean IoU over the full dataset are summed left to
    right in dataset order, read through the inverse permutation, and
    recorded. A step's blend weight lam is its minibatch's mean IoU at the
    state the step starts from. If a coordinate or the loss turns non-finite,
    the step is not written back and the run stops; overflow is not an error.
    diverged is read off the trajectory: a run that stopped early diverged,
    and its remaining trajectory repeats the last finite state.
    """
    k, b = config.num_pairs, config.batch_size
    params, targets = _draw_pairs(config)
    order = np.random.default_rng(config.seed).permutation(k)
    params, targets, back = params[order], targets[order], np.empty_like(order)
    back[order] = np.arange(k)  # the inverse permutation; no sort, whose code adds RSS
    state, huber = np.zeros_like(params), HuberParams(config.delta)
    grad, (loss_terms, combine) = _PAIR_GRAD[config.loss_kind], _LOSSES[config.loss_kind]
    lr, rho = config.learning_rate, config.momentum_or_decay
    overlap = np.array(overlap_array(params, targets))
    ious, terms = _overlap_iou(overlap), loss_terms(params, targets, huber)

    # Every kind's combine gets the mean IoU as lam; only the smooth kind reads it.
    def evaluate() -> tuple[float, float]:
        mean_iou = _blend_weight(ious[back])
        return _mean(combine(ious, mean_iou, terms)[back]), mean_iou

    records = [evaluate()]
    for s in range(config.steps):
        start = s * b % k
        rows = slice(start, start + b) if start + b <= k else np.arange(start, start + b) % k
        batch, batch_targets = params[rows], targets[rows]
        g = grad(batch, batch_targets, overlap[:, rows], _blend_weight(ious[rows]), huber)
        if config.optimizer is OptimizerKind.RMSPROP_LIKE:
            batch_state = rho * state[rows] + (1.0 - rho) * g * g
            moved = batch - lr * g / (np.sqrt(batch_state) + _RMSPROP_EPS)
        else:
            batch_state = rho * state[rows] + g
            moved = batch - lr * batch_state
        # Inverted coordinates collapse to their midpoint; degenerate is valid.
        halves = moved.reshape(-1, 2, 2)  # a view: (xmin, ymin) and (xmax, ymax) per row
        lo, hi = halves[:, :1], halves[:, 1:]
        np.copyto(halves, 0.5 * (lo + hi), where=hi < lo)
        # rows has no repeats (batch_size <= num_pairs), and a non-finite
        # step ends the loop, so its stale cache rows are never read.
        moved_overlap = overlap_array(moved, batch_targets)
        overlap[:, rows], ious[rows] = moved_overlap, _overlap_iou(moved_overlap)
        terms[rows] = loss_terms(moved, batch_targets, huber)

        record = evaluate()
        if not (np.isfinite(moved).all() and math.isfinite(record[0])):
            break
        params[rows], state[rows] = moved, batch_state
        records.append(record)

    # A run that stopped early diverged; its trajectories repeat its last finite state.
    diverged = len(records) <= config.steps
    records += records[-1:] * (config.steps + 1 - len(records))
    loss_traj, iou_traj = zip(*records)
    return FitResult(
        mean_iou_initial=iou_traj[0],
        mean_iou_final=iou_traj[-1],
        loss_trajectory=loss_traj,
        iou_trajectory=iou_traj,
        diverged=diverged,
        final_corners=tuple(map(tuple, params[back].tolist())),
    )


def compare_losses(
    config: FitConfig, kinds: list[LossKind], num_seeds: int = 20
) -> ComparisonResult:
    """Run matched fits for each loss kind over num_seeds consecutive seeds.

    Seed s uses config.seed + s, and the dataset depends only on the seed and
    the dataset settings, so every kind sees identical initial boxes at each
    seed. Rows report the population mean and standard deviation of the final
    mean IoU (a single seed reports stddev 0) and the number of diverged
    runs. A kind listed twice raises ValueError.
    """
    _check_counts(num_seeds=(num_seeds, 1))
    if len(kinds) == 0:
        raise ValueError("kinds must be non-empty")
    kinds = [_check_choice("kind", kind, LossKind) for kind in kinds]
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ValueError(f"loss kind {kind.value!r} is repeated")

    seeds = range(config.seed, config.seed + num_seeds)
    runs = {
        (kind, seed): fit(replace(config, loss_kind=kind, seed=seed))
        for kind in kinds
        for seed in seeds
    }
    by_kind = {kind: [runs[kind, seed] for seed in seeds] for kind in kinds}
    rows = tuple(
        ComparisonRow(
            loss_kind=kind,
            mean_final_iou=statistics.fmean(r.mean_iou_final for r in results),
            stddev_final_iou=statistics.pstdev([r.mean_iou_final for r in results]),
            mean_initial_iou=statistics.fmean(r.mean_iou_initial for r in results),
            num_diverged=sum(r.diverged for r in results),
        )
        for kind, results in by_kind.items()
    )
    return ComparisonResult(rows=rows, runs=runs)
