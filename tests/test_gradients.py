"""Analytic gradients versus frozen values and central differences.

Tie conventions matter here: a predicted edge exactly on the matching target
edge is treated as binding, so at such a point the analytic value is one of
the two one-sided slopes and a central difference (which averages them) will
not reproduce it. Those coordinates are asserted against frozen convention
values and the finite-difference comparison is done on a nearby tie-free
geometry instead.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxloss import (
    Box,
    BoxBatch,
    GradCheckConfig,
    GradCheckResult,
    GradVector,
    HuberParams,
    LossKind,
    REGIMES,
    finite_diff_check,
    grad_huber,
    grad_iou_loss,
    grad_smooth_iou,
    grad_squared,
    huber_box,
    iou,
    iou_loss,
    squared_box,
)

TARGET = Box(0.0, 0.0, 10.0, 10.0)

GRID_BOXES = st.builds(
    lambda i, j, w, h: Box(i * 0.25, j * 0.25, (i + w) * 0.25, (j + h) * 0.25),
    st.integers(-200, 200),
    st.integers(-200, 200),
    st.integers(4, 160),
    st.integers(4, 160),
)


def _nudged(box: Box, index: int, amount: float) -> Box:
    corners = list(box.corners())
    corners[index] += amount
    return Box(*corners)


def _central_diff(f, box: Box, index: int, step: float = 1e-6) -> float:
    return (f(_nudged(box, index, step)) - f(_nudged(box, index, -step))) / (2 * step)


# ---------------------------------------------------------------------------
# coordinate-wise losses


class TestGradHuber:
    def test_identity_is_zero(self):
        assert grad_huber(TARGET, TARGET).components() == (0.0, 0.0, 0.0, 0.0)

    def test_quadratic_branch(self):
        pred = Box(0.5, 0.0, 10.5, 10.0)
        assert grad_huber(pred, TARGET).components() == (0.5, 0.0, 0.5, 0.0)

    def test_linear_branch_clips_to_delta(self):
        pred = Box(20.0, 0.0, 30.0, 10.0)
        assert grad_huber(pred, TARGET).components() == (1.0, 0.0, 1.0, 0.0)
        pred = Box(-30.0, 0.0, -20.0, 10.0)
        assert grad_huber(pred, TARGET).components() == (-1.0, 0.0, -1.0, 0.0)

    def test_branch_boundary_uses_linear_value(self):
        # Both branches agree at |z| = delta, so the convention is invisible
        # in the value; pin it anyway.
        pred = Box(1.0, 0.0, 11.0, 10.0)
        assert grad_huber(pred, TARGET).components() == (1.0, 0.0, 1.0, 0.0)

    def test_respects_delta(self):
        pred = Box(20.0, 0.0, 30.0, 10.0)
        grads = grad_huber(pred, TARGET, HuberParams(2.0))
        assert grads.components() == (2.0, 0.0, 2.0, 0.0)

    @given(GRID_BOXES, GRID_BOXES)
    def test_matches_central_difference_away_from_kinks(self, pred, target):
        params = HuberParams(1.0)
        for i, z in enumerate(
            p - t for p, t in zip(pred.corners(), target.corners())
        ):
            if abs(abs(z) - 1.0) < 1e-3 or abs(z) < 1e-3:
                continue
            numeric = _central_diff(lambda b: huber_box(b, target, params), pred, i)
            analytic = grad_huber(pred, target, params).components()[i]
            assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-6)


class TestGradSquared:
    def test_is_coordinate_difference(self):
        pred = Box(20.0, 0.0, 30.0, 10.0)
        assert grad_squared(pred, TARGET).components() == (20.0, 0.0, 20.0, 0.0)

    @given(GRID_BOXES, GRID_BOXES)
    def test_exact_on_grid(self, pred, target):
        expected = tuple(p - t for p, t in zip(pred.corners(), target.corners()))
        assert grad_squared(pred, target).components() == expected


# ---------------------------------------------------------------------------
# IoU loss


class TestGradIoULoss:
    def test_partial_overlap_frozen_values(self):
        # pred overlaps the right half of the target and ties on both y
        # edges: I = 50, U = 150. The x components follow from the quotient
        # rule; the y components take the binding-edge convention at the tie.
        pred = Box(5.0, 0.0, 15.0, 10.0)
        grads = grad_iou_loss(pred, TARGET)
        assert grads.d_xmin == 1.0 / 15.0
        assert grads.d_xmax == 1.0 / 45.0
        assert grads.d_ymin == 1.0 / 45.0
        assert grads.d_ymax == -(1.0 / 45.0)

    def test_partial_overlap_x_components_match_central_difference(self):
        pred = Box(5.0, 0.0, 15.0, 10.0)
        grads = grad_iou_loss(pred, TARGET)
        f = lambda b: iou_loss(b, TARGET)
        assert grads.d_xmin == pytest.approx(_central_diff(f, pred, 0), rel=1e-8)
        assert grads.d_xmax == pytest.approx(_central_diff(f, pred, 2), rel=1e-8)

    def test_y_ties_are_kinks_for_central_differences(self):
        # The two one-sided y slopes at the tie are -1/45 and +1/45; a
        # central difference averages them to ~0 while the analytic value is
        # the binding-edge slope.
        pred = Box(5.0, 0.0, 15.0, 10.0)
        f = lambda b: iou_loss(b, TARGET)
        assert _central_diff(f, pred, 1) == pytest.approx(0.0, abs=1e-8)
        assert _central_diff(f, pred, 3) == pytest.approx(0.0, abs=1e-8)

    def test_tie_free_neighbor_matches_central_difference_everywhere(self):
        pred = Box(5.0, 0.5, 15.0, 9.5)
        grads = grad_iou_loss(pred, TARGET)
        f = lambda b: iou_loss(b, TARGET)
        for i, analytic in enumerate(grads.components()):
            assert analytic == pytest.approx(_central_diff(f, pred, i), rel=1e-7)

    def test_identical_boxes(self):
        # Any outward move dilutes the union, any inward move cuts the
        # intersection; with ties binding the gradient pushes corners outward
        # at rate h/U, w/U.
        grads = grad_iou_loss(TARGET, TARGET)
        assert grads.components() == (0.1, 0.1, -0.1, -0.1)

    def test_disjoint_is_exactly_zero(self):
        for pred in (
            Box(20.0, 0.0, 30.0, 10.0),
            Box(-300.0, -300.0, -200.0, -200.0),
            Box(0.0, 10.0, 10.0, 20.0),
        ):
            grads = grad_iou_loss(pred, TARGET)
            assert grads.components() == (0.0, 0.0, 0.0, 0.0)
            for c in grads.components():
                assert math.copysign(1.0, c) == 1.0

    def test_touching_edges_sit_on_the_plateau(self):
        # Zero-width intersection counts as no overlap.
        pred = Box(10.0, 0.0, 20.0, 10.0)
        assert grad_iou_loss(pred, TARGET).components() == (0.0, 0.0, 0.0, 0.0)

    @given(GRID_BOXES, GRID_BOXES, st.integers(-100, 100), st.integers(-100, 100))
    def test_translation_covariance_bitwise(self, pred, target, kx, ky):
        dx, dy = kx * 0.25, ky * 0.25
        moved = grad_iou_loss(pred.shifted(dx, dy), target.shifted(dx, dy))
        assert moved.components() == grad_iou_loss(pred, target).components()


# ---------------------------------------------------------------------------
# blended batch gradient


class TestGradSmoothIoU:
    def test_index_validation(self):
        batch = BoxBatch((TARGET,), (TARGET,))
        with pytest.raises(IndexError):
            grad_smooth_iou(batch, 1)
        with pytest.raises(IndexError):
            grad_smooth_iou(batch, -1)

    def test_is_frozen_weight_combination(self):
        preds = (Box(2, 3, 12, 13), Box(34, 31.5, 52, 48.7), Box(70, 70, 80, 80))
        targets = (Box(0, 0, 10, 10), Box(30, 30, 50, 50), Box(0, 0, 10, 10))
        batch = BoxBatch(preds, targets)
        lam = sum(iou(p, t) for p, t in batch.pairs()) / 3
        for k in range(3):
            expected = tuple(
                lam * a + (1.0 - lam) * b
                for a, b in zip(
                    grad_iou_loss(preds[k], targets[k]).components(),
                    grad_huber(preds[k], targets[k]).components(),
                )
            )
            actual = grad_smooth_iou(batch, k).components()
            assert actual == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_all_disjoint_reproduces_huber_bitwise(self):
        preds = (Box(20, 0, 30, 10), Box(0, 50, 10, 60), Box(-40, -40, -30, -30))
        targets = (TARGET, TARGET, TARGET)
        batch = BoxBatch(preds, targets)
        for k in range(3):
            assert (
                grad_smooth_iou(batch, k).components()
                == grad_huber(preds[k], targets[k]).components()
            )

    def test_all_identical_reproduces_iou_gradient(self):
        batch = BoxBatch((TARGET, TARGET), (TARGET, TARGET))
        for k in range(2):
            assert grad_smooth_iou(batch, k).components() == (0.1, 0.1, -0.1, -0.1)

    def test_matches_central_difference_with_frozen_lam(self):
        preds = (Box(2, 3, 12, 13), Box(34, 31.5, 52, 48.7), Box(70, 70, 80, 80))
        targets = (Box(0, 0, 10, 10), Box(30, 30, 50, 50), Box(0, 0, 10, 10))
        batch = BoxBatch(preds, targets)
        lam = sum(iou(p, t) for p, t in batch.pairs()) / 3
        for k in range(3):
            target = targets[k]
            f = lambda b: lam * iou_loss(b, target) + (1.0 - lam) * huber_box(b, target)
            grads = grad_smooth_iou(batch, k)
            for i, analytic in enumerate(grads.components()):
                numeric = _central_diff(f, preds[k], i)
                assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# descent sanity: a small step against the gradient lowers the loss


class TestDescentDirection:
    def _partial_pairs(self, n: int = 120):
        rng = np.random.default_rng(7)
        pairs = []
        while len(pairs) < n:
            w = float(rng.uniform(8.0, 20.0))
            h = float(rng.uniform(8.0, 20.0))
            cx = float(rng.uniform(20.0, 60.0))
            cy = float(rng.uniform(20.0, 60.0))
            target = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
            pred = Box(
                cx - 0.55 * w + 0.45 * w,
                cy - 0.55 * h + 0.30 * h,
                cx + 0.55 * w + 0.45 * w,
                cy + 0.55 * h + 0.30 * h,
            )
            if iou(pred, target) > 0.0:
                pairs.append((pred, target))
        return pairs

    def _step(self, box: Box, grads: GradVector, eta: float) -> Box:
        return Box(*(c - eta * g for c, g in zip(box.corners(), grads.components())))

    @pytest.mark.parametrize(
        "kind", [LossKind.HUBER, LossKind.SQUARED, LossKind.IOU, LossKind.SMOOTH_IOU]
    )
    def test_negative_gradient_step_decreases_loss(self, kind):
        for pred, target in self._partial_pairs():
            if kind is LossKind.HUBER:
                grads = grad_huber(pred, target)
                f = lambda b: huber_box(b, target)
            elif kind is LossKind.SQUARED:
                grads = grad_squared(pred, target)
                f = lambda b: squared_box(b, target)
            elif kind is LossKind.IOU:
                grads = grad_iou_loss(pred, target)
                f = lambda b: iou_loss(b, target)
            else:
                batch = BoxBatch((pred,), (target,))
                grads = grad_smooth_iou(batch, 0)
                lam = iou(pred, target)
                f = lambda b: lam * iou_loss(b, target) + (1.0 - lam) * huber_box(
                    b, target
                )
            scale = max(abs(g) for g in grads.components())
            assert scale > 0.0
            eta = 1e-4 / (1.0 + scale)
            assert f(self._step(pred, grads, eta)) < f(pred)


# ---------------------------------------------------------------------------
# finite-difference checker


class TestFiniteDiffCheck:
    def test_regimes_constant(self):
        assert REGIMES == ("mixed", "partial", "nested", "shifted", "disjoint")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GradCheckConfig(num_samples=0)
        with pytest.raises(ValueError):
            GradCheckConfig(regime="sideways")

    def test_step_and_tolerance_validation(self):
        with pytest.raises(ValueError):
            finite_diff_check(LossKind.HUBER, step=1e-2)
        with pytest.raises(ValueError):
            finite_diff_check(LossKind.HUBER, step=1e-8)
        with pytest.raises(ValueError):
            finite_diff_check(LossKind.HUBER, tolerance=0.0)
        with pytest.raises(ValueError):
            finite_diff_check(LossKind.HUBER, tolerance=math.nan)
        with pytest.raises(ValueError):
            finite_diff_check(LossKind.HUBER, step=math.nan)

    @pytest.mark.parametrize(
        "kind", [LossKind.HUBER, LossKind.SQUARED, LossKind.IOU, LossKind.SMOOTH_IOU]
    )
    def test_all_kinds_pass_under_default_tolerance(self, kind):
        config = GradCheckConfig(num_samples=300, regime="mixed", seed=0)
        result = finite_diff_check(kind, config)
        assert isinstance(result, GradCheckResult)
        assert result.max_relative_error < 1e-4
        assert result.num_points_checked + result.num_skipped_near_kink == 300
        assert result.num_points_checked > 0

    def test_disjoint_iou_error_is_exactly_zero(self):
        # Plateau everywhere: analytic and numeric are both exactly 0.
        config = GradCheckConfig(num_samples=200, regime="disjoint", seed=3)
        result = finite_diff_check(LossKind.IOU, config)
        assert result.max_relative_error == 0.0
        assert result.num_points_checked > 0

    def test_deterministic_for_fixed_seed(self):
        config = GradCheckConfig(num_samples=100, regime="partial", seed=11)
        a = finite_diff_check(LossKind.SMOOTH_IOU, config)
        b = finite_diff_check(LossKind.SMOOTH_IOU, config)
        assert a == b

    def test_accepts_string_kind(self):
        config = GradCheckConfig(num_samples=50, seed=2)
        result = finite_diff_check("squared", config)
        assert result.max_relative_error < 1e-4
