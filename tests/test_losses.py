"""Loss values: Huber branches, squared, IoU loss, and the blended batch loss
with its exact limit behavior."""

import functools
import math
import operator
import statistics
import struct

import numpy as np
import pytest
import reference
from hypothesis import example, given
from hypothesis import strategies as st

from boxloss import (
    Box,
    BoxBatch,
    HuberParams,
    LossKind,
    huber_box,
    huber_scalar,
    iou,
    iou_loss,
    loss_batch,
    smooth_iou_batch,
    squared_box,
)
from boxloss.boxes import _IEEE
from boxloss.losses import _mean

TARGET = Box(0.0, 0.0, 10.0, 10.0)

BOXES = st.builds(
    lambda x0, y0, w, h: Box(x0, y0, x0 + w, y0 + h),
    st.floats(-30.0, 30.0),
    st.floats(-30.0, 30.0),
    st.floats(0.5, 25.0),
    st.floats(0.5, 25.0),
)

PAIR_LISTS = st.lists(st.tuples(BOXES, BOXES), min_size=1, max_size=8)


def _batch(pairs) -> BoxBatch:
    return BoxBatch(tuple(p for p, _ in pairs), tuple(t for _, t in pairs))


# ---------------------------------------------------------------------------
# scalar huber


class TestHuberScalar:
    def test_zero(self):
        assert huber_scalar(0.0) == 0.0

    def test_quadratic_branch(self):
        assert huber_scalar(0.5) == 0.125

    def test_linear_branch(self):
        assert huber_scalar(2.0) == 1.5

    def test_branches_meet_at_delta(self):
        for delta in (1.0, 1.25, 1.5, 1.75, 2.0, 0.3):
            params = HuberParams(delta)
            quadratic = 0.5 * delta * delta
            linear = delta * delta - 0.5 * delta * delta
            assert quadratic == linear
            assert huber_scalar(delta, params) == quadratic
            assert huber_scalar(-delta, params) == quadratic

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            HuberParams(0.0)
        with pytest.raises(ValueError):
            HuberParams(-1.0)
        with pytest.raises(ValueError):
            HuberParams(math.inf)
        for value in (True, "1"):
            with pytest.raises(ValueError, match=rf"^delta must be a number, got {value!r}$"):
                HuberParams(value)
        with pytest.raises(ValueError, match=r"^delta is too large for a float$"):
            HuberParams(10**400)

    # 0.5 * z * z is subnormal in the first example; 0.5 * z**2 would round it
    # twice. In the second, the library pow gives delta**2 one ulp away from
    # the correctly rounded delta * delta.
    @given(st.floats(-50.0, 50.0), st.floats(0.1, 5.0))
    @example(z=1.2394511199745166e-160, delta=1.0)
    @example(z=4.0, delta=3.5459711189894074)
    def test_matches_piecewise_reference(self, z, delta):
        params = HuberParams(delta)
        assert huber_scalar(z, params) == reference.huber_scalar(z, params)

    @given(st.floats(-50.0, 50.0), st.floats(0.1, 5.0))
    @example(z=1.2394511199745166e-160, delta=1.0)
    def test_below_half_square_with_equality_inside(self, z, delta):
        value = huber_scalar(z, HuberParams(delta))
        half_square = 0.5 * z * z
        if abs(z) <= delta:
            assert value == half_square
        else:
            assert value < half_square


# ---------------------------------------------------------------------------
# box losses


class TestBoxLosses:
    def test_huber_identity(self):
        assert huber_box(TARGET, TARGET) == 0.0

    def test_huber_small_shift(self):
        # x shifted by 0.5: two coordinates inside the quadratic branch.
        pred = Box(0.5, 0.0, 10.5, 10.0)
        assert huber_box(pred, TARGET) == 0.25

    def test_huber_large_shift(self):
        # x shifted by 20: two linear-branch terms of 19.5 each.
        pred = Box(20.0, 0.0, 30.0, 10.0)
        assert huber_box(pred, TARGET) == 39.0

    def test_squared_identity(self):
        assert squared_box(TARGET, TARGET) == 0.0

    def test_squared_small_shift(self):
        pred = Box(0.5, 0.0, 10.5, 10.0)
        assert squared_box(pred, TARGET) == 0.25

    def test_squared_large_shift(self):
        pred = Box(20.0, 0.0, 30.0, 10.0)
        assert squared_box(pred, TARGET) == 400.0

    def test_iou_loss_identity(self):
        assert iou_loss(TARGET, TARGET) == 0.0

    def test_iou_loss_disjoint_plateau(self):
        assert iou_loss(Box(20, 0, 30, 10), TARGET) == 1.0
        assert iou_loss(Box(200, 0, 210, 10), TARGET) == 1.0

    def test_iou_loss_two_thirds(self):
        value = iou_loss(Box(40, 30, 60, 50), Box(30, 30, 50, 50))
        assert value == pytest.approx(2.0 / 3.0, rel=1e-12)

    @given(BOXES, BOXES, st.floats(0.1, 5.0))
    def test_huber_box_sums_coordinates(self, pred, target, delta):
        params = HuberParams(delta)
        expected = sum(
            reference.huber_scalar(p - t, params)
            for p, t in zip(pred.corners(), target.corners())
        )
        assert huber_box(pred, target, params) == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------------------
# smooth batch loss


class TestSmoothIoUBatch:
    def test_single_identical_pair(self):
        report = smooth_iou_batch(BoxBatch((TARGET,), (TARGET,)))
        assert report.lam == 1.0
        assert report.per_example_loss == (0.0,)
        assert report.reduced_loss == 0.0

    def test_all_disjoint_reproduces_huber_bitwise(self):
        preds = (Box(20, 0, 30, 10), Box(0, 50, 10, 60), Box(-40, -40, -30, -30))
        targets = (TARGET, TARGET, TARGET)
        report = smooth_iou_batch(BoxBatch(preds, targets))
        assert report.lam == 0.0
        for loss, pred, target in zip(report.per_example_loss, preds, targets):
            assert loss == huber_box(pred, target)

    def test_two_pair_worked_example(self):
        # Pair A identical (IoU 1, Huber 0); pair B disjoint with Huber 39.
        batch = BoxBatch((TARGET, Box(20, 0, 30, 10)), (TARGET, TARGET))
        report = smooth_iou_batch(batch)
        assert report.lam == 0.5
        assert report.per_example_loss == (0.0, 20.0)
        assert report.reduced_loss == 10.0
        assert report.per_example_iou == (1.0, 0.0)

    def test_all_identical_batch_exact_zero(self):
        boxes = (TARGET, Box(5, 5, 7, 9), Box(-3, 0, 4, 2))
        report = smooth_iou_batch(BoxBatch(boxes, boxes))
        assert report.lam == 1.0
        assert report.per_example_loss == (0.0, 0.0, 0.0)
        assert report.reduced_loss == 0.0

    @given(PAIR_LISTS)
    def test_recomposition(self, pairs):
        """Reported fields recompose from per-pair IoU and Huber values."""
        batch = _batch(pairs)
        report = smooth_iou_batch(batch)
        ious = [iou(p, t) for p, t in pairs]
        assert report.lam == pytest.approx(statistics.fmean(ious), rel=0, abs=1e-12)
        for loss, i, (p, t) in zip(report.per_example_loss, ious, pairs):
            blend = report.lam * (1.0 - i) + (1.0 - report.lam) * huber_box(p, t)
            assert loss == blend
        assert report.reduced_loss == pytest.approx(
            statistics.fmean(report.per_example_loss), rel=0, abs=1e-12
        )

    @given(PAIR_LISTS)
    def test_invariants(self, pairs):
        report = smooth_iou_batch(_batch(pairs))
        assert 0.0 <= report.lam <= 1.0
        for loss, i, (p, t) in zip(
            report.per_example_loss, report.per_example_iou, pairs
        ):
            assert loss >= 0.0
            lo = min(1.0 - i, huber_box(p, t))
            hi = max(1.0 - i, huber_box(p, t))
            slack = 1e-12 * max(1.0, hi)
            assert lo - slack <= loss <= hi + slack

    @given(PAIR_LISTS, st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, pairs, rnd):
        batch = _batch(pairs)
        report = smooth_iou_batch(batch)
        shuffled = list(range(len(pairs)))
        rnd.shuffle(shuffled)
        permuted = _batch([pairs[i] for i in shuffled])
        permuted_report = smooth_iou_batch(permuted)
        assert permuted_report.lam == pytest.approx(report.lam, rel=0, abs=1e-12)
        assert permuted_report.reduced_loss == pytest.approx(
            report.reduced_loss, rel=0, abs=1e-12
        )
        for new_pos, old_pos in enumerate(shuffled):
            # Identical lam makes the blend bitwise; allow for the mean's
            # summation-order wobble.
            assert permuted_report.per_example_loss[new_pos] == pytest.approx(
                report.per_example_loss[old_pos], rel=1e-12, abs=1e-12
            )


# ---------------------------------------------------------------------------
# dispatch


class TestLossBatch:
    def test_huber_kind(self):
        batch = BoxBatch((TARGET, Box(20, 0, 30, 10)), (TARGET, TARGET))
        report = loss_batch(batch, LossKind.HUBER)
        assert report.lam == 0.0
        assert report.per_example_loss == (0.0, 39.0)
        assert report.reduced_loss == 19.5
        assert report.per_example_iou == (1.0, 0.0)

    def test_squared_kind(self):
        batch = BoxBatch((Box(20, 0, 30, 10),), (TARGET,))
        report = loss_batch(batch, LossKind.SQUARED)
        assert report.lam == 0.0
        assert report.per_example_loss == (400.0,)

    def test_iou_kind(self):
        batch = BoxBatch((Box(20, 0, 30, 10), TARGET), (TARGET, TARGET))
        report = loss_batch(batch, LossKind.IOU)
        assert report.lam == 1.0
        assert report.per_example_loss == (1.0, 0.0)
        assert report.reduced_loss == 0.5

    def test_smooth_kind_matches_smooth_iou_batch(self):
        batch = BoxBatch((TARGET, Box(20, 0, 30, 10)), (TARGET, TARGET))
        assert loss_batch(batch, LossKind.SMOOTH_IOU) == smooth_iou_batch(batch)

    def test_accepts_string_kind(self):
        batch = BoxBatch((TARGET,), (TARGET,))
        assert loss_batch(batch, "huber").reduced_loss == 0.0

    @pytest.mark.parametrize("kind", ["giou", []])
    def test_unknown_kind_names_the_argument(self, kind):
        batch = BoxBatch((TARGET,), (TARGET,))
        with pytest.raises(ValueError) as exc:
            loss_batch(batch, kind)
        assert str(exc.value) == (
            f"kind must be one of 'huber', 'squared', 'iou', 'smooth_iou', got {kind!r}"
        )

    @given(PAIR_LISTS)
    def test_iou_always_populated(self, pairs):
        batch = _batch(pairs)
        for kind in LossKind:
            report = loss_batch(batch, kind)
            assert len(report.per_example_iou) == len(pairs)
            assert all(0.0 <= v <= 1.0 for v in report.per_example_iou)


# ---------------------------------------------------------------------------
# the one reduction


class TestMean:
    def test_sums_left_to_right_not_compensated(self):
        # Compensated summation (Python's sum since 3.12) gives 1/3 here.
        assert _mean(np.array([1e16, 1.0, -1e16])).hex() == (0.0).hex()

    def test_negative_zeros_sum_to_positive_zero(self):
        assert _mean(np.array([-0.0, -0.0, -0.0])).hex() == (0.0).hex()

    # Under _IEEE, as every caller runs it: a sum may overflow or meet inf - inf.
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=30))
    @example([1e16, 1.0, -1e16])
    @example([-0.0])
    @example([-0.0, 0.0, -0.0])
    @example([1e308, 1e308, -1e308])
    @example([math.inf, -math.inf, 1.0])
    @_IEEE
    def test_is_a_left_to_right_reduce_from_zero(self, xs):
        want = functools.reduce(operator.add, xs, 0.0) / len(xs)
        got = _mean(np.array(xs))
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)
