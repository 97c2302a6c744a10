"""The (K, 4) array kernel against the scalar single-pair functions.

Every row of the array IoU, loss and gradient kernels must equal the scalar
reference bitwise, so +0.0 and -0.0 are told apart, and so are NaNs of
either sign. Batches mix pairs that overlap, pairs on the IoU plateau, pairs
with a shared edge, zero-width boxes and identical pairs.
"""

import struct

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from boxloss import (
    Box,
    BoxBatch,
    HuberParams,
    LossKind,
    grad_huber,
    grad_iou_loss,
    grad_squared,
    huber_box,
    iou,
    iou_loss,
    squared_box,
)
from boxloss.boxes import iou_array
from boxloss.gradients import _PAIR_GRAD
from boxloss.losses import _LOSSES

# Small integers make shared edges, zero widths and exact touching common;
# -0.0 exercises the signed-zero cases of the clamps.
_COORD = st.one_of(
    st.integers(-6, 6).map(float),
    st.just(-0.0),
    st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _boxes(draw, min_size: float = 0.0) -> Box:
    x0, x1 = sorted((draw(_COORD), draw(_COORD)))
    y0, y1 = sorted((draw(_COORD), draw(_COORD)))
    return Box(x0, y0, x1 + min_size, y1 + min_size)


@st.composite
def _disjoint_pair(draw) -> tuple[Box, Box]:
    target = draw(_boxes())
    gap = draw(st.floats(0.5, 30.0))
    pred = draw(_boxes())
    # Slide pred entirely beyond target's right edge.
    dx = target.xmax + gap - pred.xmin
    return pred.shifted(dx, 0.0), target


_PAIR = st.one_of(
    st.tuples(_boxes(), _boxes()),
    _boxes().map(lambda b: (b, b)),
    _disjoint_pair(),
    _boxes().map(lambda b: (b.shifted(b.width, 0.0), b)),  # shared edge
)
_BATCH = st.lists(_PAIR, min_size=1, max_size=12)
_DELTA = st.floats(0.1, 5.0)


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def _arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    return BoxBatch(tuple(p for p, _ in pairs), tuple(t for _, t in pairs)).arrays()


def _mean_iou(pairs) -> float:
    return sum(iou(p, t) for p, t in pairs) / len(pairs)


@given(_BATCH)
def test_iou_rows_match_scalar(pairs):
    pred, target = _arrays(pairs)
    assert _bits(iou_array(pred, target).tolist()) == _bits(iou(p, t) for p, t in pairs)


@given(_BATCH, _DELTA)
def test_loss_rows_match_scalar(pairs, delta):
    params = HuberParams(delta)
    lam = _mean_iou(pairs)
    expected = {
        LossKind.HUBER: [huber_box(p, t, params) for p, t in pairs],
        LossKind.SQUARED: [squared_box(p, t) for p, t in pairs],
        LossKind.IOU: [iou_loss(p, t) for p, t in pairs],
        LossKind.SMOOTH_IOU: [
            lam * iou_loss(p, t) + (1.0 - lam) * huber_box(p, t, params) for p, t in pairs
        ],
    }
    pred, target = _arrays(pairs)
    ious = iou_array(pred, target)
    for kind, reference in expected.items():
        rows = _LOSSES[kind](pred, target, ious, lam, params).tolist()
        assert _bits(rows) == _bits(reference), kind


# The second pair's union is subnormal, so its square underflows to 0.
@given(_BATCH, _DELTA)
@example(
    pairs=[
        (Box(-0.0, -0.0, 0.0, 2.0), Box(-0.0, 0.0, 0.0, 0.0)),
        (Box(0.0, -0.0, 1.0, 2.2250738585072014e-308),) * 2,
    ],
    delta=0.7,
)
def test_gradient_rows_match_scalar(pairs, delta):
    params = HuberParams(delta)
    lam = _mean_iou(pairs)

    def smooth(p, t):
        gi = grad_iou_loss(p, t).components()
        gh = grad_huber(p, t, params).components()
        return [lam * a + (1.0 - lam) * b for a, b in zip(gi, gh)]

    expected = {
        LossKind.HUBER: lambda p, t: grad_huber(p, t, params).components(),
        LossKind.SQUARED: lambda p, t: grad_squared(p, t).components(),
        LossKind.IOU: lambda p, t: grad_iou_loss(p, t).components(),
        LossKind.SMOOTH_IOU: smooth,
    }
    pred, target = _arrays(pairs)
    for kind, reference in expected.items():
        rows = _PAIR_GRAD[kind](pred, target, lam, params)
        assert rows.shape == (len(pairs), 4)
        for row, (p, t) in zip(rows.tolist(), pairs):
            assert _bits(row) == _bits(reference(p, t)), kind


@given(st.lists(_disjoint_pair(), min_size=1, max_size=12), _DELTA)
def test_all_disjoint_batch_reproduces_huber_rows(pairs, delta):
    params = HuberParams(delta)
    pred, target = _arrays(pairs)
    ious = iou_array(pred, target)
    lam = sum(ious.tolist()) / len(pairs)
    assert lam == 0.0
    smooth = _LOSSES[LossKind.SMOOTH_IOU](pred, target, ious, lam, params)
    huber = _LOSSES[LossKind.HUBER](pred, target, ious, lam, params)
    assert _bits(smooth.tolist()) == _bits(huber.tolist())
    smooth = _PAIR_GRAD[LossKind.SMOOTH_IOU](pred, target, lam, params)
    huber = _PAIR_GRAD[LossKind.HUBER](pred, target, lam, params)
    assert _bits(smooth.ravel().tolist()) == _bits(huber.ravel().tolist())


@given(st.lists(_boxes(min_size=0.5), min_size=1, max_size=12), _DELTA)
def test_all_identical_batch_gives_exact_zeros(boxes, delta):
    pred = target = BoxBatch(tuple(boxes), tuple(boxes)).arrays()[0]
    ious = iou_array(pred, target)
    lam = sum(ious.tolist()) / len(boxes)
    assert lam == 1.0
    losses = _LOSSES[LossKind.SMOOTH_IOU](pred, target, ious, lam, HuberParams(delta))
    assert _bits(losses.tolist()) == _bits([0.0] * len(boxes))
