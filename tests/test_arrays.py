"""The (K, 4) array kernel against independent scalar single-pair code.

Every row of the array IoU, loss and gradient kernels must equal the scalar
reference bitwise, so +0.0 and -0.0 are told apart, and so are NaNs of
either sign. The IoU reference is `boxloss.iou`, which stays scalar; the
loss and gradient references are in `reference.py`. The public single-pair
loss and gradient functions are one-row calls of the kernel, so they are
checked against the same references, and must return Python floats. Batches
mix pairs that overlap, pairs on the IoU plateau, pairs with a shared edge,
zero-width boxes and identical pairs; the `@example`s pin the cases that
tell the kernel's kink conventions and summation order apart, so a clean
checkout tests them without a saved Hypothesis database. The kernels assume
their caller has entered `_IEEE`, so the tests that call them directly enter
it themselves, as the public entry points do.
"""

import struct
import warnings

import numpy as np
import reference
from hypothesis import example, given
from hypothesis import strategies as st

from boxloss import gradients
from boxloss import (
    Box,
    BoxBatch,
    GradCheckConfig,
    GradVector,
    HuberParams,
    LossKind,
    SweepConfig,
    grad_huber,
    grad_iou_loss,
    grad_smooth_iou,
    grad_squared,
    huber_box,
    huber_scalar,
    iou,
    iou_loss,
    loss_batch,
    squared_box,
    sweep_mismatch,
)
from boxloss.boxes import _IEEE, iou_array
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
@_IEEE
def test_iou_rows_match_scalar(pairs):
    pred, target = _arrays(pairs)
    assert _bits(iou_array(pred, target).tolist()) == _bits(iou(p, t) for p, t in pairs)


# The first example's corner terms 1.125, 2**-53, 2**-53, 2**-53 sum to 1.125
# left to right and to 1.125 + 2**-52 in any other grouping. At the second
# example's lam, lam * a + (1 - lam) * b and b + lam * (a - b) round differently.
@given(_BATCH, _DELTA)
@example(
    pairs=[(Box(1.5, 2**-26, 2.0 + 2**-26, 1.0 + 2**-26), Box(0.0, 0.0, 2.0, 1.0))], delta=2.0
)
@example(pairs=[(Box(-3.0, 0.0, 4.0, 5.0), Box(-6.0, -3.0, 2.0, 6.0))], delta=1.0)
@_IEEE
def test_loss_rows_match_scalar(pairs, delta):
    params = HuberParams(delta)
    lam = _mean_iou(pairs)
    expected = {
        LossKind.HUBER: [reference.huber_box(p, t, params) for p, t in pairs],
        LossKind.SQUARED: [reference.squared_box(p, t) for p, t in pairs],
        LossKind.IOU: [iou_loss(p, t) for p, t in pairs],
        LossKind.SMOOTH_IOU: [
            lam * iou_loss(p, t) + (1.0 - lam) * reference.huber_box(p, t, params)
            for p, t in pairs
        ],
    }
    pred, target = _arrays(pairs)
    ious = iou_array(pred, target)
    for kind, rows in expected.items():
        kernel = _LOSSES[kind](pred, target, ious, lam, params).tolist()
        assert _bits(kernel) == _bits(rows), kind

    views = {
        LossKind.HUBER: lambda p, t: huber_box(p, t, params),
        LossKind.SQUARED: squared_box,
    }
    for kind, view in views.items():
        values = [view(p, t) for p, t in pairs]
        assert all(type(v) is float for v in values), kind
        assert _bits(values) == _bits(expected[kind]), kind
    zs = [a - b for p, t in pairs for a, b in zip(p.corners(), t.corners())]
    values = [huber_scalar(z, params) for z in zs]
    assert all(type(v) is float for v in values)
    assert _bits(values) == _bits(reference.huber_scalar(z, params) for z in zs)


# The first pair's union is subnormal, so its square underflows to 0. The
# identical pair ties every edge, the shifted pair touches along one edge, and
# the last pair's lam tells the two ways of writing the blend apart.
@given(_BATCH, _DELTA)
@example(
    pairs=[
        (Box(-0.0, -0.0, 0.0, 2.0), Box(-0.0, 0.0, 0.0, 0.0)),
        (Box(0.0, -0.0, 1.0, 2.2250738585072014e-308),) * 2,
    ],
    delta=0.7,
)
@example(pairs=[(Box(0.0, 0.0, 2.0, 3.0),) * 2], delta=1.0)
@example(pairs=[(Box(1.0, 0.0, 2.0, 1.0), Box(0.0, 0.0, 1.0, 1.0))], delta=1.0)
@example(pairs=[(Box(-3.0, 0.0, 4.0, 5.0), Box(-6.0, -3.0, 2.0, 6.0))], delta=1.0)
@_IEEE
def test_gradient_rows_match_scalar(pairs, delta):
    params = HuberParams(delta)
    lam = _mean_iou(pairs)

    def smooth(p, t):
        gi = reference.grad_iou_loss(p, t).components()
        gh = reference.grad_huber(p, t, params).components()
        return [lam * a + (1.0 - lam) * b for a, b in zip(gi, gh)]

    expected = {
        LossKind.HUBER: lambda p, t: reference.grad_huber(p, t, params).components(),
        LossKind.SQUARED: lambda p, t: reference.grad_squared(p, t).components(),
        LossKind.IOU: lambda p, t: reference.grad_iou_loss(p, t).components(),
        LossKind.SMOOTH_IOU: smooth,
    }
    pred, target = _arrays(pairs)
    for kind, single in expected.items():
        rows = _PAIR_GRAD[kind](pred, target, lam, params)
        assert rows.shape == (len(pairs), 4)
        for row, (p, t) in zip(rows.tolist(), pairs):
            assert _bits(row) == _bits(single(p, t)), kind

    views = {
        LossKind.HUBER: lambda p, t: grad_huber(p, t, params),
        LossKind.SQUARED: grad_squared,
        LossKind.IOU: grad_iou_loss,
    }
    for kind, view in views.items():
        for p, t in pairs:
            grad = view(p, t)
            assert type(grad) is GradVector, kind
            assert all(type(c) is float for c in grad.components()), kind
            assert _bits(grad.components()) == _bits(expected[kind](p, t)), kind


@given(st.lists(_disjoint_pair(), min_size=1, max_size=12), _DELTA)
@_IEEE
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


# Corners near the largest float: the boxes' widths, areas and corner
# differences overflow, and the union is inf - inf.
_HUGE = (
    Box(-1.7e308, -1.7e308, 1.7e308, 1.7e308),
    Box(1e308, -1e308, 1.7e308, 1.6e308),
)


def test_entry_points_overflow_without_warnings(monkeypatch):
    # The kernels leave errstate to the public entry points that reach them.
    pred, target = _HUGE
    batch = BoxBatch(_HUGE, _HUGE[::-1])
    corners = pred.corners() + target.corners()
    monkeypatch.setattr(gradients, "_sample_pair", lambda rng, regime: corners)
    huge_sweep = SweepConfig(
        target=Box(-1e308, -1e308, 1e308, 1e308),
        pred_width=1.5e308,
        pred_height=1.5e308,
        y_center=0.0,
        x_center_start=-1e307,
        x_center_end=1e307,
        num_samples=5,
    )
    calls = {
        "huber_box": lambda: huber_box(pred, target),
        "squared_box": lambda: squared_box(pred, target),
        "grad_huber": lambda: grad_huber(pred, target),
        "grad_squared": lambda: grad_squared(pred, target),
        "grad_iou_loss": lambda: grad_iou_loss(pred, target),
        "grad_smooth_iou": lambda: grad_smooth_iou(batch, 1),
        "_check_kinds": lambda: gradients._check_kinds(
            list(LossKind), GradCheckConfig(num_samples=3), 1e-4, 1e-5
        ),
        "sweep_mismatch": lambda: sweep_mismatch(huge_sweep),
        **{
            f"loss_batch[{kind.value}]": lambda kind=kind: loss_batch(batch, kind)
            for kind in LossKind
        },
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [str(w.message) for w in caught] == [], name
