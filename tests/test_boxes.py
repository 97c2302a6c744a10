"""Box geometry: construction invariants, transforms, areas, IoU, and the
pixel-grid oracle that cross-checks the closed form; and the one check of
the settings that must be finite and positive, at every caller."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxloss import (
    Box,
    BoxBatch,
    BoxYXHW,
    FitConfig,
    HuberParams,
    LossKind,
    SweepConfig,
    area,
    finite_diff_check,
    intersection_dims,
    iou,
    iou_pixel_oracle,
    sweep_mismatch,
    to_yxhw,
    transform,
)

# Coordinates snapped to a quarter-unit grid are exactly representable, and
# so are their sums and differences within these ranges. The exact-equality
# and tight-tolerance properties below use this strategy; sliver overlaps
# thinner than 0.25 units cannot occur on it.
GRID_BOXES = st.builds(
    lambda i, j, w, h: Box(i * 0.25, j * 0.25, (i + w) * 0.25, (j + h) * 0.25),
    st.integers(-200, 200),
    st.integers(-200, 200),
    st.integers(4, 160),
    st.integers(4, 160),
)

FREE_BOXES = st.builds(
    lambda x0, y0, w, h: Box(x0, y0, x0 + w, y0 + h),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(0.0, 40.0),
    st.floats(0.0, 40.0),
)


def _rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=0.0)


# ---------------------------------------------------------------------------
# construction


class TestBoxConstruction:
    def test_degenerate_allowed(self):
        b = Box(3.0, 3.0, 3.0, 8.0)
        assert b.width == 0.0 and b.height == 5.0

    def test_inverted_x_rejected(self):
        with pytest.raises(ValueError):
            Box(5.0, 0.0, 4.0, 1.0)

    def test_inverted_y_rejected(self):
        with pytest.raises(ValueError):
            Box(0.0, 5.0, 1.0, 4.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Box(0.0, 0.0, math.inf, 1.0)
        with pytest.raises(ValueError):
            Box(math.nan, 0.0, 1.0, 1.0)

    def test_coordinates_coerced_to_float(self):
        b = Box(0, 0, 10, 10)
        assert all(isinstance(c, float) for c in b.corners())

    def test_yxhw_rejects_negative_extent(self):
        with pytest.raises(ValueError):
            BoxYXHW(y1=5.0, x1=5.0, h=-1.0, w=2.0)
        with pytest.raises(ValueError):
            BoxYXHW(y1=5.0, x1=5.0, h=1.0, w=-2.0)

    def test_yxhw_rejects_non_finite_field(self):
        with pytest.raises(ValueError, match=r"^y1 must be finite, got nan$"):
            BoxYXHW(y1=math.nan, x1=0.0, h=1.0, w=1.0)
        with pytest.raises(ValueError, match=r"^w must be finite, got inf$"):
            BoxYXHW(y1=0.0, x1=0.0, h=1.0, w=math.inf)

    def test_scaled_rejects_non_positive_factor(self):
        b = Box(1.0, 2.0, 3.0, 4.0)
        assert b.scaled(2.0) == Box(2.0, 4.0, 6.0, 8.0)
        for s in (0.0, -1.0):
            with pytest.raises(ValueError, match=rf"^s must be finite and positive, got {s}$"):
                b.scaled(s)

    def test_batch_requires_equal_lengths(self):
        a = Box(0, 0, 1, 1)
        with pytest.raises(ValueError):
            BoxBatch((a, a), (a,))

    def test_batch_rejects_empty(self):
        with pytest.raises(ValueError):
            BoxBatch((), ())


# ---------------------------------------------------------------------------
# transform


class TestTransform:
    def test_example(self):
        assert transform(BoxYXHW(y1=10.0, x1=20.0, h=30.0, w=40.0)) == Box(
            20.0, 10.0, 60.0, 40.0
        )

    def test_degenerate(self):
        assert transform(BoxYXHW(y1=0.0, x1=0.0, h=0.0, w=5.0)) == Box(0.0, 0.0, 5.0, 0.0)

    @given(GRID_BOXES)
    def test_round_trip_exact_on_grid(self, box):
        """Corner -> yxhw -> corner is exact whenever the coordinate
        differences are exactly representable, as they are on this grid."""
        assert transform(to_yxhw(box)) == box


# ---------------------------------------------------------------------------
# area and intersection


class TestAreaIntersection:
    def test_area_square(self):
        assert area(Box(0.0, 0.0, 10.0, 10.0)) == 100.0

    def test_area_degenerate(self):
        assert area(Box(3.0, 3.0, 3.0, 8.0)) == 0.0

    def test_area_rectangle_vs_pixel_count(self):
        b = Box(2.5, 1.0, 7.5, 4.0)
        assert area(b) == 15.0
        # Independent estimate: count cell centers of a fine grid over
        # [0, 10] x [0, 10] lying inside, times the cell area.
        n = 1000
        centers = (np.arange(n) + 0.5) * (10.0 / n)
        inside_x = (centers >= b.xmin) & (centers <= b.xmax)
        inside_y = (centers >= b.ymin) & (centers <= b.ymax)
        estimate = int(inside_x.sum()) * int(inside_y.sum()) * (10.0 / n) ** 2
        assert estimate == pytest.approx(15.0, abs=0.05)

    def test_dims_identical(self):
        b = Box(0.0, 0.0, 10.0, 10.0)
        assert intersection_dims(b, b) == (10.0, 10.0)

    def test_dims_disjoint_x_clamped(self):
        assert intersection_dims(Box(0, 0, 10, 10), Box(20, 0, 30, 10)) == (0.0, 10.0)

    def test_dims_partial(self):
        assert intersection_dims(Box(0, 0, 10, 10), Box(5, -2, 20, 8)) == (5.0, 8.0)


# ---------------------------------------------------------------------------
# iou


class TestIoU:
    def test_identical_exactly_one(self):
        b = Box(0.0, 0.0, 10.0, 10.0)
        assert iou(b, b) == 1.0

    def test_disjoint_exactly_zero(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 0, 30, 10)) == 0.0

    def test_one_third_case(self):
        # 20x20 boxes offset by 10 in x: I = 200, U = 600.
        value = iou(Box(40, 30, 60, 50), Box(30, 30, 50, 50))
        assert value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_both_degenerate_zero_by_convention(self):
        a = Box(1.0, 1.0, 1.0, 5.0)
        assert iou(a, a) == 0.0

    def test_degenerate_against_positive(self):
        assert iou(Box(1, 1, 1, 5), Box(0, 0, 10, 10)) == 0.0

    @given(FREE_BOXES, FREE_BOXES)
    def test_range(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0

    @given(FREE_BOXES, FREE_BOXES)
    def test_symmetry_exact(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(GRID_BOXES)
    def test_identity_exact(self, box):
        assert iou(box, box) == 1.0

    @given(GRID_BOXES, GRID_BOXES, st.floats(0.1, 10.0))
    def test_scale_invariance(self, a, b, s):
        assert _rel_close(iou(a.scaled(s), b.scaled(s)), iou(a, b))

    @given(GRID_BOXES, GRID_BOXES, st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
    def test_translation_invariance(self, a, b, dx, dy):
        assert _rel_close(iou(a.shifted(dx, dy), b.shifted(dx, dy)), iou(a, b))


# ---------------------------------------------------------------------------
# pixel oracle


class TestPixelOracle:
    def test_identical_exactly_one(self):
        b = Box(0.0, 0.0, 10.0, 10.0)
        assert iou_pixel_oracle(b, b) == 1.0

    def test_disjoint_exactly_zero(self):
        assert iou_pixel_oracle(Box(0, 0, 10, 10), Box(20, 0, 30, 10)) == 0.0

    def test_one_third_case(self):
        est = iou_pixel_oracle(Box(40, 30, 60, 50), Box(30, 30, 50, 50))
        assert est == pytest.approx(1.0 / 3.0, abs=1e-2)

    def test_rejects_bad_resolution(self):
        b = Box(0, 0, 1, 1)
        for resolution, message in [
            (0, "resolution must be >= 1, got 0"),
            (True, "resolution must be an integer, got True"),
            (2.5, "resolution must be an integer, got 2.5"),
            (math.nan, "resolution must be an integer, got nan"),
        ]:
            with pytest.raises(ValueError) as exc:
                iou_pixel_oracle(b, b, resolution=resolution)
            assert str(exc.value) == message

    def test_zero_extent_frame_is_one_cell_wide(self):
        # Both boxes lie on the line x = 1, so the frame has no width; one
        # column of cells at x = 1 keeps the counts defined: 300 of 800 rows.
        a, b = Box(1.0, 0.0, 1.0, 5.0), Box(1.0, 2.0, 1.0, 8.0)
        assert iou_pixel_oracle(a, b) == 300 / 800
        assert iou_pixel_oracle(a, a) == 1.0

    def test_rejects_a_frame_past_the_cell_limit(self):
        # 1e8 cells along x at 100 per unit; refused before any allocation.
        with pytest.raises(ValueError, match=r"exceeds the 50000000 limit"):
            iou_pixel_oracle(Box(0.0, 0.0, 1e6, 1.0), Box(0.0, 0.0, 1.0, 1.0))

    def test_boxes_between_cell_centres_have_an_empty_union(self):
        # Two zero-width boxes on either side of the one cell centre, x = 0.002:
        # no cell counts toward either, and the union count is 0.
        a, b = Box(0.001, 0.0, 0.001, 1.0), Box(0.003, 0.0, 0.003, 1.0)
        assert iou_pixel_oracle(a, b) == 0.0

    def test_agrees_with_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            ax, ay, bx, by = rng.uniform(0.0, 60.0, size=4)
            aw, ah, bw, bh = rng.uniform(1.0, 30.0, size=4)
            a = Box(ax, ay, ax + aw, ay + ah)
            b = Box(bx, by, bx + bw, by + bh)
            assert abs(iou(a, b) - iou_pixel_oracle(a, b)) <= 1e-2


# Each setting that must be finite and positive, by the name its messages
# give it, and a call that sets it.
_POSITIVE_SETTINGS = {
    "delta": HuberParams,
    "learning_rate": lambda value: FitConfig(learning_rate=value),
    "tolerance": lambda value: finite_diff_check(LossKind.HUBER, tolerance=value),
    "scale": lambda value: sweep_mismatch(SweepConfig(), scale=value),
    "s": Box(0, 0, 1, 1).scaled,
    "pred_width": lambda value: SweepConfig(pred_width=value),
    "pred_height": lambda value: SweepConfig(pred_height=value),
}


@pytest.mark.parametrize("name", list(_POSITIVE_SETTINGS))
@pytest.mark.parametrize(
    ("value", "message"),
    [
        (0, "must be finite and positive, got 0"),
        (-1.0, "must be finite and positive, got -1.0"),
        (math.nan, "must be finite and positive, got nan"),
        (math.inf, "must be finite and positive, got inf"),
        (True, "must be a number, got True"),
        ("1", "must be a number, got '1'"),
        (10**400, "is too large for a float"),
    ],
    ids=["zero", "negative", "nan", "inf", "bool", "string", "huge_int"],
)
def test_every_positive_setting_has_one_rule(name, value, message):
    with pytest.raises(ValueError) as exc:
        _POSITIVE_SETTINGS[name](value)
    assert str(exc.value) == f"{name} {message}"
