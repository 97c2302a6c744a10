"""Sweep profiles: exact grid, frozen breakpoint values, plateau geometry,
the scale-mismatch law, the delta study, and the convexity scanner."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxloss import (
    DEFAULT_DELTAS,
    Box,
    SweepConfig,
    SweepRow,
    convexity_violations,
    delta_study,
    sweep,
    sweep_mismatch,
)

ROWS = sweep()
BY_X = {row.x_center: row for row in ROWS}
COLUMNS = ("huber", "squared", "iou_loss", "smooth_iou", "iou")


def _reference_scan(rows, column):
    """The scan as one Python loop per (i, j): triples (i, j, k) in that order."""
    xs = np.array([r.x_center for r in rows])
    ys = np.array([getattr(r, column) for r in rows])
    out = []
    n = len(rows)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            ks = np.arange(j + 1, n)
            t = (xs[ks] - xs[j]) / (xs[ks] - xs[i])
            bound = t * ys[i] + (1.0 - t) * ys[ks]
            bad = ks[ys[j] > bound + 1e-9]
            out.extend((i, j, int(k)) for k in bad)
    return out


def _scan(rows, column):
    """convexity_violations, checked for its shape and dtype, for warnings, and
    for rows that strictly increase in lexicographic (i, j, k) order."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = convexity_violations(rows, column)
    assert result.dtype == np.int32
    assert result.shape == (len(result), 3)
    triples = result.tolist()
    assert all(a < b for a, b in zip(triples, triples[1:]))
    return result


def _matches_reference(rows, column):
    # The loop's own inf - inf and 0 * inf warn; only its triples matter here.
    with np.errstate(all="ignore"):
        expected = _reference_scan(rows, column)
    return _scan(rows, column).tolist() == [list(triple) for triple in expected]


_TIE = 1e-9
# Column values: the special floats, free values, a repeat of the previous
# value (plateaus and steps), and points on a line nudged around the slack.
_SPECIAL = st.sampled_from([0.0, 1.0, -1.0, _TIE, math.nan, math.inf, -math.inf])
_NUDGE = st.sampled_from(
    [0.0, _TIE, -_TIE, math.nextafter(_TIE, math.inf), math.nextafter(_TIE, 0.0), 2 * _TIE]
)


@st.composite
def _scan_case(draw):
    start = draw(st.floats(-100.0, 100.0))
    span = draw(st.floats(1e-3, 100.0))
    n = draw(st.integers(2, 24))
    config = SweepConfig(x_center_start=start, x_center_end=start + span, num_samples=n)
    slope, offset = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    ys: list[float] = []
    for row in sweep(config)[: draw(st.integers(0, n))]:
        pick = draw(st.integers(0, 3))
        if pick == 0:
            ys.append(draw(_SPECIAL))
        elif pick == 1:
            ys.append(draw(st.floats(-10.0, 10.0)))
        elif pick == 2 and ys:
            ys.append(ys[-1])
        else:
            ys.append(slope * row.x_center + offset + draw(_NUDGE))
    return config, draw(st.sampled_from(COLUMNS)), ys


class TestGrid:
    def test_row_count_and_bounds(self):
        assert len(ROWS) == 161
        assert ROWS[0].x_center == 0.0
        assert ROWS[-1].x_center == 80.0

    def test_spacing_exact_half_unit(self):
        for a, b in zip(ROWS, ROWS[1:]):
            assert b.x_center - a.x_center == 0.5

    def test_sorted(self):
        xs = [row.x_center for row in ROWS]
        assert xs == sorted(xs)

    def test_custom_grid_hits_endpoint(self):
        config = SweepConfig(x_center_start=0.0, x_center_end=1.0, num_samples=7)
        rows = sweep(config)
        assert len(rows) == 7
        assert rows[0].x_center == 0.0
        assert rows[-1].x_center == 1.0


class TestFrozenValues:
    def test_perfect_alignment(self):
        row = BY_X[40.0]
        assert row.iou == 1.0
        assert row.huber == 0.0
        assert row.squared == 0.0
        assert row.iou_loss == 0.0
        assert row.smooth_iou == 0.0

    def test_half_overlap(self):
        # Offset 10: intersection 200, union 600.
        row = BY_X[50.0]
        assert row.iou == 1 / 3
        assert row.iou_loss == 1.0 - 1 / 3
        assert row.huber == 19.0
        assert row.squared == 100.0
        lam = row.iou
        assert row.smooth_iou == lam * (1.0 - lam) + (1.0 - lam) * row.huber

    def test_touching_edges(self):
        for x in (20.0, 60.0):
            row = BY_X[x]
            assert row.iou == 0.0
            assert row.iou_loss == 1.0

    def test_far_from_target(self):
        row = BY_X[10.0]
        assert row.iou_loss == 1.0
        assert row.huber == 59.0
        assert row.squared == 900.0


class TestProfileShape:
    def test_plateau_outside_contact(self):
        for row in ROWS:
            if row.x_center <= 20.0 or row.x_center >= 60.0:
                assert row.iou_loss == 1.0
            else:
                assert row.iou_loss < 1.0

    def test_smooth_equals_huber_on_plateau(self):
        for row in ROWS:
            if row.iou == 0.0:
                assert row.smooth_iou == row.huber

    def test_smooth_between_component_losses(self):
        for row in ROWS:
            lo = min(row.iou_loss, row.huber)
            hi = max(row.iou_loss, row.huber)
            slack = 1e-12 * max(1.0, hi)
            assert lo - slack <= row.smooth_iou <= hi + slack

    def test_mirror_symmetry(self):
        # The geometry is symmetric about x_center = 40 and the half-unit
        # grid keeps every width exactly representable, so the symmetry is
        # exact, not approximate.
        for d in range(0, 81):
            left = BY_X[40.0 - d * 0.5]
            right = BY_X[40.0 + d * 0.5]
            assert left.iou == right.iou
            assert left.huber == right.huber
            assert left.squared == right.squared
            assert left.smooth_iou == right.smooth_iou

    def test_iou_column_consistent_with_loss_column(self):
        for row in ROWS:
            assert row.iou_loss == 1.0 - row.iou
            assert 0.0 <= row.iou <= 1.0


class TestMismatch:
    def test_scale_one_reproduces_sweep(self):
        assert sweep_mismatch(SweepConfig(), 1.0) == ROWS

    def test_frozen_peak_at_three_quarters(self):
        rows = sweep_mismatch(scale=0.75)
        best = {row.x_center: row for row in rows}[40.0]
        assert best.iou == 0.5625
        assert max(row.iou for row in rows) == 0.5625

    def test_peak_follows_square_law_for_nested_scales(self):
        for scale in (0.25, 0.5, 0.75):
            rows = sweep_mismatch(scale=scale)
            assert max(row.iou for row in rows) == scale * scale

    def test_oversized_box_peak_is_inverse_square(self):
        rows = sweep_mismatch(scale=1.25)
        best = {row.x_center: row for row in rows}[40.0]
        assert best.iou == 0.64

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            sweep_mismatch(scale=0.0)
        with pytest.raises(ValueError):
            sweep_mismatch(scale=-1.0)
        with pytest.raises(ValueError):
            sweep_mismatch(scale=math.inf)
        # A finite scale whose sliding box's corners overflow to infinity.
        with pytest.raises(ValueError, match=r"^xmin must be finite, got -inf$"):
            sweep_mismatch(SweepConfig(), scale=1e308)


class TestDeltaStudy:
    def test_default_keys(self):
        study = delta_study()
        assert tuple(study.keys()) == DEFAULT_DELTAS
        assert DEFAULT_DELTAS == (1.0, 1.25, 1.5, 1.75, 2.0)

    def test_threshold_moves_the_elbow(self):
        # At x_center = 41.5 both x offsets are 1.5: linear branch under
        # delta = 1, quadratic under delta = 2.
        study = delta_study()
        assert study[1.0][83].x_center == 41.5
        assert study[1.0][83].huber == 2.0
        assert study[2.0][83].huber == 2.25

    def test_only_huber_and_smooth_respond_to_delta(self):
        study = delta_study()
        reference = study[DEFAULT_DELTAS[0]]
        for rows in study.values():
            for row, ref in zip(rows, reference):
                assert row.iou == ref.iou
                assert row.iou_loss == ref.iou_loss
                assert row.squared == ref.squared

    def test_empty_deltas_rejected(self):
        with pytest.raises(ValueError):
            delta_study(deltas=())

    def test_repeated_delta_rejected(self):
        # A repeat would collapse into one key of the study.
        with pytest.raises(ValueError, match=r"^delta 1.0 is repeated in deltas$"):
            delta_study(deltas=(1.0, 2.0, 1))
        with pytest.raises(ValueError, match=r"^delta must be a number, got 'a'$"):
            delta_study(deltas=("a", "a"))


class TestConvexityScan:
    def test_iou_loss_violates_convexity(self):
        violations = convexity_violations(ROWS, "iou_loss")
        assert len(violations) > 0

    def test_reported_triples_are_genuine(self):
        violations = convexity_violations(ROWS, "iou_loss")
        xs = [row.x_center for row in ROWS]
        ys = [row.iou_loss for row in ROWS]
        for i, j, k in violations[:200]:
            assert i < j < k
            t = (xs[k] - xs[j]) / (xs[k] - xs[i])
            assert ys[j] > t * ys[i] + (1.0 - t) * ys[k] + 1e-9

    def test_huber_and_squared_are_convex_on_the_grid(self):
        assert len(convexity_violations(ROWS, "huber")) == 0
        assert len(convexity_violations(ROWS, "squared")) == 0

    def test_smooth_column_violates_convexity(self):
        # The blend inherits the plateau from its IoU term.
        assert len(convexity_violations(ROWS, "smooth_iou")) > 0

    def test_column_validation(self):
        with pytest.raises(ValueError):
            convexity_violations(ROWS, "x_center")
        with pytest.raises(ValueError):
            convexity_violations(ROWS, "loss")

    def test_short_input(self):
        assert len(convexity_violations(ROWS[:2], "huber")) == 0
        for n in (0, 1, 2):
            assert _scan(ROWS[:n], "iou").shape == (0, 3)

    def test_counts_at_default_grid(self):
        # The 121 and 21 counts are bench/run.py's EXPECTED_VIOLATIONS, written
        # out here so that a scan change the benchmark would refuse fails here.
        expected = {
            161: (0, 0, 252828, 84262, 341212),
            121: (0, 0, 106174, 35956, 143938),
            21: (0, 0, 446, 138, 660),
        }
        for n, counts in expected.items():
            rows = ROWS if n == 161 else sweep(SweepConfig(num_samples=n))
            assert tuple(len(_scan(rows, column)) for column in COLUMNS) == counts, n

    # n = 3 and 4 scan the pair table's shortest suffixes, of one and three pairs.
    @pytest.mark.parametrize("n", [3, 4, 21, 121, 161, 201])
    def test_matches_reference_scan_on_sweeps(self, n):
        rows = ROWS if n == 161 else sweep(SweepConfig(num_samples=n))
        for column in COLUMNS:
            assert _matches_reference(rows, column), column

    @pytest.mark.parametrize(
        "order, n",
        [("reversed", 21), ("shuffled", 21), ("repeated_x", 21), ("shuffled", 121), ("repeated_x", 121)],
        ids=["reversed", "shuffled", "repeated_x", "shuffled_121", "repeated_x_121"],
    )
    def test_matches_reference_scan_on_unsorted_rows(self, order, n):
        # The scan picks j < k by index, not by x, on any order of rows.
        rows = sweep(SweepConfig(num_samples=n))
        if order == "reversed":
            rows = rows[::-1]
        elif order == "shuffled":
            rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        else:
            rows = [replace(r, x_center=rows[i - i % 3].x_center) for i, r in enumerate(rows)]
        for column in COLUMNS:
            assert _matches_reference(rows, column), column

    def test_result_is_allocated_once(self):
        # Joining per-i blocks would hold the result twice, a peak of about 2x.
        for n, expected in ((201, 666366), (401, 5329866)):
            rows = sweep(SweepConfig(num_samples=n))
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                triples = convexity_violations(rows, "iou")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(triples) == expected, n
            assert peak < 1.5 * triples.nbytes, n

    def test_slack_is_strict(self):
        rows = sweep(SweepConfig(x_center_start=0.0, x_center_end=2.0, num_samples=3))

        def scan(y):
            return _scan([replace(r, iou=v) for r, v in zip(rows, (0.0, y, 0.0))], "iou")

        assert scan(_TIE).tolist() == []
        assert scan(math.nextafter(_TIE, math.inf)).tolist() == [[0, 1, 2]]

    @given(_scan_case())
    # inf in row 0 meets every t of its block, and the NaN cells outside the triangle.
    @example(case=(SweepConfig(num_samples=21), "iou", [math.inf] + [0.0] * 20))
    @example(case=(SweepConfig(num_samples=6), "huber", [-math.inf, 1.0, math.inf] * 2))
    @example(case=(SweepConfig(num_samples=5), "smooth_iou", [math.nan] * 5))
    @example(case=(SweepConfig(num_samples=7), "iou_loss", [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0]))
    @example(case=(SweepConfig(num_samples=2), "squared", [1.0, 0.0]))
    @example(case=(SweepConfig(num_samples=2), "squared", []))
    def test_matches_reference_scan_on_random_columns(self, case):
        config, column, ys = case
        rows = [replace(r, **{column: y}) for r, y in zip(sweep(config), ys)]
        assert _matches_reference(rows, column)


class TestConfigValidation:
    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            SweepConfig(num_samples=1)
        with pytest.raises(ValueError, match="num_samples must be an integer, got 2.5"):
            SweepConfig(num_samples=2.5)

    def test_rejects_bool_delta_and_scale(self):
        # True would pass as 1.0, the default delta and scale.
        with pytest.raises(ValueError, match=r"^delta must be a number, got True$"):
            SweepConfig(delta=True)
        with pytest.raises(ValueError, match=r"^scale must be a number, got True$"):
            sweep_mismatch(SweepConfig(), True)

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            SweepConfig(x_center_start=10.0, x_center_end=10.0)
        # Checked as a number before it is compared.
        with pytest.raises(ValueError, match=r"^x_center_end must be a number, got None$"):
            SweepConfig(x_center_end=None)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"x_center_end": math.nan}, "x_center_end must be finite, got nan"),
            ({"y_center": math.inf}, "y_center must be finite, got inf"),
            ({"x_center_start": -math.inf}, "x_center_start must be finite, got -inf"),
            # Both ends are finite, but the grid step would overflow.
            (
                {"x_center_start": -1e308, "x_center_end": 1e308},
                "x_center_end - x_center_start must be finite",
            ),
        ],
    )
    def test_rejects_a_center_or_span_that_is_not_finite(self, settings, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepConfig(**settings)

    def test_integer_centers_are_stored_as_floats(self):
        config = SweepConfig(y_center=40, x_center_start=0, x_center_end=80)
        assert (config.y_center, config.x_center_start, config.x_center_end) == (40.0, 0.0, 80.0)
        last = sweep(config)[-1].x_center
        assert type(last) is float and last == 80.0

    # Repeated grid points would hide the profile: the convexity scan divides
    # 0 by 0 on each repeated triple and reports no violation.
    @pytest.mark.parametrize(
        "start, end, ends",
        [
            (40.0, math.nextafter(40.0, 100.0), "40.0 and x_center_end=40.00000000000001"),
            (1e16, 1e16 + 200, "1e+16 and x_center_end=1.00000000000002e+16"),
        ],
        ids=["one_ulp", "coarse_floats"],
    )
    def test_rejects_a_span_too_narrow_for_its_grid(self, start, end, ends):
        message = f"x_center_start={ends} are too close for num_samples=161 distinct grid points"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(SweepConfig(x_center_start=start, x_center_end=end))

    def test_rejects_a_target_that_is_not_a_box(self):
        # sweep would fail later, on None's missing corners().
        with pytest.raises(ValueError) as exc:
            SweepConfig(target=None)
        assert str(exc.value) == "target must be a Box, got None"

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            SweepConfig(delta=0.0)
        with pytest.raises(ValueError):
            SweepConfig(delta=math.nan)

    def test_rejects_degenerate_slider(self):
        with pytest.raises(ValueError):
            SweepConfig(pred_width=0.0)
        with pytest.raises(ValueError, match=r"^pred_width must be a number, got '20'$"):
            SweepConfig(pred_width="20")

    def test_rows_are_plain_records(self):
        row = ROWS[0]
        assert isinstance(row, SweepRow)
        clone = replace(row)
        assert clone == row

    def test_custom_target(self):
        config = SweepConfig(
            target=Box(0.0, 0.0, 4.0, 4.0),
            pred_width=4.0,
            pred_height=4.0,
            y_center=2.0,
            x_center_start=-4.0,
            x_center_end=8.0,
            num_samples=25,
        )
        rows = sweep(config)
        best = {row.x_center: row for row in rows}[2.0]
        assert best.iou == 1.0
        assert best.smooth_iou == 0.0
