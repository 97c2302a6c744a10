"""Synthetic box-fitting: dataset generation, the optimizer loop, divergence
handling, and multi-seed loss comparisons."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import reference

from boxloss import (
    Box,
    ComparisonResult,
    FitConfig,
    HuberParams,
    InfeasibleDatasetError,
    LossKind,
    OptimizerKind,
    OverlapRegime,
    compare_losses,
    fit,
    generate_dataset,
    grad_huber,
    grad_iou_loss,
    iou,
)
from boxloss import fitting, gradients
from boxloss.boxes import iou_array


def _contained(box: Box, frame: Box) -> bool:
    return (
        frame.xmin <= box.xmin
        and frame.ymin <= box.ymin
        and box.xmax <= frame.xmax
        and box.ymax <= frame.ymax
    )


class TestGenerateDataset:
    def test_deterministic(self):
        config = FitConfig(seed=9)
        assert generate_dataset(config) == generate_dataset(config)

    def test_seed_changes_data(self):
        a = generate_dataset(FitConfig(seed=0))
        b = generate_dataset(FitConfig(seed=1))
        assert a != b

    def test_loss_kind_does_not_touch_generation(self):
        # Comparisons rely on matched datasets across loss kinds.
        a = generate_dataset(FitConfig(loss_kind="huber", seed=4))
        b = generate_dataset(FitConfig(loss_kind="iou", seed=4))
        assert a == b

    def test_target_sizes_and_containment(self):
        # Targets are drawn inside the frame; predictions are free to spill
        # past it, since they are unclamped perturbations.
        config = FitConfig(num_pairs=40, seed=2)
        data = generate_dataset(config)
        assert len(data) == 40
        for _, target in data.pairs():
            assert _contained(target, config.frame)
            assert config.target_size_min <= target.width <= config.target_size_max
            assert config.target_size_min <= target.height <= config.target_size_max

    def test_overlapping_regime(self):
        data = generate_dataset(FitConfig(regime="overlapping", num_pairs=30, seed=1))
        assert all(iou(p, t) > 0.0 for p, t in data.pairs())

    def test_disjoint_regime(self):
        config = FitConfig(
            regime="disjoint", translation_sigma=2.0, num_pairs=30, seed=1
        )
        data = generate_dataset(config)
        assert all(iou(p, t) == 0.0 for p, t in data.pairs())

    def test_mixed_regime_is_unconstrained(self):
        # Mixed places no acceptance condition on the draw, so even a
        # zero-perturbation config (which the disjoint regime rejects as
        # infeasible) generates fine.
        config = FitConfig(
            regime="mixed", translation_sigma=0.0, scale_sigma=0.0, seed=0
        )
        assert generate_dataset(config).predicted == generate_dataset(config).target
        # With wide translations both overlap outcomes show up.
        wide = FitConfig(regime="mixed", translation_sigma=2.0, num_pairs=50, seed=0)
        ious = [iou(p, t) for p, t in generate_dataset(wide).pairs()]
        assert any(v > 0.0 for v in ious)
        assert any(v == 0.0 for v in ious)

    def test_zero_perturbation_copies_targets(self):
        config = FitConfig(
            translation_sigma=0.0, scale_sigma=0.0, regime="overlapping", seed=7
        )
        data = generate_dataset(config)
        assert data.predicted == data.target

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"translation_sigma": 1e308}, "translation_sigma=1e+308 drew a center shift"),
            # The size factor is finite; the box size it gives is not.
            ({"scale_sigma": 300.0, "seed": 796}, "scale_sigma=300.0 drew a box size"),
        ],
    )
    def test_non_finite_draw_names_its_setting(self, kwargs, message):
        config = FitConfig(num_pairs=4, batch_size=4, **kwargs)
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_dataset(config)

    @pytest.mark.parametrize("regime", list(OverlapRegime))
    def test_drawn_corner_overflow_raises_in_every_regime(self, regime):
        # Every setting is finite, but a center shift carries a drawn corner
        # past the largest float; no regime may reject and redraw it.
        config = FitConfig(
            num_pairs=50,
            frame=Box(0.0, 0.0, 1.79e308, 1.79e308),
            target_size_min=1e300,
            target_size_max=1e300,
            translation_sigma=1e7,
            regime=regime,
            seed=1,
        )
        with pytest.raises(ValueError, match=r"^xmin must be finite, got inf$"):
            generate_dataset(config)

    @pytest.mark.parametrize(
        "frame, num_pairs, size",
        [
            (Box(0.0, 0.0, 1e308, 1e308), 4, "zero width or height"),
            (Box(0.0, 0.0, 100.0, 1e300), 4, "zero width or height"),
            (Box(0.0, 0.0, 1e16, 1e16), 200, "a 4.0 x 14.0 box"),
        ],
        ids=["both_axes", "height_only", "sides_off_the_range"],
    )
    def test_target_rounded_to_zero_size_names_the_frame(self, frame, num_pairs, size):
        # Centers far from the origin are spaced wider than the target sizes,
        # so cx - w/2 and cx + w/2 round to the same float. Near 1e16 they are
        # 2.0 apart, so of 400 sides in [5, 20] four round to 4.0.
        config = FitConfig(num_pairs=num_pairs, batch_size=4, frame=frame)
        message = f"frame {frame.corners()} is too large for target sizes [5.0, 20.0]"
        for run in (generate_dataset, fit):
            with pytest.raises(ValueError, match=re.escape(message)) as exc:
                run(config)
            assert str(exc.value).endswith(f") rounds to {size}")

    def test_infeasible_raises(self):
        # Zero perturbation can never produce a disjoint prediction.
        config = FitConfig(
            regime="disjoint", translation_sigma=0.0, scale_sigma=0.0, seed=0
        )
        with pytest.raises(InfeasibleDatasetError):
            generate_dataset(config)

    @pytest.mark.parametrize("scale_sigma", [0.0, 0.1, 0.5])
    def test_disjoint_without_shift_is_refused_before_any_round(self, monkeypatch, scale_sigma):
        # Each prediction shares its target's center and overlaps it at any
        # reachable size factor. Rounds over 200,000 pairs would take minutes;
        # the refusal comes before the first, whose IoUs go through fitting.iou.
        def no_round(*args):
            raise AssertionError("a rejection round ran")

        monkeypatch.setattr(fitting, "iou", no_round)
        config = FitConfig(
            regime="disjoint", translation_sigma=0.0, scale_sigma=scale_sigma,
            num_pairs=200_000, batch_size=1,
        )
        message = f"with translation_sigma=0 and scale_sigma={scale_sigma!r}: each prediction"
        with pytest.raises(InfeasibleDatasetError, match=re.escape(message)):
            generate_dataset(config)

    def test_disjoint_without_shift_is_drawn_when_a_side_can_collapse(self):
        # Size factors exp(30 * z) shrink a side below its center's rounding
        # step for z below about -1.2, so the regime can be met.
        config = FitConfig(
            regime="disjoint", translation_sigma=0.0, scale_sigma=30.0, num_pairs=30, seed=2
        )
        data = generate_dataset(config)
        assert all(iou(p, t) == 0.0 for p, t in data.pairs())

    def test_regime_unmet_in_every_round_raises(self):
        # Shifts of about 1e9 target sizes overlap with chance near 1e-9, so
        # both pairs exhaust their attempts.
        config = FitConfig(
            regime="overlapping", translation_sigma=1e9, num_pairs=2, batch_size=2, seed=0
        )
        with pytest.raises(InfeasibleDatasetError, match="within 1000 attempts"):
            generate_dataset(config)

    def test_draw_evaluates_ious_through_the_module_name(self, monkeypatch):
        # One iou call per rejection round; bench/worker.py traces the draw
        # by replacing iou on this module.
        calls = []
        monkeypatch.setattr(fitting, "iou", lambda a, b: calls.append(len(a)) or iou_array(a, b))
        fit(FitConfig(num_pairs=50, batch_size=50, steps=1))
        assert calls == [50]


class TestFit:
    def test_improves_mean_iou(self):
        config = FitConfig(
            loss_kind="huber", regime="overlapping", steps=500, num_pairs=50, seed=0
        )
        result = fit(config)
        assert result.mean_iou_final > result.mean_iou_initial
        assert result.mean_iou_final > 0.9
        assert not result.diverged

    def test_trajectory_shape(self):
        config = FitConfig(steps=40, num_pairs=8, batch_size=4, seed=3)
        result = fit(config)
        assert len(result.loss_trajectory) == 41
        assert len(result.iou_trajectory) == 41
        assert result.iou_trajectory[0] == result.mean_iou_initial
        assert result.iou_trajectory[-1] == result.mean_iou_final
        assert len(result.final_predicted) == 8

    def test_deterministic(self):
        config = FitConfig(steps=60, num_pairs=10, batch_size=5, seed=12)
        a = fit(config)
        b = fit(config)
        assert a.loss_trajectory == b.loss_trajectory
        assert a.final_predicted == b.final_predicted

    def test_iou_loss_stays_on_disjoint_plateau(self):
        # Every gradient is exactly zero, so no parameter ever moves and the
        # final boxes are bitwise the generated ones.
        config = FitConfig(
            regime="disjoint",
            loss_kind="iou",
            translation_sigma=2.0,
            steps=120,
            num_pairs=12,
            batch_size=4,
            seed=5,
        )
        result = fit(config)
        assert result.final_predicted == generate_dataset(config).predicted
        assert all(v == 0.0 for v in result.iou_trajectory)
        assert all(v == 1.0 for v in result.loss_trajectory)
        assert not result.diverged

    def test_blend_weight_zero_first_step_matches_huber_bitwise(self):
        # On an all-disjoint batch the blend weight is 0 and the blended
        # gradient is the Huber gradient, so a single step is identical.
        base = FitConfig(
            regime="disjoint",
            translation_sigma=2.0,
            steps=1,
            num_pairs=10,
            batch_size=10,
            seed=3,
        )
        smooth = fit(replace(base, loss_kind="smooth_iou"))
        huber = fit(replace(base, loss_kind="huber"))
        assert smooth.final_predicted == huber.final_predicted
        assert smooth.loss_trajectory == huber.loss_trajectory

    def test_minibatch_blend_weight_is_the_batch_mean_iou_at_the_current_state(self):
        # Six pairs in batches of four: the second batch wraps onto two rows
        # the first step moved, so its lam must be read from the moved boxes.
        config = FitConfig(
            loss_kind="smooth_iou",
            optimizer="plain_gd",
            momentum_or_decay=0.0,
            learning_rate=0.5,
            steps=2,
            num_pairs=6,
            batch_size=4,
            seed=4,
        )
        data = generate_dataset(config)
        predicted = list(data.predicted)
        order = np.random.default_rng(config.seed).permutation(6).tolist()
        huber = HuberParams(config.delta)
        for step in range(2):
            idx = [order[(4 * step + j) % 6] for j in range(4)]
            lam = 0.0
            for i in idx:
                lam += iou(predicted[i], data.target[i])
            lam /= 4
            for i in idx:
                box, target = predicted[i], data.target[i]
                g_iou = grad_iou_loss(box, target).components()
                g_huber = grad_huber(box, target, huber).components()
                predicted[i] = Box(
                    *(
                        c - 0.5 * (lam * a + (1.0 - lam) * b)
                        for c, a, b in zip(box.corners(), g_iou, g_huber)
                    )
                )

        def bits(boxes):
            return [c.hex() for box in boxes for c in box.corners()]

        assert bits(fit(config).final_predicted) == bits(predicted)

    def test_divergence_rolls_back_and_freezes(self):
        config = FitConfig(
            num_pairs=4,
            steps=200,
            batch_size=4,
            seed=1,
            loss_kind="squared",
            optimizer="plain_gd",
            learning_rate=1000.0,
            momentum_or_decay=0.0,
            regime="overlapping",
        )
        result = fit(config)
        assert result.diverged
        assert len(result.loss_trajectory) == 201
        assert all(math.isfinite(v) for v in result.loss_trajectory)
        assert all(math.isfinite(v) for v in result.iou_trajectory)
        for box in result.final_predicted:
            assert box.xmax >= box.xmin and box.ymax >= box.ymin
        # From the diverging step on, both trajectories repeat the last finite state.
        last = len(result.loss_trajectory) - 1
        d = result.loss_trajectory.index(result.loss_trajectory[-1])
        assert 0 < d < last
        assert len(set(result.loss_trajectory[d:])) == 1
        assert len(set(result.iou_trajectory[d:])) == 1
        finite = fit(replace(config, steps=d))
        assert not finite.diverged
        assert finite.loss_trajectory == result.loss_trajectory[: d + 1]
        assert finite.iou_trajectory == result.iou_trajectory[: d + 1]
        assert fit(replace(config, steps=d + 1)).diverged

    @pytest.mark.parametrize("kind", ["huber", "squared", "smooth_iou"])
    def test_overflowing_learning_rate_diverges(self, kind):
        # The first step overflows; the suite turns any numpy RuntimeWarning
        # this leaks into a failure.
        config = FitConfig(
            num_pairs=20,
            batch_size=20,
            steps=20,
            seed=3,
            loss_kind=kind,
            optimizer="plain_gd",
            learning_rate=1e308,
        )
        result = fit(config)
        assert result.diverged
        assert len(result.loss_trajectory) == 21
        assert all(math.isfinite(v) for v in result.loss_trajectory)
        assert all(math.isfinite(v) for v in result.iou_trajectory)

    def test_plain_gd_with_momentum_runs(self):
        config = FitConfig(
            optimizer="plain_gd",
            momentum_or_decay=0.9,
            learning_rate=0.01,
            steps=80,
            num_pairs=10,
            batch_size=10,
            regime="overlapping",
            loss_kind="huber",
            seed=6,
        )
        result = fit(config)
        assert not result.diverged
        assert result.mean_iou_final > result.mean_iou_initial

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_every_loss_kind_runs(self, kind):
        config = FitConfig(
            loss_kind=kind, steps=30, num_pairs=6, batch_size=3, seed=8,
            regime="overlapping",
        )
        result = fit(config)
        assert len(result.loss_trajectory) == 31
        assert all(math.isfinite(v) for v in result.loss_trajectory)

    def test_matches_the_full_re_evaluation_loop_bitwise(self):
        # Each step slices its minibatch from the shuffled rows and recomputes
        # only their cached terms; the reference gathers each minibatch and
        # re-evaluates the whole dataset in dataset order every step. The
        # large learning rates make runs diverge, so the unwritten step's
        # stale rows are covered too. With 20 pairs, batch size 7 is the one
        # whose minibatches straddle the end of the shuffled order. The last
        # two configs are the benchmark's fit_wide run, whose last step wraps,
        # and one run of criterion 7.
        def bits(result):
            floats = [
                result.mean_iou_initial,
                result.mean_iou_final,
                *result.loss_trajectory,
                *result.iou_trajectory,
                *(c for box in result.final_predicted for c in box.corners()),
            ]
            return result.diverged, [v.hex() for v in floats]

        diverged = 0
        grid = itertools.product(
            list(LossKind), list(OptimizerKind), (4, 7, 20), (0.05, 5.0, 1e308), (0, 1)
        )
        configs = [
            FitConfig(
                num_pairs=20,
                steps=40,
                loss_kind=kind,
                optimizer=optimizer,
                batch_size=batch_size,
                learning_rate=lr,
                seed=seed,
            )
            for kind, optimizer, batch_size, lr, seed in grid
        ]
        configs += [
            FitConfig(
                num_pairs=1000, batch_size=16, steps=63, regime="disjoint",
                translation_sigma=1.5, loss_kind="smooth_iou", seed=3,
            ),
            FitConfig(
                num_pairs=50, batch_size=50, steps=500, optimizer="plain_gd",
                momentum_or_decay=0.9, learning_rate=0.05, seed=3,
            ),
        ]
        for config in configs:
            result = fit(config)
            assert bits(result) == bits(reference.fit(config)), config
            diverged += result.diverged
        assert diverged > 0

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_overlap_runs_once_per_state(self, monkeypatch, kind):
        # Once over every row for the initial state, then once per step over
        # the rows it moved; the gradient rows read those terms and compute
        # none of their own. With batches of 16 over 50 rows, steps 3 and 6,
        # counting from 0, wrap past the end.
        calls, overlap_array = [], fitting.overlap_array

        def counted(pred, target):
            calls.append(len(pred))
            return overlap_array(pred, target)

        def refused(pred, target):
            raise AssertionError("a gradient row computed its own overlap")

        monkeypatch.setattr(fitting, "overlap_array", counted)
        monkeypatch.setattr(gradients, "overlap_array", refused)
        fit(FitConfig(num_pairs=50, batch_size=16, steps=7, loss_kind=kind))
        assert calls == [50] + [16] * 7


def _count_boxes(monkeypatch) -> list[None]:
    """A list that gains one item per Box built from now on."""
    built = []
    check = Box.__post_init__

    def counted(box):
        built.append(None)
        check(box)

    monkeypatch.setattr(Box, "__post_init__", counted)
    return built


class TestFitResult:
    @pytest.mark.parametrize("regime", ["mixed", "disjoint"])
    def test_result_path_builds_no_box(self, monkeypatch, regime):
        config = FitConfig(
            regime=regime, translation_sigma=1.5, num_pairs=12, batch_size=5, steps=20, seed=3
        )
        built = _count_boxes(monkeypatch)
        result = fit(config)
        comparison = compare_losses(config, [LossKind.HUBER, LossKind.SMOOTH_IOU], num_seeds=2)
        assert len(built) == 0
        # Each read builds the Boxes again, one per pair.
        for run in (result, *comparison.runs.values()):
            before = len(built)
            boxes = run.final_predicted
            assert len(built) - before == config.num_pairs
            assert [box.corners() for box in boxes] == list(run.final_corners)

    def test_equal_fits_compare_and_hash_equal(self):
        config = FitConfig(num_pairs=6, batch_size=4, steps=15, seed=8)
        a, b = fit(config), fit(config)
        assert a == b
        assert hash(a) == hash(b)
        corners = list(a.final_corners)
        xmin, *rest = corners[2]
        corners[2] = (math.nextafter(xmin, -math.inf), *rest)
        edited = replace(a, final_corners=tuple(corners))
        assert edited != a
        assert edited.final_predicted != a.final_predicted


class TestCompareLosses:
    def test_matched_datasets_and_shape(self):
        config = FitConfig(steps=30, num_pairs=8, batch_size=8, seed=0)
        kinds = [LossKind.HUBER, LossKind.SMOOTH_IOU]
        result = compare_losses(config, kinds, num_seeds=3)
        assert isinstance(result, ComparisonResult)
        assert [row.loss_kind for row in result.rows] == kinds
        # Runs are keyed by the actual seed used: config.seed + s.
        seeds = [config.seed + s for s in range(3)]
        assert set(result.runs) == {(k, s) for k in kinds for s in seeds}
        # Same seed means same dataset, so initial quality matches exactly.
        a, b = result.rows
        assert a.mean_initial_iou == b.mean_initial_iou
        for s in seeds:
            assert (
                result.runs[(kinds[0], s)].mean_iou_initial
                == result.runs[(kinds[1], s)].mean_iou_initial
            )

    def test_single_seed_has_zero_stddev(self):
        config = FitConfig(steps=20, num_pairs=6, batch_size=6, seed=2)
        result = compare_losses(config, [LossKind.HUBER], num_seeds=1)
        assert result.rows[0].stddev_final_iou == 0.0

    def test_row_statistics_recompose_from_runs(self):
        config = FitConfig(steps=25, num_pairs=6, batch_size=6, seed=1)
        result = compare_losses(config, [LossKind.SQUARED], num_seeds=4)
        finals = [
            result.runs[(LossKind.SQUARED, config.seed + s)].mean_iou_final
            for s in range(4)
        ]
        row = result.rows[0]
        assert row.mean_final_iou == pytest.approx(sum(finals) / 4, rel=1e-12)

    def test_validation(self):
        config = FitConfig(steps=10, num_pairs=4, batch_size=4)
        with pytest.raises(ValueError):
            compare_losses(config, [LossKind.HUBER], num_seeds=0)
        with pytest.raises(ValueError):
            compare_losses(config, [], num_seeds=2)
        with pytest.raises(ValueError, match=r"^loss kind 'huber' is repeated$"):
            compare_losses(config, [LossKind.HUBER, "squared", "huber"], num_seeds=1)
        for kind in ("giou", []):
            with pytest.raises(ValueError) as exc:
                compare_losses(config, [LossKind.HUBER, kind], num_seeds=1)
            assert str(exc.value) == (
                f"kind must be one of 'huber', 'squared', 'iou', 'smooth_iou', got {kind!r}"
            )
        for value in (True, 2.0):
            with pytest.raises(ValueError, match=rf"^num_seeds must be an integer, got {value}$"):
                compare_losses(config, [LossKind.HUBER], num_seeds=value)

    def test_rows_count_diverged_runs(self):
        config = FitConfig(
            steps=5, num_pairs=6, batch_size=6, optimizer="plain_gd", learning_rate=1e308
        )
        result = compare_losses(config, [LossKind.HUBER, LossKind.IOU], num_seeds=3)
        for row in result.rows:
            runs = [result.runs[(row.loss_kind, s)] for s in range(3)]
            assert row.num_diverged == sum(run.diverged for run in runs)
        # One step throws the IoU runs onto the plateau, where they stay finite.
        assert [row.num_diverged for row in result.rows] == [3, 0]


class TestFitConfigValidation:
    def test_enum_coercion(self):
        config = FitConfig(regime="disjoint", optimizer="plain_gd", loss_kind="huber")
        assert config.regime is OverlapRegime.DISJOINT
        assert config.optimizer is OptimizerKind.PLAIN_GD
        assert config.loss_kind is LossKind.HUBER

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"batch_size": 51},
            {"num_pairs": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"steps": 0},
            {"momentum_or_decay": 1.0},
            {"momentum_or_decay": -0.1},
            {"delta": 0.0},
            {"translation_sigma": -0.1},
            {"target_size_min": 0.0},
            {"target_size_min": 30.0, "target_size_max": 20.0},
            {"target_size_max": 200.0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"translation_sigma": math.nan},
            {"scale_sigma": math.nan},
            {"scale_sigma": math.inf},
            {"num_pairs": 50.5},
            {"steps": 2.5},
            {"seed": 1.5},
            {"seed": -1},
            {"batch_size": 2.5},
            {"frame": Box(-1e308, 0.0, 1e308, 100.0)},
            {"frame": Box(0.0, -1e308, 100.0, 1e308)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)

    def test_rejects_a_frame_that_is_not_a_box(self):
        # Its corners as a tuple would fail later, on the tuple's missing width.
        with pytest.raises(ValueError) as exc:
            FitConfig(frame=(0, 0, 100, 100))
        assert str(exc.value) == "frame must be a Box, got (0, 0, 100, 100)"

    def test_rejects_a_size_whose_center_range_rounds_below_zero(self):
        frame = Box(-783.8800084129549, 0.0, 857.0542798774925, 2000.0)
        size = 1640.9342882904475
        assert size <= frame.width  # passes the plain width check
        assert frame.xmin + size / 2 > frame.xmax - size / 2
        with pytest.raises(ValueError) as exc:
            FitConfig(frame=frame, target_size_min=size, target_size_max=size)
        assert str(exc.value) == (
            "target_size_max=1640.9342882904475 leaves no room for a box center in "
            "frame (-783.8800084129549, 0.0, 857.0542798774925, 2000.0)"
        )
        # A size that fills the frame exactly still draws in-frame targets.
        config = FitConfig(
            target_size_min=100.0, target_size_max=100.0, num_pairs=4, batch_size=4
        )
        assert all(_contained(t, config.frame) for t in generate_dataset(config).target)

    @pytest.mark.parametrize("name", ["num_pairs", "steps", "seed", "batch_size"])
    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool_counts_and_seeds(self, name, value):
        # A bool is an int to Python: True would run one pair or one step.
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
            FitConfig(**{name: value})
        assert FitConfig(**{"batch_size": 1, name: np.int64(3)})

    @pytest.mark.parametrize(
        "name",
        [
            "target_size_min",
            "target_size_max",
            "translation_sigma",
            "scale_sigma",
            "delta",
            "learning_rate",
            "momentum_or_decay",
        ],
    )
    @pytest.mark.parametrize("value", [True, False, "0.1", None])
    def test_rejects_bool_floats(self, name, value):
        # True would pass as 1.0: a learning rate of 1 or a size jitter of 1.
        # A string or None is refused before any comparison meets it.
        with pytest.raises(ValueError, match=rf"^{name} must be a number, got {value!r}$"):
            FitConfig(**{name: value})

    @pytest.mark.parametrize(
        ("name", "value", "allowed"),
        [
            ("loss_kind", [], "'huber', 'squared', 'iou', 'smooth_iou'"),
            ("regime", 5, "'overlapping', 'disjoint', 'mixed'"),
            ("optimizer", None, "'plain_gd', 'rmsprop_like'"),
            ("optimizer", "adam", "'plain_gd', 'rmsprop_like'"),
        ],
    )
    def test_bad_enum_value_names_the_field_and_its_values(self, name, value, allowed):
        with pytest.raises(ValueError) as exc:
            FitConfig(**{name: value})
        assert str(exc.value) == f"{name} must be one of {allowed}, got {value!r}"

    def test_rejects_unknown_enum_values(self):
        with pytest.raises(ValueError):
            FitConfig(regime="sideways")
        with pytest.raises(ValueError):
            FitConfig(optimizer="adam")
        with pytest.raises(ValueError):
            FitConfig(loss_kind="giou")
