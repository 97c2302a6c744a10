"""Acceptance gate: the eight library-level guarantees, one test each.

Every test prints a single `criterion N PASS` line on success (visible with
`pytest -v -s` or in captured output), and the pytest verdict line for the
test itself doubles as the pass/fail record. Tolerances are pinned in the
assertions, not configurable.

Runtime for the whole module is a couple of minutes; criterion 7 alone runs
forty full optimizations.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from boxloss import (
    Box,
    BoxBatch,
    FitConfig,
    GradCheckConfig,
    LossKind,
    SweepConfig,
    compare_losses,
    convexity_violations,
    finite_diff_check,
    fit,
    generate_dataset,
    grad_huber,
    grad_iou_loss,
    grad_smooth_iou,
    huber_box,
    iou,
    iou_pixel_oracle,
    smooth_iou_batch,
    sweep,
)
from boxloss.cli import main as cli_main


def _random_pairs(n: int, seed: int) -> list[tuple[Box, Box]]:
    """Mixed-overlap pairs: shifted, nested, and separated geometries."""
    rng = np.random.default_rng(seed)
    pairs = []
    for index in range(n):
        w = float(rng.uniform(6.0, 24.0))
        h = float(rng.uniform(6.0, 24.0))
        cx = float(rng.uniform(30.0, 70.0))
        cy = float(rng.uniform(30.0, 70.0))
        target = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        mode = index % 3
        if mode == 0:  # partial overlap
            dx, dy = 0.4 * w, -0.3 * h
            pw, ph = w, h
        elif mode == 1:  # nested
            dx, dy = 0.05 * w, 0.05 * h
            pw, ph = 0.6 * w, 0.5 * h
        else:  # separated
            dx, dy = 1.6 * w, 0.2 * h
            pw, ph = w, h
        dx *= float(rng.uniform(0.5, 1.5))
        dy *= float(rng.uniform(0.5, 1.5))
        pred = Box(
            cx + dx - pw / 2, cy + dy - ph / 2, cx + dx + pw / 2, cy + dy + ph / 2
        )
        pairs.append((pred, target))
    return pairs


def _grid_pairs(n: int, seed: int) -> list[tuple[Box, Box]]:
    """Pairs on a quarter-unit grid, where invariance algebra is exact."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        i, j, a, b = (int(v) for v in rng.integers(-100, 100, size=4))
        w, u = (int(v) for v in rng.integers(4, 80, size=2))
        z, q = (int(v) for v in rng.integers(4, 80, size=2))
        pairs.append(
            (
                Box(i * 0.25, j * 0.25, (i + w) * 0.25, (j + u) * 0.25),
                Box(a * 0.25, b * 0.25, (a + z) * 0.25, (b + q) * 0.25),
            )
        )
    return pairs


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_iou_matches_pixel_oracle_and_invariances():
    pairs = _random_pairs(500, seed=101)
    worst = 0.0
    for pred, target in pairs:
        worst = max(worst, abs(iou(pred, target) - iou_pixel_oracle(pred, target)))
    assert worst <= 1e-2

    box = Box(12.0, -3.0, 40.5, 22.25)
    assert iou(box, box) == 1.0
    assert iou(Box(0, 0, 10, 10), Box(20, 0, 30, 10)) == 0.0
    assert iou(Box(0, 0, 10, 10), Box(0, 10, 10, 20)) == 0.0

    for a, b in _grid_pairs(500, seed=202):
        base = iou(a, b)
        assert _rel_diff(iou(b, a), base) <= 1e-12
        for s in (0.5, 2.0, 3.0):
            assert _rel_diff(iou(a.scaled(s), b.scaled(s)), base) <= 1e-12
        for dx, dy in ((13.25, -7.5), (-40.0, 0.25)):
            assert _rel_diff(iou(a.shifted(dx, dy), b.shifted(dx, dy)), base) <= 1e-12

    print(
        "criterion 1 PASS: iou within 1e-2 of the pixel oracle on 500 pairs "
        f"(worst {worst:.2e}), exact at identity/disjoint, invariances within 1e-12"
    )


def test_criterion_2_limit_equalities():
    target = Box(0.0, 0.0, 10.0, 10.0)
    disjoint_preds = tuple(
        Box(20.0 + 15.0 * k, 0.0, 30.0 + 15.0 * k, 10.0) for k in range(8)
    )
    batch = BoxBatch(disjoint_preds, (target,) * 8)
    report = smooth_iou_batch(batch)
    assert report.lam == 0.0
    for k, (loss, pred) in enumerate(zip(report.per_example_loss, disjoint_preds)):
        assert loss == huber_box(pred, target)
        assert (
            grad_smooth_iou(batch, k).components()
            == grad_huber(pred, target).components()
        )

    boxes = tuple(Box(3.0 * k, 2.0 * k, 3.0 * k + 7.0, 2.0 * k + 5.0) for k in range(8))
    identical = smooth_iou_batch(BoxBatch(boxes, boxes))
    assert identical.reduced_loss == 0.0
    assert identical.per_example_loss == (0.0,) * 8

    print(
        "criterion 2 PASS: all-disjoint batch reproduces huber losses and "
        "gradients bitwise; all-identical batch has exactly zero loss"
    )


def test_criterion_3_gradients_match_finite_differences():
    worst = {}
    for kind in LossKind:
        samples = 1000
        result = finite_diff_check(
            kind,
            GradCheckConfig(num_samples=samples, regime="mixed", seed=0),
            tolerance=1e-4,
            step=1e-5,
        )
        # Top up the draw until 1000 non-kink points were actually checked;
        # extending num_samples keeps the earlier samples identical.
        while result.num_points_checked < 1000:
            samples += 100
            result = finite_diff_check(
                kind,
                GradCheckConfig(num_samples=samples, regime="mixed", seed=0),
                tolerance=1e-4,
                step=1e-5,
            )
        assert result.num_points_checked >= 1000
        assert result.max_relative_error < 1e-4
        assert result.passed
        worst[kind.value] = result.max_relative_error

    summary = ", ".join(f"{name} {err:.1e}" for name, err in worst.items())
    print(
        "criterion 3 PASS: analytic gradients within 1e-4 of central "
        f"differences on 1000+ non-kink points per loss ({summary})"
    )


def test_criterion_4_disjoint_plateau_freezes_learning():
    rng = np.random.default_rng(77)
    for _ in range(200):
        w, h = (float(v) for v in rng.uniform(4.0, 20.0, size=2))
        x, y = (float(v) for v in rng.uniform(0.0, 50.0, size=2))
        gap = float(rng.uniform(0.1, 40.0))
        target = Box(x, y, x + w, y + h)
        axis = int(rng.integers(0, 2))
        if axis == 0:
            pred = Box(x + w + gap, y, x + 2 * w + gap, y + h)
        else:
            pred = Box(x, y + h + gap, x + w, y + 2 * h + gap)
        assert grad_iou_loss(pred, target).components() == (0.0, 0.0, 0.0, 0.0)

    config = FitConfig(
        regime="disjoint",
        loss_kind="iou",
        translation_sigma=2.0,
        steps=500,
        seed=0,
    )
    result = fit(config)
    assert result.final_predicted == generate_dataset(config).predicted
    assert all(v == 0.0 for v in result.iou_trajectory)

    print(
        "criterion 4 PASS: gradient is the exact zero vector on 200 disjoint "
        "pairs and a 500-step fit from disjoint boxes changes no parameter"
    )


def test_criterion_5_sweep_breakpoints():
    rows = sweep()
    by_x = {row.x_center: row for row in rows}
    for row in rows:
        if row.x_center <= 20.0 or row.x_center >= 60.0:
            assert row.iou_loss == 1.0
    assert by_x[40.0].iou_loss == 0.0
    for d in range(0, 81):
        left, right = by_x[40.0 - d * 0.5], by_x[40.0 + d * 0.5]
        assert abs(left.iou - right.iou) <= 1e-9
        assert abs(left.huber - right.huber) <= 1e-9
    assert abs(by_x[50.0].iou - 1.0 / 3.0) <= 1e-12

    print(
        "criterion 5 PASS: iou_loss exactly 1 on both plateaus and 0 at "
        "alignment, mirror-symmetric within 1e-9, iou(50) = 1/3 within 1e-12"
    )


def test_criterion_6_convexity_violations():
    rows = sweep()
    plateau_violations = convexity_violations(rows, "iou_loss")
    assert len(plateau_violations) > 0
    assert len(convexity_violations(rows, "huber")) == 0
    assert len(convexity_violations(rows, "squared")) == 0

    print(
        "criterion 6 PASS: iou_loss column yields "
        f"{len(plateau_violations)} convexity violations; huber and squared none"
    )


def test_criterion_7_blend_tracks_huber_within_margin():
    # Full-batch gradient descent with momentum so both losses actually
    # settle; the guarantee is about the blend not trailing huber, not about
    # any particular optimizer's dithering.
    config = FitConfig(
        num_pairs=50,
        steps=500,
        learning_rate=0.05,
        regime="mixed",
        seed=0,
        batch_size=50,
        optimizer="plain_gd",
        momentum_or_decay=0.9,
    )
    start = time.monotonic()
    result = compare_losses(config, [LossKind.HUBER, LossKind.SMOOTH_IOU], num_seeds=20)
    elapsed = time.monotonic() - start
    huber_row, smooth_row = result.rows
    assert huber_row.loss_kind is LossKind.HUBER
    assert smooth_row.mean_final_iou >= huber_row.mean_final_iou - 0.01
    assert elapsed < 60.0

    print(
        "criterion 7 PASS: over 20 matched seeds smooth_iou mean final IoU "
        f"{smooth_row.mean_final_iou:.6f} >= huber {huber_row.mean_final_iou:.6f} "
        f"- 0.01 ({elapsed:.1f}s)"
    )


def test_criterion_8_manifest_rerun_is_bitwise(tmp_path):
    profile_out = tmp_path / "sweep.csv"
    assert cli_main(["profile", "--out", str(profile_out), "--deltas", "1.0,2.0"]) == 0
    fit_out = tmp_path / "fitrun"
    assert (
        cli_main(
            [
                "fit",
                "--out",
                str(fit_out),
                "--num-pairs",
                "8",
                "--batch-size",
                "8",
                "--steps",
                "25",
                "--seed",
                "1",
                "--compare",
                "huber,smooth_iou",
                "--seeds",
                "2",
            ]
        )
        == 0
    )

    replayed = 0
    for manifest_path in (tmp_path / "sweep.manifest.json", fit_out / "manifest.json"):
        outputs = json.loads(manifest_path.read_text())["outputs"]
        before = {p: Path(p).read_bytes() for p in outputs}
        for p in outputs:
            Path(p).unlink()
        assert cli_main(["rerun", str(manifest_path)]) == 0
        after = {p: Path(p).read_bytes() for p in outputs}
        assert after == before
        replayed += len(outputs)

    print(
        "criterion 8 PASS: profile and fit manifests replay to "
        f"bitwise-identical files ({replayed} outputs compared)"
    )
