"""Per-layer micro timings: public functions of each boxloss module, timed
on their own at fixed sizes.

Inputs are generated from the benchmark seed before any timing starts. A
timing repeats its call until `budget` seconds have passed (at least once)
and reports work per reference second (see calibrate.py) over the median
call time.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace
from functools import partial
from typing import Callable

from calibrate import reference_seconds, slowdown


def _rate(work: int, call: Callable[[], object], budget: float) -> float:
    times: list[float] = []
    before = reference_seconds()
    deadline = time.perf_counter() + budget
    while not times or time.perf_counter() < deadline:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return work * slowdown(before, reference_seconds()) / statistics.median(times)


def _over_pairs(fn: Callable, pairs: list) -> Callable[[], list]:
    return lambda: [fn(p, t) for p, t in pairs]


def measure(sizes: dict, seed: int, budget: float) -> dict[str, float]:
    """Return {metric name: rate} for every micro-timed public function."""
    from boxloss import (
        Box,
        FitConfig,
        GradCheckConfig,
        LossKind,
        SweepConfig,
        convexity_violations,
        finite_diff_check,
        fit,
        generate_dataset,
        grad_huber,
        grad_iou_loss,
        grad_squared,
        huber_box,
        iou,
        iou_loss,
        loss_batch,
        squared_box,
        sweep_mismatch,
    )

    small, large = sizes["micro_small"], sizes["micro_large"]
    # The disjoint regime uses fit_wide's wide translation so that rejection
    # sampling accepts often enough; the mixed regime keeps the defaults.
    # batch_size only has to be valid: generate_dataset does not read it.
    datasets = {
        "mixed": FitConfig(num_pairs=large, batch_size=1, regime="mixed", seed=seed),
        "disjoint": FitConfig(
            num_pairs=large, batch_size=1, regime="disjoint", translation_sigma=1.5, seed=seed
        ),
    }
    out: dict[str, float] = {}
    for regime, config in datasets.items():
        out[f"fitting.generate_dataset.{regime}.pairs_per_s.k10000"] = _rate(
            large, partial(generate_dataset, config), budget
        )

    mixed = generate_dataset(datasets["mixed"])
    plateau = generate_dataset(datasets["disjoint"])
    mixed_pairs = list(mixed.pairs())
    plateau_pairs = list(plateau.pairs())
    corners = [b.corners() for b in mixed.predicted]

    out["boxes.Box.new_per_s"] = _rate(large, lambda: [Box(*c) for c in corners], budget)
    out["boxes.iou.pairs_per_s.k10000"] = _rate(large, _over_pairs(iou, mixed_pairs), budget)
    out["boxes.iou.plateau_pairs_per_s.k10000"] = _rate(
        large, _over_pairs(iou, plateau_pairs), budget
    )

    batches = {
        "k50": generate_dataset(replace(datasets["mixed"], num_pairs=small)),
        "k10000": mixed,
    }
    for kind in (LossKind.HUBER, LossKind.SMOOTH_IOU):
        for label, batch in batches.items():
            out[f"losses.loss_batch.{kind.value}.pairs_per_s.{label}"] = _rate(
                len(batch), partial(loss_batch, batch, kind), budget
            )

    for name, fn in (
        ("losses.huber_box", huber_box),
        ("losses.squared_box", squared_box),
        ("losses.iou_loss", iou_loss),
        ("gradients.grad_huber", grad_huber),
        ("gradients.grad_squared", grad_squared),
        ("gradients.grad_iou_loss", grad_iou_loss),
    ):
        out[f"{name}.pairs_per_s"] = _rate(large, _over_pairs(fn, mixed_pairs), budget)
    out["gradients.grad_iou_loss.plateau_pairs_per_s"] = _rate(
        large, _over_pairs(grad_iou_loss, plateau_pairs), budget
    )

    samples = sizes["micro_gradcheck"]
    check_config = GradCheckConfig(num_samples=samples, regime="mixed", seed=seed)
    for kind in LossKind:
        out[f"gradients.finite_diff_check.{kind.value}.samples_per_s"] = _rate(
            samples, partial(finite_diff_check, kind, check_config), budget
        )

    # One seed of the criterion-7 configuration that fit_compare runs.
    pairs, steps = sizes["compare_pairs"], sizes["compare_steps"]
    criterion7 = FitConfig(
        num_pairs=pairs,
        batch_size=pairs,
        steps=steps,
        optimizer="plain_gd",
        momentum_or_decay=0.9,
        learning_rate=0.05,
        regime="mixed",
        seed=seed,
    )
    for kind in (LossKind.HUBER, LossKind.SMOOTH_IOU):
        out[f"fitting.fit.{kind.value}.steps_per_s"] = _rate(
            steps, partial(fit, replace(criterion7, loss_kind=kind)), budget
        )

    n = sizes["scan_samples"]
    sweep_config = SweepConfig(num_samples=n)
    out["profiles.sweep_mismatch.rows_per_s"] = _rate(
        n, partial(sweep_mismatch, sweep_config), budget
    )
    rows = sweep_mismatch(sweep_config)
    # iou_loss is the many-violations case, huber the no-violations case.
    for column in ("iou_loss", "huber"):
        out[f"profiles.convexity_violations.triples_per_s.{column}"] = _rate(
            math.comb(n, 3), partial(convexity_violations, rows, column), budget
        )
    return out
