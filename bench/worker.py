"""Benchmark worker: runs one boxloss workload in a fresh process.

run.py starts this file once per set-up probe and once per measured run, so
that set-up time and peak memory belong to a single run. The worker imports
boxloss from the checkout's src/, drives the workload in-process through
boxloss.cli.main plus the library calls the CLI does not expose, and prints
one JSON report of raw observations as the last line of stdout. run.py turns
the report into metrics and correctness verdicts.

Each workload is a closed loop: one iteration starts only after the previous
one has finished. Iteration i draws its inputs from the benchmark seed and i
alone, and the seed reaches boxloss only as a --seed flag.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Work sizes. "smoke" shrinks every size for the smoke test; the metric names
# keep their full-size labels (k50, k10000).
SIZES = {
    "full": {
        "compare_pairs": 50,
        "compare_steps": 500,
        "compare_seeds": 1,
        "wide_pairs": 1000,
        "wide_batch": 16,
        "wide_steps": 63,
        "gradcheck_samples": 500,
        "scan_samples": 121,
        "micro_small": 50,
        "micro_large": 10000,
        "micro_gradcheck": 500,
        "traced_iterations": 3,
    },
    "smoke": {
        "compare_pairs": 6,
        "compare_steps": 8,
        "compare_seeds": 1,
        "wide_pairs": 48,
        "wide_batch": 16,
        "wide_steps": 3,
        "gradcheck_samples": 20,
        "scan_samples": 21,
        "micro_small": 6,
        "micro_large": 48,
        "micro_gradcheck": 10,
        "traced_iterations": 1,
    },
}

# Spans of the traced run; bench.iteration is the root, one per iteration.
ROOT_SPAN = "bench.iteration"
SPANS = (
    ROOT_SPAN,
    "cli.main",
    "fitting.compare_losses",
    "fitting.fit",
    "fitting.generate_dataset",
    "losses.loss_batch",
    "gradients.grad_huber",
    "gradients.grad_iou_loss",
    "boxes.iou",
    "gradients.finite_diff_check",
    "profiles.sweep_mismatch",
    "profiles.convexity_violations",
)

SCAN_COLUMNS = ("huber", "squared", "iou_loss", "smooth_iou", "iou")
_GRADCHECK_LINE = re.compile(
    r"^(\w+): max_relative_error=(\S+) checked=\d+ skipped_near_kink=\d+ (PASS|FAIL)$"
)
# Seeds of iteration i start at seed * _SEED_STRIDE, so two benchmark seeds
# never share inputs unless a run makes that many iterations.
_SEED_STRIDE = 100_000


class Api:
    """The entry points the workloads call; the traced run swaps in wrappers.

    compare_losses is wrapped in boxloss.cli so its return value is kept:
    the CLI drops FitResult.diverged, and the benchmark checks it.
    """

    def __init__(self) -> None:
        from boxloss import cli, profiles

        self.cli_main = cli.main
        self.sweep = profiles.sweep
        self.convexity_violations = profiles.convexity_violations
        self.comparisons: list = []
        compare_losses = cli.compare_losses

        def capturing(*args, **kwargs):
            result = compare_losses(*args, **kwargs)
            self.comparisons.append(result)
            return result

        cli.compare_losses = capturing

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run one CLI command; return its exit code and captured stdout."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = self.cli_main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue()

    def fit(self, argv: list[str], ops: int, pair_evals: int) -> dict:
        self.comparisons.clear()
        start = time.perf_counter()
        code, _ = self.cli(argv)
        seconds = time.perf_counter() - start
        runs, final_iou = [], {}
        for result in self.comparisons:
            runs += [
                {"kind": kind.value, "seed": seed, "diverged": run.diverged}
                for (kind, seed), run in result.runs.items()
            ]
            final_iou.update({row.loss_kind.value: row.mean_final_iou for row in result.rows})
        return {
            "seconds": seconds,
            "ops": ops,
            "exit": code,
            "runs": runs,
            "final_iou": final_iou,
            "pair_evals": pair_evals,
        }


class FitCompare:
    """Criterion 7: huber vs smooth_iou, full batch, plain_gd with momentum."""

    kinds = ("huber", "smooth_iou")

    def __init__(self, api: Api, sizes: dict, seed: int) -> None:
        self.api, self.sizes, self.base = api, sizes, seed * _SEED_STRIDE
        self.ops = len(self.kinds) * sizes["compare_seeds"]

    def run(self, i: int, out: str) -> dict:
        pairs, steps, seeds = (
            self.sizes["compare_pairs"],
            self.sizes["compare_steps"],
            self.sizes["compare_seeds"],
        )
        argv = [
            "fit", "--out", out,
            "--compare", ",".join(self.kinds), "--seeds", str(seeds),
            "--num-pairs", str(pairs), "--batch-size", str(pairs),
            "--optimizer", "plain_gd", "--momentum-or-decay", "0.9", "--lr", "0.05",
            "--steps", str(steps), "--regime", "mixed",
            "--seed", str(self.base + i * seeds),
        ]
        return self.api.fit(argv, self.ops, self.ops * pairs * (steps + 1))


class FitWide:
    """A thousand disjoint pairs, small minibatches, one epoch."""

    ops = 1

    def __init__(self, api: Api, sizes: dict, seed: int) -> None:
        self.api, self.sizes, self.base = api, sizes, seed * _SEED_STRIDE

    def run(self, i: int, out: str) -> dict:
        pairs, steps = self.sizes["wide_pairs"], self.sizes["wide_steps"]
        argv = [
            "fit", "--out", out, "--loss", "smooth_iou",
            "--num-pairs", str(pairs), "--batch-size", str(self.sizes["wide_batch"]),
            "--steps", str(steps),
            "--regime", "disjoint", "--translation-sigma", "1.5",
            "--seed", str(self.base + i),
        ]
        return self.api.fit(argv, self.ops, pairs * (steps + 1))


class Study:
    """gradcheck, profile, then the convexity scan; no fitting."""

    # 4 gradcheck kinds, 1 profile command, 5 scan columns.
    ops = 4 + 1 + len(SCAN_COLUMNS)

    def __init__(self, api: Api, sizes: dict, seed: int) -> None:
        self.api, self.sizes, self.base = api, sizes, seed * _SEED_STRIDE

    def run(self, i: int, out: str) -> dict:
        from boxloss import SweepConfig

        samples, n = self.sizes["gradcheck_samples"], self.sizes["scan_samples"]
        t0 = time.perf_counter()
        check_exit, text = self.api.cli(
            ["gradcheck", "--loss", "all", "--samples", str(samples),
             "--regime", "mixed", "--seed", str(self.base + i)]
        )
        t1 = time.perf_counter()
        profile_exit, _ = self.api.cli(
            ["profile", "--out", f"{out}/profile.csv",
             "--deltas", "1.0,1.5,2.0", "--samples", str(n)]
        )
        rows = self.api.sweep(SweepConfig(num_samples=n))
        t3 = time.perf_counter()
        violations = {c: len(self.api.convexity_violations(rows, c)) for c in SCAN_COLUMNS}
        t4 = time.perf_counter()

        gradcheck = {}
        for line in text.splitlines():
            match = _GRADCHECK_LINE.match(line)
            if match:
                kind, err, status = match.groups()
                gradcheck[kind] = {"max_rel_err": float(err), "status": status}
        return {
            "seconds": t4 - t0,
            "ops": self.ops,
            "gradcheck_s": t1 - t0,
            "scan_s": t4 - t3,
            "gradcheck_exit": check_exit,
            "gradcheck": gradcheck,
            "gradcheck_pairs": samples * 4,
            "profile_exit": profile_exit,
            "scan_samples": n,
            "violations": violations,
        }


WORKLOADS = {"fit_compare": FitCompare, "fit_wide": FitWide, "study": Study}


def _tree_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def run_iteration(workload, i: int, run) -> dict:
    """One closed-loop iteration in a fresh output directory, which is
    measured and removed after the timed call returns."""
    out = f"it{i:05d}"
    os.mkdir(out)
    try:
        record = run(i, out)
    except Exception:  # an iteration boundary: report it and keep measuring
        traceback.print_exc()
        record = {"error": traceback.format_exc().splitlines()[-1], "ops": workload.ops}
    record["bytes_written"] = _tree_bytes(out)
    shutil.rmtree(out)
    return record


def run_iterations(workload, run, more) -> list[dict]:
    """Iterations 0, 1, ... while more(count so far); each record carries the
    machine slowdown measured around it (see calibrate.py)."""
    from calibrate import reference_seconds, slowdown

    records: list[dict] = []
    before = reference_seconds()
    while more(len(records)):
        record = run_iteration(workload, len(records), run)
        after = reference_seconds()
        record["slowdown"] = slowdown(before, after)
        records.append(record)
        before = after
    return records


def closed_loop(workload, seconds: float) -> list[dict]:
    start = time.monotonic()
    return run_iterations(
        workload, workload.run, lambda done: done == 0 or time.monotonic() - start < seconds
    )


def instrument(tracer, api: Api) -> dict:
    """Patch every traced name and return the counters the patches feed."""
    from boxloss import boxes, cli, fitting, gradients, losses, profiles

    counts = dict.fromkeys(
        ("boxes", "dataset_pairs", "grad_iou", "grad_iou_zero", "checked", "samples"), 0
    )

    def on_dataset(args, kwargs, batch):
        counts["dataset_pairs"] += len(batch)

    def on_grad_iou(args, kwargs, grad):
        counts["grad_iou"] += 1
        counts["grad_iou_zero"] += grad.components() == (0.0, 0.0, 0.0, 0.0)

    def on_check(args, kwargs, result):
        config = args[1] if len(args) > 1 else kwargs["config"]
        counts["checked"] += result.num_points_checked
        counts["samples"] += config.num_samples

    api.cli_main = tracer.wrap("cli.main", api.cli_main)
    api.convexity_violations = tracer.wrap(
        "profiles.convexity_violations", api.convexity_violations
    )
    tracer.patch("fitting.compare_losses", cli, "compare_losses")
    tracer.patch("gradients.finite_diff_check", cli, "finite_diff_check", on_check)
    tracer.patch("profiles.sweep_mismatch", cli, "sweep_mismatch")
    tracer.patch("fitting.fit", fitting, "fit")
    tracer.patch("fitting.generate_dataset", fitting, "generate_dataset", on_dataset)
    tracer.patch("losses.loss_batch", fitting, "loss_batch")
    for module in (fitting, gradients):
        tracer.patch("gradients.grad_huber", module, "grad_huber")
        tracer.patch("gradients.grad_iou_loss", module, "grad_iou_loss", on_grad_iou)
    for module in (losses, gradients, fitting, profiles):
        tracer.patch("boxes.iou", module, "iou")

    post_init = boxes.Box.__post_init__

    def counted_post_init(self):
        counts["boxes"] += 1
        post_init(self)

    boxes.Box.__post_init__ = counted_post_init
    return counts


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_run(api: Api, workload, sizes: dict, seed: int, seconds: float) -> dict:
    """Micro timings, then the same iterations untraced and traced."""
    from layers import measure
    from spans import Tracer

    layer_metrics = measure(sizes, seed, budget=seconds / 40)
    count = sizes["traced_iterations"]
    untraced = run_iterations(workload, workload.run, lambda done: done < count)

    tracer = Tracer()
    counts = instrument(tracer, api)
    root = tracer.wrap(ROOT_SPAN, workload.run)
    traced = run_iterations(workload, root, lambda done: done < count)

    # Span times are summed over the traced iterations, so they are
    # calibrated by those iterations' mean slowdown.
    traced_slowdown = statistics.fmean(r["slowdown"] for r in traced)
    for name in SPANS:
        calls, busy, own = tracer.totals(name)
        layer_metrics[f"{name}.calls"] = calls
        layer_metrics[f"{name}.busy_s"] = busy / traced_slowdown
        layer_metrics[f"{name}.self_s"] = own / traced_slowdown
    iou_in_dataset = tracer.calls("boxes.iou", parent="fitting.generate_dataset")

    def median_seconds(records):
        return statistics.median(r.get("seconds", 0.0) / r["slowdown"] for r in records)

    layer_metrics.update(
        {
            "boxes.Box.count": counts["boxes"],
            "fitting.generate_dataset.accept_ratio": _ratio(
                counts["dataset_pairs"], iou_in_dataset
            ),
            "gradients.grad_iou_loss.plateau_share": _ratio(
                counts["grad_iou_zero"], counts["grad_iou"]
            ),
            "gradients.finite_diff_check.checked_ratio": _ratio(
                counts["checked"], counts["samples"]
            ),
            "cli.bytes_written": sum(r["bytes_written"] for r in traced),
            "trace.overhead_s": median_seconds(traced) - median_seconds(untraced),
        }
    )
    return {"records": untraced + traced, "layers": layer_metrics}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--probe", action="store_true", help="set up, report, exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    try:
        import boxloss
    except ImportError as exc:
        print(f"error: cannot import boxloss from {SRC}: {exc}", file=sys.stderr)
        return 1
    if not Path(boxloss.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported boxloss from {boxloss.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import numpy

    sizes = SIZES["smoke" if args.smoke else "full"]
    api = Api()
    workload = WORKLOADS[args.workload](api, sizes, args.seed)
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    try:
        report = {
            "ready": time.monotonic(),
            "numpy": numpy.__version__,
            "boxloss": boxloss.__version__,
        }
        if args.probe:
            report["records"] = []
        elif args.trace:
            report.update(traced_run(api, workload, sizes, args.seed, args.seconds))
        else:
            report["records"] = closed_loop(workload, args.seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # fails while another worker still uses it
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
