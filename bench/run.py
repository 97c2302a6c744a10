"""boxloss benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {fit_compare,fit_wide,study} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; paths are resolved from this file. The run starts
set-up probes and one measured worker process (worker.py), one at a time,
so never more than one process besides itself. With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it stamp the environment and list every
metric, including the workload-specific ones that are not in
BENCHMARK.json. Exit code 0 means every correctness check passed, 1 means
one failed (the result line is still printed), 2 means the benchmark could
not run (no result line). See README.md in this directory for the design.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up probes, half before and half after the measured worker, so that
# setup_s samples the machine at two moments about a run apart.
SETUP_PROBES = 12
# Every worker must finish within this many seconds of the start of the run.
DEADLINE_S = 170.0

GRADCHECK_KINDS = ("huber", "squared", "iou", "smooth_iou")
# Convexity-violation counts of each sweep column, by sweep size, recorded
# from boxloss 0.1.0. The huber and squared columns are convex.
EXPECTED_VIOLATIONS = {
    121: {"huber": 0, "squared": 0, "iou_loss": 106174, "smooth_iou": 35956, "iou": 143938},
    21: {"huber": 0, "squared": 0, "iou_loss": 446, "smooth_iou": 138, "iou": 660},
}
# Units of the metrics printed but not in BENCHMARK.json: end-to-end metrics
# that apply to some workloads only, can read 0 or vary with the seed, so none
# can carry a relative regression bound; and two calibration diagnostics.
EXTRA_UNITS = {
    "gradcheck_pairs_per_s": "pairs/s",
    "scan_triples_per_s": "triples/s",
    "max_rel_err": "ratio",
    "mean_final_iou": "IoU",
    "smooth_minus_huber_iou": "IoU",
    "fail_ratio": "ratio",
    "measured_wall_s": "s",
    "slowdown": "x",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args, probe: bool, deadline: float) -> tuple[dict, float]:
    """Run one worker; return its report and its set-up seconds.

    Set-up time is not calibrated (see calibrate.py): it is mostly loading
    shared libraries, whose speed does not follow the reference kernel's."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--smoke"] * args.smoke + ["--probe"] * probe
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **THREAD_ENV},
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {exc.timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    return report, report["ready"] - start


def check(workload: str, records: list[dict]) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations; list what failed."""
    attempted = failed = 0
    problems: list[str] = []

    def fail(count: int, why: str) -> None:
        nonlocal failed
        failed += count
        problems.append(why)

    for i, r in enumerate(records):
        attempted += r["ops"]
        if "error" in r:
            fail(r["ops"], f"iteration {i}: {r['error']}")
        elif workload in ("fit_compare", "fit_wide"):
            if r["exit"] != 0 or len(r["runs"]) != r["ops"]:
                fail(r["ops"], f"iteration {i}: fit exited {r['exit']}")
                continue
            for run in r["runs"]:
                if run["diverged"]:
                    fail(1, f"iteration {i}: {run['kind']} seed {run['seed']} diverged")
        else:
            exit_code = r["gradcheck_exit"]
            for kind in GRADCHECK_KINDS:
                status = r["gradcheck"].get(kind, {}).get("status")
                if exit_code != 0 or status != "PASS":
                    fail(1, f"iteration {i}: gradcheck {kind} {status} (exit {exit_code})")
            if r["profile_exit"] != 0:
                fail(1, f"iteration {i}: profile exited {r['profile_exit']}")
            expected = EXPECTED_VIOLATIONS.get(r["scan_samples"], {})
            for column, count in r["violations"].items():
                want = expected.get(column)
                if count != want:
                    fail(1, f"iteration {i}: {column} has {count} violations, expected {want}")
    return attempted, failed, problems


def _median(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("no iteration completed")
    return statistics.median(values)


def end_to_end(workload: str, report: dict, setup: list[float]) -> dict[str, float]:
    """Every end-to-end metric, the BENCHMARK.json ones and the
    workload-specific extras."""
    # Records of failed commands carry no results; check() counted them.
    ok = [r for r in report["records"] if "error" not in r and r.get("exit", 0) == 0]
    # Times in reference seconds; see calibrate.py.
    wall = _median(r["seconds"] / r["slowdown"] for r in ok)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mb": report["peak_rss_mb"],
        "measured_wall_s": _median(r["seconds"] for r in ok),
        "slowdown": _median(r["slowdown"] for r in ok),
    }
    if workload == "study":
        gradcheck = _median(r["gradcheck_pairs"] * r["slowdown"] / r["gradcheck_s"] for r in ok)
        n = ok[0]["scan_samples"]
        metrics["pairs_per_s"] = gradcheck
        metrics["gradcheck_pairs_per_s"] = gradcheck
        metrics["scan_triples_per_s"] = len(ok[0]["violations"]) * math.comb(n, 3) / _median(
            r["scan_s"] / r["slowdown"] for r in ok
        )
        metrics["max_rel_err"] = max(
            (kind["max_rel_err"] for r in ok for kind in r["gradcheck"].values()), default=0.0
        )
    else:
        metrics["pairs_per_s"] = ok[0]["pair_evals"] / wall
        metrics["mean_final_iou"] = statistics.fmean(r["final_iou"]["smooth_iou"] for r in ok)
        if workload == "fit_compare":
            metrics["smooth_minus_huber_iou"] = statistics.fmean(
                r["final_iou"]["smooth_iou"] - r["final_iou"]["huber"] for r in ok
            )
    return metrics


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, report: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "iterations": len(report.get("records", [])),
        "git_sha": _git_sha(),
        "boxloss": report["boxloss"],
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit_compare", "fit_wide", "study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def run(args) -> int:
    os.environ.update(THREAD_ENV)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S
    setup = [_worker(args, True, deadline)[1] for _ in range(SETUP_PROBES // 2)]
    report, seconds = _worker(args, False, deadline)
    setup.append(seconds)
    setup += [_worker(args, True, deadline)[1] for _ in range(SETUP_PROBES // 2)]

    attempted, failed, problems = check(args.workload, report["records"])
    for why in problems[:20]:
        print(f"check failed: {why}", file=sys.stderr)

    if args.trace:
        measured = report["layers"]
        wanted = spec["per_layer"]
    else:
        measured = end_to_end(args.workload, report, setup)
        measured["fail_ratio"] = failed / attempted
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(measured))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")

    print("env " + json.dumps(stamp(args, report), sort_keys=True))
    for name, value in measured.items():
        print(f"{name:<56} {value!r:>24} {units.get(name) or EXTRA_UNITS[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
