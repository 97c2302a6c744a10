"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench

Not part of the tier-1 suite (pyproject's testpaths is tests/), so tier-1
time does not grow.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = run.ROOT, script: Path = run.BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", "--smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result, proc = _bench("--workload", workload, "--trace", str(trace))
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        code, result, proc = _bench("--workload", "fit_compare", "--trace", "1")
        assert code == 0, proc.stderr
        counts.append(
            {
                name: metric["value"]
                for name, metric in result["metrics"].items()
                if metric["unit"] in ("count", "ratio", "bytes")
            }
        )
    assert counts[0] == counts[1]
    assert counts[0]["boxes.iou.calls"] > 0


def test_wrong_expected_violation_count_is_a_failure(monkeypatch, capsys):
    n = run.EXPECTED_VIOLATIONS[21]
    monkeypatch.setitem(run.EXPECTED_VIOLATIONS, 21, {**n, "iou_loss": n["iou_loss"] + 1})
    code = run.main(
        ["--workload", "study", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no src/ to import.
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = _bench(
        "--workload", "study", "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py"
    )
    assert code != 0 and result is None
