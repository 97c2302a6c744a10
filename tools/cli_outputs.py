"""Run a fixed list of boxloss commands and keep everything each one produces.

    python3 tools/cli_outputs.py SRC OUT

Each command runs as `python3 -m boxloss.cli ...` with PYTHONPATH=SRC, in its
own new directory OUT/<name>. Beside the files the command writes, that
directory gets `cmd.argv` (the arguments, one per line), `cmd.stdout`,
`cmd.stderr` and `cmd.exit` (the exit code). Two source trees give the same
bytes on this list when `diff -r OUT_A OUT_B` prints nothing.

A `rerun` command first gets a copy of an earlier command's manifest, at the
same relative path, and replays it in its own directory. BOXLOSS_SEED is
unset for every command that does not set it here. OUT must not exist yet.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# Criterion 7: huber against smooth_iou on matched data, 20 seeds.
_CRITERION_7 = [
    "fit", "--out", "run", "--compare", "huber,smooth_iou", "--seeds", "20",
    "--num-pairs", "50", "--batch-size", "50", "--optimizer", "plain_gd",
    "--momentum-or-decay", "0.9", "--lr", "0.05", "--steps", "500", "--seed", "0",
    "--regime", "mixed",
]
_CONFIG_FILE = (
    "num_pairs = 12\nbatch_size = 5\nsteps = 40\nloss = huber\n"
    "optimizer = plain_gd\nlearning_rate = 0.2\n"
)
# A fit manifest of format 0.2.0 whose loss is a JSON list: rerun exits 2
# naming the setting. Its version must be the one under test, or rerun
# refuses the manifest for that first.
_BAD_LOSS_MANIFEST = json.dumps(
    {
        "command": "fit",
        "config": {
            "batch_size": 4, "compare": None, "delta": 1.0, "frame": [0.0, 0.0, 100.0, 100.0],
            "learning_rate": 0.05, "loss": [], "momentum_or_decay": 0.9, "num_pairs": 4,
            "num_seeds": 1, "optimizer": "rmsprop_like", "out": "run", "regime": "mixed",
            "scale_sigma": 0.1, "seed": 1, "steps": 3, "target_size_max": 20.0,
            "target_size_min": 5.0, "translation_sigma": 0.3,
        },
        "outputs": [],
        "seed": 1,
        "version": "0.2.0",
    },
    indent=2,
)

# (name, argv, extras): extras may give "env" (variables to set), "files"
# (name -> text, written before the run) or "manifest" ((command name,
# manifest path) to copy from an earlier command's directory).
COMMANDS = [
    ("criterion7_fit", _CRITERION_7, {}),
    ("criterion8_profile", ["profile", "--out", "sweep.csv", "--deltas", "1.0,2.0"], {}),
    (
        "criterion8_fit",
        [
            "fit", "--out", "fitrun", "--num-pairs", "8", "--batch-size", "8", "--steps", "25",
            "--seed", "1", "--compare", "huber,smooth_iou", "--seeds", "2",
        ],
        {},
    ),
    (
        "criterion8_profile_rerun",
        ["rerun", "sweep.manifest.json"],
        {"manifest": ("criterion8_profile", "sweep.manifest.json")},
    ),
    (
        "criterion8_fit_rerun",
        ["rerun", "fitrun/manifest.json"],
        {"manifest": ("criterion8_fit", "fitrun/manifest.json")},
    ),
    (
        "diverging_compare",
        [
            "fit", "--out", "run", "--compare", "huber,squared,iou,smooth_iou", "--seeds", "2",
            "--lr", "1e308", "--num-pairs", "10", "--batch-size", "3", "--steps", "20",
        ],
        {},
    ),
    (
        "rmsprop_straddling_batch",
        [
            "fit", "--out", "run", "--optimizer", "rmsprop_like", "--num-pairs", "20",
            "--batch-size", "7", "--steps", "60", "--compare", "huber,squared,iou,smooth_iou",
            "--seeds", "2",
        ],
        {},
    ),
    (
        "wide_disjoint_fit",
        [
            "fit", "--out", "run", "--loss", "smooth_iou", "--num-pairs", "1000",
            "--batch-size", "16", "--steps", "63", "--regime", "disjoint",
            "--translation-sigma", "1.5", "--seed", "0",
        ],
        {},
    ),
    (
        "config_fit_env_seed",
        ["fit", "--out", "run", "--config", "fit.cfg"],
        {"env": {"BOXLOSS_SEED": "5"}, "files": {"fit.cfg": _CONFIG_FILE}},
    ),
    ("profile_default", ["profile", "--out", "p.csv"], {}),
    ("profile_deltas", ["profile", "--out", "fig", "--deltas", "1.0,1.5,2.0"], {}),
    (
        "profile_mismatch",
        ["profile", "--out", "m.csv", "--mismatch-scale", "0.75", "--samples", "121",
         "--delta", "3.5"],
        {},
    ),
    # The one path where --mismatch-scale reaches several files.
    (
        "profile_deltas_mismatch",
        ["profile", "--out", "s.csv", "--deltas", "1.0,2.5", "--mismatch-scale", "0.8",
         "--samples", "41"],
        {},
    ),
    *(
        (f"gradcheck_{regime}", ["gradcheck", "--regime", regime, "--samples", "200",
                                 "--seed", "3"], {})
        for regime in ("mixed", "partial", "nested", "shifted", "disjoint")
    ),
    (
        "gradcheck_exit3",
        ["gradcheck", "--loss", "squared", "--samples", "100", "--tol", "1e-16"],
        {},
    ),
    ("exit2_zero_lr", ["fit", "--out", "run", "--lr", "0"], {}),
    ("exit2_three_corner_frame", ["fit", "--out", "run", "--frame", "1,2,3"], {}),
    ("exit2_batch_over_pairs", ["fit", "--out", "run", "--num-pairs", "5", "--batch-size", "6"], {}),
    ("exit2_repeated_delta", ["profile", "--out", "p.csv", "--deltas", "1.0,1.0"], {}),
    ("exit2_zero_mismatch_scale", ["profile", "--out", "p.csv", "--mismatch-scale", "0"], {}),
    (
        "exit2_config_bad_regime",
        ["fit", "--out", "run", "--config", "fit.cfg"],
        {"files": {"fit.cfg": "regime = sideways\n"}},
    ),
    ("exit2_zero_samples", ["gradcheck", "--samples", "0"], {}),
    (
        "exit2_rerun_list_loss",
        ["rerun", "manifest.json"],
        {"files": {"manifest.json": _BAD_LOSS_MANIFEST}},
    ),
    (
        "exit4_infeasible",
        [
            "fit", "--out", "run", "--regime", "disjoint", "--translation-sigma", "0",
            "--scale-sigma", "0", "--steps", "2", "--num-pairs", "2",
        ],
        {},
    ),
]


def run_all(src: Path, out: Path) -> None:
    out.mkdir(parents=True)
    base_env = {key: value for key, value in os.environ.items() if key != "BOXLOSS_SEED"}
    base_env["PYTHONPATH"] = str(src.resolve())
    for name, argv, extras in COMMANDS:
        workdir = out / name
        workdir.mkdir()
        for file_name, text in extras.get("files", {}).items():
            (workdir / file_name).write_text(text, encoding="utf-8")
        if "manifest" in extras:
            source, manifest = extras["manifest"]
            (workdir / manifest).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / source / manifest, workdir / manifest)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "boxloss.cli", *argv],
            cwd=workdir,
            env={**base_env, **extras.get("env", {})},
            capture_output=True,
            timeout=600,
        )
        (workdir / "cmd.argv").write_text("\n".join(argv) + "\n", encoding="utf-8")
        (workdir / "cmd.stdout").write_bytes(proc.stdout)
        (workdir / "cmd.stderr").write_bytes(proc.stderr)
        (workdir / "cmd.exit").write_text(f"{proc.returncode}\n", encoding="utf-8")
        print(f"{name}: exit {proc.returncode} in {time.perf_counter() - started:.2f} s")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cli_outputs.py SRC OUT", file=sys.stderr)
        return 2
    started = time.perf_counter()
    run_all(Path(argv[0]), Path(argv[1]))
    print(f"{len(COMMANDS)} commands in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
