"""Run a fixed list of boxloss commands and keep everything each one produces.

    python3 tools/cli_outputs.py SRC OUT

The commands run in this process, through `boxloss.cli.main`, with boxloss
imported from SRC; the tool refuses to run when it finds boxloss anywhere
else. Each command runs in its own new directory OUT/<name>, with
BOXLOSS_SEED unset unless the command sets it, and with COLUMNS at 80, the
width argparse wraps a usage line at when its output is not a terminal.
Beside the files the command writes, that directory gets `cmd.argv` (the
arguments, one per line), `cmd.stdout`, `cmd.stderr` and `cmd.exit` (the
exit code: main's return value, or the code of the SystemExit it raised).
Two source trees give the same bytes on this list when `diff -r OUT_A OUT_B`
prints nothing.

OUT/digests.json holds one sha256 per file under OUT/<name>, keyed by its
path there, and the boxloss `version`, `python` and `numpy` it was made
with. A manifest is hashed without its `python` and `numpy` lines, the one
part of the bytes that names the machine. tests/cli_digests.json is a copy
of that table, which a tier-1 test checks; after a change to the output
bytes, which needs a new boxloss version, copy it there again.

A `rerun` command first gets a copy of an earlier command's manifest, at the
same relative path, with any config keys the command edits, and replays it
in its own directory. OUT must not exist yet; the tool exits 2 if it does.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path
from unittest import mock

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
# (name, argv, extras): extras may give "env" (variables to set), "files"
# (name -> text, written before the run), "manifest" ((command name,
# manifest path) to copy from an earlier command's directory) and "config"
# (key -> value, set in that copy's config).
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
    # A finite scale whose sliding box's corners overflow to infinity.
    ("exit2_huge_mismatch_scale", ["profile", "--out", "p.csv", "--mismatch-scale", "1e308"], {}),
    (
        "exit2_config_bad_regime",
        ["fit", "--out", "run", "--config", "fit.cfg"],
        {"files": {"fit.cfg": "regime = sideways\n"}},
    ),
    (
        "exit2_config_repeated_key",
        ["fit", "--out", "run", "--config", "fit.cfg"],
        {"files": {"fit.cfg": "steps = 5\nsteps = 7\n"}},
    ),
    ("exit2_zero_samples", ["gradcheck", "--samples", "0"], {}),
    # Flag pairs where one flag would be dropped.
    (
        "exit2_loss_with_compare",
        ["fit", "--out", "run", "--loss", "huber", "--compare", "iou,smooth_iou"],
        {},
    ),
    (
        "exit2_delta_with_deltas",
        ["profile", "--out", "p.csv", "--delta", "3", "--deltas", "1,2"],
        {},
    ),
    # A fit manifest whose loss is a JSON list: rerun exits 2 naming the
    # setting, and writes nothing.
    (
        "exit2_rerun_list_loss",
        ["rerun", "fitrun/manifest.json"],
        {"manifest": ("criterion8_fit", "fitrun/manifest.json"), "config": {"loss": []}},
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


def _import_cli(src: Path):
    """boxloss.cli, imported from `src`: the tree whose bytes are kept."""
    sys.path.insert(0, str(src))
    cli = importlib.import_module("boxloss.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"boxloss is imported from {cli.__file__}, not from {src}")
    return cli


def _run(main, argv: list[str], workdir: Path, env: dict) -> tuple[object, str, str]:
    """main(argv) run in `workdir`, with BOXLOSS_SEED unset, COLUMNS at 80
    and then `env` set: its exit code, stdout and stderr. The working
    directory and the environment are restored afterwards."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.chdir(workdir):
        os.environ.pop("BOXLOSS_SEED", None)
        os.environ.update(COLUMNS="80", **env)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def _digest(path: Path) -> str:
    """sha256 of a file's bytes; of a manifest's without its python and
    numpy lines."""
    data = path.read_bytes()
    if path.name.endswith("manifest.json"):
        lines = data.splitlines(keepends=True)
        data = b"".join(
            line for line in lines if not line.startswith((b'  "python": ', b'  "numpy": '))
        )
    return hashlib.sha256(data).hexdigest()


def run_all(src: Path, out: Path) -> dict:
    """Run every command of COMMANDS into OUT/<name>, write OUT/digests.json
    and return its table."""
    src = src.resolve()
    cli = _import_cli(src)
    out.mkdir(parents=True)
    for name, argv, extras in COMMANDS:
        workdir = out / name
        workdir.mkdir()
        for file_name, text in extras.get("files", {}).items():
            (workdir / file_name).write_text(text, encoding="utf-8")
        if "manifest" in extras:
            source, manifest = extras["manifest"]
            (workdir / manifest).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / source / manifest, workdir / manifest)
            if "config" in extras:
                # Written as boxloss writes a manifest, so that _digest can
                # leave out its python and numpy lines.
                recorded = json.loads((workdir / manifest).read_text(encoding="utf-8"))
                recorded["config"].update(extras["config"])
                text = json.dumps(recorded, indent=2, sort_keys=True) + "\n"
                (workdir / manifest).write_text(text, encoding="utf-8")
        started = time.perf_counter()
        code, stdout, stderr = _run(cli.main, argv, workdir, extras.get("env", {}))
        (workdir / "cmd.argv").write_text("\n".join(argv) + "\n", encoding="utf-8")
        (workdir / "cmd.stdout").write_text(stdout, encoding="utf-8")
        (workdir / "cmd.stderr").write_text(stderr, encoding="utf-8")
        (workdir / "cmd.exit").write_text(f"{code}\n", encoding="utf-8")
        print(f"{name}: exit {code} in {time.perf_counter() - started:.2f} s")
    files = {
        path.relative_to(out).as_posix(): _digest(path)
        for name, _, _ in COMMANDS
        for path in sorted((out / name).rglob("*"))
        if path.is_file()
    }
    table = {"version": cli.__version__, **cli._ENVIRONMENT, "files": files}
    with open(out / "digests.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(table, fh, indent=2)
        fh.write("\n")
    return table


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cli_outputs.py SRC OUT", file=sys.stderr)
        return 2
    if Path(argv[1]).exists():
        print(f"error: OUT {argv[1]!r} already exists", file=sys.stderr)
        return 2
    started = time.perf_counter()
    run_all(Path(argv[0]), Path(argv[1]))
    print(f"{len(COMMANDS)} commands in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
