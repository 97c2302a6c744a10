"""Command line tool: loss profiles, gradient checks, and fitting runs.

Exit codes: 0 success, 1 I/O failure or a manifest that is not UTF-8 JSON,
2 invalid flags or config (a value of the wrong type or count, an integer
too large for a float, an unknown manifest key, an empty out or a profile
out that names no file, or a count too large to allocate), 3 gradient
check over tolerance or nan, 4 infeasible dataset generation, 130
interrupted (SIGINT). `main` alone maps failures to these codes.

Every file-producing command also writes a manifest recording the command,
the fully resolved configuration, the seed, the tool, Python and numpy
versions, and the output paths; `boxloss rerun <manifest>` replays it and
reproduces the outputs byte for byte, and says on stderr when it runs on
another Python or numpy. Numbers are written with shortest round-trip
precision.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import operator
import os
import platform
import sys
import typing
from dataclasses import fields, replace
from enum import Enum
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .boxes import Box, _check_choice, _check_numbers, _check_positive
from .fitting import FitConfig, InfeasibleDatasetError, compare_losses
from .gradients import REGIMES, GradCheckConfig, _check_kinds, finite_diff_check
from .losses import LossKind
from .profiles import SweepConfig, _check_deltas, sweep_mismatch

__all__ = ["main"]

_ENV_SEED = "BOXLOSS_SEED"

# The profile CSV's columns, in order: the header and every row.
_SWEEP_COLUMNS = ("x_center", "iou", "huber", "squared", "iou_loss", "smooth_iou")
_sweep_cells = operator.attrgetter(*_SWEEP_COLUMNS)
_TRAJECTORY_HEADER = "step,loss,mean_iou"
# The versions a manifest records besides boxloss's: replayed bytes are
# pinned for one boxloss version on one Python and numpy.
_ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__}
_SUMMARY_HEADER = "loss_kind,mean_final_iou,stddev_final_iou,mean_initial_iou,num_diverged"

# Config-file and manifest key of each FitConfig field: the field's name,
# except that loss_kind is spelled `loss`, like its flag.
_FIT_FIELDS = {("loss" if f.name == "loss_kind" else f.name): f for f in fields(FitConfig)}
_FIT_TYPES = typing.get_type_hints(FitConfig)
# The fit flag of each key that has its own: the key in kebab case, except
# --lr. The frame and the target size range are set by --frame and
# --size-range, which parse composite values.
_FIT_FLAGS = {
    key: "--lr" if key == "learning_rate" else "--" + key.replace("_", "-")
    for key in _FIT_FIELDS
    if key not in ("frame", "target_size_min", "target_size_max")
}
_FIT_HELP = {
    "delta": "Huber threshold",
    "learning_rate": "learning rate",
    "momentum_or_decay": "momentum (plain_gd) or squared-gradient decay (rmsprop_like)",
}
# Defaults of the flags that are library arguments, not config fields, read
# once at import from the library functions' signatures.
_CHECK_ARGS = inspect.signature(finite_diff_check).parameters
_SWEEP_ARGS = inspect.signature(sweep_mismatch).parameters
_COMPARE_ARGS = inspect.signature(compare_losses).parameters


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest string that parses back to the
    # same bits; it always uses '.' regardless of locale.
    return repr(float(value))


def _write_outputs(manifest_path: str | Path, command: str, cfg: dict, seed, files: dict) -> None:
    """Write each file of `files` (a path mapped to its lines), then the manifest."""
    for path, lines in files.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for line in lines:
                fh.write(line + "\n")
    manifest = {"command": command, "config": cfg, "seed": seed, "version": __version__}
    manifest.update(_ENVIRONMENT, outputs=list(files))
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _env_seed(default: int) -> int:
    """The seed of a run that no flag or config file seeds: BOXLOSS_SEED if
    set, else `default`."""
    try:
        return int(os.environ.get(_ENV_SEED, default))
    except ValueError:
        raise ValueError(f"{_ENV_SEED} must be an integer")


def _items(name: str, value, kind: type, length: int | None = None, text: bool = False) -> list:
    """The one check of a list setting: `length` items if given, else one or
    more, each a `kind` (float or LossKind). Text from a flag or a config
    file is split on commas, skipping blank parts; a manifest's value must
    be a JSON list, whose numbers refuse a bool or a string. The message
    names the setting and quotes the value as given."""
    parts = [part.strip() for part in value.split(",") if part.strip()] if text else value
    try:
        if not isinstance(parts, list) or not parts or len(parts) != (length or len(parts)):
            raise ValueError
        if kind is float and not text:
            for part in parts:
                _check_numbers(item=part)
        return [kind(part) for part in parts]
    except (TypeError, ValueError):
        noun = "numbers" if kind is float else "loss kinds"
        form = "separated by commas" if text else "in a JSON list"
        raise ValueError(
            f"{name} expects {length or 'one or more'} {noun} {form}, got {value!r}"
        ) from None


def _out(cfg: dict) -> str:
    """A non-empty output path: an empty one would write a fit run into the
    working directory itself, and a profile as .csv and .manifest.json."""
    out = cfg["out"]
    if not isinstance(out, str) or not out:
        raise ValueError(f"out must be a non-empty string, got {out!r}")
    return out


# ---------------------------------------------------------------------------
# profile


def _execute_profile(cfg: dict) -> None:
    config = SweepConfig(delta=cfg["delta"], num_samples=cfg["samples"])
    out = _out(cfg)
    stem = out[:-4] if out.endswith(".csv") else out
    # A stem that names no file (from ".csv", "dir/" or ".") would write hidden
    # files: .csv and .manifest.json, or ..csv and ..manifest.json.
    if os.path.basename(stem) in ("", ".", ".."):
        raise ValueError(f"out must name a file, got {out!r}")
    if cfg["deltas"] is None:
        runs = {f"{stem}.csv": config}
    else:
        deltas = _items("deltas", cfg["deltas"], float)
        _check_deltas(deltas)
        runs = {f"{stem}_delta{_fmt(d)}.csv": replace(config, delta=d) for d in deltas}
    # The scale is checked under its flag's and manifest's name. Every sweep
    # runs here, before any file opens, so a refused sweep writes nothing;
    # each file's rows are formatted as it is written.
    head, scale = [",".join(_SWEEP_COLUMNS)], cfg["mismatch_scale"]
    _check_positive(mismatch_scale=scale)
    files = {
        path: chain(head, (",".join(map(_fmt, _sweep_cells(r))) for r in sweep_mismatch(c, scale)))
        for path, c in runs.items()
    }
    _write_outputs(f"{stem}.manifest.json", "profile", cfg, None, files)


def _cmd_profile(args) -> int:
    if args.delta is not None and args.deltas is not None:
        raise ValueError("--delta and --deltas cannot be combined")
    cfg = {key: getattr(args, key) for key in _REPLAY["profile"][0]}
    cfg["delta"] = SweepConfig.delta if args.delta is None else args.delta
    if args.deltas is not None:
        cfg["deltas"] = _items("--deltas", args.deltas, float, text=True)
    _execute_profile(cfg)
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def _cmd_gradcheck(args) -> int:
    seed = _env_seed(GradCheckConfig.seed) if args.seed is None else args.seed
    kinds = list(LossKind) if args.loss == "all" else [LossKind(args.loss)]
    # GradCheckConfig and _check_kinds validate --samples, --step and --tol.
    config = GradCheckConfig(num_samples=args.samples, regime=args.regime, seed=seed)
    results = _check_kinds(kinds, config, tolerance=args.tol, step=args.step)
    for kind, result in zip(kinds, results):
        print(
            f"{kind.value}: max_relative_error={result.max_relative_error:.6e} "
            f"checked={result.num_points_checked} "
            f"skipped_near_kink={result.num_skipped_near_kink} "
            f"{'PASS' if result.passed else 'FAIL'}"
        )
    return 0 if all(result.passed for result in results) else 3


# ---------------------------------------------------------------------------
# fit


def _execute_fit(cfg: dict) -> None:
    outdir = Path(_out(cfg))
    # FitConfig converts and validates the other fields.
    values = {f.name: cfg[key] for key, f in _FIT_FIELDS.items()}
    config = FitConfig(**{**values, "frame": Box(*_items("frame", cfg["frame"], float, 4))})
    compare = cfg["compare"]
    kinds = [cfg["loss"]] if compare is None else _items("compare", compare, LossKind)
    result = compare_losses(config, kinds, cfg["num_seeds"])
    runs = result.runs.items()
    files = {
        str(outdir / f"trajectory_{kind.value}_seed{seed}.csv"): chain(
            [_TRAJECTORY_HEADER],
            (
                f"{step},{_fmt(loss)},{_fmt(iou)}"
                for step, (loss, iou) in enumerate(zip(run.loss_trajectory, run.iou_trajectory))
            ),
        )
        for (kind, seed), run in runs
    }
    files[str(outdir / "summary.csv")] = chain(
        [_SUMMARY_HEADER],
        (
            f"{row.loss_kind.value},{_fmt(row.mean_final_iou)},"
            f"{_fmt(row.stddev_final_iou)},{_fmt(row.mean_initial_iou)},{row.num_diverged}"
            for row in result.rows
        ),
    )
    outdir.mkdir(parents=True, exist_ok=True)
    _write_outputs(outdir / "manifest.json", "fit", cfg, cfg["seed"], files)
    diverged = [f"{kind.value} seed {seed}" for (kind, seed), run in runs if run.diverged]
    if diverged:
        print(
            "warning: these runs diverged; their trajectories repeat the last finite "
            f"step: {', '.join(diverged)}",
            file=sys.stderr,
        )


def _read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment.

    Keys are FitConfig field names, once each, with loss_kind spelled `loss`.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            if key not in _FIT_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} is repeated")
            hint = _FIT_TYPES[_FIT_FIELDS[key].name]
            try:
                if hint is Box:
                    values[key] = _items(key, value, float, 4, text=True)
                elif issubclass(hint, Enum):
                    values[key] = _check_choice(key, value, hint)
                else:
                    values[key] = hint(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _cmd_fit(args) -> int:
    if args.loss is not None and args.compare is not None:
        raise ValueError("--loss and --compare cannot be combined")
    # The settings the config file gives, then those the flags give: a flag
    # beats the file (--compare beats its loss), and both beat the defaults.
    given = {} if args.config is None else _read_config_file(args.config)
    flags = vars(args)
    given.update({key: flags[key] for key in _FIT_FLAGS if flags[key] is not None})
    if args.frame is not None:
        given["frame"] = _items("--frame", args.frame, float, 4, text=True)
    if args.size_range is not None:
        size_range = _items("--size-range", args.size_range, float, 2, text=True)
        given["target_size_min"], given["target_size_max"] = size_range

    # Enum members are strs, so manifests hold them as their values.
    cfg = {key: f.default for key, f in _FIT_FIELDS.items()}
    cfg["frame"] = list(FitConfig.frame.corners())
    cfg.update(given)
    # Unless a source sets them, the seed comes from BOXLOSS_SEED and the
    # batch size is capped at num_pairs.
    if "seed" not in given:
        cfg["seed"] = _env_seed(FitConfig.seed)
    if "batch_size" not in given:
        cfg["batch_size"] = min(cfg["batch_size"], cfg["num_pairs"])

    cfg["compare"] = None
    if args.compare is not None:
        cfg["compare"] = _items("--compare", args.compare, LossKind, text=True)
    default_seeds = 1 if cfg["compare"] is None else _COMPARE_ARGS["num_seeds"].default
    cfg["num_seeds"] = default_seeds if args.seeds is None else args.seeds
    cfg["out"] = args.out
    _execute_fit(cfg)
    return 0


# ---------------------------------------------------------------------------
# rerun


# The config keys each replayable command records, and its replay function.
_REPLAY = {
    "profile": (("out", "delta", "mismatch_scale", "samples", "deltas"), _execute_profile),
    "fit": ((*_FIT_FIELDS, "compare", "num_seeds", "out"), _execute_fit),
}


class _UnreadableManifest(Exception):
    """A manifest that is not UTF-8 JSON, or nests too deep to parse."""


def _cmd_rerun(args) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise _UnreadableManifest(exc)
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    command, cfg = manifest.get("command"), manifest.get("config")
    if not isinstance(command, str) or command not in _REPLAY:
        raise ValueError(f"manifest has unknown command {command!r}")
    keys, execute = _REPLAY[command]
    if not isinstance(cfg, dict):
        raise ValueError("manifest config must be a JSON object")
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ValueError(f"manifest config lacks {', '.join(missing)}")
    # Outputs are byte-identical only within one version.
    if manifest.get("version") != __version__:
        raise ValueError(
            f"manifest is from boxloss {manifest.get('version')!r}, this is {__version__}"
        )
    unknown = [key for key in cfg if key not in keys]
    if unknown:
        raise ValueError(f"manifest config has unknown key {unknown[0]!r}")
    execute(cfg)
    recorded = {key: manifest.get(key) for key in _ENVIRONMENT}
    if recorded != _ENVIRONMENT:
        print(
            "warning: manifest was written with python {python} and numpy {numpy}, this is "
            "python {0[python]} and numpy {0[numpy]}; the outputs may differ".format(
                _ENVIRONMENT, **recorded
            ),
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------


# Built once, at first use: the parser holds no state a parse changes (no
# mutable defaults, no append actions), and BOXLOSS_SEED is read per run.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxloss",
        description="Box localization losses: profiles, gradient checks, fitting runs.",
    )
    parser.add_argument("--version", action="version", version=f"boxloss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="write sliding-box loss profiles as CSV")
    p.set_defaults(run=_cmd_profile, parser=p)
    p.add_argument("--out", required=True, help="output CSV path (or stem for --deltas)")
    p.add_argument("--delta", type=float, default=None, help="Huber threshold")
    p.add_argument(
        "--mismatch-scale",
        type=float,
        default=_SWEEP_ARGS["scale"].default,
        help="multiply the sliding box's size by this factor",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=SweepConfig.num_samples,
        help="grid points across the sweep",
    )
    p.add_argument(
        "--deltas",
        default=None,
        help="comma-separated Huber thresholds; writes <out>_delta<d>.csv per value",
    )

    g = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences")
    g.set_defaults(run=_cmd_gradcheck, parser=g)
    g.add_argument(
        "--loss",
        default="all",
        choices=[k.value for k in LossKind] + ["all"],
        help="loss kind to check",
    )
    g.add_argument(
        "--samples",
        type=int,
        default=GradCheckConfig.num_samples,
        help="random pairs to sample",
    )
    step, tol = _CHECK_ARGS["step"].default, _CHECK_ARGS["tolerance"].default
    g.add_argument("--step", type=float, default=step, help="central-difference step")
    g.add_argument("--tol", type=float, default=tol, help="max allowed relative error")
    g.add_argument("--seed", type=int, default=None, help="sampler seed")
    g.add_argument(
        "--regime", default=GradCheckConfig.regime, choices=REGIMES, help="overlap regime"
    )

    f = sub.add_parser("fit", help="fit perturbed boxes back onto synthetic targets")
    f.set_defaults(run=_cmd_fit, parser=f)
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument("--config", default=None, help="flat `key = value` config file")
    f.add_argument("--compare", default=None, help="comma-separated loss kinds to compare")
    f.add_argument("--seeds", type=int, default=None, help="matched seeds per kind")
    f.add_argument("--frame", default=None, help="frame as xmin,ymin,xmax,ymax")
    f.add_argument("--size-range", default=None, help="target size range as min,max")
    for key, flag in _FIT_FLAGS.items():
        hint = _FIT_TYPES[_FIT_FIELDS[key].name]
        if issubclass(hint, Enum):
            kwargs = {"choices": [member.value for member in hint]}
        else:
            kwargs = {"type": hint}
        f.add_argument(flag, dest=key, default=None, help=_FIT_HELP.get(key), **kwargs)

    r = sub.add_parser("rerun", help="replay a recorded manifest byte for byte")
    r.set_defaults(run=_cmd_rerun, parser=r)
    r.add_argument("manifest", help="path to a manifest.json written by a previous run")

    return parser


def main(argv=None) -> int:
    """The CLI's one error boundary: every failure maps to its exit code here."""
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InfeasibleDatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _UnreadableManifest as exc:
        print(f"error: invalid manifest: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    # Bad input exits 2 under the subcommand's usage line, as do a count too
    # large to allocate and a config file that is not UTF-8 (a ValueError).
    except MemoryError as exc:
        args.parser.error(f"out of memory: {exc}")
    except ValueError as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
