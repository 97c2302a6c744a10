"""Command line tool: loss profiles, gradient checks, and fitting runs.

Exit codes: 0 success, 1 I/O failure, 2 invalid flags or config,
3 gradient check over tolerance, 4 infeasible dataset generation.

Every file-producing command also writes a manifest recording the command,
the fully resolved configuration, the seed, the tool version, and the output
paths; `boxloss rerun <manifest>` replays it and reproduces the outputs
byte for byte. Numbers are written with shortest round-trip precision.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import operator
import os
import sys
import typing
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

from . import __version__
from .boxes import Box
from .fitting import FitConfig, InfeasibleDatasetError, compare_losses
from .gradients import REGIMES, GradCheckConfig, _check_kinds, finite_diff_check
from .losses import LossKind
from .profiles import SweepConfig, SweepRow, sweep_mismatch

__all__ = ["main"]

_ENV_SEED = "BOXLOSS_SEED"

# The profile CSV's columns, in order: the header and every row.
_SWEEP_COLUMNS = ("x_center", "iou", "huber", "squared", "iou_loss", "smooth_iou")
_sweep_cells = operator.attrgetter(*_SWEEP_COLUMNS)
_TRAJECTORY_HEADER = "step,loss,mean_iou"
_SUMMARY_HEADER = "loss_kind,mean_final_iou,stddev_final_iou,mean_initial_iou"

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


def _write_lines(path: str | Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def _sweep_lines(rows: list[SweepRow]) -> list[str]:
    return [",".join(_SWEEP_COLUMNS)] + [",".join(map(_fmt, _sweep_cells(r))) for r in rows]


def _write_manifest(
    path: str | Path, command: str, config: dict, seed, outputs: list[str]
) -> None:
    payload = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": outputs,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_seed(flag_value, file_value, default: int) -> int:
    """Priority: explicit flag, then config file, then the env var, then default."""
    if flag_value is not None:
        return flag_value
    if file_value is not None:
        return file_value
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        return int(env)
    return default


# ---------------------------------------------------------------------------
# profile


def _execute_profile(cfg: dict) -> list[str]:
    config = SweepConfig(delta=cfg["delta"], num_samples=cfg["samples"])
    out = cfg["out"]
    if not isinstance(out, str):
        raise TypeError(f"out must be a string, got {out!r}")
    stem = out[:-4] if out.endswith(".csv") else out
    outputs: list[str] = []
    if cfg["deltas"]:
        for d in cfg["deltas"]:
            rows = sweep_mismatch(replace(config, delta=d), cfg["mismatch_scale"])
            path = f"{stem}_delta{_fmt(d)}.csv"
            _write_lines(path, _sweep_lines(rows))
            outputs.append(path)
    else:
        rows = sweep_mismatch(config, cfg["mismatch_scale"])
        path = out if out.endswith(".csv") else f"{out}.csv"
        _write_lines(path, _sweep_lines(rows))
        outputs.append(path)
    _write_manifest(f"{stem}.manifest.json", "profile", cfg, None, outputs)
    return outputs


def _cmd_profile(args, parser) -> int:
    deltas = None
    if args.deltas is not None:
        try:
            deltas = [float(part) for part in args.deltas.split(",") if part.strip()]
        except ValueError:
            parser.error(f"--deltas expects a comma-separated float list, got {args.deltas!r}")
        if not deltas:
            parser.error("--deltas expects at least one value")
    cfg = {
        "out": args.out,
        "delta": args.delta,
        "mismatch_scale": args.mismatch_scale,
        "samples": args.samples,
        "deltas": deltas,
    }
    try:
        _execute_profile(cfg)
    except ValueError as exc:
        parser.error(str(exc))
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def _cmd_gradcheck(args, parser) -> int:
    try:
        seed = _resolve_seed(args.seed, None, GradCheckConfig.seed)
    except ValueError:
        parser.error(f"{_ENV_SEED} must be an integer")

    kinds = list(LossKind) if args.loss == "all" else [LossKind(args.loss)]
    failed = False
    # GradCheckConfig and _check_kinds validate --samples, --step and --tol.
    try:
        config = GradCheckConfig(num_samples=args.samples, regime=args.regime, seed=seed)
        results = _check_kinds(kinds, config, tolerance=args.tol, step=args.step)
    except ValueError as exc:
        parser.error(str(exc))
    for kind, result in zip(kinds, results):
        ok = result.max_relative_error <= args.tol
        failed = failed or not ok
        print(
            f"{kind.value}: max_relative_error={result.max_relative_error:.6e} "
            f"checked={result.num_points_checked} "
            f"skipped_near_kink={result.num_skipped_near_kink} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# fit


def _plain(value):
    """A FitConfig value as config dicts and manifests hold it."""
    if isinstance(value, Box):
        return list(value.corners())
    if isinstance(value, Enum):
        return value.value
    return value


def _fit_config_from_dict(cfg: dict) -> FitConfig:
    # Enum fields stay strings here; FitConfig converts and validates them.
    values = {f.name: cfg[key] for key, f in _FIT_FIELDS.items()}
    values["frame"] = Box(*values["frame"])
    return FitConfig(**values)


def _execute_fit(cfg: dict) -> list[str]:
    config = _fit_config_from_dict(cfg)
    kinds = [LossKind(k) for k in (cfg["compare"] or [cfg["loss"]])]
    result = compare_losses(config, kinds, cfg["num_seeds"])

    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    diverged: list[str] = []

    for (kind, seed), run in result.runs.items():
        if run.diverged:
            diverged.append(f"{kind.value} seed {seed}")
        path = outdir / f"trajectory_{kind.value}_seed{seed}.csv"
        lines = [_TRAJECTORY_HEADER]
        for step, (loss, mean_iou) in enumerate(
            zip(run.loss_trajectory, run.iou_trajectory)
        ):
            lines.append(f"{step},{_fmt(loss)},{_fmt(mean_iou)}")
        _write_lines(path, lines)
        outputs.append(str(path))

    summary_path = outdir / "summary.csv"
    lines = [_SUMMARY_HEADER]
    for row in result.rows:
        lines.append(
            f"{row.loss_kind.value},{_fmt(row.mean_final_iou)},"
            f"{_fmt(row.stddev_final_iou)},{_fmt(row.mean_initial_iou)}"
        )
    _write_lines(summary_path, lines)
    outputs.append(str(summary_path))

    _write_manifest(outdir / "manifest.json", "fit", cfg, cfg["seed"], outputs)
    if diverged:
        print(
            "warning: these runs diverged; their trajectories repeat the last finite "
            f"step: {', '.join(diverged)}",
            file=sys.stderr,
        )
    return outputs


def _parse_value(hint: type, text: str):
    """A FitConfig value of type `hint` from text, as config dicts hold it."""
    if hint is Box:
        return [float(part) for part in text.split(",")]
    if issubclass(hint, Enum):
        return text
    return hint(text)


def _read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment.

    Keys are FitConfig field names, with loss_kind spelled `loss`.
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
            try:
                values[key] = _parse_value(_FIT_TYPES[_FIT_FIELDS[key].name], value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _cmd_fit(args, parser) -> int:
    cfg = {key: _plain(f.default) for key, f in _FIT_FIELDS.items()}
    file_values: dict = {}
    if args.config is not None:
        try:
            file_values = _read_config_file(args.config)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            parser.error(str(exc))
    cfg.update(file_values)

    flags = vars(args)
    cfg.update({key: flags[key] for key in _FIT_FLAGS if flags[key] is not None})
    if args.frame is not None:
        try:
            cfg["frame"] = _parse_value(Box, args.frame)
        except ValueError:
            parser.error(f"--frame expects xmin,ymin,xmax,ymax, got {args.frame!r}")
    if args.size_range is not None:
        try:
            lo, hi = (float(part) for part in args.size_range.split(","))
        except ValueError:
            parser.error(f"--size-range expects min,max, got {args.size_range!r}")
        cfg["target_size_min"], cfg["target_size_max"] = lo, hi
    if len(cfg["frame"]) != 4:
        parser.error(f"frame needs exactly 4 coordinates, got {cfg['frame']!r}")

    try:
        cfg["seed"] = _resolve_seed(args.seed, file_values.get("seed"), FitConfig.seed)
    except ValueError:
        parser.error(f"{_ENV_SEED} must be an integer")
    # Unless the file or a flag sets it, the batch size is capped at num_pairs.
    if "batch_size" not in file_values and args.batch_size is None:
        cfg["batch_size"] = min(cfg["batch_size"], cfg["num_pairs"])

    compare = None
    if args.compare is not None:
        compare = [part.strip() for part in args.compare.split(",") if part.strip()]
        if not compare:
            parser.error("--compare expects at least one loss kind")
    cfg["compare"] = compare
    default_seeds = _COMPARE_ARGS["num_seeds"].default if compare else 1
    cfg["num_seeds"] = default_seeds if args.seeds is None else args.seeds
    cfg["out"] = args.out

    try:
        _execute_fit(cfg)
    except ValueError as exc:
        parser.error(str(exc))
    return 0


# ---------------------------------------------------------------------------
# rerun


# The config keys each replayable command records, and its replay function.
_REPLAY = {
    "profile": (("out", "delta", "mismatch_scale", "samples", "deltas"), _execute_profile),
    "fit": ((*_FIT_FIELDS, "compare", "num_seeds", "out"), _execute_fit),
}


def _cmd_rerun(args, parser) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        parser.error("manifest must be a JSON object")
    command, cfg = manifest.get("command"), manifest.get("config")
    if not isinstance(command, str) or command not in _REPLAY:
        parser.error(f"manifest has unknown command {command!r}")
    keys, execute = _REPLAY[command]
    if not isinstance(cfg, dict):
        parser.error("manifest config must be a JSON object")
    missing = [key for key in keys if key not in cfg]
    if missing:
        parser.error(f"manifest config lacks {', '.join(missing)}")
    # Outputs are byte-identical only within one version.
    if manifest.get("version") != __version__:
        parser.error(
            f"manifest is from boxloss {manifest.get('version')!r}, this is {__version__}"
        )
    try:
        execute(cfg)
    except ValueError as exc:
        parser.error(str(exc))
    except TypeError as exc:
        parser.error(f"manifest config has a value of the wrong type: {exc}")
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
    p.add_argument("--delta", type=float, default=SweepConfig.delta, help="Huber threshold")
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
    args = _build_parser().parse_args(argv)
    try:
        # Each subcommand reports its errors with its own parser's usage line.
        return args.run(args, args.parser)
    except InfeasibleDatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid manifest: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
