"""Command line behavior: outputs, formats, exit codes, seed resolution, and
manifest replay. Everything runs in process through main(argv), except the
interrupt test, which sends a real SIGINT to a child process."""

import argparse
import contextlib
import importlib.util
import inspect
import io
import json
import math
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxloss import fitting, gradients
from boxloss import (
    FitConfig,
    SweepConfig,
    __version__,
    compare_losses,
    sweep,
    sweep_mismatch,
)
from boxloss.cli import _build_parser, main

_ROOT = Path(__file__).resolve().parents[1]


def _read(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text.splitlines()


def _parse_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = _read(path)
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


def _exit_2_message(capsys, argv: list[str]) -> str:
    """The one-line message of a command that must exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.splitlines()[-1]


def _replay_edited(capsys, manifest_path: Path, **config) -> str:
    """Set config keys in a written manifest, delete its outputs, and return
    the message of a rerun that must exit 2 and write nothing."""
    manifest = json.loads(manifest_path.read_text())
    manifest["config"].update(config)
    manifest_path.write_text(json.dumps(manifest))
    for output in manifest["outputs"]:
        Path(output).unlink()
    message = _exit_2_message(capsys, ["rerun", str(manifest_path)])
    assert not any(Path(output).exists() for output in manifest["outputs"])
    return message


class TestProfileCommand:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["profile", "--out", str(out)]) == 0
        header, rows = _parse_csv(out)
        assert header == ["x_center", "iou", "huber", "squared", "iou_loss", "smooth_iou"]
        assert len(rows) == 161

        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["command"] == "profile"
        assert manifest["seed"] is None
        assert manifest["version"]
        assert manifest["outputs"] == [str(out)]

    def test_values_round_trip_exactly(self, tmp_path):
        # repr formatting guarantees float(cell) recovers the computed bits.
        out = tmp_path / "sweep.csv"
        main(["profile", "--out", str(out)])
        _, rows = _parse_csv(out)
        for row, expected in zip(rows, sweep()):
            assert row == [
                expected.x_center,
                expected.iou,
                expected.huber,
                expected.squared,
                expected.iou_loss,
                expected.smooth_iou,
            ]

    def test_appends_csv_suffix(self, tmp_path):
        out = tmp_path / "sweep"
        main(["profile", "--out", str(out)])
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.manifest.json").exists()

    def test_mismatch_scale(self, tmp_path):
        out = tmp_path / "m.csv"
        main(["profile", "--out", str(out), "--mismatch-scale", "0.75"])
        _, rows = _parse_csv(out)
        expected = sweep_mismatch(SweepConfig(), 0.75)
        iou_column = [row[1] for row in rows]
        assert max(iou_column) == 0.5625
        assert iou_column == [r.iou for r in expected]

    def test_deltas_write_one_file_per_threshold(self, tmp_path):
        stem = tmp_path / "fig"
        main(["profile", "--out", str(stem), "--deltas", "1.0,2.0"])
        first = tmp_path / "fig_delta1.0.csv"
        second = tmp_path / "fig_delta2.0.csv"
        assert first.exists() and second.exists()
        manifest = json.loads((tmp_path / "fig.manifest.json").read_text())
        assert manifest["outputs"] == [str(first), str(second)]
        # delta moves the huber column but not the iou column
        _, rows1 = _parse_csv(first)
        _, rows2 = _parse_csv(second)
        assert [r[1] for r in rows1] == [r[1] for r in rows2]
        assert [r[2] for r in rows1] != [r[2] for r in rows2]

    def test_invalid_flags_exit_2(self, tmp_path):
        out = str(tmp_path / "x.csv")
        for argv in (
            ["profile", "--out", out, "--samples", "1"],
            ["profile", "--out", out, "--delta", "0"],
            ["profile", "--out", out, "--mismatch-scale", "-1"],
            ["profile", "--out", out, "--deltas", "a,b"],
            ["profile", "--out", out, "--deltas", ","],
            ["profile", "--out", out, "--deltas", "1.0,2.0,1"],
            ["profile"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_delta_with_deltas_exits_2(self, tmp_path, capsys):
        # --deltas would run without the one --delta, which the manifest
        # would still record.
        argv = ["profile", "--out", str(tmp_path / "p.csv"), "--delta", "3", "--deltas", "1,2"]
        message = _exit_2_message(capsys, argv)
        assert message == "boxloss profile: error: --delta and --deltas cannot be combined"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_exits_1(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["profile", "--out", str(missing)]) == 1

    @pytest.mark.parametrize("out", [".csv", "somedir/", "somedir/.csv", ".", "somedir/.."])
    @pytest.mark.parametrize("via", ["flag", "manifest"])
    def test_out_that_names_no_file_exits_2(self, tmp_path, capsys, monkeypatch, out, via):
        # Each out's stem names a directory: it would write hidden files, such
        # as .csv and .manifest.json.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "somedir").mkdir()
        argv = ["profile", "--out", out, "--samples", "21"]
        if via == "manifest":
            Path("m.json").write_text(json.dumps(_manifest("profile", out=out)))
            argv = ["rerun", "m.json"]
        message = _exit_2_message(capsys, argv)
        assert message == f"boxloss {argv[0]}: error: out must name a file, got {out!r}"
        written = {path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")}
        assert written == ({"somedir", "m.json"} if via == "manifest" else {"somedir"})

    def test_repeated_delta_in_a_manifest_exits_2(self, tmp_path, capsys):
        assert main(["profile", "--out", str(tmp_path / "p"), "--deltas", "1.0,2.0"]) == 0
        message = _replay_edited(capsys, tmp_path / "p.manifest.json", deltas=[2.0, 1.0, 2.0])
        assert message == "boxloss rerun: error: delta 2.0 is repeated in deltas"


class TestGradcheckCommand:
    def test_all_kinds_pass(self, capsys):
        code = main(["gradcheck", "--samples", "150", "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        reported = []
        for line in lines:
            kind, rest = line.split(":", 1)
            reported.append(kind)
            assert "max_relative_error=" in rest
            assert "checked=" in rest
            assert "skipped_near_kink=" in rest
            assert rest.strip().endswith("PASS")
        assert reported == ["huber", "squared", "iou", "smooth_iou"]

    def test_single_kind(self, capsys):
        assert main(["gradcheck", "--loss", "huber", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("huber:")
        assert out.count("\n") == 1

    def test_disjoint_iou_reports_zero_error(self, capsys):
        code = main(
            ["gradcheck", "--loss", "iou", "--regime", "disjoint", "--samples", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max_relative_error=0.000000e+00" in out

    def test_unattainable_tolerance_exits_3(self, capsys):
        code = main(
            ["gradcheck", "--loss", "squared", "--samples", "100", "--tol", "1e-16"]
        )
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_a_nan_gradient_fails(self, monkeypatch, capsys):
        nan_rows = lambda p, t, overlap, lam, params: np.full_like(p, math.nan)
        monkeypatch.setitem(gradients._PAIR_GRAD, gradients.LossKind.HUBER, nan_rows)
        assert main(["gradcheck", "--loss", "huber", "--samples", "50"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("huber: max_relative_error=nan ") and out.endswith(" FAIL\n")
        assert out.count("\n") == 1

    def test_invalid_flags_exit_2(self):
        for argv in (
            ["gradcheck", "--samples", "0"],
            ["gradcheck", "--step", "1"],
            ["gradcheck", "--step", "1e-9"],
            ["gradcheck", "--tol", "0"],
            ["gradcheck", "--tol", "nan"],
            ["gradcheck", "--step", "nan"],
            ["gradcheck", "--loss", "absolute"],
            ["gradcheck", "--regime", "upside_down"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_all_kinds_draw_the_samples_once(self, monkeypatch, capsys):
        drawn = []
        sample_pairs = gradients._sample_pairs

        def counted(u, z, regime):
            drawn.append(len(u))
            return sample_pairs(u, z, regime)

        monkeypatch.setattr(gradients, "_sample_pairs", counted)
        assert main(["gradcheck", "--loss", "all", "--samples", "50"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert drawn == [50]

    def test_library_error_prints_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--step", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: boxloss gradcheck")


# Each fit flag, a non-default value, and the config keys it sets.
_FIT_FLAG_CASES = [
    ("--num-pairs", "3", {"num_pairs": 3, "batch_size": 3}),
    ("--frame", "0,0,40,60", {"frame": [0.0, 0.0, 40.0, 60.0]}),
    ("--size-range", "4,9", {"target_size_min": 4.0, "target_size_max": 9.0}),
    ("--translation-sigma", "0.2", {"translation_sigma": 0.2}),
    ("--scale-sigma", "0.05", {"scale_sigma": 0.05}),
    ("--regime", "overlapping", {"regime": "overlapping"}),
    ("--loss", "huber", {"loss": "huber"}),
    ("--delta", "2.5", {"delta": 2.5}),
    ("--optimizer", "plain_gd", {"optimizer": "plain_gd"}),
    ("--lr", "0.01", {"learning_rate": 0.01}),
    ("--momentum-or-decay", "0.5", {"momentum_or_decay": 0.5}),
    ("--steps", "3", {"steps": 3}),
    ("--seed", "4", {"seed": 4}),
    ("--batch-size", "2", {"batch_size": 2}),
]


class TestFitCommand:
    def _run(self, tmp_path, *extra):
        outdir = tmp_path / "run"
        argv = [
            "fit",
            "--out",
            str(outdir),
            "--num-pairs",
            "4",
            "--batch-size",
            "4",
            "--steps",
            "5",
            "--regime",
            "overlapping",
            *extra,
        ]
        assert main(argv) == 0
        return outdir

    def test_single_run_outputs(self, tmp_path):
        outdir = self._run(tmp_path, "--loss", "huber", "--seed", "3")
        header, rows = _parse_csv(outdir / "trajectory_huber_seed3.csv")
        assert header == ["step", "loss", "mean_iou"]
        assert len(rows) == 6
        assert [r[0] for r in rows] == [float(s) for s in range(6)]
        assert all(math.isfinite(r[1]) and 0.0 <= r[2] <= 1.0 for r in rows)

        lines = _read(outdir / "summary.csv")
        assert lines[0] == (
            "loss_kind,mean_final_iou,stddev_final_iou,mean_initial_iou,num_diverged"
        )

    def test_summary_row_names_kind(self, tmp_path):
        outdir = self._run(tmp_path, "--loss", "huber", "--seed", "3")
        lines = _read(outdir / "summary.csv")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "huber"
        # single seed: stddev is exactly zero
        assert cells[2] == "0.0"
        assert cells[4] == "0"

    def test_compare_writes_matched_runs(self, tmp_path, capsys):
        outdir = self._run(
            tmp_path, "--compare", "huber,smooth_iou", "--seeds", "2", "--seed", "0"
        )
        assert capsys.readouterr().err == ""  # no run diverged
        expected = {
            "trajectory_huber_seed0.csv",
            "trajectory_huber_seed1.csv",
            "trajectory_smooth_iou_seed0.csv",
            "trajectory_smooth_iou_seed1.csv",
            "summary.csv",
            "manifest.json",
        }
        assert {p.name for p in outdir.iterdir()} == expected
        lines = _read(outdir / "summary.csv")
        assert [line.split(",")[0] for line in lines[1:]] == ["huber", "smooth_iou"]
        # matched seeds share datasets, so initial quality agrees exactly
        initials = {line.split(",")[3] for line in lines[1:]}
        assert len(initials) == 1

    def test_manifest_records_resolved_config(self, tmp_path):
        outdir = self._run(tmp_path, "--loss", "iou", "--seed", "11", "--lr", "0.02")
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["seed"] == 11
        assert manifest["config"]["loss"] == "iou"
        assert manifest["config"]["learning_rate"] == 0.02
        assert manifest["config"]["num_pairs"] == 4
        assert manifest["version"] == __version__ == "0.2.0"
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert set(manifest["outputs"]) == {
            str(outdir / "trajectory_iou_seed11.csv"),
            str(outdir / "summary.csv"),
        }

    def test_infeasible_dataset_exits_4(self, tmp_path):
        argv = [
            "fit",
            "--out",
            str(tmp_path / "bad"),
            "--regime",
            "disjoint",
            "--translation-sigma",
            "0",
            "--scale-sigma",
            "0",
            "--steps",
            "2",
            "--num-pairs",
            "2",
        ]
        assert main(argv) == 4

    def test_invalid_flags_exit_2(self, tmp_path):
        out = str(tmp_path / "run")
        for argv in (
            ["fit", "--out", out, "--steps", "0"],
            ["fit", "--out", out, "--lr", "0"],
            ["fit", "--out", out, "--lr", "nan"],
            ["fit", "--out", out, "--translation-sigma", "nan"],
            ["fit", "--out", out, "--scale-sigma", "inf"],
            ["fit", "--out", out, "--num-pairs", "4", "--batch-size", "9"],
            ["fit", "--out", out, "--frame", "1,2,3"],
            ["fit", "--out", out, "--size-range", "5"],
            ["fit", "--out", out, "--compare", ","],
            ["fit", "--out", out, "--compare", "huber,l2"],
            ["fit", "--out", out, "--compare", "huber,smooth_iou,huber"],
            ["fit", "--out", out, "--seeds", "0"],
            ["fit", "--out", out, "--optimizer", "adam"],
            ["fit"],
            ["fit", "--out", out, "--scale-sigma", "1000", "--num-pairs", "4"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert not Path(out).exists(), argv

    @pytest.mark.parametrize(
        "flags, setting",
        [
            (["--translation-sigma", "1e308"], "translation_sigma"),
            (["--scale-sigma", "300", "--batch-size", "4", "--seed", "796"], "scale_sigma"),
        ],
        ids=["translation_sigma", "scale_sigma"],
    )
    def test_non_finite_draw_names_its_setting(self, tmp_path, capsys, flags, setting):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--out", str(out), "--num-pairs", "4", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {setting}=" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_kind_in_a_manifest_exits_2(self, tmp_path, capsys):
        outdir = self._run(tmp_path, "--compare", "huber,iou")
        message = _replay_edited(capsys, outdir / "manifest.json", compare=["iou", "iou"])
        assert message == "boxloss rerun: error: loss kind 'iou' is repeated"

    def test_unmeasurable_frame_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = tmp_path / "fit.cfg"
        config.write_text("frame = -1e308,-1e308,1e308,1e308\n")
        small = ["--num-pairs", "4", "--batch-size", "4", "--steps", "2"]
        for argv in (
            ["fit", "--out", str(out), "--frame=-1e308,-1e308,1e308,1e308", *small],
            ["fit", "--out", str(out), "--config", str(config), *small],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.splitlines()[-1].endswith(
                "frame width and height must be finite, got inf x inf"
            )
            assert "Traceback" not in err
            assert not out.exists()

    def test_size_at_the_frame_edge_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        frame, size = "-783.8800084129549,0,857.0542798774925,2000", "1640.9342882904475"
        config = tmp_path / "fit.cfg"
        config.write_text(
            f"frame = {frame}\ntarget_size_min = {size}\ntarget_size_max = {size}\n"
        )
        for argv in (
            ["fit", "--out", str(out), f"--frame={frame}", "--size-range", f"{size},{size}"],
            ["fit", "--out", str(out), "--config", str(config)],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--num-pairs", "4"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.splitlines()[-1] == (
                "boxloss fit: error: target_size_max=1640.9342882904475 leaves no room "
                "for a box center in frame (-783.8800084129549, 0.0, 857.0542798774925, 2000.0)"
            )
            assert "Traceback" not in err
            assert not out.exists()

    def test_target_rounded_to_zero_size_exits_2(self, tmp_path, capsys, monkeypatch):
        # Centers near 1e307 round cx - w/2 and cx + w/2 to the same float, so
        # the run would fit boxes of width 0 and report mean IoU 0.
        monkeypatch.delenv("BOXLOSS_SEED", raising=False)
        out = tmp_path / "run"
        argv = [
            "fit", "--out", str(out), "--frame", "0,0,1e308,1e308",
            "--num-pairs", "4", "--batch-size", "4", "--steps", "2",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        [line] = [line for line in err.splitlines() if "error" in line]
        assert line.startswith(
            "boxloss fit: error: frame (0.0, 0.0, 1e+308, 1e+308) is too large for "
            "target sizes [5.0, 20.0]: a target drawn at center ("
        )
        assert line.endswith(") rounds to zero width or height")
        assert err.splitlines()[-1] == line
        assert "Traceback" not in err
        assert not out.exists()

    def test_target_side_off_the_size_range_exits_2(self, tmp_path, capsys, monkeypatch):
        # Near 1e16 the centers are 2.0 apart, so a side drawn in [5, 20] can
        # round to 4.0: the run would fit sizes it was not asked for.
        monkeypatch.delenv("BOXLOSS_SEED", raising=False)
        out = tmp_path / "run"
        argv = [
            "fit", "--out", str(out), "--frame", "0,0,1e16,1e16",
            "--num-pairs", "200", "--batch-size", "4", "--steps", "2",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert [line for line in err.splitlines() if "error" in line] == [
            "boxloss fit: error: frame (0.0, 0.0, 1e+16, 1e+16) is too large for target "
            "sizes [5.0, 20.0]: a target drawn at center (9466739570025250.0, "
            "4262404088495990.0) rounds to a 4.0 x 14.0 box"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    def test_drawn_corner_overflow_exits_2(self, tmp_path, capsys):
        # Every setting is finite, but a drawn prediction's center shift
        # carries its corners past the largest float.
        out = tmp_path / "run"
        argv = [
            "fit", "--out", str(out), "--frame", "0,0,1.79e308,1.79e308",
            "--size-range", "1e300,1e300", "--translation-sigma", "1e7",
            "--num-pairs", "50", "--steps", "2", "--seed", "1",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert [line for line in err.splitlines() if "error" in line] == [
            "boxloss fit: error: xmin must be finite, got inf"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # numpy refuses an allocation this large at once, unless the machine
        # always overcommits memory: then filling it gets the process killed.
        # So the draw's failure is faked.
        text = "Unable to allocate 2.91 TiB for an array with shape (100000000000, 4)"

        def out_of_memory(config):
            raise MemoryError(text)

        monkeypatch.setattr(fitting, "_draw_pairs", out_of_memory)
        out = tmp_path / "run"
        argv = ["fit", "--out", str(out), "--num-pairs", "100000000000", "--batch-size", "1"]
        message = _exit_2_message(capsys, [*argv, "--steps", "1"])
        assert message == f"boxloss fit: error: out of memory: {text}"
        assert not out.exists()

    def test_loss_with_compare_exits_2(self, tmp_path, capsys):
        # --compare would run its kinds without the --loss kind, which the
        # manifest would still record.
        argv = ["fit", "--out", str(tmp_path / "run"), "--loss", "huber", "--compare", "iou"]
        message = _exit_2_message(capsys, argv)
        assert message == "boxloss fit: error: --loss and --compare cannot be combined"
        assert list(tmp_path.iterdir()) == []

    def test_compare_beats_a_config_file_loss(self, tmp_path):
        config = tmp_path / "fit.cfg"
        config.write_text("loss = squared\n")
        outdir = self._run(tmp_path, "--config", str(config), "--compare", "huber", "--seeds", "1")
        assert sorted(path.name for path in outdir.glob("trajectory_*")) == [
            "trajectory_huber_seed0.csv"
        ]
        config = json.loads((outdir / "manifest.json").read_text())["config"]
        assert (config["loss"], config["compare"]) == ("squared", ["huber"])

    def test_compare_defaults_to_compare_losses_seed_count(self, tmp_path):
        outdir = self._run(tmp_path, "--compare", "huber")
        default = inspect.signature(compare_losses).parameters["num_seeds"].default
        assert default == 20
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["num_seeds"] == default
        assert len(list(outdir.glob("trajectory_huber_seed*.csv"))) == default

    @pytest.mark.parametrize("flag, value, expected", _FIT_FLAG_CASES)
    def test_flag_lands_under_its_config_key(
        self, tmp_path, monkeypatch, flag, value, expected
    ):
        monkeypatch.delenv("BOXLOSS_SEED", raising=False)
        outdir = tmp_path / "run"
        argv = ["fit", "--out", str(outdir), "--num-pairs", "4", "--steps", "2", flag, value]
        assert main(argv) == 0
        config = json.loads((outdir / "manifest.json").read_text())["config"]
        defaults = FitConfig()
        for key, want in expected.items():
            assert config[key] == want
            default = getattr(defaults, "loss_kind" if key == "loss" else key)
            assert want != getattr(default, "value", default), "pick a non-default value"

    def test_every_fit_flag_is_covered(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {opt for action in sub.choices["fit"]._actions for opt in action.option_strings}
        others = {"-h", "--help", "--out", "--config", "--compare", "--seeds"}
        assert flags - others == {flag for flag, _, _ in _FIT_FLAG_CASES}

    def test_divergence_warns_on_stderr(self, tmp_path, capsys):
        outdir = self._run(
            tmp_path,
            "--compare",
            "huber,iou",
            "--seeds",
            "2",
            "--seed",
            "3",
            "--optimizer",
            "plain_gd",
            "--lr",
            "1e308",
        )
        err = capsys.readouterr().err
        # The IoU runs stay finite: one step throws their boxes onto the plateau,
        # where the gradient is zero.
        assert err.endswith(": huber seed 3, huber seed 4\n")
        assert err.startswith("warning: ") and err.count("\n") == 1
        rows = [line.split(",") for line in _read(outdir / "summary.csv")[1:]]
        assert [(row[0], row[4]) for row in rows] == [("huber", "2"), ("iou", "0")]


class TestParserReuse:
    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        _build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(2):
            assert main(["profile", "--out", str(tmp_path / "p.csv"), "--samples", "5"]) == 0
        assert built.count("boxloss") == 1

    def test_a_call_leaves_nothing_for_the_next(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--out", str(out), "--samples", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "boxloss profile: error: argument --samples: invalid int value: 'x'"
        )
        assert not out.exists()

        # A value set by one call is not the next call's default.
        assert main(["profile", "--out", str(out), "--delta", "2.0", "--samples", "5"]) == 0
        assert main(["profile", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["config"]["delta"] == SweepConfig.delta
        assert manifest["config"]["samples"] == SweepConfig.num_samples
        assert len(_read(out)) == SweepConfig.num_samples + 1


class TestConfigFile:
    def test_file_sets_values_and_flags_override(self, tmp_path):
        config = tmp_path / "fit.cfg"
        config.write_text(
            "# tiny run\n"
            "num_pairs = 4\n"
            "batch_size = 4\n"
            "steps = 5\n"
            "regime = overlapping  # keep every pair in contact\n"
            "loss = squared\n"
            "seed = 21\n"
        )
        outdir = tmp_path / "run"
        assert (
            main(
                [
                    "fit",
                    "--out",
                    str(outdir),
                    "--config",
                    str(config),
                    "--loss",
                    "huber",
                ]
            )
            == 0
        )
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["num_pairs"] == 4
        assert manifest["config"]["steps"] == 5
        assert manifest["config"]["loss"] == "huber"  # flag beats file
        assert manifest["seed"] == 21
        assert (outdir / "trajectory_huber_seed21.csv").exists()

    def test_unknown_key_exits_2(self, tmp_path):
        config = tmp_path / "fit.cfg"
        config.write_text("momentum = 0.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert exc.value.code == 2

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "fit.cfg"
        config.write_text("steps = 5\nsteps = 7\n")
        out = tmp_path / "o"
        message = _exit_2_message(capsys, ["fit", "--out", str(out), "--config", str(config)])
        assert message == f"boxloss fit: error: {config}:2: key 'steps' is repeated"
        assert not out.exists()

    def test_malformed_line_exits_2(self, tmp_path):
        config = tmp_path / "fit.cfg"
        config.write_text("steps\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert exc.value.code == 2

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "fit.cfg"
        config.write_bytes(b"steps = \xff\n")
        message = _exit_2_message(
            capsys, ["fit", "--out", str(tmp_path / "o"), "--config", str(config)]
        )
        assert message == (
            "boxloss fit: error: 'utf-8' codec can't decode byte 0xff in position 8: "
            "invalid start byte"
        )

    def test_missing_file_exits_1(self, tmp_path):
        code = main(
            ["fit", "--out", str(tmp_path / "o"), "--config", str(tmp_path / "nope")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        ("key", "value", "allowed"),
        [
            ("regime", "sideways", "'overlapping', 'disjoint', 'mixed'"),
            ("optimizer", "adam", "'plain_gd', 'rmsprop_like'"),
            ("loss", "giou", "'huber', 'squared', 'iou', 'smooth_iou'"),
        ],
        ids=["regime", "optimizer", "loss"],
    )
    def test_bad_choice_exits_2_listing_the_allowed_values(
        self, tmp_path, capsys, key, value, allowed
    ):
        config = tmp_path / "fit.cfg"
        config.write_text(f"{key} = {value}\n")
        message = _exit_2_message(
            capsys, ["fit", "--out", str(tmp_path / "o"), "--config", str(config)]
        )
        assert message == (
            f"boxloss fit: error: {config}:1: bad value for {key}: "
            f"{key} must be one of {allowed}, got {value!r}"
        )

    def _manifest_config(self, tmp_path, text: str, *flags) -> dict:
        config = tmp_path / "fit.cfg"
        config.write_text(text)
        outdir = tmp_path / "run"
        assert main(["fit", "--out", str(outdir), "--config", str(config), *flags]) == 0
        return json.loads((outdir / "manifest.json").read_text())["config"]

    def test_file_num_pairs_caps_the_default_batch_size(self, tmp_path):
        config = self._manifest_config(tmp_path, "num_pairs = 3\nsteps = 2\n")
        assert config["batch_size"] == 3

    def test_file_batch_size_is_never_capped(self, tmp_path, capsys):
        config = tmp_path / "fit.cfg"
        config.write_text("batch_size = 16\n")
        out = tmp_path / "o"
        argv = ["fit", "--out", str(out), "--config", str(config), "--num-pairs", "8"]
        message = _exit_2_message(capsys, argv)
        assert message == "boxloss fit: error: batch_size must lie in [1, num_pairs=8], got 16"
        assert not out.exists()

    def test_batch_size_flag_beats_file(self, tmp_path):
        text = "num_pairs = 20\nbatch_size = 16\nsteps = 2\n"
        assert self._manifest_config(tmp_path, text, "--batch-size", "4")["batch_size"] == 4


class TestSeedResolution:
    _TINY = ["--num-pairs", "2", "--batch-size", "2", "--steps", "2"]

    def _seed_of(self, tmp_path, name, *extra) -> int:
        outdir = tmp_path / name
        assert main(["fit", "--out", str(outdir), *self._TINY, *extra]) == 0
        return json.loads((outdir / "manifest.json").read_text())["seed"]

    def test_default_zero(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BOXLOSS_SEED", raising=False)
        assert self._seed_of(tmp_path, "a") == 0

    def test_env_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOXLOSS_SEED", "7")
        assert self._seed_of(tmp_path, "b") == 7

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOXLOSS_SEED", "7")
        assert self._seed_of(tmp_path, "c", "--seed", "3") == 3

    def test_config_file_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOXLOSS_SEED", "7")
        config = tmp_path / "fit.cfg"
        config.write_text("seed = 5\n")
        assert self._seed_of(tmp_path, "d", "--config", str(config)) == 5

    def test_bad_env_value_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BOXLOSS_SEED", "eleven")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--out", str(tmp_path / "e"), *self._TINY])
        assert exc.value.code == 2

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_env_is_not_read_when_a_source_sets_the_seed(self, tmp_path, monkeypatch, source):
        monkeypatch.setenv("BOXLOSS_SEED", "eleven")
        config = tmp_path / "fit.cfg"
        config.write_text("seed = 6\n")
        extra = ["--seed", "6"] if source == "flag" else ["--config", str(config)]
        assert self._seed_of(tmp_path, "f", *extra) == 6

    @pytest.mark.parametrize(
        "argv, env, seed",
        [
            (["gradcheck", "--samples", "10", "--seed", "-1"], None, -1),
            (["gradcheck", "--samples", "10"], "-3", -3),
            (["fit", "--seed", "-1"], None, -1),
            (["fit"], "-3", -3),
        ],
        ids=["gradcheck_flag", "gradcheck_env", "fit_flag", "fit_env"],
    )
    def test_negative_seed_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch, argv, env, seed
    ):
        if env is None:
            monkeypatch.delenv("BOXLOSS_SEED", raising=False)
        else:
            monkeypatch.setenv("BOXLOSS_SEED", env)
        out = tmp_path / "run"
        if argv[0] == "fit":
            argv = [*argv, "--out", str(out), *self._TINY]
        message = _exit_2_message(capsys, argv)
        assert message == f"boxloss {argv[0]}: error: seed must be >= 0, got {seed}"
        assert not out.exists()

    def test_negative_seed_in_a_manifest_exits_2(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert main(["fit", "--out", str(outdir), *self._TINY]) == 0
        message = _replay_edited(capsys, outdir / "manifest.json", seed=-1)
        assert message == "boxloss rerun: error: seed must be >= 0, got -1"

    def test_gradcheck_reads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BOXLOSS_SEED", "4")
        a = main(["gradcheck", "--loss", "huber", "--samples", "60"])
        out_a = capsys.readouterr().out
        monkeypatch.delenv("BOXLOSS_SEED")
        b = main(["gradcheck", "--loss", "huber", "--samples", "60", "--seed", "4"])
        out_b = capsys.readouterr().out
        assert a == b == 0
        assert out_a == out_b


# Each must exit 2 naming its key: blank or wrongly typed list settings.
_BAD_DELTAS = [False, 0, "", {}, [], "smooth_iou", [1.0, "x"]]
_BAD_COMPARES = [False, [], "huber"]

# Small valid replayable configs, which the malformed-manifest rows and the
# fuzz below edit.
_REPLAYABLE = {
    "fit": {
        "batch_size": 4,
        "compare": ["huber", "smooth_iou"],
        "delta": 1.0,
        "frame": [0.0, 0.0, 100.0, 100.0],
        "learning_rate": 0.05,
        "loss": "smooth_iou",
        "momentum_or_decay": 0.9,
        "num_pairs": 4,
        "num_seeds": 2,
        "optimizer": "rmsprop_like",
        "out": "run",
        "regime": "mixed",
        "scale_sigma": 0.1,
        "seed": 0,
        "steps": 3,
        "target_size_max": 20.0,
        "target_size_min": 5.0,
        "translation_sigma": 0.3,
    },
    "profile": {"out": "p.csv", "delta": 1.0, "mismatch_scale": 1.0, "samples": 21, "deltas": None},
}


def _manifest(command: str, **config) -> dict:
    """A manifest of this version and environment replaying a small valid
    config with `config` set."""
    return {
        "command": command,
        "config": {**_REPLAYABLE[command], **config},
        "seed": 0,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "outputs": [],
    }


class TestRerun:
    def _snapshot(self, paths: list[str]) -> dict[str, bytes]:
        return {p: Path(p).read_bytes() for p in paths}

    def test_profile_rerun_is_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["profile", "--out", str(out), "--deltas", "1.0,1.5"])
        manifest_path = tmp_path / "sweep.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        before = self._snapshot(manifest["outputs"])
        for path in manifest["outputs"]:
            Path(path).unlink()
        assert main(["rerun", str(manifest_path)]) == 0
        assert self._snapshot(manifest["outputs"]) == before
        assert json.loads(manifest_path.read_text()) == manifest
        assert capsys.readouterr().err == ""

    def test_fit_rerun_is_byte_identical(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        main(
            [
                "fit",
                "--out",
                str(outdir),
                "--num-pairs",
                "4",
                "--batch-size",
                "4",
                "--steps",
                "6",
                "--seed",
                "2",
                "--compare",
                "huber,smooth_iou",
                "--seeds",
                "2",
                "--regime",
                "overlapping",
            ]
        )
        manifest_path = outdir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        before = self._snapshot(manifest["outputs"])
        for path in manifest["outputs"]:
            Path(path).unlink()
        assert main(["rerun", str(manifest_path)]) == 0
        assert self._snapshot(manifest["outputs"]) == before
        assert capsys.readouterr().err == ""

    def _fit(self, tmp_path) -> Path:
        outdir = tmp_path / "run"
        argv = ["--num-pairs", "4", "--batch-size", "4", "--steps", "3", "--seeds", "2"]
        assert main(["fit", "--out", str(outdir), "--compare", "huber", *argv]) == 0
        return outdir / "manifest.json"

    def _run(self, tmp_path, command: str) -> Path:
        """The manifest of a small valid run of command."""
        if command == "fit":
            return self._fit(tmp_path)
        assert main(["profile", "--out", str(tmp_path / "p.csv"), "--samples", "21"]) == 0
        return tmp_path / "p.manifest.json"

    @pytest.mark.parametrize("key", ["num_pairs", "steps", "seed", "batch_size", "num_seeds"])
    def test_bool_count_or_seed_exits_2(self, tmp_path, capsys, key):
        message = _replay_edited(capsys, self._fit(tmp_path), **{key: True})
        assert message == f"boxloss rerun: error: {key} must be an integer, got True"

    @pytest.mark.parametrize(
        ("command", "config", "message"),
        [
            ("fit", {"learning_rate": True}, "learning_rate must be a number, got True"),
            ("fit", {"scale_sigma": False}, "scale_sigma must be a number, got False"),
            ("profile", {"delta": True}, "delta must be a number, got True"),
            ("profile", {"mismatch_scale": True}, "mismatch_scale must be a number, got True"),
            (
                "profile",
                {"mismatch_scale": 0},
                "mismatch_scale must be finite and positive, got 0",
            ),
            ("profile", {"mismatch_scale": 10**400}, "mismatch_scale is too large for a float"),
            (
                "profile",
                {"deltas": [True]},
                "deltas expects one or more numbers in a JSON list, got [True]",
            ),
        ],
        ids=[
            "learning_rate",
            "scale_sigma",
            "delta",
            "mismatch_scale",
            "zero_mismatch_scale",
            "huge_mismatch_scale",
            "deltas",
        ],
    )
    def test_bool_float_setting_exits_2(self, tmp_path, capsys, command, config, message):
        manifest_path = self._run(tmp_path, command)
        assert _replay_edited(capsys, manifest_path, **config) == f"boxloss rerun: error: {message}"
        assert not (tmp_path / "p_delta1.0.csv").exists()

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("loss", [], "loss_kind must be one of 'huber', 'squared', 'iou', 'smooth_iou', got []"),
            ("regime", 5, "regime must be one of 'overlapping', 'disjoint', 'mixed', got 5"),
            ("optimizer", None, "optimizer must be one of 'plain_gd', 'rmsprop_like', got None"),
        ],
    )
    def test_wrongly_typed_choice_exits_2_naming_the_setting(
        self, tmp_path, capsys, key, value, message
    ):
        message_line = _replay_edited(capsys, self._fit(tmp_path), **{key: value})
        assert message_line == f"boxloss rerun: error: {message}"

    def test_manifest_of_format_0_1_exits_2(self, tmp_path, capsys):
        manifest_path = self._fit(tmp_path)
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**manifest, "version": "0.1.0"}))
        message = _exit_2_message(capsys, ["rerun", str(manifest_path)])
        assert message == "boxloss rerun: error: manifest is from boxloss '0.1.0', this is 0.2.0"

    @pytest.mark.parametrize("key", ["python", "numpy"])
    @pytest.mark.parametrize("command", ["fit", "profile"])
    def test_other_python_or_numpy_warns_and_replays(self, tmp_path, capsys, command, key):
        manifest_path = self._run(tmp_path, command)
        manifest = json.loads(manifest_path.read_text())
        before = self._snapshot(manifest["outputs"])
        for path in manifest["outputs"]:
            Path(path).unlink()
        manifest_path.write_text(json.dumps({**manifest, key: "0.0.1"}))
        capsys.readouterr()
        assert main(["rerun", str(manifest_path)]) == 0
        assert self._snapshot(manifest["outputs"]) == before
        recorded = {"python": manifest["python"], "numpy": manifest["numpy"], key: "0.0.1"}
        assert capsys.readouterr().err == (
            f"warning: manifest was written with python {recorded['python']} and numpy "
            f"{recorded['numpy']}, this is python {platform.python_version()} and numpy "
            f"{np.__version__}; the outputs may differ\n"
        )
        # The replay rewrites the manifest with the running versions.
        assert json.loads(manifest_path.read_text()) == manifest

    def test_missing_manifest_exits_1(self, tmp_path):
        assert main(["rerun", str(tmp_path / "none.json")]) == 1

    def test_invalid_json_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["rerun", str(bad)]) == 1

    @pytest.mark.parametrize(
        ("content", "reason"),
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
            (b"[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["not_utf8", "nested_too_deep"],
    )
    def test_unreadable_manifest_exits_1(self, tmp_path, capsys, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["rerun", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid manifest: {reason}")
        assert err.count("\n") == 1

    def test_unknown_command_exits_2(self, tmp_path):
        weird = tmp_path / "weird.json"
        weird.write_text(json.dumps({"command": "paint", "config": {}}))
        with pytest.raises(SystemExit) as exc:
            main(["rerun", str(weird)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        ("manifest", "message"),
        [
            (["fit", {}], "manifest must be a JSON object"),
            ({"command": "fit", "config": None}, "manifest config must be a JSON object"),
            (
                {"command": "profile", "config": {"out": "p.csv", "delta": 1.0}},
                "manifest config lacks",
            ),
            (_manifest("profile", samples="11"), "num_samples must be an integer, got '11'"),
            (
                _manifest("fit", frame=[0.0, 0.0, 100.0]),
                "frame expects 4 numbers in a JSON list, got [0.0, 0.0, 100.0]",
            ),
            ({**_manifest("profile"), "version": "0.0.0"}, "is from boxloss"),
            (_manifest("profile", out=5), "out must be a non-empty string, got 5"),
            (_manifest("fit", batch_size=2.5), "batch_size must be an integer"),
            (_manifest("fit", scale_sigma=1e308), "scale_sigma"),
            (
                _manifest("fit", frame=[-1e308, 0.0, 1e308, 100.0]),
                "frame width and height must be finite",
            ),
            (
                _manifest(
                    "fit",
                    frame=[-783.8800084129549, 0.0, 857.0542798774925, 2000.0],
                    target_size_max=1640.9342882904475,
                    target_size_min=1640.9342882904475,
                ),
                "target_size_max=1640.9342882904475 leaves no room for a box center",
            ),
            (
                _manifest("fit", frame=[0.0, 0.0, 1e308, 1e308]),
                "frame (0.0, 0.0, 1e+308, 1e+308) is too large for target sizes",
            ),
            (_manifest("profile", samples=21.5), "num_samples must be an integer, got 21.5"),
            *(
                (
                    _manifest("profile", deltas=deltas),
                    f"deltas expects one or more numbers in a JSON list, got {deltas!r}",
                )
                for deltas in _BAD_DELTAS
            ),
            *(
                (
                    _manifest("fit", compare=compare),
                    f"compare expects one or more loss kinds in a JSON list, got {compare!r}",
                )
                for compare in _BAD_COMPARES
            ),
            (_manifest("fit", out=""), "out must be a non-empty string, got ''"),
            (_manifest("profile", out=""), "out must be a non-empty string, got ''"),
            (
                _manifest("fit", frame=[0, 0, 100]),
                "frame expects 4 numbers in a JSON list, got [0, 0, 100]",
            ),
            (
                _manifest("fit", frame="0,0,100,100"),
                "frame expects 4 numbers in a JSON list, got '0,0,100,100'",
            ),
            (
                _manifest("fit", learning_rate="0.1"),
                "learning_rate must be a number, got '0.1'",
            ),
            (
                _manifest("profile", extra_key=1),
                "manifest config has unknown key 'extra_key'",
            ),
            # Integers past the largest float, as JSON writes them in full.
            (_manifest("fit", learning_rate=10**400), "learning_rate is too large for a float"),
            (_manifest("fit", delta=10**400), "delta is too large for a float"),
            (
                _manifest("fit", frame=[0, 0, 10**400, 100]),
                f"frame expects 4 numbers in a JSON list, got {[0, 0, 10**400, 100]!r}",
            ),
        ],
        ids=[
            "not_an_object",
            "null_config",
            "missing_keys",
            "string_samples",
            "wrong_type",
            "wrong_version",
            "out_not_a_string",
            "fractional_batch_size",
            "overflowing_scale_sigma",
            "infinite_frame_width",
            "frame_edge_size",
            "zero_size_target",
            "fractional_samples",
            *(f"deltas_{deltas!r}" for deltas in _BAD_DELTAS),
            *(f"compare_{compare!r}" for compare in _BAD_COMPARES),
            "empty_fit_out",
            "empty_profile_out",
            "three_corner_frame",
            "frame_as_text",
            "learning_rate_as_text",
            "unknown_key",
            "huge_int_learning_rate",
            "huge_int_delta",
            "huge_int_frame_item",
        ],
    )
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, monkeypatch, manifest, message):
        monkeypatch.chdir(tmp_path)  # where a replay would write p.csv or run/
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as exc:
            main(["rerun", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 2  # the usage line and the error
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


_FUZZ_POOL = [
    None, True, False, "3", "11", "x", "", [], [True], [1.0, 1.0], {}, 0, 1, -1, 2, -2,
    2**70, -(2**70), 0.5, 1e308, -1e308, math.nan, math.inf, -math.inf, -0.0, 1e-320,
    [0.0, 0.0, 1e308, 1e308], [0.0, 0.0, 100.0], [100.0, 100.0, 0.0, 0.0], ["nope"],
]
# The same kinds of values as flags and config files give them: as text.
_TEXT_POOL = [
    "", " ", "x", "3", "11", "0", "1", "-1", "2", "-2", "0.5", "-0.0", "1e-320", "1e308",
    "-1e308", "nan", "inf", "-inf", "True", "None", ",", "1.0,1.0", "0,0,100", "0,0,100,100",
    "0,0,1e308,1e308", "100,100,0,0", "huber", "huber,x", "huber,huber", "overlapping",
    "plain_gd", str(2**70), str(-(2**70)),
]
# Counts above 64 are left out: a count of 2**70 runs without end, and no
# ceiling on counts is set yet.
_COUNT_KEYS = ("batch_size", "num_pairs", "num_seeds", "samples", "seed", "steps")
_COUNT_FLAGS = ("--batch-size", "--num-pairs", "--seeds", "--samples", "--seed", "--steps")
_FUZZ_EDITS = [
    (command, key, value)
    for command, config in _REPLAYABLE.items()
    for key in config
    for value in _FUZZ_POOL
    if not (key in _COUNT_KEYS and type(value) is int and value > 64)
]
_CONFIG_KEYS = [key for key in _REPLAYABLE["fit"] if key not in ("compare", "num_seeds", "out")]
_CONFIG_EDITS = [
    (key, value)
    for key in _CONFIG_KEYS
    for value in _TEXT_POOL
    if not (key in _COUNT_KEYS and value == str(2**70))
]
# Small valid runs of each command; an edited flag, given last, wins.
_FLAG_RUNS = {
    "fit": [
        "fit", "--out", "run", "--num-pairs", "4", "--batch-size", "4", "--steps", "3",
        "--seed", "0", "--compare", "huber,smooth_iou", "--seeds", "2",
    ],
    "profile": ["profile", "--out", "p.csv", "--samples", "21"],
}
_FLAGS = {
    "fit": ["--out", "--compare", "--seeds", *(flag for flag, _, _ in _FIT_FLAG_CASES)],
    "profile": ["--out", "--delta", "--mismatch-scale", "--samples", "--deltas"],
}
_FLAG_EDITS = [
    (command, flag, value)
    for command, flags in _FLAGS.items()
    for flag in flags
    for value in _TEXT_POOL
    if not (flag in _COUNT_FLAGS and value == str(2**70))
]


def _check_exit_code_contract(argv: list[str], files: dict[str, str]) -> None:
    """Run argv in a fresh working directory holding `files`. It must exit
    with a documented code, print at most one line after the usage line and
    no traceback, and on exit 0 write a manifest whose outputs all lie in
    that directory, with no name there starting with '.'."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, contextlib.chdir(workdir):
        for name, text in files.items():
            Path(name).write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        root = Path(workdir).resolve()
        written = [path for path in root.rglob("*") if path.name not in files]
        if code == 0:
            manifests = [path for path in written if path.name.endswith("manifest.json")]
            assert manifests
            for manifest in manifests:
                for output in json.loads(manifest.read_text())["outputs"]:
                    assert Path(output).resolve().is_relative_to(root)
            assert not [path for path in written if path.name.startswith(".")]
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if lines and lines[0].startswith("usage:"):
        # fit's usage wraps onto indented lines.
        lines = [line for line in lines[1:] if not line.startswith(" ")]
    assert len(lines) <= 1


class TestExitCodeContract:
    @pytest.mark.parametrize("command", list(_REPLAYABLE))
    def test_the_one_valid_manifest_is_recorded_and_replays(
        self, tmp_path, monkeypatch, capsys, command
    ):
        """A flag run records exactly _REPLAYABLE's config, and the unedited
        _manifest replays, so each malformed manifest and fuzzed edit is one
        edit away from a manifest known to work."""
        monkeypatch.chdir(tmp_path)
        assert main(_FLAG_RUNS[command]) == 0
        manifest_path = Path("run/manifest.json" if command == "fit" else "p.manifest.json")
        assert json.loads(manifest_path.read_text())["config"] == _REPLAYABLE[command]
        (tmp_path / "replay").mkdir()
        monkeypatch.chdir(tmp_path / "replay")
        Path("replay.json").write_text(json.dumps(_manifest(command)))
        assert main(["rerun", "replay.json"]) == 0
        assert capsys.readouterr().err == ""

    @given(edit=st.sampled_from(_FUZZ_EDITS))
    @example(edit=("fit", "frame", [0.0, 0.0, 1e308, 1e308]))
    @example(edit=("fit", "num_pairs", True))
    @example(edit=("profile", "samples", "11"))
    @example(edit=("fit", "scale_sigma", 1e308))
    @example(edit=("fit", "learning_rate", True))
    @example(edit=("profile", "out", ""))
    @example(edit=("profile", "deltas", "x"))
    @settings(max_examples=300, deadline=None)
    def test_edited_manifest_exits_with_one_line(self, edit):
        """Any one edited config value replays to a documented exit code, with
        at most one line after the usage line and no traceback."""
        command, key, value = edit
        manifest = json.dumps(_manifest(command, **{key: value}))
        _check_exit_code_contract(["rerun", "replay.json"], {"replay.json": manifest})

    @given(edit=st.sampled_from(_CONFIG_EDITS))
    @example(edit=("frame", "0,0,100"))
    @example(edit=("regime", "x"))
    @settings(max_examples=150, deadline=None)
    def test_edited_config_file_exits_with_one_line(self, edit):
        key, value = edit
        # The edit replaces a base line, as a config file may set a key once.
        base = {"num_pairs": "4", "batch_size": "4", "steps": "3", "seed": "0"}
        lines = "".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items())
        argv = ["fit", "--out", "run", "--config", "fit.cfg", "--compare", "huber", "--seeds", "2"]
        _check_exit_code_contract(argv, {"fit.cfg": lines})

    @given(edit=st.sampled_from(_FLAG_EDITS))
    @example(edit=("fit", "--out", ""))
    @example(edit=("profile", "--out", ""))
    @example(edit=("fit", "--compare", ","))
    @settings(max_examples=150, deadline=None)
    def test_edited_flag_exits_with_one_line(self, edit):
        command, flag, value = edit
        _check_exit_code_contract([*_FLAG_RUNS[command], f"{flag}={value}"], {})


def test_interrupted_fit_exits_130_with_one_line(tmp_path):
    """SIGINT during a fit's steps: exit 130, one stderr line, no traceback.
    The child prints `ready` once its dataset is drawn, inside main."""
    child_code = (
        "import sys\n"
        "from boxloss import cli, fitting\n"
        "draw = fitting._draw_pairs\n"
        "def draw_then_say_ready(config):\n"
        "    pairs = draw(config)\n"
        "    print('ready', flush=True)\n"
        "    return pairs\n"
        "fitting._draw_pairs = draw_then_say_ready\n"
        "sys.exit(cli.main(['fit', '--out', 'run', '--steps', '100000000']))\n"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", child_code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert child.stdout.readline() == "ready\n"
        child.send_signal(signal.SIGINT)
        _, stderr = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, stderr) == (130, "error: interrupted\n")


class TestDeterminism:
    def test_identical_invocations_produce_identical_bytes(self, tmp_path):
        args = [
            "--num-pairs",
            "4",
            "--batch-size",
            "4",
            "--steps",
            "5",
            "--seed",
            "9",
            "--loss",
            "smooth_iou",
            "--regime",
            "overlapping",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fit", "--out", str(a), *args]) == 0
        assert main(["fit", "--out", str(b), *args]) == 0
        left = (a / "trajectory_smooth_iou_seed9.csv").read_bytes()
        right = (b / "trajectory_smooth_iou_seed9.csv").read_bytes()
        assert left == right
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_output_bytes_are_pinned(self, tmp_path):
        # Every cell of this profile is exact in IEEE arithmetic, so these
        # bytes hold on every platform.
        out = tmp_path / "p.csv"
        assert main(["profile", "--out", str(out), "--samples", "5"]) == 0
        assert out.read_bytes() == (
            b"x_center,iou,huber,squared,iou_loss,smooth_iou\n"
            b"0.0,0.0,79.0,1600.0,1.0,79.0\n"
            b"20.0,0.0,39.0,400.0,1.0,39.0\n"
            b"40.0,1.0,0.0,0.0,0.0,0.0\n"
            b"60.0,0.0,39.0,400.0,1.0,39.0\n"
            b"80.0,0.0,79.0,1600.0,1.0,79.0\n"
        )
        # A fit's cells depend on libm, so only their form is pinned: an
        # integer step or count, and floats written as repr(float(cell)).
        run = tmp_path / "run"
        argv = ["fit", "--out", str(run), "--compare", "huber,smooth_iou", "--seeds", "2",
                "--num-pairs", "4", "--batch-size", "4", "--steps", "6"]
        assert main(argv) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        for path in map(Path, manifest["outputs"][:-1]):
            lines = _read(path)
            assert lines[0] == "step,loss,mean_iou"
            for step, line in enumerate(lines[1:]):
                cells = line.split(",")
                assert len(cells) == 3 and cells[0] == str(step)
                assert all(cell == repr(float(cell)) for cell in cells[1:])
        summary = _read(run / "summary.csv")
        assert summary[0] == (
            "loss_kind,mean_final_iou,stddev_final_iou,mean_initial_iou,num_diverged"
        )
        for kind, line in zip(("huber", "smooth_iou"), summary[1:], strict=True):
            cells = line.split(",")
            assert len(cells) == 5 and cells[0] == kind and cells[4] == "0"
            assert all(cell == repr(float(cell)) for cell in cells[1:4])
        assert manifest["outputs"][-1] == str(run / "summary.csv")
        assert len(manifest["outputs"]) == 5

    def test_every_output_byte_matches_the_digest_table(self, tmp_path, monkeypatch):
        """Each file that tools/cli_outputs.py's commands produce, under this
        tree, has the sha256 that tests/cli_digests.json records for it.

        The table is made under one boxloss version, and a change to the
        output bytes needs a new one, so the test fails when the table names
        another version. It pins one Python and one numpy: both samplers
        draw their size jitters through math.exp, not np.exp, whose last bits
        can follow the CPU's SIMD dispatch. On another Python or numpy the
        test skips and names both. To remake the table, run
        `python3 tools/cli_outputs.py src OUT` and copy OUT/digests.json.
        """
        table = _digest_table()
        # run_all puts src first on sys.path; the copy is restored afterwards.
        monkeypatch.setattr(sys, "path", list(sys.path))
        _assert_digests(_output_tool().run_all(_ROOT / "src", tmp_path / "out")["files"], table)

    def test_output_bytes_do_not_follow_the_simd_dispatch(self, tmp_path):
        """tools/cli_outputs.py, rerun in a child process with numpy's
        dispatched x86 SIMD features turned off, writes the bytes that
        tests/cli_digests.json records. numpy reads NPY_DISABLE_CPU_FEATURES
        once, at import, so only a new process sees it. Where numpy refuses
        the setting (a feature in its baseline, or one it does not dispatch,
        as on another architecture), the test skips and quotes numpy.
        """
        table = _digest_table()
        features = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": features}
        probe = subprocess.run(
            [sys.executable, "-W", "error::ImportWarning", "-c", "import numpy"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if probe.returncode != 0:
            lines = probe.stderr.splitlines() or [f"exit {probe.returncode}"]
            reason = next((line for line in lines if "cannot disable" in line), lines[-1])
            pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={features!r}: {reason}")
        out = tmp_path / "out"
        tool = [sys.executable, str(_ROOT / "tools" / "cli_outputs.py"), str(_ROOT / "src"), str(out)]
        child = subprocess.run(tool, env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        _assert_digests(json.loads((out / "digests.json").read_text(encoding="utf-8"))["files"], table)

    def test_output_tool_refuses_an_existing_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert _output_tool().main([str(_ROOT / "src"), str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: OUT {str(out)!r} already exists\n"
        assert captured.out == "" and list(out.iterdir()) == []


def _digest_table() -> dict:
    """tests/cli_digests.json. Its version must be this boxloss's; on another
    Python or numpy than it names, the calling test skips and names both."""
    table = json.loads((_ROOT / "tests" / "cli_digests.json").read_text(encoding="utf-8"))
    assert table["version"] == __version__, (
        f"tests/cli_digests.json is for boxloss {table['version']}, this is {__version__}"
    )
    here = {"python": platform.python_version(), "numpy": np.__version__}
    if {key: table[key] for key in here} != here:
        pytest.skip(
            f"digests were made with python {table['python']} and numpy {table['numpy']}, "
            f"this is python {here['python']} and numpy {here['numpy']}"
        )
    return table


def _assert_digests(files: dict, table: dict) -> None:
    for path in sorted(files.keys() | table["files"].keys()):
        assert files.get(path) == table["files"].get(path), f"{path} differs from the table"


def _output_tool():
    """tools/cli_outputs.py, loaded as a module."""
    tool_path = _ROOT / "tools" / "cli_outputs.py"
    spec = importlib.util.spec_from_file_location("cli_outputs", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool
