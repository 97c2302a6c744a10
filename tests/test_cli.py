"""Command line behavior: outputs, formats, exit codes, seed resolution, and
manifest replay. Everything runs in process through main(argv)."""

import argparse
import inspect
import json
import math
from pathlib import Path

import pytest

from boxloss import gradients
from boxloss import (
    FitConfig,
    SweepConfig,
    __version__,
    compare_losses,
    sweep,
    sweep_mismatch,
)
from boxloss.cli import _build_parser, main


def _read(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text.splitlines()


def _parse_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = _read(path)
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


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
            ["profile"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_unwritable_path_exits_1(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["profile", "--out", str(missing)]) == 1


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
        sample_pair = gradients._sample_pair

        def counted(rng, regime):
            drawn.append(regime)
            return sample_pair(rng, regime)

        monkeypatch.setattr(gradients, "_sample_pair", counted)
        assert main(["gradcheck", "--loss", "all", "--samples", "50"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert len(drawn) == 50

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
        assert lines[0] == "loss_kind,mean_final_iou,stddev_final_iou,mean_initial_iou"

    def test_summary_row_names_kind(self, tmp_path):
        outdir = self._run(tmp_path, "--loss", "huber", "--seed", "3")
        lines = _read(outdir / "summary.csv")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "huber"
        # single seed: stddev is exactly zero
        assert cells[2] == "0.0"

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
            (["--scale-sigma", "300", "--batch-size", "4", "--seed", "30"], "scale_sigma"),
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

    def test_drawn_corner_overflow_exits_2(self, tmp_path, capsys):
        # Every setting is finite, but a drawn prediction's center shift
        # carries its corners past the largest float.
        out = tmp_path / "run"
        argv = [
            "fit", "--out", str(out), "--frame", "0,0,1.79e308,1.79e308",
            "--size-range", "1e300,1e300", "--translation-sigma", "1e7",
            "--num-pairs", "50", "--steps", "2", "--seed", "0",
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
        assert (outdir / "summary.csv").exists()


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

    def test_malformed_line_exits_2(self, tmp_path):
        config = tmp_path / "fit.cfg"
        config.write_text("steps\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert exc.value.code == 2

    def test_missing_file_exits_1(self, tmp_path):
        code = main(
            ["fit", "--out", str(tmp_path / "o"), "--config", str(tmp_path / "nope")]
        )
        assert code == 1


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

    def test_gradcheck_reads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BOXLOSS_SEED", "4")
        a = main(["gradcheck", "--loss", "huber", "--samples", "60"])
        out_a = capsys.readouterr().out
        monkeypatch.delenv("BOXLOSS_SEED")
        b = main(["gradcheck", "--loss", "huber", "--samples", "60", "--seed", "4"])
        out_b = capsys.readouterr().out
        assert a == b == 0
        assert out_a == out_b


class TestRerun:
    def _snapshot(self, paths: list[str]) -> dict[str, bytes]:
        return {p: Path(p).read_bytes() for p in paths}

    def test_profile_rerun_is_byte_identical(self, tmp_path):
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

    def test_fit_rerun_is_byte_identical(self, tmp_path):
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

    def test_missing_manifest_exits_1(self, tmp_path):
        assert main(["rerun", str(tmp_path / "none.json")]) == 1

    def test_invalid_json_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["rerun", str(bad)]) == 1

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
            (
                {
                    "command": "profile",
                    "config": {
                        "out": "p.csv",
                        "delta": 1.0,
                        "mismatch_scale": 1.0,
                        "samples": "11",
                        "deltas": None,
                    },
                    "version": __version__,
                },
                "wrong type",
            ),
            (
                {
                    "command": "profile",
                    "config": {
                        "out": "p.csv",
                        "delta": 1.0,
                        "mismatch_scale": 1.0,
                        "samples": 11,
                        "deltas": None,
                    },
                    "version": "0.0.0",
                },
                "is from boxloss",
            ),
            (
                {
                    "command": "profile",
                    "config": {
                        "out": 5,
                        "delta": 1.0,
                        "mismatch_scale": 1.0,
                        "samples": 11,
                        "deltas": None,
                    },
                    "version": __version__,
                },
                "out must be a string",
            ),
            (
                {
                    "command": "fit",
                    "config": {
                        "batch_size": 2.5,
                        "compare": None,
                        "delta": 1.0,
                        "frame": [0.0, 0.0, 100.0, 100.0],
                        "learning_rate": 0.05,
                        "loss": "smooth_iou",
                        "momentum_or_decay": 0.9,
                        "num_pairs": 4,
                        "num_seeds": 1,
                        "optimizer": "rmsprop_like",
                        "out": "p.csv",
                        "regime": "mixed",
                        "scale_sigma": 0.1,
                        "seed": 0,
                        "steps": 3,
                        "target_size_max": 20.0,
                        "target_size_min": 5.0,
                        "translation_sigma": 0.3,
                    },
                    "version": __version__,
                },
                "batch_size must be an integer",
            ),
            (
                {
                    "command": "fit",
                    "config": {
                        "batch_size": 4,
                        "compare": None,
                        "delta": 1.0,
                        "frame": [0.0, 0.0, 100.0, 100.0],
                        "learning_rate": 0.05,
                        "loss": "smooth_iou",
                        "momentum_or_decay": 0.9,
                        "num_pairs": 4,
                        "num_seeds": 1,
                        "optimizer": "rmsprop_like",
                        "out": "p.csv",
                        "regime": "mixed",
                        "scale_sigma": 1e308,
                        "seed": 0,
                        "steps": 2,
                        "target_size_max": 20.0,
                        "target_size_min": 5.0,
                        "translation_sigma": 0.3,
                    },
                    "version": __version__,
                },
                "scale_sigma",
            ),
            (
                {
                    "command": "fit",
                    "config": {
                        "batch_size": 4,
                        "compare": None,
                        "delta": 1.0,
                        "frame": [-1e308, 0.0, 1e308, 100.0],
                        "learning_rate": 0.05,
                        "loss": "smooth_iou",
                        "momentum_or_decay": 0.9,
                        "num_pairs": 4,
                        "num_seeds": 1,
                        "optimizer": "rmsprop_like",
                        "out": "p.csv",
                        "regime": "mixed",
                        "scale_sigma": 0.1,
                        "seed": 0,
                        "steps": 2,
                        "target_size_max": 20.0,
                        "target_size_min": 5.0,
                        "translation_sigma": 0.3,
                    },
                    "version": __version__,
                },
                "frame width and height must be finite",
            ),
            (
                {
                    "command": "fit",
                    "config": {
                        "batch_size": 4,
                        "compare": None,
                        "delta": 1.0,
                        "frame": [-783.8800084129549, 0.0, 857.0542798774925, 2000.0],
                        "learning_rate": 0.05,
                        "loss": "smooth_iou",
                        "momentum_or_decay": 0.9,
                        "num_pairs": 4,
                        "num_seeds": 1,
                        "optimizer": "rmsprop_like",
                        "out": "p.csv",
                        "regime": "mixed",
                        "scale_sigma": 0.1,
                        "seed": 0,
                        "steps": 2,
                        "target_size_max": 1640.9342882904475,
                        "target_size_min": 1640.9342882904475,
                        "translation_sigma": 0.3,
                    },
                    "version": __version__,
                },
                "target_size_max=1640.9342882904475 leaves no room for a box center",
            ),
            (
                {
                    "command": "profile",
                    "config": {
                        "out": "p.csv",
                        "delta": 1.0,
                        "mismatch_scale": 1.0,
                        "samples": 21.5,
                        "deltas": None,
                    },
                    "version": __version__,
                },
                "num_samples must be an integer, got 21.5",
            ),
        ],
        ids=[
            "not_an_object",
            "null_config",
            "missing_keys",
            "wrong_type",
            "wrong_version",
            "out_not_a_string",
            "fractional_batch_size",
            "overflowing_scale_sigma",
            "infinite_frame_width",
            "frame_edge_size",
            "fractional_samples",
        ],
    )
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, monkeypatch, manifest, message):
        monkeypatch.chdir(tmp_path)  # where a replay would write p.csv
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as exc:
            main(["rerun", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "p.csv").exists()


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
