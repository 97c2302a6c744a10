"""Command line behavior: outputs, formats, exit codes, seed resolution, and
manifest replay. Everything runs in process through main(argv)."""

import json
import math
from pathlib import Path

import pytest

from boxloss import SweepConfig, sweep, sweep_mismatch
from boxloss.cli import main


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

    def test_compare_writes_matched_runs(self, tmp_path):
        outdir = self._run(
            tmp_path, "--compare", "huber,smooth_iou", "--seeds", "2", "--seed", "0"
        )
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
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


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
        "manifest",
        [
            ["fit", {}],
            {"command": "fit", "config": None},
            {"command": "profile", "config": {"out": "p.csv", "delta": 1.0}},
        ],
        ids=["not_an_object", "null_config", "missing_keys"],
    )
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as exc:
            main(["rerun", str(path)])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
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
