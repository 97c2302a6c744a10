"""The package's public surface: the names `boxloss` exports, where they come
from, and the version the command line reports; and no dead private names."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import boxloss
from boxloss import boxes, cli, fitting, gradients, losses, profiles
from boxloss.cli import main

_ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    # boxes
    "Box",
    "BoxBatch",
    "BoxYXHW",
    "area",
    "intersection_dims",
    "iou",
    "iou_pixel_oracle",
    "to_yxhw",
    "transform",
    # losses
    "HuberParams",
    "LossKind",
    "LossReport",
    "huber_box",
    "huber_scalar",
    "iou_loss",
    "loss_batch",
    "smooth_iou_batch",
    "squared_box",
    # gradients
    "REGIMES",
    "GradCheckConfig",
    "GradCheckResult",
    "GradVector",
    "finite_diff_check",
    "grad_huber",
    "grad_iou_loss",
    "grad_smooth_iou",
    "grad_squared",
    # profiles
    "DEFAULT_DELTAS",
    "SweepConfig",
    "SweepRow",
    "convexity_violations",
    "delta_study",
    "sweep",
    "sweep_mismatch",
    # fitting
    "ComparisonResult",
    "ComparisonRow",
    "FitConfig",
    "FitResult",
    "InfeasibleDatasetError",
    "OptimizerKind",
    "OverlapRegime",
    "compare_losses",
    "fit",
    "generate_dataset",
    "__version__",
}


def test_public_names_are_pinned():
    assert set(boxloss.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 45


def test_public_names_are_unique_and_resolve():
    assert len(boxloss.__all__) == len(set(boxloss.__all__))
    for name in boxloss.__all__:
        getattr(boxloss, name)


def test_package_exports_exactly_the_modules_public_names():
    modules = (boxes, losses, gradients, profiles, fitting)
    declared = {name for module in modules for name in module.__all__}
    assert set(boxloss.__all__) == declared | {"__version__"}
    public_attrs = {
        name
        for name in dir(boxloss)
        if not name.startswith("_") and not isinstance(getattr(boxloss, name), types.ModuleType)
    }
    assert public_attrs == declared


# The names bench/worker.py reads on each module: its Api calls them, and its
# traced run replaces them there by name. Some are imports a module does not
# use itself; dropping one breaks `bench/run.py --trace 1`.
_BENCH_NAMES = {
    cli: ("main", "compare_losses", "finite_diff_check", "sweep_mismatch"),
    fitting: ("fit", "generate_dataset", "loss_batch", "grad_huber", "grad_iou_loss", "iou"),
    gradients: ("grad_huber", "grad_iou_loss", "iou"),
    losses: ("iou",),
    profiles: ("iou", "sweep", "convexity_violations"),
}


def test_names_the_benchmark_reads_resolve():
    missing = [
        f"{module.__name__}.{name}"
        for module, names in _BENCH_NAMES.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_the_benchmarks_traced_run_reaches_the_draw(tmp_path):
    """bench/worker.py's instrument() replaces its traced names on each
    module, in a child process with bench/ and src/ on its path; a tiny fit
    through the patched CLI must then exit 0 and count boxes.iou calls, which
    the draw makes through fitting.iou. -B keeps bench/ free of bytecode."""
    child_code = (
        "import sys\n"
        f"sys.path[:0] = [{str(_ROOT / 'bench')!r}, {str(_ROOT / 'src')!r}]\n"
        "import spans, worker\n"
        "tracer, api = spans.Tracer(), worker.Api()\n"
        "worker.instrument(tracer, api)\n"
        "code, _ = api.cli(['fit', '--out', 'run', '--num-pairs', '6', '--batch-size', '3',"
        " '--steps', '2'])\n"
        "print(code, tracer.calls('boxes.iou'))\n"
    )
    bench = sorted((_ROOT / "bench").iterdir())
    child = subprocess.run(
        [sys.executable, "-B", "-c", child_code],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    code, iou_calls = map(int, child.stdout.split())
    assert code == 0 and iou_calls > 0
    assert sorted((_ROOT / "bench").iterdir()) == bench


def test_version_flag_prints_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"boxloss {boxloss.__version__}\n"


def test_readme_lines_fit_in_80_columns():
    lines = (_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    long_lines = [n for n, line in enumerate(lines, 1) if len(line) > 80]
    assert long_lines == []


def _private_definitions(tree: ast.Module):
    """Module-level `_x` names a module assigns, or defines as a function or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_module_name_is_referenced():
    # Each directory on its own, so a name that another directory reads does
    # not keep a same-named dead helper alive.
    for directory in (Path(boxloss.__file__).parent, _ROOT / "tests", _ROOT / "tools"):
        trees = {
            path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))
        }
        referenced = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name)
        unreferenced = [
            f"{directory.name}/{module}: {name}"
            for module, tree in trees.items()
            for name in _private_definitions(tree)
            if name not in referenced
        ]
        assert unreferenced == []
