"""Every ``semcert`` submodule imports, each name in its ``__all__``
resolves, so a deletion cannot leave a stale export behind, and each
exported function is called from src/ or perfbench/, so code that only
tests reach lives under tests/.  The names the benchmark's row hooks
wrap (perfbench/hooks.py) must still see every CLI certification."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import semcert
from semcert.cli import run_cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(semcert.__path__))


def test_modules_found():
    assert {"cli", "io", "pipeline", "radii", "smoothing", "transforms"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"semcert.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"semcert.{name} declares no __all__"
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"semcert.{name}.__all__ names missing attributes: {missing}"


# Exported functions that no other code in src/ or perfbench/ calls,
# each with the reason it stays exported.
UNREFERENCED_EXPORTS = {
    # the only SEMT1 writer: SEMT1 is the input of `semcert aliasing`
    # and `semcert predict`, so users need it to make their inputs
    "io.write_tensor",
}

ROOT = Path(__file__).resolve().parent.parent


def _referenced_names():
    """Names read as an ast ``Name`` or ``Attribute`` in src/ and perfbench/,
    outside the def of the function of the same name."""
    seen = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            seen.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            seen.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), frozenset())
    return seen


def test_exported_functions_are_used():
    referenced = _referenced_names()
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"semcert.{name}")
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)) and attr not in referenced:
                unused.append(f"{name}.{attr}")
    assert sorted(unused) == sorted(UNREFERENCED_EXPORTS)


@pytest.fixture
def hooks(monkeypatch):
    spec = importlib.util.spec_from_file_location("hooks", ROOT / "perfbench" / "hooks.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "hooks", module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("transform,flags", [
    ("blur", ["--alpha-max", "0.3"]),
    ("brightness-contrast", ["--k-range", "-0.1", "0.1", "--b-range", "-0.05", "0.05"]),
    ("rotation", ["--interval", "-2", "2", "--grid-n", "5", "--grid-r", "5"]),
])
def test_benchmark_hooks_record_one_row_per_certification(tmp_path, capsys, hooks,
                                                          transform, flags):
    # the untraced benchmark times each row by wrapping the pipeline names
    # ``cli.certifier`` looks up at call time; one image makes one row
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    pixels = np.random.default_rng(5).integers(150, 256, (1, 9, 9), dtype=np.uint8)
    images.write_bytes(struct.pack(">IIII", 0x803, 1, 9, 9) + pixels.tobytes())
    labels.write_bytes(struct.pack(">II", 0x801, 1) + bytes([1]))
    with hooks.Recorder(traced=False) as recorder:
        code = run_cli(["certify", "--transform", transform, *flags, "--dataset", str(images),
                        "--labels", str(labels), "--synthetic", "mean:0.5", "--n", "300",
                        "--n0", "50", "--output", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert len(recorder.rows) == 1
    assert recorder.rows[0].verdict in ("certified", "not_certified", "abstain")
    if transform == "rotation":
        assert recorder.rows[0].anchors


def test_traced_benchmark_hooks_read_the_anchor_loop(tmp_path, capsys, hooks):
    # the traced benchmark counts samples through ``smoothing.sample_counts``
    # and reads each anchor's outcome from ``pipeline.progressive_certify``;
    # a changed signature or outcome would only show as a counter error
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    pixels = np.random.default_rng(5).integers(150, 256, (1, 9, 9), dtype=np.uint8)
    images.write_bytes(struct.pack(">IIII", 0x803, 1, 9, 9) + pixels.tobytes())
    labels.write_bytes(struct.pack(">II", 0x801, 1) + bytes([1]))
    with hooks.Recorder(traced=True) as recorder:
        code = run_cli(["certify", "--transform", "rotation", "--interval", "-2", "2",
                        "--grid-n", "5", "--grid-r", "5", "--dataset", str(images),
                        "--labels", str(labels), "--synthetic", "mean:0.5", "--n", "300",
                        "--n0", "50", "--output", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert recorder.counter_errors == {}
    # the clean prediction's 50 draws, then one anchor's 50 guess draws and
    # its first check of 300, read against no target: it guesses another
    # label, which ends the row
    assert recorder.counts["smoothing.samples"] == 50 + 50 + 300
    assert [row.anchors for row in recorder.rows] == [[(1, False, False)]]


# Module hooks that the traced benchmark cannot install, because the name
# it wraps is not looked up in that module.  A refactor may shrink this
# set, never grow it: a hook that goes missing stops timing its layer.
TRACED_MISSING_HOOKS = {
    "aliasing.rotate_many", "aliasing.scale_many", "pipeline.rotate", "pipeline.scale",
    "pipeline.translate", "smoothing.blur_many", "smoothing.rotate_many",
    "smoothing.scale_many", "smoothing.translate",
}


@pytest.mark.parametrize("traced", [False, True])
def test_benchmark_hooks_find_their_targets(hooks, traced):
    with hooks.Recorder(traced=traced) as recorder:
        missing = {entry.split(":", 1)[1] for entry in recorder.missing}
    assert missing <= (TRACED_MISSING_HOOKS if traced else set()), missing
