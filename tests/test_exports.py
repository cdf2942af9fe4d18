"""Every ``semcert`` submodule imports, each name in its ``__all__``
resolves, so a deletion cannot leave a stale export behind, and each
exported function is called from src/ or perfbench/, so code that only
tests reach lives under tests/."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import semcert

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
