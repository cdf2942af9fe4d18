"""Every ``semcert`` submodule imports, and each name in its ``__all__``
resolves, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

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
