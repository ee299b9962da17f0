"""Every name a module lists in ``__all__`` exists on it, and the package
imports in a fresh interpreter."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import hesspin

MODULES = sorted(
    f"hesspin.{info.name}" for info in pkgutil.iter_modules(hesspin.__path__)
)


def test_modules_found():
    assert len(MODULES) == 6


def test_package_imports_fresh():
    src = os.path.dirname(os.path.dirname(hesspin.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, "-c", "import hesspin"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
