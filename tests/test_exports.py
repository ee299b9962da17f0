"""Every name a module lists in ``__all__`` exists on it, the package
imports in a fresh interpreter, and its re-exports load only the modules
they need."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hesspin

MODULES = sorted(
    f"hesspin.{info.name}" for info in pkgutil.iter_modules(hesspin.__path__)
)


def test_modules_found():
    assert len(MODULES) == 6


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this package; its stdout."""
    src = os.path.dirname(os.path.dirname(hesspin.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_imports_fresh():
    _fresh("import hesspin")


LOADED = "print(sorted(m for m in sys.modules if m.startswith('hesspin.')))"


def test_pinball_commands_load_no_restriction_layer():
    # importing the CLI and running fillings load no pinball either
    imported, filled, verified = _fresh(
        "import contextlib, io, sys\n"
        "from hesspin.cli import main\n"
        + LOADED
        + "\nwith contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['fillings', '--n', '5']) == 0\n"
        + LOADED
        + "\nwith contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--n', '5', '--mode', 'pinball']) == 0\n"
        + LOADED
    ).splitlines()
    assert "'hesspin.cli'" in imported
    assert "'hesspin.fillings'" in filled
    assert "hesspin.pinball" not in imported + filled
    assert "'hesspin.pinball'" in verified
    assert "hesspin.billey" not in verified
    assert "hesspin.hess334" not in verified


def test_library_loads_no_dataclasses():
    # the records are NamedTuples, so no import pulls in dataclasses (and
    # with it inspect, ast, dis and tokenize)
    probe = "print('dataclasses' in sys.modules)"
    bare = _fresh("import sys\n" + probe)
    loaded = _fresh(
        "import sys, hesspin.cli, hesspin.billey, hesspin.hess334\n" + probe
    )
    assert loaded == bare


def test_reexports_are_lazy():
    assert _fresh("import sys, hesspin\n" + LOADED) == "[]\n"
    loaded = _fresh("import sys\nfrom hesspin import verify_334_theorem\n" + LOADED)
    assert "'hesspin.hess334'" in loaded and "'hesspin.billey'" in loaded


def test_package_reexports_resolve():
    for name in hesspin.__all__:
        home = importlib.import_module(f"hesspin.{hesspin._HOME[name]}")
        assert getattr(hesspin, name) is getattr(home, name)
    assert "verify_pinball" in dir(hesspin)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        hesspin.nope


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hesspin").glob("*.py")) + sorted(
    (ROOT / "demos").glob("*.py")
)
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def _referenced(node: ast.AST) -> set[str]:
    """The names a ``Name``, an ``Attribute`` or an import alias under
    ``node`` refers to; strings, docstrings among them, name nothing."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_name_has_a_caller():
    # a name in a module's __all__ is re-exported by the package or used
    # by the package or a demo, outside its own definition and __all__
    exported: dict[str, str] = {}
    used: set[str] = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            if _is_all(stmt):
                if path.parent.name == "hesspin" and path.stem != "__init__":
                    for name in ast.literal_eval(stmt.value):
                        exported[name] = path.stem
                continue
            names = _referenced(stmt)
            if isinstance(stmt, DEFINITIONS):
                names.discard(stmt.name)
            used |= names
    assert len(exported) > 50
    orphans = sorted(
        f"{module}.{name}"
        for name, module in exported.items()
        if name not in hesspin._HOME and name not in used
    )
    assert not orphans, f"public names with no caller outside tests: {orphans}"
