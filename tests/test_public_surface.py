"""The exported names match what the modules define and declare."""

import ast
import importlib
from pathlib import Path

import pytest

import kronlev

MODULES = ["grid_basis", "indexset", "factor", "sampler", "sketch", "oracle", "experiments",
           "config"]


def package_imports():
    """(module, name) for every ``from .module import name`` in kronlev/__init__.py."""
    tree = ast.parse(Path(kronlev.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_declared_name_exists(module):
    mod = importlib.import_module(f"kronlev.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_only_declared_names():
    imports = package_imports()
    assert imports
    undeclared = [
        (module, name) for module, name in imports
        if name not in importlib.import_module(f"kronlev.{module}").__all__
    ]
    assert undeclared == []


def test_benchmark_phase_hooks_exist():
    """The benchmark's tracer finds its phase boundaries by module binding name.

    A renamed or deleted hook records zero calls there instead of failing, so
    the names are checked here.
    """
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "PHASE_TARGETS" for t in node.targets)
    )
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module(module)
        assert [name for name in names if not callable(getattr(mod, name, None))] == []
