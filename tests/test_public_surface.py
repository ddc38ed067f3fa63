"""The exported names match what the modules define and declare."""

import ast
import importlib
from pathlib import Path

import pytest

import kronlev

MODULES = ["grid_basis", "indexset", "factor", "sampler", "sketch", "oracle", "experiments",
           "config"]


ROOT = Path(__file__).resolve().parents[1]
# the public surface's users besides the package itself
CALLERS = [ROOT / "src" / "kronlev" / "cli.py", *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def kronlev_imports(path):
    """(module, name) for every ``from .module import name`` or ``from kronlev.module import name``."""
    return [
        (node.module if node.level else node.module.partition("kronlev.")[2], alias.name)
        for node in ast.walk(ast.parse(Path(path).read_text()))
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_declared_name_exists(module):
    mod = importlib.import_module(f"kronlev.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_only_declared_names():
    imports = kronlev_imports(kronlev.__file__)
    assert imports
    undeclared = [
        (module, name) for module, name in imports
        if name not in importlib.import_module(f"kronlev.{module}").__all__
    ]
    assert undeclared == []


def test_callers_import_only_declared_names():
    imports = [(module, name) for path in CALLERS for module, name in kronlev_imports(path) if module in MODULES]
    assert {module for module, _ in imports} >= {"experiments", "sampler", "sketch"}
    assert [(module, name) for module, name in imports
            if name not in importlib.import_module(f"kronlev.{module}").__all__] == []


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


# numpy's OpenBLAS binding, which only factor may hold or call
BINDING_NAMES = {"_openblas", "_LAPACK_COL_MAJOR", "_OPENBLAS_SYMBOLS"}


def module_names(tree):
    """Every identifier a module's AST names: variables, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname


def imports_ctypes(tree):
    return any(
        isinstance(node, ast.Import) and any(alias.name.partition(".")[0] == "ctypes" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] == "ctypes"
        for node in ast.walk(tree)
    )


def test_only_factor_binds_lapack():
    """factor alone imports ctypes and reads the OpenBLAS binding, so it alone picks a LAPACK back end.

    An array's ``.ctypes`` attribute is not an import and is not counted.
    """
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "kronlev").glob("*.py"))}
    assert "factor" in trees and "sketch" in trees
    assert [module for module, tree in trees.items() if imports_ctypes(tree)] == ["factor"]
    named = {module: BINDING_NAMES.intersection(module_names(tree)) for module, tree in trees.items()}
    assert {module: names for module, names in named.items() if names} == {"factor": BINDING_NAMES}


def test_config_leaves_method_tags_and_basis_kinds_to_their_owners():
    """The sampler judges a method tag and ``BasisSpec`` a basis kind; config restates neither list."""
    tree = ast.parse((ROOT / "src" / "kronlev" / "config.py").read_text())
    assert {"METHOD_TAGS", "BASIS_KINDS"}.intersection(module_names(tree)) == set()


def test_cli_imports_nothing_from_the_oracle():
    """The dense oracle is the tests' reference: ``kronlev oracle`` reads the scores from J's record."""
    tree = ast.parse((ROOT / "src" / "kronlev" / "cli.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):  # from . import oracle, from .oracle import x
            module = ("." * node.level) + (node.module or "")
            imported |= {module} | {f"{module.rstrip('.')}.{alias.name}" for alias in node.names}
    assert imported
    assert [name for name in imported if "oracle" in name.split(".")] == []


def test_no_test_module_imports_a_test_module():
    """Shared test code lives in ``helpers`` and ``conftest``, never in a ``test_*`` module.

    A test module may import a test extra (scipy, hypothesis), so a file that
    imported such a module could not be collected where pytest and numpy are
    all that is installed.
    """
    paths = sorted((ROOT / "tests").rglob("*.py"))
    assert ROOT / "tests" / "test_config_cli.py" in paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names if name.partition(".")[0].startswith("test_")]
    assert found == []
