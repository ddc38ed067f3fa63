"""The exported names match what the modules define and declare."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import kronlev
from helpers import readme_python_block

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


def test_the_package_exports_what_the_demos_and_the_readme_import():
    """Each top-level name is imported ``from kronlev`` by a demo or the README's python block, and only those."""
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
    trees.append(ast.parse(readme_python_block()))
    imported = {alias.name for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "kronlev" for alias in node.names}
    assert {"make_method", "trial_error"} <= imported
    assert sorted(name for _, name in kronlev_imports(kronlev.__file__)) == sorted(imported)


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


def names_subprocess(node):
    """Whether an AST node imports or reads the ``subprocess`` module."""
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "subprocess" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").partition(".")[0] == "subprocess" or any(
            alias.name == "subprocess" for alias in node.names)
    return isinstance(node, ast.Name) and node.id == "subprocess" or (
        isinstance(node, ast.Attribute) and node.attr == "subprocess")


def test_a_new_interpreter_is_started_by_the_one_launcher():
    """Under tests/, a new interpreter comes from ``helpers.run_capped`` alone.

    ``outputs.py`` runs the console script itself, and ``test_config_cli.py``
    starts one ``Popen`` whose stdout it closes; no other file names
    ``subprocess``, so a test that needs a fresh process takes the launcher's
    memory cap and timeout.
    """
    closed_stdout = "test_a_closed_stdout_is_status_1_with_nothing_on_stderr"
    files, callers = set(), set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text())
        # ast.walk meets a function before the functions inside it, so each node gets its innermost
        owner = {node: function.name for function in ast.walk(tree)
                 if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(function)}
        for node in ast.walk(tree):
            if names_subprocess(node):
                files.add(path.name)
                if path.name == "test_config_cli.py" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                    callers.add(owner.get(node))
    assert files == {"helpers.py", "outputs.py", "test_config_cli.py"}
    assert callers == {closed_stdout}


def test_every_pytest_raises_checks_more_than_a_type():
    """A ``pytest.raises`` passes ``match=`` or binds the exception (``as raised``) to read it.

    A bare one takes any text of its type: ``gauss_legendre_grid(0)`` once
    passed a bare ``ValueError`` check with ``not enough values to unpack``.
    """
    bare = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With)
                 for item in node.items if item.optional_vars is not None}
        bare += [(path.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and ast.unparse(node.func) == "pytest.raises" and id(node) not in bound
                 and "match" not in [keyword.arg for keyword in node.keywords]]
    assert bare == []


def test_the_refusal_table_imports_no_test_extra():
    """``test_refusals.py`` imports the standard library, numpy, pytest, kronlev and ``helpers`` alone."""
    tree = ast.parse((ROOT / "tests" / "test_refusals.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {"numpy", "kronlev.sketch", "helpers"} <= modules
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "kronlev", "helpers"}
    assert sorted(module for module in modules if module.partition(".")[0] not in allowed) == []
