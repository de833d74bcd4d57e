"""Every module of the package compiles with warnings turned into errors and
uses every name it imports."""

import ast
import pathlib
import warnings

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "src" / "mmslab").glob("*.py"))

# (module, name) imported without a use in the module, with the reason
UNUSED_IMPORTS = {
    ("heat.py", "carre_du_champ"):
        "perfbench/tests reads mmslab.heat.carre_du_champ until the benchmark "
        "change of ROADMAP item 5",
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    # compiling from source (not a cached .pyc) reports invalid escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in imported - used
              if (path.name, name) not in UNUSED_IMPORTS}
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"



def imported_modules(tree):
    """Dotted names of every module, and every `from` name, a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_scipy_linalg(path):
    # dense eigendecompositions go through numpy.linalg, so numpy's OpenBLAS
    # is the only BLAS runtime that runs threaded in the hot paths
    found = {name for name in imported_modules(ast.parse(path.read_text()))
             if name == "scipy.linalg" or name.startswith("scipy.linalg.")}
    assert not found, f"{path.name} imports {sorted(found)}"
