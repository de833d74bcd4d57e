"""Every module of the package compiles with warnings turned into errors and
uses every name it imports."""

import ast
import pathlib
import re
import warnings

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "src" / "mmslab").glob("*.py"))

# (module, name) imported without a use in the module, with the reason
UNUSED_IMPORTS = {
    ("heat.py", "carre_du_champ"):
        "perfbench/tests reads mmslab.heat.carre_du_champ until the benchmark "
        "change of ROADMAP item 2",
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



def imported_modules(nodes):
    """Dotted names of every module, and every `from` name, the import
    statements among `nodes` import."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_scipy_linalg(path):
    # dense eigendecompositions go through numpy.linalg, so numpy's OpenBLAS
    # is the only BLAS runtime that runs threaded in the hot paths
    found = {name for name in imported_modules(ast.walk(ast.parse(path.read_text())))
             if name == "scipy.linalg" or name.startswith("scipy.linalg.")}
    assert not found, f"{path.name} imports {sorted(found)}"


def import_time_nodes(tree):
    """The nodes of a module outside its function bodies: what importing it
    runs (decorators and defaults aside)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_the_sparse_solvers_at_import_time(path):
    # scipy's graph and sparse-solver code, and the scipy.linalg they pull
    # in, load only in the functions that call them: a run on products,
    # paths and cycles never imports them
    found = {name for name in imported_modules(import_time_nodes(ast.parse(path.read_text())))
             if any(name == mod or name.startswith(mod + ".")
                    for mod in ("scipy.sparse.csgraph", "scipy.sparse.linalg"))}
    assert not found, f"{path.name} imports {sorted(found)} at import time"


def test_only_the_generators_branch_on_the_heat_mode():
    # every action is one time of apply_grid and every kernel column one
    # time of kernel_grid, so the realization is chosen in those two (and
    # set in __init__; kernel_matrix is dense-only)
    tree = ast.parse(next(p for p in SOURCES if p.name == "heat.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "HeatOperator")
    readers = {fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "mode"
               and isinstance(node.value, ast.Name) and node.value.id == "self"
               and isinstance(node.ctx, ast.Load)}
    assert {"apply_grid", "kernel_grid"} <= readers
    assert readers <= {"__init__", "apply_grid", "kernel_grid", "kernel_matrix"}


def names_and_strings(tree):
    """Every identifier, attribute name and string constant of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "blas.py"],
                         ids=lambda p: p.name)
def test_only_the_blas_module_touches_openblas(path):
    # the BLAS thread policy lives in one module (`mmslab.blas`)
    tree = ast.parse(path.read_text())
    imports = {name for name in imported_modules(ast.walk(tree))
               if name == "ctypes" or name.startswith("ctypes.")}
    assert not imports, f"{path.name} imports {sorted(imports)}"
    symbols = {word for text in names_and_strings(tree)
               for word in re.findall(r"\w*openblas\w*", text)}
    assert not symbols, f"{path.name} names {sorted(symbols)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_or_writes_thread_variables(path):
    # thread counts are set through the runtimes, never the environment
    text = path.read_text()
    found = [var for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if var in text]
    assert not found, f"{path.name} names {found}"
