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
        "change of ROADMAP item 1",
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
    # no scipy module loads with the package: scipy.sparse, its graph and
    # sparse-solver code and the scipy.linalg they pull in load only in the
    # functions that call them, so the sqrt|x| sweep never imports scipy
    found = {name for name in imported_modules(import_time_nodes(ast.parse(path.read_text())))
             if name == "scipy" or name.startswith("scipy.")}
    assert not found, f"{path.name} imports {sorted(found)} at import time"


def test_only_the_generators_branch_on_the_heat_mode():
    # every action is one time of apply_grid and every kernel column one
    # time of kernel_grid, so the realization is chosen in those two (and
    # set in __init__; kernel_matrix is dense-only).  A dense space is the
    # product of one vertex and itself, so apply_grid tells stepping from the
    # one spectral path.  kernel_grid tells them apart too: stepping clamps
    # the action on the deltas (copying a read-only group start by its
    # flag, not by the mode), and the spectral path multiplies factor kernel
    # columns; kernel_pairs reads the same values at sampled pairs, off
    # kernel_grid's columns when stepping.  grid_columns tells a caller how
    # wide a sweep over a grid may be: stepping holds a group of outputs at
    # once, the spectral path its stack, coefficients and one output
    tree = ast.parse(next(p for p in SOURCES if p.name == "heat.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "HeatOperator")

    def is_mode(node):
        return (isinstance(node, ast.Attribute) and node.attr == "mode"
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                and isinstance(node.ctx, ast.Load))

    readers, compared = set(), {}
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        reads = [node for node in ast.walk(fn) if is_mode(node)]
        if reads:
            readers.add(fn.name)
        # each read of self.mode, with what it is compared against (None
        # where it is not compared with a string with == or !=)
        parents = {id(child): node for node in ast.walk(fn)
                   for child in ast.iter_child_nodes(node)}
        for node in reads:
            parent = parents[id(node)]
            others = ([parent.left, *parent.comparators]
                      if isinstance(parent, ast.Compare)
                      and all(isinstance(op, (ast.Eq, ast.NotEq)) for op in parent.ops)
                      else [None])
            compared.setdefault(fn.name, set()).update(
                o.value if isinstance(o, ast.Constant) and isinstance(o.value, str)
                else None for o in others if o is not node)
    assert "apply_grid" in readers
    assert readers <= {"__init__", "apply_grid", "grid_columns", "kernel_grid",
                       "kernel_pairs", "kernel_matrix"}
    for name in ("apply_grid", "grid_columns", "kernel_grid", "kernel_pairs"):
        assert compared[name] == {"stepping"}, name


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
def test_only_the_heat_module_imports_threads(path):
    # no module does, the heat module included: heat sweeps run their
    # column blocks on the calling thread, and the package starts no
    # thread; imports inside functions count too
    found = {name for name in imported_modules(ast.walk(ast.parse(path.read_text())))
             if name.split(".")[0] in ("threading", "concurrent")}
    assert not found, f"{path.name} imports {sorted(found)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_or_writes_thread_variables(path):
    # thread counts are set through the runtimes, never the environment
    text = path.read_text()
    found = [var for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if var in text]
    assert not found, f"{path.name} names {found}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "space.py"],
                         ids=lambda p: p.name)
def test_only_the_space_module_computes_distances(path):
    # every distance is read through `distance_rows` or `distances_from`: no
    # other module runs Dijkstra or reads the ring lengths or the length graph
    tree = ast.parse(path.read_text())
    words = {word for text in [*names_and_strings(tree), *imported_modules(ast.walk(tree))]
             for word in re.split(r"\W+", text)}
    found = words & {"dijkstra", "_ring", "_len_graph"}
    assert not found, f"{path.name} names {sorted(found)}"
