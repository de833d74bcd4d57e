"""Every module of the package compiles with warnings turned into errors."""

import pathlib
import warnings

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "src" / "mmslab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    # compiling from source (not a cached .pyc) reports invalid escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
