"""No package module imports a name it never uses.

A deletion tends to leave its imports behind; this guard reads each module
of the package (bar `__init__.py`, whose imports are the public API) with
`ast` and lists the imported names that nothing in the module reads.
"""

import ast
from pathlib import Path

import pytest

import hopfcheck

MODULES = sorted(path for path in Path(hopfcheck.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names the source's imports bind and no expression of it reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`; a chain a.b.c reads the Name `a`
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_guard_finds_a_leftover_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .cdalg import mul_coeffs, norm_coeffs as norm\n"
              "print(mul_coeffs, os.path.join)\n")
    assert unused_imports(source) == ["norm"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []
