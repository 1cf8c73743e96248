"""No package module imports a name it never uses, and only `sampling` reads
generator words or draws law inputs.

A deletion tends to leave its imports behind; this guard reads each module
of the package (bar `__init__.py`, whose imports are the public API) with
`ast` and lists the imported names that nothing in the module reads.  A
second guard keeps the word layout in one module: no other module calls
`_u64s` or uses the names that slice words into values.  A third keeps the
draws there: no other module imports the functions that build sampled inputs,
so a law names its inputs' kinds and `sampling.draw_input` draws them.
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


#: the names that read generator words or lay them out; only `sampling` may use them
WORD_LEVEL = {"_u64s", "point_of", "quarter_of", "point_words", "quarter_words", "_lane_words"}


def uses(source: str, names: set) -> list:
    """The names among names that the source imports or reads as an attribute, sorted."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return sorted(used & names)


def word_level_uses(source: str) -> list:
    """The word-level names the source imports or reads as an attribute, sorted."""
    return uses(source, WORD_LEVEL)


def test_the_word_guard_finds_words_read_outside_sampling():
    source = ("from .sampling import point_of, rand_point\n"
              "def draw(rng):\n"
              "    return point_of(rng._u64s(3), 4, 'float'), rand_point(rng, 4, 'float')\n")
    assert word_level_uses(source) == ["_u64s", "point_of"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sampling.py"],
                         ids=[p.stem for p in MODULES if p.name != "sampling.py"])
def test_only_sampling_reads_generator_words(path):
    assert word_level_uses(path.read_text()) == []


#: the draws that build sampled inputs; only `sampling` may use them
DRAWS = {"rand_point", "rand_arc", "rand_lifted", "rand_coeffs", "rand_unit"}


def test_the_draw_guard_finds_a_draw_used_outside_sampling():
    source = ("from . import sampling\n"
              "from .sampling import CounterRng, rand_unit as unit\n"
              "def draw(rng):\n"
              "    return unit(rng, 4, 'exact'), sampling.rand_arc(rng, 4, 'exact')\n")
    assert uses(source, DRAWS) == ["rand_arc", "rand_unit"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sampling.py"],
                         ids=[p.stem for p in MODULES if p.name != "sampling.py"])
def test_only_sampling_uses_the_draws(path):
    assert uses(path.read_text(), DRAWS) == []
