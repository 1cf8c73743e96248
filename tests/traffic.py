"""Traffic report: which statement lines of the package the golden cases run.

Line-traces src/hopfcheck while it is imported, then while running the
golden CLI cases (`test_golden._cli_cases`) of each mode, then every
library-only case (`test_golden.library_cases`), and prints, per module, the
statement lines inside function bodies that no CLI case ran: those that only
a library case ran, and those that no case ran.  A second line per module
gives the lines that only exact CLI cases ran and those that only float ones
ran.  Every `@cache`d function of the package is cleared before each mode's
pass, so a table or kernel built on first use counts in both modes.  A line
the import runs (a function called while a module builds its tables) counts
as run by every case, since every run imports the package.  Docstrings are
not statements here.  A line the CLI never runs is either a library path or
code that no run takes.  The report is informational and always exits 0.

    PYTHONPATH=src python tests/traffic.py
"""

import ast
import importlib
import importlib.util
import os
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

#: found without importing it: the import itself is traced (`main`)
PACKAGE = os.path.dirname(importlib.util.find_spec("hopfcheck").origin)


def body_lines(source: str) -> set:
    """First lines of the statements inside function bodies that compile to code."""
    tree = ast.parse(source)
    lines = {node.lineno for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for stmt in fn.body for node in ast.walk(stmt) if isinstance(node, ast.stmt)}
    # docstrings, bare constants and declarations run no code
    return lines - {node.lineno for node in ast.walk(tree)
                    if isinstance(node, (ast.Global, ast.Nonlocal))
                    or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}


def traced(cases, run) -> dict:
    """{file: lines} the package ran while run(case) ran for each case."""
    hits = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(call)
    try:
        for case in cases:
            run(case)
    finally:
        sys.settrace(None)
    return hits


def spans(lines) -> str:
    """Sorted line numbers with runs of consecutive ones written a-b."""
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out) or "-"


def main() -> int:
    os.environ.pop("HOPFCHECK_SEED", None)
    # test_golden imports the package (it needs the tests directory on the path)
    imported = traced(["test_golden"], importlib.import_module)
    test_golden = sys.modules["test_golden"]
    by_mode = defaultdict(list)
    for argv in test_golden._cli_cases():
        by_mode[argv[argv.index("--mode") + 1]].append(argv)
    modes = {}
    for mode in ("exact", "float"):
        clear_caches()
        modes[mode] = traced(by_mode[mode], test_golden.run_cli_case)
    library = traced(sorted(test_golden.library_cases()), test_golden.run_library_case)
    print("statement lines in function bodies that no golden CLI case ran,")
    print("then those that only the exact or only the float CLI cases ran")
    for path in sorted(Path(PACKAGE).glob("*.py")):
        lines = body_lines(path.read_text())
        body = lines - imported[str(path)]
        exact, floats = (modes[mode][str(path)] & body for mode in ("exact", "float"))
        unrun = body - exact - floats
        library_only = unrun & library[str(path)]
        print(f"{path.name}: {len(unrun)} of {len(lines)}; "
              f"library only: {spans(library_only)}; no case: {spans(unrun - library_only)}")
        print(f"  exact only: {spans(exact - floats)}; float only: {spans(floats - exact)}")
    return 0


def clear_caches():
    """Empty every `functools.cache` of the package's modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hopfcheck."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


if __name__ == "__main__":
    sys.exit(main())
