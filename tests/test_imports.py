"""NumPy is the package's only runtime dependency: every module in
``src/skipgru`` imports from the standard library, ``numpy`` and the package
itself, and from nothing else."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "skipgru"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "skipgru"}


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """The line and top-level name of each absolute import in ``source`` that
    ``ALLOWED`` does not hold."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name.partition(".")[0]) for name in names
                  if name.partition(".")[0] not in ALLOWED]
    return found


def test_the_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(SOURCE.glob("*.py"))
    assert {path.name for path in modules} >= {"__init__.py", "autodiff.py", "cli.py"}
    assert {path.name: foreign_imports(path.read_text(encoding="utf-8"))
            for path in modules} == {path.name: [] for path in modules}


def test_a_foreign_import_is_found_wherever_it_is():
    source = ("import os, numpy.linalg\nfrom . import data\nfrom numpy import fft\n"
              "def f():\n    import scipy.sparse\n    from pandas import DataFrame\n"
              "try:\n    import numba as nb\nexcept ImportError:\n    pass\n")
    assert sorted(foreign_imports(source)) == [(5, "scipy"), (6, "pandas"), (8, "numba")]
