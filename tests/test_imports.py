"""NumPy is the package's only runtime dependency: every module in
``src/skipgru`` imports from the standard library, ``numpy`` and the package
itself, and from nothing else. The package has no environment knobs either:
no module reads ``os.environ``, ``os.environb`` or ``os.getenv``."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "skipgru"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "skipgru"}
ENVIRONMENT = frozenset({"environ", "environb", "getenv"})


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


def environment_reads(source: str) -> list[tuple[int, str]]:
    """The line and name of each use of ``ENVIRONMENT`` in ``source``: as an
    attribute of a name bound to ``os`` (``import os``, ``import os.path``,
    ``import os as o``) or imported from ``os``."""
    tree = ast.parse(source)
    aliases = {alias.asname or "os" for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names
               if alias.name == "os" or (alias.asname is None and alias.name.startswith("os."))}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and node.level == 0:
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ENVIRONMENT]
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


def test_the_package_reads_no_environment_variable():
    modules = sorted(SOURCE.glob("*.py"))
    assert {path.name: environment_reads(path.read_text(encoding="utf-8"))
            for path in modules} == {path.name: [] for path in modules}


def test_an_environment_read_is_found_however_os_is_bound():
    source = ("import os, os.path\nimport os as system\nfrom os import getenv as ge, sep\n"
              "a = os.environ['A']\nb = system.getenv('B')\nc = os.path.join('c')\n"
              "def f():\n    return os.environb.get(b'D'), ge('E')\n"
              "class C:\n    environ = {}\nd = C.environ\n")
    assert sorted(environment_reads(source)) == [(3, "getenv"), (4, "environ"), (5, "getenv"),
                                                 (8, "environb")]
