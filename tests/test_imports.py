"""Every import in ``src/`` and ``tests/`` is used.

No lint tool is a test dependency, so this scans each module's syntax
tree with the standard library: a name bound by an import must be read
somewhere in the module, or listed in its ``__all__``.  ``from
__future__`` imports bind no name and are skipped.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + \
    sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return [(line, name) for line, name in bound if name not in read]


def test_scanner_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport os.path as osp\n"
              "from math import pi, tau\n__all__ = ['tau']\nprint(sys)\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (4, "pi")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
