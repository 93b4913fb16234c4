"""Every import in ``src/`` and ``tests/`` is used, and the library reads
every function and class it defines.

No lint tool is a test dependency, so this scans each module's syntax
tree with the standard library: a name bound by an import must be read
somewhere in the module, or listed in its ``__all__``.  ``from
__future__`` imports bind no name and are skipped.  A module-level
function or class of ``bqdomain``, or a method or property of one of its
classes, that only tests read belongs with them.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + \
    sorted((ROOT / "tests").rglob("*.py"))

# Read only from outside src/: the console script, the fib probe's keys.
ENTRY_POINTS = [("cli", "main"), ("fib", "keys_to_depth")]


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



def definitions(tree):
    """(qualified name, name, node) of each module-level function, class
    and name bound by a plain or annotated assignment in tree, and of each
    method and property of its classes, as "Class.name"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            yield from (("%s.%s" % (node.name, d.name), d.name, d)
                        for d in node.body if isinstance(d, ast.FunctionDef))
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) and node.value \
            else []
        yield from ((n.id, n.id, node) for t in targets for n in ast.walk(t)
                    if isinstance(getattr(n, "ctx", None), ast.Store)
                    and isinstance(n, ast.Name))


def unread_definitions(sources):
    """(module, name) of each definition in sources, a dict of module name
    to source, that no code there reads outside its own definition: each
    module-level function, class or assigned name, and each method or
    property of a class as "Class.name", read as an attribute of any
    object.  Dunders are skipped, a name that is only bound again is not
    read, and a string equal to the name, as in an ``__all__``, counts as
    a read."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    out = []
    for mod, tree in trees.items():
        for qualname, name, node in definitions(tree):
            if name.startswith("__"):
                continue
            inside = set(map(id, ast.walk(node)))
            if not any(id(n) not in inside
                       and not isinstance(getattr(n, "ctx", None), ast.Store)
                       and name in (getattr(n, k, None)
                                    for k in ("id", "attr", "value"))
                       for t in trees.values() for n in ast.walk(t)):
                out.append((mod, qualname))
    return out


def test_scanner_finds_an_unread_definition():
    sources = {"a": "__all__ = ['shown']\ndef shown(): pass\n"
                    "def used(): pass\ndef alone(n): return alone(n - 1)\n",
               "b": "from a import used\nused()\n"}
    assert unread_definitions(sources) == [("a", "alone")]


def test_scanner_finds_an_unread_method_and_property():
    sources = {"a": "class C:\n"
                    "    def __init__(self): self.run()\n"
                    "    def run(self): pass\n"
                    "    def again(self): return self.again()\n"
                    "    @property\n"
                    "    def size(self): return 1\n"
                    "    @property\n"
                    "    def shown(self): return 2\n",
               "b": "from a import C\nprint(C().shown)\n"}
    assert unread_definitions(sources) == [("a", "C.again"), ("a", "C.size")]


def test_scanner_finds_an_unread_assigned_name():
    sources = {"a": "__version__ = '1'\nLIMIT = 3\nBOUND: int = 4\n"
                    "SPARE: float = 0.5\nSPARE = 1.5\nSHOWN = 5\n"
                    "TABLE = {}\nTABLE[0] = TABLE\nx, (y, z) = 1, (2, 3)\n"
                    "HINT: int\n"
                    "def f(): return LIMIT + y\nf()\n",
               "b": "from a import BOUND\nimport a\nprint(a.SHOWN, BOUND)\n"}
    assert unread_definitions(sources) == [
        ("a", "SPARE"), ("a", "SPARE"), ("a", "x"), ("a", "z")]


def test_src_holds_no_test_only_definition():
    package = ROOT / "src" / "bqdomain"
    sources = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    assert [d for d in unread_definitions(sources)
            if d not in ENTRY_POINTS] == []
