"""Source hygiene: every imported name in the package, the demos and the
tests is read somewhere in its module.

Names listed in a module's `__all__` count as read (they are re-exported),
and `from __future__ import annotations` is exempt.  An import kept only
for a side effect would need a name that is read; there is none today.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src/selab", "demos", "tests")
                 for p in (ROOT / d).rglob("*.py"))


def imported_names(tree):
    """(bound name, line) of every import in the module, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree):
    """Names loaded anywhere in the module, plus the strings in `__all__`."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in node.value.elts
                      if isinstance(elt, ast.Constant)}
    return names


def unused_imports(source):
    tree = ast.parse(source)
    read = read_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_unused_and_exempt_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return np.pi\n"
    )
    assert unused_imports(source) == [("os", 2), ("pi", 4), ("dumps", 7)]
