"""Every imported name is read in its module.

No linter runs on this repository, so this walks the syntax tree of each
module in ``src/acmsolitons``, ``tests`` and ``scripts`` instead.  A name
listed in the module's ``__all__`` counts as read; ``from __future__``
imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/acmsolitons", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) of each imported name that ``tree`` never reads."""
    imported = []
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported |= {
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                }
    return [(line, name) for line, name in imported
            if name not in read and name not in exported]


def test_walk_finds_the_modules():
    names = {p.relative_to(ROOT).as_posix() for p in MODULES}
    assert {"src/acmsolitons/suites.py", "tests/test_hygiene.py",
            "scripts/determinism_check.py"} <= names


def test_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "os.getcwd()\n"
    )
    assert _unused_imports(tree) == [(2, "system"), (3, "dumps")]


@pytest.mark.parametrize(
    "path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES]
)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []
