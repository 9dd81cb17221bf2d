"""No module imports a name it never uses.

Every ``import`` and ``from ... import`` in ``src/``, ``tests/`` and
``tools/`` binds a name, and its module must read that name somewhere.
``__init__.py`` files are exempt, as their imports are the package's
re-exports, and so is an import marked ``# noqa: F401``: one kept on
purpose for other modules to read, such as ``coset.compose``.  The check
reads the syntax tree with the standard library's ``ast``, so it needs no
linter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "tools")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name that ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        # "import a.b" binds a; "from m import a as b" binds b
        imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_check_finds_an_unused_name_and_honours_the_mark():
    source = ("import os.path, sys as system\n"
              "from json import (dumps,\n"
              "                  loads)  # noqa: F401\n"
              "from collections import Counter, deque\n"
              "deque = list\n"
              "print(os.path.sep, system.argv)\n")
    assert unused_imports(source) == [(4, "Counter"), (4, "deque")]


def test_every_imported_name_is_used():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for tree in TREES for path in sorted((ROOT / tree).rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused, f"imported and never used: {', '.join(unused)}"
