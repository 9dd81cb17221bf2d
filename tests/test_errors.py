"""Every exception class that ``errors.py`` defines is raised in ``src/``.

A class that no ``raise`` names is an error no caller can meet, so it
leaves with the last code that raised it.  The check reads the syntax tree
with the standard library's ``ast``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cosetkit"


def raised_names(source: str) -> set[str]:
    """The class names that ``source``'s raise statements raise:
    ``raise X``, ``raise X(...)`` and ``raise m.X(...)`` each name X."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            names.add(exc.id)
        elif isinstance(exc, ast.Attribute):
            names.add(exc.attr)
    return names


def test_the_check_reads_each_form_of_raise():
    source = ("try:\n"
              "    raise errors.A('x')\n"
              "except ValueError:\n"
              "    raise\n"
              "raise B\n"
              "raise C(1) from None\n"
              "D('built, not raised')\n")
    assert raised_names(source) == {"A", "B", "C"}


def test_every_exception_class_is_raised():
    defined = [node.name for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)]
    raised = set().union(*(raised_names(path.read_text(encoding="utf-8"))
                           for path in sorted(SRC.glob("*.py"))))
    assert defined and not set(defined) - raised, \
        f"defined in errors.py and never raised: {sorted(set(defined) - raised)}"
