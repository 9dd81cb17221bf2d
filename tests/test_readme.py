"""The README's code must run and print what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first ```python block under the README's ``## Library`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_block_prints_its_commented_values(capsys):
    exec(compile(library_block(), f"{README.name} (## Library)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == ["24", "2", "2 (1, 22) (0, 3)", "3 ((0, 1), (0, 2), (0, 4))", "2"]
    assert len(lines) == 6          # and verify_atom_theory's report
