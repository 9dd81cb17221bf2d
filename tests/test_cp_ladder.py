"""tools/cp_ladder.py: what a rung records from its child process."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cp_ladder.py"
REPORT = {"instance": {}, "kappa": {"oracle": 4, "group_theoretic": 5, "agree": False},
          "lambda": 5, "atoms": None, "timings": {"build_s": 0.0}}

# a stand-in CLI: CP(n, 1) prints a report whose κ routes disagree and
# exits 2, as `cosetkit cp` does; any other k prints an error line, exit 1
FAKE_CLI = f"""
import json, sys

def main(argv):
    if argv[4] == "1":
        sys.stdout.write(json.dumps({REPORT!r}))
        return 2
    print("error: no such instance", file=sys.stderr)
    return 1
"""


@pytest.fixture
def ladder():
    spec = importlib.util.spec_from_file_location("cp_ladder", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fake_src(tmp_path):
    package = tmp_path / "src" / "cosetkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "cli.py").write_text(FAKE_CLI, encoding="utf-8")
    return tmp_path / "src"


def test_a_report_on_exit_two_is_kept(ladder, fake_src):
    entry = ladder.run_instance(fake_src, 6, 1)
    assert entry["exit_code"] == 2
    assert all(entry[key] == REPORT[key] for key in ladder.REPORT_KEYS)
    assert entry["peak_rss_mib"] > 0


def test_no_report_reads_null(ladder, fake_src):
    entry = ladder.run_instance(fake_src, 6, 2)
    assert entry["exit_code"] == 1
    assert all(entry[key] is None for key in ladder.REPORT_KEYS)
