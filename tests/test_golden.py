"""Every command of the committed corpus prints the same bytes.

``tools/golden.py`` wrote ``tests/golden/``: spec documents, and one manifest
line per command with its exit code and the sha256 of its stdout and its
stderr.  This re-runs the whole manifest in one fresh process, in-process
through ``cosetkit.cli.main``, and names the first command that differs.
The process runs under a PYTHONHASHSEED other than the generator's, so an
output that depends on string hashing fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "golden.py"
HASH_SEED = "1"

SCRIPT = r"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("golden", sys.argv[1])
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)
difference = golden.first_difference()
print(json.dumps({"seed": golden.HASH_SEED, "difference": difference,
                  "bench": "workloads" in sys.modules}))
"""


def test_every_command_prints_its_committed_bytes():
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(TOOL)], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(done.stdout)
    assert result["seed"] != HASH_SEED
    assert not result["bench"], "the corpus check imported bench/"
    assert result["difference"] is None, result["difference"]
