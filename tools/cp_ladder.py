"""Run the CP(n, k) ladder and print one JSON document of its costs.

    python3 tools/cp_ladder.py [NAME=CHECKOUT ...] > BENCH_<n>.json

For each NAME=CHECKOUT pair (default ``change=`` the checkout holding this
script), every instance in LADDER runs ``cosetkit cp --n N --k K --timings``
from that checkout's ``src`` in a fresh Python process, stopped after
LIMIT_S seconds.  Per instance the document holds the exit code (null when
stopped), the wall time including start-up, the report's ``kappa`` (flow
and group values and whether they agree), its ``lambda`` and its ``timings``
stages, read whatever the exit code (so a rung whose two κ routes disagree,
exit 2, keeps both values; null when stdout holds no report), and the
process's peak resident set (``VmHWM``); per checkout it
holds the nonblank line count of ``src/``.  Instances run one at a time, so
they do not compete for the processor.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

LADDER = ((6, 1), (6, 2), (7, 3), (7, 4), (8, 5), (8, 4), (7, 2), (7, 1), (8, 3), (8, 2), (8, 1))
LIMIT_S = 120
PEAK_TAG = "cp_ladder peak KiB:"
REPORT_KEYS = ("kappa", "lambda", "timings")

# The child runs the CLI in-process, then reports its own VmHWM on stderr:
# a parent's ru_maxrss for its children carries the parent's peak on Linux.
CHILD = f"""
import sys
from cosetkit import cli
try:
    code = cli.main(["cp", "--n", sys.argv[1], "--k", sys.argv[2], "--timings"])
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    print("{PEAK_TAG}", peak, file=sys.stderr)
sys.exit(code)
"""


def nonblank_lines(src: Path) -> int:
    return sum(1 for path in sorted(src.rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def run_instance(src: Path, n: int, k: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    entry = {"n": n, "k": k}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(n), str(k)], env=env,
                              capture_output=True, text=True, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        entry.update(dict.fromkeys(("exit_code", "wall_s", *REPORT_KEYS, "peak_rss_mib")))
        return entry
    entry["exit_code"] = proc.returncode
    entry["wall_s"] = round(time.perf_counter() - t0, 3)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:        # an error line on stderr, no report
        report = {}
    entry.update((key, report.get(key)) for key in REPORT_KEYS)
    peak = [line for line in proc.stderr.splitlines() if line.startswith(PEAK_TAG)]
    entry["peak_rss_mib"] = round(int(peak[-1].split()[-1]) / 1024, 1) if peak else None
    return entry


def main(argv: list[str]) -> int:
    pairs = argv or [f"change={Path(__file__).resolve().parent.parent}"]
    doc = {"command": "cosetkit cp --n N --k K --timings", "limit_s": LIMIT_S,
           "python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "checkouts": {}}
    for pair in pairs:
        name, sep, checkout = pair.partition("=")
        if not sep:
            print(f"error: expected NAME=CHECKOUT, got {pair!r}", file=sys.stderr)
            return 1
        src = Path(checkout).resolve() / "src"
        instances = []
        for n, k in LADDER:
            instances.append(run_instance(src, n, k))
            print(f"{name} CP({n},{k}): {instances[-1]['wall_s']} s", file=sys.stderr)
        doc["checkouts"][name] = {"src_nonblank_lines": nonblank_lines(src),
                                  "instances": instances}
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
