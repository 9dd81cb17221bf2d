"""Run the CP(n, k) ladder and the κ < d family, and print one JSON
document of their costs.

    python3 tools/cp_ladder.py [NAME=CHECKOUT ...] > BENCH_<n>.json

For each NAME=CHECKOUT pair (default ``change=`` the checkout holding this
script), every rung runs from that checkout's ``src`` in a fresh Python
process, stopped after LIMIT_S seconds: each CP rung in LADDER runs
``cosetkit cp --n N --k K --timings``, then each rung in FAMILY runs
``cosetkit analyze SPEC --timings`` on ``family_spec``'s document.  Each rung
runs RUNS times per checkout, and every other run takes the checkouts in
reverse order, so that a slow spell of a shared machine does not fall on one
checkout only.  Of a rung's runs the document keeps the first that exited
non-zero or was stopped, and otherwise the one with the least wall time.
Per rung it holds its ``kind`` ("cp" or "spec") and parameters, the exit
code (null when stopped), the wall time including start-up, the report's
``kappa`` (flow and group values and whether they agree), its ``lambda`` and
its ``timings`` stages, read whatever the exit code (so a rung whose two
κ routes disagree, exit 2, keeps both values; null when stdout holds no
report), and the process's peak resident set (``VmHWM``); per checkout it
holds the nonblank line count of ``src/``.  Rungs run one at a time, so they
do not compete for the processor.

The family, κ < d at scale, is the Cayley digraph of S_n on
S = (K ∖ {e}) ∪ {x, (1 2)·x}, where K = ⟨(1 2), (1 2 3)⟩ and x = (1 2 … n),
and its coset variant over H = ⟨(n−1 n)⟩.  As KS ∖ K = Kx, the subgroup K
has |K| = 6 out-neighbours against the degree d = 7, so κ ≤ 6 < d (both
routes give κ = 6 for n = 5 … 8; the coset variant at n = 8 gives κ = 8 and
d = 9).  λ = d on both, as on every connected coset digraph.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LADDER = ((6, 1), (6, 2), (7, 3), (7, 4), (8, 5), (8, 4), (7, 2), (7, 1), (8, 3), (8, 2), (8, 1))
FAMILY = ((8, False), (8, True))        # (n, coset variant)
LIMIT_S = 120
RUNS = 3
PEAK_TAG = "cp_ladder peak KiB:"
REPORT_KEYS = ("kappa", "lambda", "timings")

# The child runs the CLI in-process, then reports its own VmHWM on stderr:
# a parent's ru_maxrss for its children carries the parent's peak on Linux.
CHILD = f"""
import sys
from cosetkit import cli
try:
    code = cli.main(sys.argv[1:])
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    print("{PEAK_TAG}", peak, file=sys.stderr)
sys.exit(code)
"""


def nonblank_lines(src: Path) -> int:
    return sum(1 for path in sorted(src.rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def family_spec(n: int, coset: bool = False) -> dict:
    """The spec document of the family's rung on S_n; (1 3 4 ... n) is
    (1 2)x in the order of cosetkit's product."""
    tail = " ".join(map(str, range(3, n + 1)))
    connection = ["(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)", f"(1 2 {tail})", f"(1 {tail})"]
    return {"degree": n, "group_generators": ["(1 2)", f"(1 2 {tail})"],
            "subgroup_generators": [f"({n - 1} {n})"] if coset else [],
            "connection_set": [{"perm": perm} for perm in connection]}


def rungs() -> list[dict]:
    return ([{"kind": "cp", "n": n, "k": k} for n, k in LADDER]
            + [{"kind": "spec", "n": n, "coset": coset} for n, coset in FAMILY])


def command(rung: dict, spec_dir: Path) -> list[str]:
    """The CLI arguments of ``rung``, a spec rung's document written into
    ``spec_dir``."""
    if rung["kind"] == "cp":
        return ["cp", "--n", str(rung["n"]), "--k", str(rung["k"]), "--timings"]
    path = spec_dir / f"family_{rung['n']}{'_coset' if rung['coset'] else ''}.json"
    path.write_text(json.dumps(family_spec(rung["n"], rung["coset"])), encoding="utf-8")
    return ["analyze", str(path), "--timings"]


def run_instance(src: Path, rung: dict, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    entry = dict(rung)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
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


def kept(runs: list[dict]) -> dict:
    """The run of one rung that the document keeps: the first that
    exited non-zero or was stopped, else the one with the least wall time."""
    failed = [entry for entry in runs if entry["exit_code"] != 0]
    return failed[0] if failed else min(runs, key=lambda entry: entry["wall_s"])


def main(argv: list[str]) -> int:
    pairs = argv or [f"change={Path(__file__).resolve().parent.parent}"]
    checkouts = {}
    for pair in pairs:
        name, sep, checkout = pair.partition("=")
        if not sep:
            print(f"error: expected NAME=CHECKOUT, got {pair!r}", file=sys.stderr)
            return 1
        checkouts[name] = Path(checkout).resolve() / "src"
    instances: dict[str, list[dict]] = {name: [] for name in checkouts}
    with tempfile.TemporaryDirectory() as spec_dir:
        for rung in rungs():
            rung_argv = command(rung, Path(spec_dir))
            runs: dict[str, list[dict]] = {name: [] for name in checkouts}
            for run in range(RUNS):
                for name in (list(checkouts) if run % 2 == 0 else reversed(checkouts)):
                    runs[name].append(run_instance(checkouts[name], rung, rung_argv))
                    print(f"{name} {rung} run {run + 1}: {runs[name][-1]['wall_s']} s",
                          file=sys.stderr)
            for name, entries in runs.items():
                instances[name].append(kept(entries))
    doc = {"command": {"cp": "cosetkit cp --n N --k K --timings",
                       "spec": "cosetkit analyze SPEC --timings"},
           "limit_s": LIMIT_S, "runs": RUNS,
           "python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(),
           "checkouts": {name: {"src_nonblank_lines": nonblank_lines(src),
                                "instances": instances[name]}
                         for name, src in checkouts.items()}}
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
