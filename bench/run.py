"""cosetkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass starts a fresh worker process
(``worker.py``) that imports cosetkit from ``src``, writes the workload's
spec documents and runs every operation once through
``cosetkit.cli.main(argv)``.  Inputs never repeat within a worker, so no
process-level cache can answer what a real invocation has to compute.

``--trace 0`` runs passes until ``--seconds`` of timed work is done (at
least one) and reports the end-to-end metrics as medians over passes.
``--trace 1`` runs one untraced and one traced pass and reports per-module
call counts and self times, plus the tracing overhead between the two.

Every answer goes through the correctness gate (``gate.py``) after its pass.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the failure fraction.
Workloads are listed in ``workloads.WORKLOADS``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from gate import check_operation, networkx_reference  # noqa: E402
from tracer import TARGETS  # noqa: E402

SETUP_SAMPLES = 5          # set-up is timed in at least this many workers per run
RUN_LIMIT_S = 150          # start no pass that would likely end after this
RUN_DEADLINE_S = 170       # stop any worker still running this long after start


class BenchError(Exception):
    """The harness could not produce a result."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def spawn_worker(root: Path, workdir: Path, timeout: float, *args: str) -> dict:
    """Run worker.py with ``args`` and return the JSON object it prints."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "--root", str(root),
         "--workdir", str(workdir), "--spawned", repr(spawned), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    except BaseException:             # interrupted: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


class Run:
    """One invocation: its workers, the gate's verdicts and the networkx
    references, computed once from the first pass's exported edge lists.
    ``limit`` keeps only the first operations (for the harness self-test)."""

    def __init__(self, root: Path, workload: str, seed: int, limit: int | None = None):
        self.root = root
        self.started = time.monotonic()
        self.workdir = root / ".bench_work" / f"run-{os.getpid()}"
        self.ops = workloads.operations(workload, seed)[:limit]
        self.worker_args = ["--workload", workload, "--seed", str(seed),
                            "--limit", str(len(self.ops))]
        self.references = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.workers = 0

    def close(self) -> None:
        """Remove the run's scratch directory, and ``.bench_work`` if empty."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()

    def worker(self, *extra: str) -> dict:
        self.workers += 1
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started))
        return spawn_worker(self.root, self.workdir / f"w{self.workers}", timeout,
                            *self.worker_args, *extra)

    def gated_pass(self, trace: bool = False) -> dict:
        export = self.references is None and any(
            op.expect["kind"] == "random" for op in self.ops)
        result = self.worker(*(["--trace"] if trace else []),
                             *(["--export"] if export else []))
        if export:
            self.references = [
                networkx_reference(edges, op.expect["vertices"]) if edges is not None else None
                for op, edges in zip(self.ops, result["edges"])]
        self.judge(result)
        return result

    def judge(self, result: dict) -> None:
        """Count every operation of a pass, and each that fails the gate."""
        for i, (op, res) in enumerate(zip(self.ops, result["ops"], strict=True)):
            ref = self.references[i] if self.references else None
            problems = check_operation(op.expect, res, ref)
            self.attempted += 1
            if problems:
                self.failed += 1
                stderr = res["stderr"].strip().splitlines()[-1:]
                self.problems.append(f"{' '.join(op.argv)} #{i}: {'; '.join(problems + stderr)}")


def timed_metrics(run: Run, seconds: float) -> dict:
    passes = []
    while True:
        passes.append(run.gated_pass())
        measured = sum(p["wall_s"] for p in passes)
        elapsed = time.monotonic() - run.started
        if measured >= seconds or elapsed + 1.5 * passes[-1]["wall_s"] > RUN_LIMIT_S:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.worker("--setup-only")["setup_s"])
    op_times = [op["wall_s"] for p in passes for op in p["ops"]]
    print(f"{len(passes)} passes of {len(run.ops)} operations, "
          f"{len(op_times)} operation samples, {len(setups)} set-up samples")
    median = statistics.median
    return {
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (median(p["cpu_s"] for p in passes), "s"),
        "op_p50_s": (median(op_times), "s"),
        "op_p90_s": (percentile(op_times, 0.9), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MiB"),
        "setup_s": (median(setups), "s"),
    }


def src_lines(root: Path) -> int:
    """Non-blank lines in src/cosetkit, kept for simplicity reviews."""
    return sum(1 for path in (root / "src" / "cosetkit").glob("*.py")
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def atoms_coverage(run: Run, result: dict) -> tuple[int, float]:
    """Analyze reports with atoms over connected non-complete instances
    (0.0 when a workload has no such instance)."""
    eligible = with_atoms = 0
    for op, res in zip(run.ops, result["ops"]):
        if op.argv[0] != "analyze" or res["code"] != 0:
            continue
        try:
            report = json.loads(res["stdout"])
        except ValueError:            # the gate has counted it as failed
            continue
        inst = report["instance"]
        if inst["connected"] and inst["degree"] < inst["vertex_count"] - 1:
            eligible += 1
            with_atoms += report["atoms"] is not None
    return eligible, (with_atoms / eligible if eligible else 0.0)


def layer_metrics(trace: dict) -> dict:
    """Calls and self time per traced function, self time per module.  A
    function the tracer could not find gets no metric at all, never a 0."""
    metrics = {}
    for module, functions in TARGETS.items():
        total = 0.0
        for fn in functions:
            name = f"{module}.{fn}"
            if name in trace["stats"]:
                calls, self_s = trace["stats"][name]
                metrics[f"{name}.calls"] = (calls, "count")
                metrics[f"{name}.self_s"] = (self_s, "s")
                total += self_s
        metrics[f"{module}.self_s"] = (total, "s")
    metrics["bench.self_s"] = (trace["outside_s"], "s")
    return metrics


def traced_metrics(run: Run) -> dict:
    plain = run.gated_pass()
    traced = run.gated_pass(trace=True)
    if traced["trace"]["missing"]:
        print("missing functions (no metric reported): "
              + ", ".join(traced["trace"]["missing"]))
    metrics = layer_metrics(traced["trace"])
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    eligible, coverage = atoms_coverage(run, traced)
    print(f"atoms reported on {coverage:.3f} of {eligible} connected non-complete "
          f"analyze instances")
    metrics["atoms.coverage"] = (coverage, "ratio")
    metrics["src.lines"] = (src_lines(run.root), "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = BENCH.parent
    if not (root / "src" / "cosetkit" / "cli.py").is_file():
        print(f"error: no cosetkit sources under {root / 'src'}; "
              f"run from the root of a checkout", file=sys.stderr)
        return 1
    # the build: byte-compile once so no worker's set-up pays for it
    compileall.compile_dir(root / "src" / "cosetkit", quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    run = Run(root, args.workload, args.seed)
    try:
        metrics = traced_metrics(run) if args.trace else timed_metrics(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    for line in run.problems[:20]:
        print(f"FAILED {line}")
    print(f"failed {run.failed} of {run.attempted} operations "
          f"(fail_frac {run.failed / run.attempted:.4f})")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
