"""One benchmark pass in a fresh process.

The worker imports cosetkit from the checkout's ``src``, writes the
workload's spec documents, then runs every operation once through
``cosetkit.cli.main(argv)`` in-process: that is the timed phase.  It prints
one JSON object with the raw outputs and timings; ``run.py`` judges them.

Set-up time runs from the moment ``run.py`` spawned the process (passed as
``--spawned``, a ``time.monotonic()`` reading, which is system-wide) to the
start of the first timed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:          # an operation that raises is a failure
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-400:],
            "error": error, "wall_s": elapsed}


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB.  ``VmHWM`` is reset when the
    worker's program is loaded; ``ru_maxrss`` is not on Linux, where it
    keeps the spawning process's peak across fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N operations")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--export", action="store_true",
                    help="after the timed phase, export each analyzed "
                         "instance's edge list for the networkx check")
    args = ap.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    from cosetkit import cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported cosetkit from {cli.__file__}, not from {src}")

    ops = workloads.operations(args.workload, args.seed)[:args.limit]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        path = workdir / f"op{i:04d}.json"
        path.write_text(json.dumps(op.spec, ensure_ascii=False), encoding="utf-8")
        paths.append(str(path))
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.spawned}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_s = time.monotonic() - args.spawned
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    results = [run_op(cli, op.resolved_argv(path)) for op, path in zip(ops, paths)]
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    peak_rss = peak_rss_mb()
    trace = None if tracer is None else tracer.report(wall)

    edges = None
    if args.export:
        edges = [run_op(cli, ["export", path, "--format", "edges"])["stdout"]
                 if op.argv[0] == "analyze" else None
                 for op, path in zip(ops, paths)]

    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss,
        "ops": results, "edges": edges, "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
