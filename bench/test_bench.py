"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Run from the root of a checkout.  Workers run only the first operations of
a workload, so the whole file takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def traced_pair():
    """Two traced passes over the first sweep block, in fresh workers."""
    passes = []
    for _ in range(2):
        r = run.Run(ROOT, "random_sweep", 7, limit=len(workloads.SWEEP_BLOCK))
        try:
            passes.append(r.gated_pass(trace=True))
        finally:
            r.close()
        assert (r.attempted, r.failed) == (len(r.ops), 0), r.problems
    return passes


def test_wrong_answer_counts_as_failure():
    r = run.Run(ROOT, "random_sweep", 3, limit=4)
    try:
        result = r.gated_pass()
    finally:
        r.close()
    assert (r.attempted, r.failed) == (4, 0), r.problems

    wrong = copy.deepcopy(result)
    report = json.loads(wrong["ops"][0]["stdout"])
    report["kappa"]["oracle"] += 1
    wrong["ops"][0]["stdout"] = json.dumps(report)
    wrong["ops"][1]["code"] = 2
    r.judge(wrong)
    assert (r.attempted, r.failed) == (8, 2)


def test_check_command_with_wrong_exit_code_fails():
    expect = workloads.check_ladder(workloads.random.Random(0))[6].expect
    assert expect["exit"] == 3
    result = {"error": None, "code": 0, "stdout": "{}"}
    assert run.check_operation(expect, result)


def test_call_counts_repeat_exactly(traced_pair):
    first, second = (p["trace"]["stats"] for p in traced_pair)
    assert {k: v[0] for k, v in first.items()} == {k: v[0] for k, v in second.items()}
    assert first["perms.compose"][0] > 0 and first["atoms.verify_atom_theory"][0] > 0


def test_self_times_are_nonnegative_and_sum_to_wall(traced_pair):
    for result in traced_pair:
        trace = result["trace"]
        selfs = [self_s for _, self_s in trace["stats"].values()]
        assert min(selfs) >= -1e-9 and trace["outside_s"] >= 0
        assert sum(selfs) + trace["outside_s"] == pytest.approx(result["wall_s"], rel=1e-9)


def test_every_binding_is_rebound():
    sys.path.insert(0, str(ROOT / "src"))
    import cosetkit.coset
    import cosetkit.perms
    original = cosetkit.perms.compose
    t = tracer.Tracer()
    t.install()
    assert cosetkit.perms.compose is not original
    assert cosetkit.coset.compose is cosetkit.perms.compose
    assert cosetkit.compose is cosetkit.perms.compose


def test_missing_function_has_no_metric(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "perms", ("no_such_function",))
    t = tracer.Tracer()
    t.install()
    assert "perms.no_such_function" in t.missing
    assert "perms.no_such_function" not in t.stats
    metrics = run.layer_metrics(t.report(0.0))
    assert "perms.no_such_function.calls" not in metrics


def test_inputs_follow_the_seed_and_never_repeat():
    for name in workloads.WORKLOADS:
        first = [op.spec for op in workloads.operations(name, 5)]
        assert first == [op.spec for op in workloads.operations(name, 5)]
        documents = [json.dumps(spec, sort_keys=True) for spec in first]
        assert len(set(documents)) == len(documents)
    sweep = workloads.operations("random_sweep", 5)
    assert sweep != workloads.operations("random_sweep", 6)
    assert len(sweep) == workloads.SWEEP_SIZE


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cayley_flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
