"""tools/cp_ladder.py: what a rung records from its child process, and the
κ < d family it defines, checked by both κ routes, `analyze` and `check edgec`."""

import importlib.util
import json
from pathlib import Path

import pytest

from cosetkit import cli
from cosetkit.perms import parse_cycles

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cp_ladder.py"
REPORT = {"instance": {}, "kappa": {"oracle": 4, "group_theoretic": 5, "agree": False},
          "lambda": 5, "atoms": None, "timings": {"build_s": 0.0}}

# a stand-in CLI: CP(n, 1) prints a report whose κ routes disagree and
# exits 2, as `cosetkit cp` does; any other k prints an error line, exit 1.
# `analyze SPEC` reads the document and reports its degree as λ, exit 0
FAKE_CLI = f"""
import json, sys

def main(argv):
    if argv[0] == "analyze":
        with open(argv[1], encoding="utf-8") as fh:
            doc = json.load(fh)
        sys.stdout.write(json.dumps(dict({REPORT!r}, **{{"lambda": doc["degree"]}})))
        return 0
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


def run(ladder, src, spec_dir, rung):
    return ladder.run_instance(src, rung, ladder.command(rung, spec_dir))


def test_a_report_on_exit_two_is_kept(ladder, fake_src, tmp_path):
    entry = run(ladder, fake_src, tmp_path, {"kind": "cp", "n": 6, "k": 1})
    assert entry["exit_code"] == 2
    assert all(entry[key] == REPORT[key] for key in ladder.REPORT_KEYS)
    assert entry["peak_rss_mib"] > 0
    assert (entry["kind"], entry["n"], entry["k"]) == ("cp", 6, 1)


def test_no_report_reads_null(ladder, fake_src, tmp_path):
    entry = run(ladder, fake_src, tmp_path, {"kind": "cp", "n": 6, "k": 2})
    assert entry["exit_code"] == 1
    assert all(entry[key] is None for key in ladder.REPORT_KEYS)


@pytest.mark.parametrize("coset", [False, True])
def test_a_spec_rung_runs_analyze_on_its_document(ladder, fake_src, tmp_path, coset):
    rung = {"kind": "spec", "n": 8, "coset": coset}
    argv = ladder.command(rung, tmp_path)
    assert argv[0::2] == ["analyze", "--timings"]
    assert json.loads(Path(argv[1]).read_text(encoding="utf-8")) == ladder.family_spec(8, coset)
    assert ladder.family_spec(8, coset)["subgroup_generators"] == (["(7 8)"] if coset else [])
    entry = ladder.run_instance(fake_src, rung, argv)
    assert (entry["kind"], entry["n"], entry["coset"]) == ("spec", 8, coset)
    assert (entry["exit_code"], entry["lambda"]) == (0, 8)    # the document's degree
    assert entry["kappa"] == REPORT["kappa"] and entry["peak_rss_mib"] > 0
    # the family's two rungs run after every CP rung
    assert ladder.rungs()[-2:] == [{"kind": "spec", "n": 8, "coset": False},
                                   {"kind": "spec", "n": 8, "coset": True}]
    assert [r["kind"] for r in ladder.rungs()[:-2]] == ["cp"] * len(ladder.LADDER)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_the_family_has_kappa_below_d_and_lambda_d(ladder, tmp_path, capsys, n):
    # both κ routes give 6 < d = 7, analyze reports λ = d by the theorem and
    # check edgec computes it by flow
    doc = ladder.family_spec(n)
    x, last = (parse_cycles(entry["perm"], n) for entry in doc["connection_set"][-2:])
    assert last == parse_cycles("(1 2)", n) * x and x.order() == n
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instance"]["vertex_count"] == [120, 720, 5040][n - 5]
    assert report["kappa"] == {"oracle": 6, "group_theoretic": 6, "agree": True}
    assert (report["instance"]["degree"], report["lambda"]) == (7, 7)
    assert cli.main(["check", "edgec", str(path)]) == 0
    assert capsys.readouterr().err == "edgec: applicable and consistent (bound 7, computed 7)\n"


def test_each_rung_keeps_its_fastest_run_or_its_failure(ladder, tmp_path, monkeypatch, capsys):
    # two rungs, two checkouts; the stub reads each call's wall time and exit
    # code from a script keyed by (checkout, rung, run)
    monkeypatch.setattr(ladder, "LADDER", ((6, 1), (6, 2)))
    monkeypatch.setattr(ladder, "FAMILY", ())
    srcs = {name: tmp_path / name / "src" for name in ("a", "b")}
    for src in srcs.values():
        src.mkdir(parents=True)
    walls = {("a", 1): [0.5, 0.3, 0.4], ("b", 1): [0.2, 0.6, 0.7],
             ("a", 2): [0.1, 0.2, 0.3], ("b", 2): [0.1, 0.2, 0.3]}
    exits = {("a", 2): [0, 2, 0], ("b", 2): [0, 0, None]}
    calls = []

    def stub(src, rung, argv):
        name, n, k = src.parent.name, rung["n"], rung["k"]
        assert argv == ["cp", "--n", str(n), "--k", str(k), "--timings"]
        run = sum(1 for c in calls if c[:2] == (name, k))
        calls.append((name, k, run))
        code = exits.get((name, k), [0] * ladder.RUNS)[run]
        return {"n": n, "k": k, "exit_code": code,
                "wall_s": None if code is None else walls[name, k][run]}

    monkeypatch.setattr(ladder, "run_instance", stub)
    assert ladder.main([f"{name}={src.parent}" for name, src in srcs.items()]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert ladder.RUNS == 3 and doc["runs"] == 3
    assert [c[:2] for c in calls] == [("a", 1), ("b", 1), ("b", 1), ("a", 1), ("a", 1), ("b", 1),
                                      ("a", 2), ("b", 2), ("b", 2), ("a", 2), ("a", 2), ("b", 2)]
    kept = {name: [(i["exit_code"], i["wall_s"]) for i in doc["checkouts"][name]["instances"]]
            for name in srcs}
    # the fastest run where every run exits 0; the failed run otherwise,
    # an exit 2 or a stop (null exit code and wall time) alike
    assert kept == {"a": [(0, 0.3), (2, 0.2)], "b": [(0, 0.2), (None, None)]}
