"""Write the byte-identity corpus under ``tests/golden/``.

    python3 tools/golden.py

The corpus is the spec documents in ``tests/golden/specs/`` and one line of
``tests/golden/manifest.jsonl`` per command: its argv (spec paths relative
to ``tests/golden``), its exit code and the sha256 of its stdout and of its
stderr.  The commands are every ``check_ladder`` and ``random_sweep``
operation of the benchmark for seeds 1 and 2, ``export`` in both formats of
each analyzed spec, ``cp`` for every n <= 6 and for CP(7,4) and CP(7,2),
a few input errors, ``--timings`` runs (a block of the sweep, and ``cp``
for n <= 5), whose lines hold the timing keys and hash stdout with each
timing value left out, and the atom-stage commands: ``analyze`` on the
24-vertex S_4 instance with ``settings.bruteforce_cap`` 24 (transpose atoms)
and 0 (no atom stage), two failing ``check`` runs on it, and ``analyze`` on
an instance whose smaller atoms lie on the transpose side.

Every command runs in this one process through ``cosetkit.cli.main``, from
this checkout's ``src``, with the working directory at ``tests/golden``.
The tool re-runs itself under PYTHONHASHSEED=0, so that ``first_difference``,
which ``tests/test_golden.py`` runs under another seed, shows any output
that depends on string hashing.  Regenerate only for an intended output
change, and list the changed commands in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "manifest.jsonl"
HASH_SEED = "0"
SEEDS = (1, 2)
CP_INSTANCES = [(n, k) for n in range(2, 7) for k in range(1, n)] + [(7, 4), (7, 2)]
TIMED_SWEEP_OPS = 30        # one block of the sweep: every kind of instance
ERRORS = (
    ["cp", "--n", "3", "--k", "3"],
    ["cp", "--n", "3"],
    ["analyze", "specs/missing.json"],
    ["check", "no_such_theorem", "specs/check_ladder-1-0.json"],
    ["export", "specs/check_ladder-1-0.json", "--format", "svg"],
)
# G(S_4, {e}, {a, b, ba}) with a = (1 2), b = (1 2 3 4): 24 vertices, kappa 2
S4_MIXED = {"degree": 4, "group_generators": ["(1 2)", "(1 2 3 4)"],
            "connection_set": [{"label": "a", "perm": "(1 2)"},
                               {"label": "b", "perm": "(1 2 3 4)"},
                               {"label": "ba", "perm": "(2 3 4)"}]}
ATOM_SPECS = {
    "s4_mixed-cap24.json": {**S4_MIXED, "settings": {"bruteforce_cap": 24}},
    "s4_mixed-cap0.json": {**S4_MIXED, "settings": {"bruteforce_cap": 0}},
    # 12 vertices, kappa 4: the atoms of size 2 lie on the transpose side
    "s4_transpose_atom.json": {
        "degree": 4, "group_generators": ["(1 2)", "(1 2 3 4)"],
        "subgroup_generators": ["(1 2)(3 4)"],
        "connection_set": [{"label": "s0", "perm": "(3 4)"},
                           {"label": "s1", "perm": "(1 3 4 2)"},
                           {"label": "s2", "perm": "(1 3 4)"}]},
}
ATOM_COMMANDS = (
    ["analyze", "specs/s4_mixed-cap24.json"],
    ["analyze", "specs/s4_mixed-cap0.json"],
    ["check", "decomposition", "specs/s4_mixed-cap24.json", "--partition", "a|b,ba"],
    ["check", "hierarchical_gen", "specs/s4_mixed-cap24.json"],
    ["analyze", "specs/s4_transpose_atom.json"],
)


def specs_and_commands() -> tuple[dict[str, dict], list[list[str]]]:
    """The spec documents by file name, and the command lines in order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    specs: dict[str, dict] = {}
    commands: list[list[str]] = []
    exports: list[list[str]] = []
    timed: list[list[str]] = []
    for workload in ("check_ladder", "random_sweep"):
        for seed in SEEDS:
            for i, op in enumerate(workloads.operations(workload, seed)):
                path = f"specs/{workload}-{seed}-{i}.json"
                specs[path.removeprefix("specs/")] = op.spec
                commands.append(op.resolved_argv(path))
                if op.argv[0] == "analyze":
                    exports += [["export", path, "--format", fmt] for fmt in ("edges", "dot")]
                    if seed == SEEDS[0] and i < TIMED_SWEEP_OPS:
                        timed.append([*op.resolved_argv(path), "--timings"])
    cps = [["cp", "--n", str(n), "--k", str(k)] for n, k in CP_INSTANCES]
    commands += exports + cps + [[*cp, "--emit-spec"] for cp in cps]
    commands += timed + [[*cp, "--timings"] for cp in cps if int(cp[2]) <= 5]
    commands += [list(e) for e in ERRORS]
    specs.update(ATOM_SPECS)
    commands += [list(c) for c in ATOM_COMMANDS]
    return specs, commands


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command, run in-process."""
    from cosetkit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(argv: list[str]) -> dict:
    """The manifest line of one command."""
    code, out, err = run(argv)
    line = {"argv": argv, "exit": code}
    if "--timings" in argv and code in (0, 2):
        report = json.loads(out)
        line["timings"] = sorted(report["timings"])
        out = json.dumps({**report, "timings": line["timings"]}, indent=2, sort_keys=True)
    line["stdout"], line["stderr"] = _sha(out), _sha(err)
    return line


def _prepare() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("COSET_ENUM_CAP", None)
    os.chdir(GOLDEN)


def first_difference() -> str | None:
    """Re-run the manifest; a description of the first command whose line
    differs, or None."""
    _prepare()
    for text in MANIFEST.read_text(encoding="utf-8").splitlines():
        expected = json.loads(text)
        got = record(expected["argv"])
        if got != expected:
            fields = sorted(k for k in expected.keys() | got.keys()
                            if expected.get(k) != got.get(k))
            return f"cosetkit {' '.join(expected['argv'])}: {', '.join(fields)} differ"
    return None


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        return subprocess.run([sys.executable, __file__], env=env).returncode
    specs, commands = specs_and_commands()
    spec_dir = GOLDEN / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    for stale in spec_dir.glob("*.json"):
        if stale.name not in specs:
            stale.unlink()
    for name, doc in specs.items():
        (spec_dir / name).write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n",
                                     encoding="utf-8")
    _prepare()
    lines = [json.dumps(record(argv), ensure_ascii=False) for argv in commands]
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} commands, {len(specs)} specs in {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
