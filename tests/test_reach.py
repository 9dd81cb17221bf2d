"""The library is what its commands run.

A fixed set of small commands runs in a fresh process under
``sys.setprofile``: ``analyze`` on a connected instance with a nontrivial
H, on one whose first flow-κ sink is not minimising and on a disconnected
one, every theorem checker, ``export`` in both formats, ``cp`` with and
without ``--emit-spec``, and one usage error.
Every module-level function of ``cosetkit`` that none of them calls must be
one that the benchmark tracer names, read from ``bench/tracer.py`` as in
``test_traced_names.py``.  Every method and property defined in the body of
a ``cosetkit`` class must be called, with no such exception.  Dunder
methods are out of scope: Python calls them implicitly (``p(i)``,
``sorted``, ``for g in G``), and a class keeps the protocol it implements
as a whole.  A helper that only tests call belongs in ``tests/helpers.py``,
and a test reaches a primitive rather than a member that only wraps it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_traced_names import TRACED

ROOT = Path(__file__).resolve().parents[1]

CP42 = {"family": "cp", "n": 4, "k": 2}
CP52 = {"family": "cp", "n": 5, "k": 2}
S4_EXPLICIT = {
    "degree": 4, "group_generators": ["(1 2)", "(1 2 3 4)"],
    "subgroup_generators": ["(3 4)"],
    "connection_set": [{"label": "a", "perm": "(1 2)"}, {"label": "b", "perm": "(1 2 3)"}],
}
DISCONNECTED = {"degree": 6, "group_generators": ["(1 2 3 4 5 6)"],
                "connection_set": [{"label": "s", "perm": "(1 3 5)(2 4 6)"}]}
S4_CAYLEY = {"degree": 4, "group_generators": ["(1 2)", "(1 2 3 4)"],
             "connection_set": [{"label": "t", "perm": "(1 2)"},
                                {"label": "c", "perm": "(1 2 3 4)"}]}
D5 = {"degree": 5, "group_generators": ["(1 2 3 4 5)", "(2 5)(3 4)"],
      "connection_set": [{"label": "r", "perm": "(1 2 3 4 5)"},
                         {"label": "f", "perm": "(2 5)(3 4)"},
                         {"label": "r^-1", "perm": "(1 5 4 3 2)"}]}

# the first flow-kappa sink is not minimising, so the certificate re-runs flows
LATE_SINK = {"degree": 4, "group_generators": ["(1 2)", "(1 2 3 4)"],
             "subgroup_generators": ["(2 3)"],
             "connection_set": [{"label": "a", "perm": "(1 2)"},
                                {"label": "b", "perm": "(1 3 2 4)"}]}

# (argv with a spec name in place of its path, expected exit code)
COMMANDS = [
    (["analyze", "S4_EXPLICIT"], 0),
    (["analyze", "DISCONNECTED"], 0),
    (["analyze", "LATE_SINK"], 0),
    (["check", "decomposition", "CP52", "--partition", "γ(2),γ(3)|γ(4)"], 0),
    (["check", "corollary1", "CP52", "--partition", "γ(2)|γ(3)|γ(4)"], 0),
    (["check", "corollary1_1", "CP52", "--partition", "γ(2)|γ(3)|γ(4)"], 0),
    (["check", "hierarchical_gen", "CP52"], 0),
    (["check", "hier1", "S4_CAYLEY", "--order", "c,t"], 0),
    (["check", "hierarchical_cayley", "S4_CAYLEY"], 0),
    (["check", "hierarchical_gen_c", "D5", "--order", "r,f", "--sprime", "r^-1"], 0),
    (["check", "edgec", "CP42"], 0),
    (["export", "S4_EXPLICIT", "--format", "dot"], 0),
    (["export", "S4_EXPLICIT", "--format", "edges"], 0),
    (["cp", "--n", "5", "--k", "2"], 0),
    (["cp", "--n", "5", "--k", "2", "--emit-spec"], 0),
    (["cp", "--n", "5"], 1),
]

SCRIPT = r"""
import contextlib, inspect, io, json, sys
from cosetkit import cli

called = set()
sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)

def members(cls):                   # named methods and properties, no dunders
    for attr, value in vars(cls).items():
        if not (attr.startswith("__") and attr.endswith("__")):
            fn = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
            if inspect.isfunction(fn):
                yield attr, fn

unreached, methods = set(), set()
for name, module in list(sys.modules.items()):
    if name.startswith("cosetkit."):
        short = name.removeprefix("cosetkit.")
        for attr, value in vars(module).items():
            fn = inspect.unwrap(value) if callable(value) else None
            if (inspect.isfunction(fn) and fn.__module__ == name
                    and fn.__code__ not in called):
                unreached.add(short + "." + attr)
            if inspect.isclass(value) and value.__module__ == name:
                methods.update(f"{short}.{value.__name__}.{m}" for m, fn in members(value)
                               if fn.__code__ not in called)
print(json.dumps({"codes": codes, "unreached": sorted(unreached),
                  "methods": sorted(methods)}))
"""


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> dict:
    """The exit codes of COMMANDS, the module-level functions they leave
    unreached and the class members they leave uncalled."""
    tmp_path = tmp_path_factory.mktemp("specs")
    specs = {"CP42": CP42, "CP52": CP52, "S4_EXPLICIT": S4_EXPLICIT,
             "DISCONNECTED": DISCONNECTED, "S4_CAYLEY": S4_CAYLEY, "D5": D5,
             "LATE_SINK": LATE_SINK}
    for name, doc in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    argvs = [[str(tmp_path / f"{a}.json") if a in specs else a for a in argv]
             for argv, _ in COMMANDS]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("COSET_ENUM_CAP", None)
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(done.stdout)
    assert result["codes"] == [code for _, code in COMMANDS]
    return result


def test_every_unreached_function_is_a_traced_name(reached):
    traced = {f"{module}.{name}" for module, name in TRACED}
    assert set(reached["unreached"]) - traced == set()


def test_every_named_method_is_called(reached):
    assert not reached["methods"], f"no command calls {', '.join(reached['methods'])}"
