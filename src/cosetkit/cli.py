"""Command-line front end.

Commands:
  analyze <spec>                      full pipeline, JSON report on stdout
  check <theorem> <spec> [args]       one theorem checker, JSON report
  export <spec> --format dot|edges    graph export on stdout
  cp --n N --k K [--emit-spec]        analyze CP(n, k), checking the CP argument

Machine output goes to stdout and is byte-deterministic for a fixed spec;
the human-readable summary goes to stderr.  Exit codes: 0 success, 1 input
error, 2 internal inconsistency, 3 theorem hypotheses not satisfied.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

from . import atoms as atoms_mod
from . import theorems
from .coset import CosetDigraph, CosetDigraphSpec, build, generation_connectivity, oracle_kappa
from .cp import CPParams, cp_spec, verify_cp_argument
from .errors import (CapExceeded, CrossCheckError, GroupError,
                     NotStronglyConnected, SpecError)
from .perms import DEFAULT_ENUM_CAP, parse_cycles, print_cycles

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2
EXIT_HYPOTHESES = 3

ENUM_CAP_ENV = "COSET_ENUM_CAP"
DEFAULT_BRUTEFORCE_CAP = 18     # vertices; larger instances skip the atom stage


def json_bytes(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Parser(argparse.ArgumentParser):
    # the CLI reserves exit code 2 for internal inconsistencies, so argparse
    # usage errors must exit 1 instead of argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _integer(value, what: str, minimum: int) -> int:
    """``value`` if it is an integer (JSON booleans excluded) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SpecError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _enumeration_cap(settings: dict) -> int:
    """The setting, validated, unless the environment variable overrides it."""
    cap = _integer(settings.get("enumeration_cap", DEFAULT_ENUM_CAP),
                   "settings.enumeration_cap", 1)
    env = os.environ.get(ENUM_CAP_ENV)
    if env is None:
        return cap
    try:
        value = int(env)
    except ValueError:
        raise SpecError(f"{ENUM_CAP_ENV} must be an integer, got {env!r}") from None
    return _integer(value, ENUM_CAP_ENV, 1)


def load_spec_document(path: str) -> tuple[CosetDigraphSpec, dict]:
    """Parse a spec document: either an explicit instance or the cp family
    shorthand, plus optional settings."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")

    settings = doc.get("settings", {})
    if not isinstance(settings, dict):
        raise SpecError("settings must be an object")
    unknown = set(settings) - {"enumeration_cap", "bruteforce_cap"}
    if unknown:
        raise SpecError(f"unknown settings: {sorted(unknown)}")
    cap = _enumeration_cap(settings)
    if "bruteforce_cap" in settings:
        _integer(settings["bruteforce_cap"], "settings.bruteforce_cap", 0)

    explicit_keys = {"degree", "group_generators", "subgroup_generators",
                     "connection_set"}
    family_keys = {"family", "n", "k"}
    present = set(doc) - {"settings"}
    if present & family_keys:
        if present - family_keys:
            raise SpecError("spec mixes family shorthand with explicit fields")
        if doc.get("family") != "cp":
            raise SpecError(f"unknown family {doc.get('family')!r}")
        try:
            params = CPParams(_integer(doc["n"], "n", 2), _integer(doc["k"], "k", 1))
        except KeyError as exc:
            raise SpecError(f"cp family spec is missing {exc}") from None
        return cp_spec(params, cap), settings
    if not present <= explicit_keys:
        raise SpecError(f"unknown spec fields: {sorted(present - explicit_keys)}")
    for key in ("degree", "group_generators", "connection_set"):
        if key not in doc:
            raise SpecError(f"spec is missing {key!r}")

    degree = _integer(doc["degree"], "degree", 1)

    def parse(text, what):
        if not isinstance(text, str):
            raise SpecError(f"bad {what}: expected a cycle string, got {text!r}")
        try:
            return parse_cycles(text, degree)
        except GroupError as exc:
            raise SpecError(f"bad {what}: {exc}") from None

    def parse_list(raw, what):
        if not isinstance(raw, list):
            raise SpecError(f"{what} must be a list of cycle strings")
        return tuple(parse(text, what) for text in raw)

    group_gens = parse_list(doc["group_generators"], "group_generators")
    subgroup_gens = parse_list(doc.get("subgroup_generators", []),
                               "subgroup_generators")

    connection = []
    if not isinstance(doc["connection_set"], list):
        raise SpecError("connection_set must be a list")
    for entry in doc["connection_set"]:
        if not isinstance(entry, dict) or "perm" not in entry:
            raise SpecError(f"connection_set entries need a 'perm': {entry!r}")
        unknown = set(entry) - {"label", "perm"}
        if unknown:
            raise SpecError(f"unknown connection_set entry fields: {sorted(unknown)}")
        perm = parse(entry["perm"], "connection permutation")
        label = entry.get("label", print_cycles(perm))
        if not isinstance(label, str):
            raise SpecError(f"connection-set label must be a string, got {label!r}")
        connection.append((label, perm))

    try:
        spec = CosetDigraphSpec(degree, group_gens, subgroup_gens,
                                tuple(connection), cap)
    except GroupError as exc:
        raise SpecError(str(exc)) from None
    return spec, settings


def spec_to_document(spec: CosetDigraphSpec) -> dict:
    return {
        "degree": spec.degree,
        "group_generators": [print_cycles(p) for p in spec.group_generators],
        "subgroup_generators": [print_cycles(p) for p in spec.subgroup_generators],
        "connection_set": [{"label": lbl, "perm": print_cycles(p)}
                           for lbl, p in spec.connection_set],
    }


def analyze_instance(spec: CosetDigraphSpec, settings: dict, with_timings: bool = False,
                     verify=None) -> tuple[dict, int]:
    """The report of ``spec`` and its exit code; ``verify``, when given, is
    called on the built instance, untimed, and raises on a failed fact."""
    bruteforce_cap = settings.get("bruteforce_cap", DEFAULT_BRUTEFORCE_CAP)
    timings: dict[str, float] = {}

    def stage(name, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        timings[name] = round(time.perf_counter() - t0, 3)
        return result

    cd = stage("build_s", build, spec)
    if verify is not None:
        verify(cd)
    connected, components = stage("connectivity_s", generation_connectivity, cd)

    instance = {
        "group_order": len(cd.group),
        "subgroup_order": len(cd.subgroup),
        "vertex_count": len(cd.vertices),
        "degrees": dict(cd.degrees),
        "degree": cd.degree,
        "connected": connected,
        "components": None if connected else components,
    }
    report = {"instance": instance, "kappa": None, "lambda": None,
              "atoms": None, "timings": timings if with_timings else None}
    if not connected:
        return report, EXIT_OK

    oracle = stage("kappa_flow_s", oracle_kappa, cd)
    group = stage("kappa_group_s", atoms_mod.kappa_group_theoretic, cd).kappa_group
    agree = group == oracle
    report["kappa"] = {"oracle": oracle, "group_theoretic": group, "agree": agree}
    # a connected coset digraph is vertex-transitive, so lambda = d
    # (Hamidoune); `check edgec` computes it by flow
    report["lambda"] = stage("lambda_s", lambda: cd.degree)

    if cd.graph.vertex_count <= bruteforce_cap and not cd.graph.is_complete():
        theory = stage("atoms_s", atoms_mod.verify_atom_theory, cd)
        absent = {"found": False, "size": None, "count": None, "base_atom": None}
        report["atoms"] = {"forward": absent, "transpose": absent,
                           "partition_ok": True,    # else verify_atom_theory raised
                           theory.side: {"found": True, "size": theory.atom_size,
                                         "count": theory.atom_count,
                                         "base_atom": list(theory.base_atom)}}

    return report, EXIT_OK if agree else EXIT_INCONSISTENT


def _summarize_analysis(report: dict) -> str:
    inst = report["instance"]
    lines = [f"|G| = {inst['group_order']}, |H| = {inst['subgroup_order']}, "
             f"|V| = {inst['vertex_count']}, degree {inst['degree']} "
             f"({', '.join(f'{k}:{v}' for k, v in inst['degrees'].items())})"]
    if not inst["connected"]:
        lines.append(f"disconnected: {len(inst['components'])} components")
        return "\n".join(lines)
    kappa = report["kappa"]
    lines.append(f"kappa: oracle = {kappa['oracle']}, group-theoretic = "
                 f"{kappa['group_theoretic']} "
                 f"({'agree' if kappa['agree'] else 'DISAGREE'})")
    lines.append(f"lambda = {report['lambda']}")
    if report["atoms"] is not None:
        side = "forward" if report["atoms"]["forward"]["found"] else "transpose"
        info = report["atoms"][side]
        lines.append(f"atoms ({side} side): {info['count']} of size {info['size']}, partition ok")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    spec, settings = load_spec_document(args.spec)
    report, code = analyze_instance(spec, settings, with_timings=args.timings)
    sys.stdout.write(json_bytes(report))
    print(_summarize_analysis(report), file=sys.stderr)
    return code


def _parse_blocks(raw: str) -> list[list[str]]:
    blocks = [[lbl.strip() for lbl in block.split(",") if lbl.strip()]
              for block in raw.split("|")]
    if any(not block for block in blocks):
        raise SpecError(f"empty block in partition {raw!r}")
    return blocks


def _parse_labels(raw: str) -> list[str]:
    return [lbl.strip() for lbl in raw.split(",") if lbl.strip()]


def run_check(args) -> theorems.HypothesisReport:
    """Run the checker ``args.theorem`` on the instance of ``args.spec``.
    Its options are checked first, so a usage error reads no spec."""
    theorem = args.theorem
    if theorem not in theorems.THEOREM_IDS:
        raise SpecError(f"unknown theorem {theorem!r}; choose from "
                        f"{', '.join(theorems.THEOREM_IDS)}")
    if theorem in ("decomposition", "corollary1", "corollary1_1"):
        if args.partition is None:
            usage = "R1|R2" if theorem == "decomposition" else "S1|S2|..."
            raise SpecError(f"check {theorem} requires --partition {usage}")
        blocks = _parse_blocks(args.partition)
        if theorem == "decomposition" and len(blocks) != 2:
            raise SpecError("decomposition takes exactly two blocks R1|R2")
    if theorem == "hierarchical_gen_c" and (args.order is None or args.sprime is None):
        raise SpecError("check hierarchical_gen_c requires --order (S, in "
                        "order) and --sprime (S')")
    cd = build(load_spec_document(args.spec)[0])
    if theorem == "decomposition":
        return theorems.check_decomposition(cd, blocks[0], blocks[1])
    if theorem in ("corollary1", "corollary1_1"):
        return theorems.check_tower(cd, blocks, theorem)
    if theorem in ("hierarchical_gen", "hier1"):
        ordering = None if args.order is None else _parse_labels(args.order)
        return theorems.check_hierarchical_gen(cd, ordering, theorem)
    if theorem == "hierarchical_cayley":
        return theorems.verify_hierarchical_cayley(cd)
    if theorem == "hierarchical_gen_c":
        return theorems.check_hierarchical_gen_c(cd, _parse_labels(args.order),
                                                 _parse_labels(args.sprime))
    return theorems.verify_edge_connectivity(cd)        # "edgec"


def cmd_check(args) -> int:
    report = run_check(args)
    sys.stdout.write(json_bytes(dataclasses.asdict(report)))
    failed = [h for h in report.hypotheses if not h.holds]
    if failed:
        detail = "; ".join(f"{h.description}" +
                           (f" [{h.witness}]" if h.witness else "")
                           for h in failed)
        print(f"{report.theorem_id}: hypotheses not satisfied: {detail}",
              file=sys.stderr)
        return EXIT_HYPOTHESES
    if not report.consistent:
        print(f"{report.theorem_id}: INCONSISTENT: bound {report.implied_bound}, "
              f"computed {report.computed_kappa}", file=sys.stderr)
        return EXIT_INCONSISTENT
    print(f"{report.theorem_id}: applicable and consistent "
          f"(bound {report.implied_bound}, computed {report.computed_kappa})",
          file=sys.stderr)
    return EXIT_OK


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_lines(cd: CosetDigraph, fmt: str) -> list[str]:
    """The lines of ``cd`` in ``fmt``, "dot" or "edges"."""
    if fmt == "dot":
        lines = ["digraph coset {"]
        for i, rep in enumerate(cd.vertices):
            lines.append(f"  v{i} [label={_dot_quote(print_cycles(rep))}];")
        for lbl in cd.labels:
            for u, row in enumerate(cd.successors(lbl)):
                lines.extend(f"  v{u} -> v{v} [label={_dot_quote(lbl)}];" for v in row)
        lines.append("}")
        return lines
    rows = [cd.successors(lbl) for lbl in cd.labels]                # "edges"
    return [f"{u} {v} {cd.labels[i]}" for u in range(len(cd.vertices))
            for v, i in sorted((v, i) for i, r in enumerate(rows) for v in r[u])]


def cmd_export(args) -> int:
    if args.format not in ("dot", "edges"):
        raise SpecError(f"unknown export format {args.format!r}; choose dot or edges")
    spec, _ = load_spec_document(args.spec)
    cd = build(spec)
    sys.stdout.write("\n".join(export_lines(cd, args.format)) + "\n")
    return EXIT_OK


def cmd_cp(args) -> int:
    params = CPParams(args.n, args.k)
    cap = _enumeration_cap({})
    spec = cp_spec(params, cap)
    if args.emit_spec:
        sys.stdout.write(json_bytes(spec_to_document(spec)))
        return EXIT_OK
    report, code = analyze_instance(spec, {}, with_timings=args.timings,
                                    verify=functools.partial(verify_cp_argument, params))
    sys.stdout.write(json_bytes(report))
    print(_summarize_analysis(report), file=sys.stderr)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's grammar, built on first use and shared by every ``main``
    call in the process: parsing leaves no state on it."""
    parser = _Parser(prog="cosetkit",
                     description="Cayley coset digraph connectivity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="build an instance and report "
                                       "connectivity, kappa, lambda and atoms")
    p.add_argument("spec")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the report "
                        "(off by default to keep output byte-deterministic)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="check one theorem's hypotheses and "
                                     "verify its conclusion")
    p.add_argument("theorem")
    p.add_argument("spec")
    p.add_argument("--partition", help="generator blocks, e.g. 'a,b|c'")
    p.add_argument("--order", help="comma-separated generator ordering")
    p.add_argument("--sprime", help="comma-separated S' labels")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", help="write the digraph as DOT or an edge list")
    p.add_argument("spec")
    p.add_argument("--format", default="dot")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("cp", help="cycle-prefix family shorthand")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-spec", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_cp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, GroupError, NotStronglyConnected, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CrossCheckError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
