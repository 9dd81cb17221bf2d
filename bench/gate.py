"""Correctness gate: what every operation's answer must satisfy.

The gate checks invariants and independently known values, never report
bytes, so a later change that reports more (atoms above 18 vertices, say)
still passes.  It runs outside the timed phase.  ``check_operation``
returns the list of problems found; an empty list means the answer holds.
"""

from __future__ import annotations

import json
from math import factorial

import networkx as nx
from networkx.algorithms.connectivity import (build_auxiliary_node_connectivity,
                                              local_node_connectivity)
from networkx.algorithms.flow import build_residual_network


def networkx_reference(edges_text: str, vertex_count: int) -> dict:
    """Strong-component count, out-degrees and kappa of an exported edge
    list, computed by networkx.

    Every coset digraph is vertex-transitive, so any ordered non-adjacent
    pair maps onto one starting at vertex 0 and kappa is the least local
    connectivity from vertex 0 (networkx's max-flow, not cosetkit's).
    """
    g = nx.DiGraph()
    g.add_nodes_from(range(vertex_count))
    for line in edges_text.splitlines():
        u, v, _ = line.split(" ", 2)
        g.add_edge(int(u), int(v))
    components = nx.number_strongly_connected_components(g)
    kappa = None
    if components == 1:
        aux = build_auxiliary_node_connectivity(g)
        residual = build_residual_network(aux, "capacity")
        kappa = g.out_degree(0)
        for w in g:
            if w != 0 and not g.has_edge(0, w):
                kappa = min(kappa, local_node_connectivity(
                    g, 0, w, auxiliary=aux, residual=residual, cutoff=kappa))
    return {"components": components, "kappa": kappa,
            "out_degrees": sorted({d for _, d in g.out_degree()})}


def _atoms_problems(atoms: dict, n: int) -> list[str]:
    problems = []
    if atoms.get("partition_ok") is not True:
        problems.append("atoms do not partition the vertices")
    found = [side for side in ("forward", "transpose") if atoms[side]["found"]]
    if not found:
        problems.append("atoms reported on neither side")
    for side in found:
        info = atoms[side]
        if info["size"] * info["count"] != n:
            problems.append(f"{side} atoms: {info['count']} x {info['size']} != |V| = {n}")
        if len(info["base_atom"]) != info["size"]:
            problems.append(f"{side} base atom does not have the reported size")
    return problems


def analyze_problems(report: dict) -> list[str]:
    """Invariants every analyze report must satisfy."""
    inst = report["instance"]
    n = inst["vertex_count"]
    if not inst["connected"]:
        problems = [f"{key} should be null when disconnected"
                    for key in ("kappa", "lambda", "atoms") if report[key] is not None]
        covered = sorted(v for comp in inst["components"] for v in comp)
        if covered != list(range(n)):
            problems.append("components do not partition the vertices")
        return problems
    problems = []
    kappa = report["kappa"]
    if not (kappa["agree"] is True and kappa["oracle"] == kappa["group_theoretic"]):
        problems.append(f"kappa routes disagree: {kappa}")
    if report["lambda"] != inst["degree"]:
        problems.append(f"lambda {report['lambda']} != degree {inst['degree']}")
    if report["atoms"] is not None:
        problems += _atoms_problems(report["atoms"], n)
    elif n <= 18 and inst["degree"] < n - 1:
        problems.append("no atoms on a connected non-complete instance of <= 18 vertices")
    return problems


def _check_command(expect: dict, code, stdout: str) -> list[str]:
    if code != expect["exit"]:
        return [f"exit {code}, expected {expect['exit']}"]
    report = json.loads(stdout)
    problems = []
    if report["theorem_id"] != expect["theorem"]:
        problems.append(f"theorem_id {report['theorem_id']!r}")
    if report["computed_kappa"] != expect["kappa"]:
        problems.append(f"computed {report['computed_kappa']}, expected {expect['kappa']}")
    if report["consistent"] is not True:
        problems.append("report is not consistent")
    holds = [h["holds"] for h in report["hypotheses"]]
    if expect["exit"] == 0:
        bound = report["implied_bound"]
        if not (report["applicable"] and all(holds)):
            problems.append("hypotheses should all hold")
        if not isinstance(bound, int) or bound > report["computed_kappa"]:
            problems.append(f"implied bound {bound} is not a valid lower bound")
    elif report["applicable"] or all(holds) or report["implied_bound"] is not None:
        problems.append("a hypothesis should fail and no bound be implied")
    return problems


def check_operation(expect: dict, result: dict, reference: dict | None = None) -> list[str]:
    """Problems with one operation's outcome.  ``reference`` holds the
    networkx answers for a random instance."""
    if result["error"] is not None:
        return [f"raised {result['error']}"]
    try:
        if expect["kind"] == "check":
            return _check_command(expect, result["code"], result["stdout"])
        if result["code"] != 0:
            return [f"exit {result['code']}, expected 0"]
        report = json.loads(result["stdout"])
        problems = analyze_problems(report)
        inst = report["instance"]
        if expect["kind"] == "cp":
            n, k = expect["n"], expect["k"]
            if inst["vertex_count"] != factorial(n) // factorial(k):
                problems.append(f"|V| = {inst['vertex_count']} != n!/k!")
            if not inst["connected"] or report["kappa"]["oracle"] != n - 1 \
                    or report["lambda"] != n - 1:
                problems.append(f"CP({n},{k}) must have kappa = lambda = {n - 1}")
        elif expect["kind"] == "random":
            if inst["vertex_count"] != expect["vertices"]:
                problems.append(f"|V| = {inst['vertex_count']} != {expect['vertices']}")
            if reference is None:
                problems.append("no networkx reference")
            elif reference["out_degrees"] != [inst["degree"]]:
                problems.append(f"out-degrees {reference['out_degrees']} != "
                                f"degree {inst['degree']}")
            elif inst["connected"]:
                if reference["components"] != 1:
                    problems.append("reported connected, networkx disagrees")
                elif report["kappa"]["oracle"] != reference["kappa"]:
                    problems.append(f"kappa {report['kappa']['oracle']} != "
                                    f"networkx {reference['kappa']}")
            elif len(inst["components"]) != reference["components"]:
                problems.append(f"{len(inst['components'])} components != "
                                f"networkx {reference['components']}")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
